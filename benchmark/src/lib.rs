//! End-to-end wire benchmark of the provenance service, with per-layer
//! attribution.
//!
//! One request is timed from serialized bytes in to serialized bytes out
//! (`ProvService::handle_json`); a separate traced repetition attributes the
//! time to envelope decode, snapshot acquisition, plan, kernel, DTO + encode,
//! WAL append, fsync and compaction. See `benchmark/README.md` for the
//! workloads, the metrics and how to read them.

pub mod harness;
pub mod io;
pub mod metrics;
pub mod program;
pub mod report;
pub mod stats;
pub mod trace;
