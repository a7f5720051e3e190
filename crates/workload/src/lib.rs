//! Synthetic workload generators reproducing the paper's datasets (Sec. V).
//!
//! Real-world lifecycle provenance corpora are tiny or private, so the paper
//! evaluates on two synthetic generators, both reimplemented here with the
//! published parameterization:
//!
//! * [`pd`] — `Pd` collaborative-project provenance graphs for PgSeg
//!   experiments (Fig. 5(a)–(d));
//! * [`sd`] — `Sd` Markov-chain segment sets for PgSum experiments
//!   (Fig. 5(e)–(h));
//! * [`stream`] — the `Pd` workload as a deterministic *ingest stream*
//!   (batched activity records against a live store) for the `benchmark/`
//!   write workloads and the `10b` cold-start figure;
//! * [`dist`] — the underlying Zipf / Poisson / Gamma / Dirichlet samplers
//!   (built on `rand`, which provides none of them).

pub mod dist;
pub mod pd;
pub mod sd;
pub mod stream;

pub use dist::{categorical, dirichlet, gamma, poisson, standard_normal, ZipfTable};
pub use pd::{generate_pd, pd_segments, sources_at_percentile, standard_query, PdParams};
pub use sd::{generate_sd, SdOutput, SdParams, SdSegment};
pub use stream::{ActivityStream, StreamActivity, StreamParams};
