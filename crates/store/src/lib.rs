//! Embedded property graph store for provenance graphs.
//!
//! This crate is the Neo4j substitute of the reproduction (see `DESIGN.md` §1):
//! an in-memory, id-addressed property graph satisfying the backend assumptions
//! of the paper's query evaluation (Sec. III-B): constant-time vertex/edge
//! access by id and linear-time adjacency in both directions.
//!
//! * [`graph::ProvGraph`] — the mutable store (vertices, edges, schema-later
//!   properties, kind/name indexes, PROV validation).
//! * [`csr::ProvIndex`] — the CSR index with per-relationship typed adjacency
//!   used by the query operators, refreshed from the graph's delta.
//! * [`pattern`] — Cypher-flavoured path patterns, wire sugar that
//!   [`query::lower_pattern`] compiles onto the IR or refuses.
//! * [`query`] — the composable query IR every read path compiles into:
//!   step pipelines over CSR snapshots with resumable cursors.
//! * [`json`] — PROV-JSON-style import/export.
//! * [`storage`] — the durable write-ahead log with snapshot compaction,
//!   crash recovery and deterministic fault injection.
//! * [`hash`], [`interner`] — supporting infrastructure.

// narrowing-cast: the seed silently wrapped ids past u32::MAX, so every
// truncating `as` here carries an `#[expect]` naming why the value fits.
#![warn(clippy::cast_possible_truncation)]

pub mod csr;
pub mod error;
pub mod graph;
pub mod hash;
pub mod index;
pub mod interner;
pub mod json;
pub mod pattern;
pub mod query;
pub mod storage;

pub use csr::{Csr, Direction, ProvIndex, SharedIndex};
pub use error::{StoreError, StoreResult};
pub use graph::{
    rank_u32, DeltaCursor, EdgeRecord, GraphDelta, GraphStats, ProvGraph, VertexRecord, WalOp,
};
pub use pattern::{NodeSpec, PathPattern, PatternDir, RelSpec};
pub use query::{
    evaluate, evaluate_at, lower_pattern, paginate, Page, Pipeline, Plan, Project, PropFilter,
    QueryCursor, QueryOutput, QueryStats, StartSet, Step, Traverse,
};
pub use storage::{
    DurabilityCounters, DurabilityPolicy, FailpointIo, FaultPlan, Io, IoError, MemIo, Recovered,
    StdIo, WalStorage,
};
