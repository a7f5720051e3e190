//! `prov-core`: the user-facing crate of the reproduction.
//!
//! Ties the substrates together into the system of Fig. 1: a lifecycle
//! provenance database ([`ProvDb`]) with ingestion and the two query
//! operators, plus builders for the paper's running examples.
//!
//! ```
//! use prov_core::{ProvDb, ActivityRecord, OutputSpec};
//! use prov_segment::{PgSegQuery, PgSegOptions};
//!
//! let mut db = ProvDb::new();
//! let alice = db.add_agent("alice").unwrap();
//! let data = db.add_artifact_version("dataset", Some(alice)).unwrap();
//! let run = db.record_activity(ActivityRecord {
//!     command: "train".into(),
//!     agent: Some(alice),
//!     inputs: vec![data],
//!     outputs: vec![OutputSpec::named("weights").with("acc", 0.7)],
//!     props: vec![],
//! }).unwrap();
//! let seg = db.segment(
//!     PgSegQuery::between(vec![data], vec![run.outputs[0]]),
//!     &PgSegOptions::default(),
//! ).unwrap();
//! assert!(seg.contains(run.activity));
//! ```

pub mod example_graph;
pub mod lineage;
pub mod provdb;

pub use example_graph::{fig2, fig3, Example};
pub use lineage::{
    ancestry_edges, compile_lineage, lineage_reference, LineageBound, LineageDirection,
};
pub use provdb::{
    ActivityOutcome, ActivityRecord, OutputSpec, ProvDb, SnapshotCounters, SnapshotPolicy,
};

// Durability surface (re-exported so service/bench layers need not name
// prov-store directly).
pub use prov_store::storage::{DurabilityCounters, DurabilityPolicy};

// Re-export the operator crates under one roof for downstream convenience.
pub use prov_bitset as bitset;
pub use prov_cfl as cfl;
pub use prov_model as model;
pub use prov_segment as segment;
pub use prov_store as store;
pub use prov_summary as summary;
pub use prov_workload as workload;
