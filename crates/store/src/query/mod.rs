//! Composable query IR over frozen CSR snapshots (DESIGN.md §9).
//!
//! Every fixed-shape read path of the reproduction — lineage closures,
//! k-hop rings, property lookups, star-pattern reachability — is one
//! instance of the same step pipeline:
//!
//! ```text
//! StartSet → (Traverse | Filter | Limit)* → Project
//! ```
//!
//! * [`ir`] — the pipeline grammar itself: serde-ready value types with no
//!   behaviour, so a pipeline can cross the wire verbatim;
//! * [`plan`] — validation/normalization ([`Plan::compile`]) plus the
//!   lowering constructors that translate each legacy read path into a
//!   pipeline ([`Pipeline::find_by_prop`], [`plan::lower_pattern`]; the
//!   lineage lowering lives next to its bound types in `prov-core`);
//! * [`eval`] — the single traversal engine and the repo's one parallel
//!   path: epoch-stamped scratch, chunked level-parallel frontiers
//!   (byte-identical at any chunk count), and a bounded-replay mode that
//!   re-evaluates a pipeline against an older snapshot watermark of the
//!   same append-only log;
//! * [`cursor`] — stable resumable cursors: a snapshot watermark plus a
//!   rank watermark over the sorted row set, so pagination survives
//!   concurrent ingest.
//!
//! The legacy sequential paths stay alive as *differential references* (the
//! `alg_reference` pattern): proptests pin the IR evaluation byte-identical
//! to `ProvGraph::find_by_prop` and `pattern::match_paths` at every chunk
//! count, and compiled lineage to a definitional level-BFS oracle that is
//! itself pinned to the seed walk `prov_core::lineage_reference`.

pub mod cursor;
pub mod eval;
pub mod ir;
pub mod plan;

pub use cursor::{paginate, Page, QueryCursor};
pub use eval::{evaluate, evaluate_at, evaluate_with_frontier_min, QueryOutput, QueryStats};
pub use ir::{Pipeline, Project, PropFilter, StartSet, Step, Traverse};
pub use plan::{lower_pattern, Plan};
