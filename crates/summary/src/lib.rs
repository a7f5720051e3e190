//! `PgSum` — the provenance graph summarization operator (Sec. IV).
//!
//! Given a set of PgSeg segments, PgSum produces a *provenance summary graph*
//! (`Psg`) that is precise (no path labels added or lost) and concise (as few
//! vertices as possible). Optimal summarization is PSPACE-complete
//! (Theorem 4); the implemented algorithm follows the paper: approximate trace
//! equivalence with simulation preorders and merge greedily under the Lemma-5
//! conditions.
//!
//! Pipeline: [`segment_ref`] (input) → [`aggregation`] (`K`) + [`provtype`]
//! (`Rk`) → [`union`] (`g0` with `≡kκ` classes) → [`mod@simulation`]
//! (`≤s_in`, `≤s_out`) → [`mod@merge`] (Lemma 5) → [`psg`] (output with `γ`
//! frequencies). [`mod@psum`] is the comparison baseline; [`paths`] checks
//! the bounded path-preservation invariant in tests.

pub mod aggregation;
pub mod merge;
pub mod merge_reference;
pub mod paths;
pub mod pgsum;
pub mod provtype;
pub mod psg;
pub mod psum;
pub mod segment_ref;
pub mod simulation;
pub mod simulation_reference;
pub mod union;

pub use aggregation::{AggLabel, PropertyAggregation};
pub use merge::{merge, quotient, MergeResult};
pub use merge_reference::merge_reference;
pub use pgsum::{pgsum, pgsum_reference, pgsum_with_internals, psum_baseline, PgSumQuery};
pub use provtype::{provenance_types, ProvTypes};
pub use psg::{Psg, PsgEdge, PsgVertex};
pub use psum::{psum, PsumResult};
pub use segment_ref::SegmentRef;
pub use simulation::{simulation, SimDirection, SimRelation};
pub use simulation_reference::simulation_reference;
pub use union::{build_g0, ClassId, G0};
