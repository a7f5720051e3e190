//! `PgSum` — the provenance graph summarization operator (Sec. IV).
//!
//! Given a set of PgSeg segments, PgSum produces a *provenance summary graph*
//! (`Psg`) that is precise (no path labels added or lost) and concise (as few
//! vertices as possible). Optimal summarization is PSPACE-complete
//! (Theorem 4); the implemented algorithm follows the paper: approximate trace
//! equivalence with simulation preorders and merge greedily under the Lemma-5
//! conditions.
//!
//! Pipeline: [`segment_ref`] (input) → [`aggregation`] (`K`) → [`union`]
//! (`g0` with `≡kκ` classes) → [`mod@simulation`] (`≤s_in`, `≤s_out`) →
//! [`mod@merge`] (Lemma 5) → [`psg`] (output with `γ` frequencies).
//! [`mod@psum`] is the comparison baseline; [`paths`] checks the bounded
//! path-preservation invariant in tests.
//!
//! One exact partition-refinement kernel (`refine.rs`) gives both the
//! provenance types `Rk` in [`build_g0`] and pSum's blocks.

pub mod aggregation;
pub mod merge;
pub mod paths;
pub mod pgsum;
pub mod psg;
pub mod psum;
mod refine;
pub mod segment_ref;
pub mod simulation;
pub mod union;

pub use aggregation::{AggLabel, PropertyAggregation};
pub use merge::{merge, quotient, MergeResult};
pub use pgsum::{pgsum, pgsum_with_internals, psum_baseline, PgSumQuery};
pub use psg::{Psg, PsgEdge, PsgVertex};
pub use psum::{psum, PsumResult};
pub use segment_ref::SegmentRef;
pub use simulation::{simulation, SimDirection, SimRelation};
pub use union::{build_g0, ClassId, Link, G0};
