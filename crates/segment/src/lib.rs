//! `PgSeg` — the provenance graph segmentation operator (Sec. III).
//!
//! PgSeg answers "how are these destination entities generated from these
//! source entities?" on an evolving provenance graph with no workflow skeleton:
//! a 3-tuple query `(Vsrc, Vdst, B)` inducing a connected subgraph with four
//! vertex categories (direct paths, similar paths, siblings, agents) under
//! flexible boundary criteria.
//!
//! Module map:
//!
//! * [`query`] — the operator: query type, options, two-step evaluation
//!   session ([`query::PgSegSession`]), one-shot [`query::pgseg`];
//! * [`boundary`] — exclusion predicates (`Bv`/`Be`) and expansions (`Bx`);
//! * [`view`] — masked traversal view shared by all algorithms;
//! * [`direct`] — `VC1` (vertices on direct paths);
//! * [`tst`] — `SimProvTst`, the per-destination evaluator over bit-parallel
//!   path-length sets with exact `VC2` induction (the one induction runs);
//! * [`alg`] — `SimProvAlg`, the rewritten-grammar worklist algorithm with
//!   symmetry pruning and early stopping (pair-encoded flat worklist);
//! * [`alg_reference`] — the seed `VecDeque` SimProvAlg loop, frozen as the
//!   differential/benchmark reference for the rewrite;
//! * [`cflr_baseline`] — generic CflrB on the Fig. 6 normal form (baseline);
//! * [`naive`] — Cypher-style enumerate-and-join (baseline of baselines);
//! * [`induce`] / [`segment_graph`] — assembly of the segment `S(VS, ES)`.

// narrowing-cast: every truncating `as` carries an `#[expect]` naming why the
// value fits.
#![warn(clippy::cast_possible_truncation)]

pub mod alg;
pub mod alg_reference;
pub mod boundary;
pub mod cflr_baseline;
pub mod direct;
pub mod induce;
pub mod naive;
pub mod outcome;
pub mod query;
pub mod segment_graph;
pub mod tst;
pub mod view;

pub use alg::{
    similar_alg, similar_alg_bitset, similar_alg_cbm, AlgConfig, ConstraintTable, SimilarConstraint,
};
pub use alg_reference::{
    similar_alg_reference, similar_alg_reference_bitset, similar_alg_reference_cbm,
};
pub use boundary::{Boundary, EdgePred, Expansion, Mask, VertexPred};
pub use cflr_baseline::{similar_cflr, GrammarForm};
pub use direct::{direct_path_exists, direct_path_vertices};
pub use naive::{similar_naive, similar_naive_constrained, NaiveBudget};
pub use outcome::{EvalStats, SimilarOutcome};
pub use query::{
    evaluate_similarity, pgseg, PgSegOptions, PgSegQuery, PgSegSession, SimilarEvaluator,
};
pub use segment_graph::{Categories, SegmentGraph};
pub use tst::{similar_tst, TstConfig};
pub use view::MaskedGraph;
