//! Shared result types for the `L(SimProv)` evaluators.

use prov_model::VertexId;
use prov_store::rank_u32;
use std::time::Duration;

/// Run statistics of a similarity evaluation.
#[derive(Debug, Clone, Copy, Default)]
pub struct EvalStats {
    /// Wall-clock time spent in the evaluator.
    pub elapsed: Duration,
    /// Work units: derived facts (CflrB/SimProvAlg), 64-bit word operations
    /// on path-length sets (SimProvTst) or materialized paths (naive).
    pub work: u64,
    /// Approximate peak heap bytes of the evaluator's tables (SimProvTst:
    /// the length arena plus its per-vertex tables, by capacity).
    pub memory_bytes: usize,
    /// True when the evaluator gave up (budget exhausted) — only the naive
    /// Cypher-style evaluator can DNF.
    pub dnf: bool,
}

/// Result of evaluating `L(SimProv)`-reachability from `Vsrc` through `Vdst`.
#[derive(Debug, Clone, Default)]
pub struct SimilarOutcome {
    /// All entities `vt` such that some source reaches `vt` through a
    /// destination on a SimProv path (sorted, deduplicated). This is the
    /// reachability answer all four evaluators must agree on.
    pub answer: Vec<VertexId>,
    /// The full `VC2` induced set — every vertex lying on an accepting path —
    /// when the evaluator derives it exactly (SimProvTst and the naive
    /// enumerator do; the pair-relation solvers return `None`).
    pub vc2: Option<Vec<VertexId>>,
    /// Run statistics.
    pub stats: EvalStats,
}

impl SimilarOutcome {
    /// Answer as a set-like sorted slice.
    pub fn answer_entities(&self) -> &[VertexId] {
        &self.answer
    }

    /// Convenience for tests: answers as raw u32s.
    pub fn answer_raw(&self) -> Vec<u32> {
        self.answer.iter().map(|v| v.raw()).collect()
    }
}

/// Collect a boolean vertex mark array into a sorted id list.
pub(crate) fn marks_to_vec(marks: &[bool]) -> Vec<VertexId> {
    marks.iter().enumerate().filter_map(|(i, &m)| m.then_some(VertexId::new(rank_u32(i)))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_round_trip() {
        let marks = vec![true, false, true, true];
        let ids = marks_to_vec(&marks);
        assert_eq!(ids.iter().map(|v| v.raw()).collect::<Vec<_>>(), vec![0, 2, 3]);
    }

    #[test]
    fn outcome_accessors() {
        let o = SimilarOutcome {
            answer: vec![VertexId::new(3), VertexId::new(5)],
            vc2: None,
            stats: EvalStats::default(),
        };
        assert_eq!(o.answer_raw(), vec![3, 5]);
        assert_eq!(o.answer_entities().len(), 2);
        assert!(!o.stats.dnf);
    }
}
