//! `pSum` baseline: answer-graph summarization via two-way bisimulation.
//!
//! The paper compares PgSum against pSum (Wu et al., "Summarizing answer
//! graphs induced by keyword queries", VLDB'13), adapted to segments by
//! introducing a conceptual `(start, end)` keyword pair connected to all
//! 0-in-degree / 0-out-degree vertices (Sec. V). The original implementation
//! is unavailable; per DESIGN.md we reimplement its grouping as the quotient
//! under *forward+backward bisimulation* anchored at the virtual keywords —
//! a path-preserving partition that is strictly more conservative than
//! PgSum's Lemma-5 simulation merging. Consequently
//! `cr(PgSum) ≤ cr(pSum)` on every input, which is the qualitative
//! relationship Fig. 5(e)–(h) reports (PgSum ≈ half the pSum size).
//!
//! The anchors are not materialized. Each stays a block of its own, so its
//! only trace in a node's signature is that the node is a root (or a
//! leaf), and an empty in- (or out-) key set already says so. pSum is
//! therefore one call of the refinement kernel over `g0`'s own rows: set
//! keys, from the class partition, to the fixpoint. It reaches the anchored
//! coarsest stable refinement, with the same first-appearance `block_of`.

use crate::refine::{refine, Neighbours};
use crate::union::G0;

/// Result of the pSum baseline.
#[derive(Debug, Clone)]
pub struct PsumResult {
    /// Block id per g0 node, dense in first-appearance order.
    pub block_of: Vec<u32>,
    /// Number of blocks.
    pub block_count: usize,
    /// Compaction ratio `|blocks| / |g0|`.
    pub compaction_ratio: f64,
}

/// Run the pSum baseline on `g0`.
pub fn psum(g0: &G0) -> PsumResult {
    let classes = g0.nodes.iter().map(|node| node.class.0);
    let (block_of, block_count) = refine(classes, &g0.out, &g0.inc, Neighbours::Set, usize::MAX);
    let n = g0.len();
    PsumResult {
        compaction_ratio: if n == 0 { 1.0 } else { block_count as f64 / n as f64 },
        block_of,
        block_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregation::PropertyAggregation;
    use crate::merge::merge;
    use crate::segment_ref::SegmentRef;
    use crate::union::build_g0;
    use prov_model::EdgeKind;
    use prov_store::ProvGraph;

    fn twins(n_segments: usize) -> G0 {
        let mut g = ProvGraph::new();
        let mut segs = Vec::new();
        for i in 0..n_segments {
            let d = g.add_entity(&format!("d{i}"));
            let t = g.add_activity("t");
            let w = g.add_entity(&format!("w{i}"));
            let e1 = g.add_edge(EdgeKind::Used, t, d).unwrap();
            let e2 = g.add_edge(EdgeKind::WasGeneratedBy, w, t).unwrap();
            segs.push(SegmentRef::new(vec![d, t, w], vec![e1, e2]));
        }
        build_g0(&g, &segs, &PropertyAggregation::ignore_all(), 1)
    }

    #[test]
    fn identical_segments_fully_merge() {
        let g0 = twins(4);
        let res = psum(&g0);
        assert_eq!(res.block_count, 3);
        assert!((res.compaction_ratio - 3.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn bisimulation_is_finer_than_pgsum() {
        // Mixed shapes: add a truncated segment.
        let mut g = ProvGraph::new();
        let mut segs = Vec::new();
        for i in 0..2 {
            let d = g.add_entity(&format!("d{i}"));
            let t = g.add_activity("t");
            let w = g.add_entity(&format!("w{i}"));
            let e1 = g.add_edge(EdgeKind::Used, t, d).unwrap();
            let e2 = g.add_edge(EdgeKind::WasGeneratedBy, w, t).unwrap();
            segs.push(SegmentRef::new(vec![d, t, w], vec![e1, e2]));
        }
        let d = g.add_entity("dx");
        let t = g.add_activity("t");
        let e1 = g.add_edge(EdgeKind::Used, t, d).unwrap();
        segs.push(SegmentRef::new(vec![d, t], vec![e1]));
        let g0 = build_g0(&g, &segs, &PropertyAggregation::ignore_all(), 0);

        let ps = psum(&g0);
        let pg = merge(&g0);
        assert!(
            pg.group_count <= ps.block_count,
            "PgSum ({}) must compact at least as well as pSum ({})",
            pg.group_count,
            ps.block_count
        );
    }

    #[test]
    fn blocks_respect_classes() {
        let g0 = twins(3);
        let res = psum(&g0);
        for v in 0..g0.len() as u32 {
            for u in 0..g0.len() as u32 {
                if res.block_of[v as usize] == res.block_of[u as usize] {
                    assert_eq!(g0.class(v), g0.class(u));
                }
            }
        }
    }

    #[test]
    fn empty_input() {
        let g = ProvGraph::new();
        let g0 = build_g0(&g, &[], &PropertyAggregation::ignore_all(), 1);
        let res = psum(&g0);
        assert_eq!(res.block_count, 0);
        assert_eq!(res.compaction_ratio, 1.0);
    }

    #[test]
    fn anchor_positioning_distinguishes_roots_from_interior() {
        // Chain d <- t <- w  vs  lone entity x: x touches both anchors.
        let mut g = ProvGraph::new();
        let d = g.add_entity("d");
        let t = g.add_activity("t");
        let w = g.add_entity("w");
        let e1 = g.add_edge(EdgeKind::Used, t, d).unwrap();
        let e2 = g.add_edge(EdgeKind::WasGeneratedBy, w, t).unwrap();
        let x = g.add_entity("x");
        let s1 = SegmentRef::new(vec![d, t, w], vec![e1, e2]);
        let s2 = SegmentRef::new(vec![x], vec![]);
        let g0 = build_g0(&g, &[s1, s2], &PropertyAggregation::ignore_all(), 0);
        let res = psum(&g0);
        // x (both 0-in and 0-out) cannot share a block with d or w.
        let (bx, bd, bw) = (res.block_of[3], res.block_of[0], res.block_of[2]);
        assert_ne!(bx, bd);
        assert_ne!(bx, bw);
    }
}
