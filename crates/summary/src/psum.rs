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

use crate::union::G0;
use prov_store::hash::FxHashMap;

/// Result of the pSum baseline.
#[derive(Debug, Clone)]
pub struct PsumResult {
    /// Block id per g0 node.
    pub block_of: Vec<u32>,
    /// Number of blocks (over real nodes; virtual anchors excluded).
    pub block_count: usize,
    /// Compaction ratio `|blocks| / |g0|`.
    pub compaction_ratio: f64,
    /// Refinement iterations until fixpoint.
    pub iterations: usize,
}

/// A refinement signature: (own block, out-(kind, block) set, in-(kind, block) set).
type BlockSignature = (u32, Vec<(u8, u32)>, Vec<(u8, u32)>);

/// Run the pSum baseline on `g0`.
pub fn psum(g0: &G0) -> PsumResult {
    let n = g0.len();
    if n == 0 {
        return PsumResult {
            block_of: Vec::new(),
            block_count: 0,
            compaction_ratio: 1.0,
            iterations: 0,
        };
    }
    // Virtual anchors: start = n, end = n + 1.
    let start = n;
    let end = n + 1;
    let total = n + 2;
    let mut out_adj: Vec<Vec<(u8, u32)>> = vec![Vec::new(); total];
    let mut in_adj: Vec<Vec<(u8, u32)>> = vec![Vec::new(); total];
    for (v, row) in out_adj.iter_mut().enumerate().take(n) {
        for l in g0.out_links(v as u32) {
            row.push((l.kind(), l.node()));
            in_adj[l.node() as usize].push((l.kind(), v as u32));
        }
    }
    const VIRT: u8 = 255;
    for v in 0..n {
        if g0.in_links(v as u32).is_empty() {
            out_adj[start].push((VIRT, v as u32));
            in_adj[v].push((VIRT, start as u32));
        }
        if g0.out_links(v as u32).is_empty() {
            out_adj[v].push((VIRT, end as u32));
            in_adj[end].push((VIRT, v as u32));
        }
    }

    // Initial partition: class labels; anchors get unique blocks.
    let mut block: Vec<u32> = (0..total)
        .map(|v| {
            if v == start {
                u32::MAX - 1
            } else if v == end {
                u32::MAX
            } else {
                g0.class(v as u32).0
            }
        })
        .collect();
    // Densify initial ids.
    let mut remap: FxHashMap<u32, u32> = FxHashMap::default();
    for b in block.iter_mut() {
        let next = remap.len() as u32;
        *b = *remap.entry(*b).or_insert(next);
    }

    // Refinement: signature = (block, sorted out (kind, child block),
    // sorted in (kind, parent block)); split until stable.
    let mut iterations = 0usize;
    loop {
        iterations += 1;
        let mut sigs: Vec<BlockSignature> = Vec::with_capacity(total);
        for v in 0..total {
            let mut outs: Vec<(u8, u32)> =
                out_adj[v].iter().map(|&(k, d)| (k, block[d as usize])).collect();
            outs.sort_unstable();
            outs.dedup();
            let mut ins: Vec<(u8, u32)> =
                in_adj[v].iter().map(|&(k, p)| (k, block[p as usize])).collect();
            ins.sort_unstable();
            ins.dedup();
            sigs.push((block[v], outs, ins));
        }
        let mut sig_ids: FxHashMap<&BlockSignature, u32> = FxHashMap::default();
        let mut next_block: Vec<u32> = Vec::with_capacity(total);
        for sig in &sigs {
            let next = sig_ids.len() as u32;
            next_block.push(*sig_ids.entry(sig).or_insert(next));
        }
        if next_block == block {
            break;
        }
        block = next_block;
    }

    // Count blocks over real nodes only. Ids are dense after the last
    // refinement pass, so a marker array beats a tree set.
    let total_blocks = block.iter().max().map_or(0, |&b| b as usize + 1);
    let mut seen = vec![false; total_blocks];
    let mut block_count = 0usize;
    for &b in block.iter().take(n) {
        if !std::mem::replace(&mut seen[b as usize], true) {
            block_count += 1;
        }
    }
    PsumResult {
        block_of: block[..n].to_vec(),
        block_count,
        compaction_ratio: block_count as f64 / n as f64,
        iterations,
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
