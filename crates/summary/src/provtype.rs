//! Provenance types `Rk` (Sec. IV-A.1).
//!
//! `Rk(v)` maps a vertex to its k-hop neighborhood *within its own segment*;
//! two vertices are only combinable when those neighborhoods are isomorphic
//! w.r.t. the aggregate labels. We compute the type as `k` rounds of
//! Weisfeiler–Leman-style refinement — Moreau's recursive edge-label
//! concatenation \[25\], extended (as the paper demands) to be degree-aware by
//! hashing the *sorted multiset* of (direction, edge kind, neighbor type)
//! triples rather than the concatenation alone.
//!
//! The refinement runs in dense rank space: each segment vertex is named by
//! its position in `segment.vertices` (its rank, found by binary search, as
//! the list is sorted), round 0 is the vertex's aggregate-label id, the
//! segment-restricted adjacency is lowered once into compressed rows of
//! `(tag, rank)` pairs ((direction, kind) packed into the tag byte), and
//! every WL round is then a plain array walk.
//!
//! Soundness: differing fingerprints imply non-isomorphic neighborhoods, so
//! refinement never merges what isomorphism would keep apart... up to 64-bit
//! hash collisions, which the equivalence key mitigates by also carrying the
//! aggregate label (see `DESIGN.md` §1, substitution notes). The standard WL
//! incompleteness (rare non-isomorphic but WL-equal neighborhoods) is
//! accepted; on the tree-like neighborhoods of provenance segments the
//! refinement is exact.

use crate::aggregation::{LabelIds, PropertyAggregation};
use crate::segment_ref::SegmentRef;
use prov_model::VertexId;
use prov_store::hash::fx_hash64;
use prov_store::ProvGraph;

/// Per-vertex provenance-type fingerprints for one segment.
#[derive(Debug, Clone)]
pub struct ProvTypes {
    /// `type_k` fingerprint of `segment.vertices[rank]`, by rank.
    pub fingerprints: Vec<u64>,
}

impl ProvTypes {
    /// Fingerprint of `v` (which must be one of the segment's vertices).
    pub fn of(&self, segment: &SegmentRef, v: VertexId) -> u64 {
        self.fingerprints[rank(segment, v)]
    }
}

/// Position of `v` in `segment.vertices`, which `SegmentRef::new` sorts and
/// dedups.
fn rank(segment: &SegmentRef, v: VertexId) -> usize {
    segment.vertices.binary_search(&v).expect("vertex belongs to the segment")
}

/// Lower the segment's edges into rank space as `(kind, src rank, dst
/// rank)`, replacing `out`'s contents.
pub(crate) fn segment_edges(
    graph: &ProvGraph,
    segment: &SegmentRef,
    out: &mut Vec<(u8, u32, u32)>,
) {
    out.clear();
    out.extend(segment.edges.iter().map(|&e| {
        let rec = graph.edge(e);
        let kind = rec.kind.as_index() as u8;
        (kind, rank(segment, rec.src) as u32, rank(segment, rec.dst) as u32)
    }));
}

/// `k` rounds of refinement over one segment in rank space: `labels[r]` is
/// rank `r`'s round-0 value, `edges` come from [`segment_edges`].
pub(crate) fn refine(labels: &[u64], edges: &[(u8, u32, u32)], k: usize) -> Vec<u64> {
    let n = labels.len();
    let mut current = labels.to_vec();
    if k == 0 {
        return current;
    }

    // Compressed rows: rank r's (tag, neighbor rank) pairs are
    // `entries[start[r]..start[r + 1]]`, with tag = direction << 3 | kind.
    // Sorting by tag keeps (direction, kind) lexicographic order, since the
    // packing is order-preserving.
    let mut start = vec![0u32; n + 1];
    for &(_, s, d) in edges {
        start[s as usize + 1] += 1;
        start[d as usize + 1] += 1;
    }
    for r in 0..n {
        start[r + 1] += start[r];
    }
    let mut fill = start.clone();
    let mut entries = vec![(0u8, 0u32); 2 * edges.len()];
    let mut put = |r: u32, entry: (u8, u32)| {
        entries[fill[r as usize] as usize] = entry;
        fill[r as usize] += 1;
    };
    for &(kind, s, d) in edges {
        put(s, (kind, d)); // direction 0: outgoing
        put(d, (1 << 3 | kind, s)); // direction 1: incoming
    }

    // Rounds 1..=k: refine by neighbor multisets — plain array walks.
    let mut next: Vec<u64> = vec![0; n];
    let mut scratch: Vec<(u8, u64)> = Vec::new();
    for _ in 0..k {
        for r in 0..n {
            scratch.clear();
            let row = &entries[start[r] as usize..start[r + 1] as usize];
            scratch.extend(row.iter().map(|&(tag, nb)| (tag, current[nb as usize])));
            scratch.sort_unstable();
            next[r] = fx_hash64(&(current[r], &scratch));
        }
        std::mem::swap(&mut current, &mut next);
    }
    current
}

/// Compute `Rk` fingerprints for the vertices of `segment`.
///
/// `k = 0` means vertices compare by aggregate label alone; `k = 1` is the
/// Fig. 2(e) setting (1-hop neighborhood).
pub fn provenance_types(
    graph: &ProvGraph,
    segment: &SegmentRef,
    aggregation: &PropertyAggregation,
    k: usize,
) -> ProvTypes {
    let mut ids = LabelIds::new(graph, aggregation);
    let labels: Vec<u64> = segment.vertices.iter().map(|&v| u64::from(ids.id(v))).collect();
    let mut edges = Vec::new();
    segment_edges(graph, segment, &mut edges);
    ProvTypes { fingerprints: refine(&labels, &edges, k) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_model::{EdgeKind, VertexKind};

    /// Two `update` activities with different shapes: u1 uses 1 entity,
    /// u2 uses 2 (the paper's update-v2 vs update-v3 example).
    fn shapes() -> (ProvGraph, SegmentRef, VertexId, VertexId) {
        let mut g = ProvGraph::new();
        let e1 = g.add_entity("e1");
        let e2 = g.add_entity("e2");
        let e3 = g.add_entity("e3");
        let u1 = g.add_activity("update");
        let u2 = g.add_activity("update");
        g.set_vprop(u1, "command", "update");
        g.set_vprop(u2, "command", "update");
        let a = g.add_edge(EdgeKind::Used, u1, e1).unwrap();
        let b = g.add_edge(EdgeKind::Used, u2, e2).unwrap();
        let c = g.add_edge(EdgeKind::Used, u2, e3).unwrap();
        let seg = SegmentRef::new(vec![e1, e2, e3, u1, u2], vec![a, b, c]);
        (g, seg, u1, u2)
    }

    #[test]
    fn k0_ignores_structure() {
        let (g, seg, u1, u2) = shapes();
        let agg = PropertyAggregation::ignore_all().with_keys(VertexKind::Activity, &["command"]);
        let t = provenance_types(&g, &seg, &agg, 0);
        assert_eq!(t.of(&seg, u1), t.of(&seg, u2));
    }

    #[test]
    fn k1_separates_different_degrees() {
        let (g, seg, u1, u2) = shapes();
        let agg = PropertyAggregation::ignore_all().with_keys(VertexKind::Activity, &["command"]);
        let t = provenance_types(&g, &seg, &agg, 1);
        assert_ne!(
            t.of(&seg, u1),
            t.of(&seg, u2),
            "degree-aware types must distinguish 1-input from 2-input updates"
        );
    }

    #[test]
    fn identical_shapes_share_types_across_rounds() {
        // Two isomorphic train rounds in one segment.
        let mut g = ProvGraph::new();
        let d1 = g.add_entity("d");
        let t1 = g.add_activity("train");
        let w1 = g.add_entity("w");
        let d2 = g.add_entity("d");
        let t2 = g.add_activity("train");
        let w2 = g.add_entity("w");
        let e1 = g.add_edge(EdgeKind::Used, t1, d1).unwrap();
        let e2 = g.add_edge(EdgeKind::WasGeneratedBy, w1, t1).unwrap();
        let e3 = g.add_edge(EdgeKind::Used, t2, d2).unwrap();
        let e4 = g.add_edge(EdgeKind::WasGeneratedBy, w2, t2).unwrap();
        let seg = SegmentRef::new(vec![d1, t1, w1, d2, t2, w2], vec![e1, e2, e3, e4]);
        let agg = PropertyAggregation::ignore_all();
        for k in 0..4 {
            let t = provenance_types(&g, &seg, &agg, k);
            assert_eq!(t.of(&seg, t1), t.of(&seg, t2), "k={k}");
            assert_eq!(t.of(&seg, d1), t.of(&seg, d2), "k={k}");
            assert_eq!(t.of(&seg, w1), t.of(&seg, w2), "k={k}");
            // Input vs output entities differ structurally for k >= 1.
            if k >= 1 {
                assert_ne!(t.of(&seg, d1), t.of(&seg, w1), "k={k}");
            }
        }
    }

    #[test]
    fn segment_locality_edges_outside_ignored() {
        // Same vertices, but the segment omits u2's second edge: then u1 and
        // u2 look identical at k=1.
        let (g, _, u1, u2) = shapes();
        let seg = SegmentRef::new(
            vec![VertexId::new(0), VertexId::new(1), u1, u2],
            vec![prov_model::EdgeId::new(0), prov_model::EdgeId::new(1)],
        );
        let agg = PropertyAggregation::ignore_all().with_keys(VertexKind::Activity, &["command"]);
        let t = provenance_types(&g, &seg, &agg, 1);
        assert_eq!(t.of(&seg, u1), t.of(&seg, u2));
    }

    #[test]
    fn direction_matters() {
        // a uses e  vs  e' generated-by a': same degree, opposite direction.
        let mut g = ProvGraph::new();
        let e1 = g.add_entity("x");
        let a1 = g.add_activity("f");
        let e2 = g.add_entity("x");
        let a2 = g.add_activity("f");
        let ed1 = g.add_edge(EdgeKind::Used, a1, e1).unwrap();
        let ed2 = g.add_edge(EdgeKind::WasGeneratedBy, e2, a2).unwrap();
        let seg = SegmentRef::new(vec![e1, a1, e2, a2], vec![ed1, ed2]);
        let t = provenance_types(&g, &seg, &PropertyAggregation::ignore_all(), 1);
        assert_ne!(t.of(&seg, e1), t.of(&seg, e2));
        assert_ne!(t.of(&seg, a1), t.of(&seg, a2));
    }

    #[test]
    fn tag_packing_keeps_direction_before_kind() {
        // The packed tag must sort all outgoing entries before all incoming
        // ones and by kind within a direction, mirroring the seed's
        // (direction, kind, fp) triple order.
        let tags: Vec<u8> =
            (0..2u8).flat_map(|dir| (0..5u8).map(move |kind| dir << 3 | kind)).collect();
        let mut sorted = tags.clone();
        sorted.sort_unstable();
        assert_eq!(tags, sorted);
    }
}
