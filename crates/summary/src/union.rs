//! Vertex equivalence `≡kκ` and the initial summary graph `g0 = ⋃ᵢ Sᵢ`.
//!
//! Each segment vertex becomes one `g0` node labeled by its equivalence class
//! under `≡kκ` (same kind, same visible property values, same provenance
//! type). `g0` itself is a valid Psg — the merging phase only improves on it.

use crate::aggregation::{AggLabel, PropertyAggregation};
use crate::provtype::{provenance_types_ranked, segment_ranks};
use crate::segment_ref::SegmentRef;
use prov_model::VertexId;
use prov_store::hash::FxHashMap;
use prov_store::ProvGraph;

/// Dense id of an equivalence class of `≡kκ`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassId(pub u32);

/// A node of `g0`: one vertex instance of one segment.
#[derive(Debug, Clone)]
pub struct G0Node {
    /// Which segment the instance comes from.
    pub segment: u32,
    /// The underlying graph vertex.
    pub vertex: VertexId,
    /// Equivalence class (`ρ` label).
    pub class: ClassId,
}

/// The disjoint union of the input segments, class-labeled.
#[derive(Debug, Clone, Default)]
pub struct G0 {
    /// Nodes (instances).
    pub nodes: Vec<G0Node>,
    /// Outgoing adjacency: `(edge kind index, node)` pairs.
    pub out_adj: Vec<Vec<(u8, u32)>>,
    /// Incoming adjacency.
    pub in_adj: Vec<Vec<(u8, u32)>>,
    /// Number of input segments.
    pub segment_count: usize,
    /// A representative aggregate label per class (for rendering).
    pub class_labels: Vec<AggLabel>,
    /// A representative display name per class.
    pub class_names: Vec<String>,
}

impl G0 {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Class of node `i`.
    #[inline]
    pub fn class(&self, i: u32) -> ClassId {
        self.nodes[i as usize].class
    }

    /// Number of distinct classes.
    pub fn class_count(&self) -> usize {
        self.class_labels.len()
    }
}

/// Build `g0` from segments under the aggregation `K` and provenance type
/// radius `k`.
pub fn build_g0(
    graph: &ProvGraph,
    segments: &[SegmentRef],
    aggregation: &PropertyAggregation,
    k: usize,
) -> G0 {
    let mut nodes: Vec<G0Node> = Vec::new();
    let mut class_ids: FxHashMap<(AggLabel, u64), ClassId> = FxHashMap::default();
    let mut class_labels: Vec<AggLabel> = Vec::new();
    let mut class_names: Vec<String> = Vec::new();
    // Rank spaces: node index of (segment si, local rank r) is
    // `seg_base[si] + r`, so the edge pass below needs no per-(segment,
    // vertex) map — only each segment's rank assignment, built once and
    // shared with the type refinement.
    let mut seg_base: Vec<u32> = Vec::with_capacity(segments.len());
    let mut seg_ranks: Vec<FxHashMap<VertexId, u32>> = Vec::with_capacity(segments.len());
    // Refinement over the disjoint union of the segments is stable after as
    // many rounds as it has vertices, and class ids follow first appearance,
    // so any larger `k` yields the same `g0` — without running its rounds.
    let k = k.min(segments.iter().map(|s| s.vertices.len()).sum());

    for (si, seg) in segments.iter().enumerate() {
        let ranks = segment_ranks(seg);
        let types = provenance_types_ranked(graph, seg, &ranks, aggregation, k);
        seg_base.push(nodes.len() as u32);
        seg_ranks.push(ranks);
        for (r, &v) in seg.vertices.iter().enumerate() {
            let agg = aggregation.label(graph, v);
            let key = (agg.clone(), types[r]);
            let next_id = ClassId(class_labels.len() as u32);
            let class = *class_ids.entry(key).or_insert_with(|| {
                class_labels.push(agg);
                class_names.push(graph.display_name(v));
                next_id
            });
            nodes.push(G0Node { segment: si as u32, vertex: v, class });
        }
    }

    let mut out_adj: Vec<Vec<(u8, u32)>> = vec![Vec::new(); nodes.len()];
    let mut in_adj: Vec<Vec<(u8, u32)>> = vec![Vec::new(); nodes.len()];
    for (si, seg) in segments.iter().enumerate() {
        let (base, ranks) = (seg_base[si], &seg_ranks[si]);
        for &e in &seg.edges {
            let rec = graph.edge(e);
            let s = base + ranks[&rec.src];
            let d = base + ranks[&rec.dst];
            out_adj[s as usize].push((rec.kind.as_index() as u8, d));
            in_adj[d as usize].push((rec.kind.as_index() as u8, s));
        }
    }

    G0 { nodes, out_adj, in_adj, segment_count: segments.len(), class_labels, class_names }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_model::{EdgeKind, VertexKind};

    /// Two segments, each `d <-U- train <-G- w`, with distinct underlying
    /// vertices but identical shapes and commands.
    fn twin_segments() -> (ProvGraph, Vec<SegmentRef>) {
        let mut g = ProvGraph::new();
        let mut segs = Vec::new();
        for i in 0..2 {
            let d = g.add_entity(&format!("d{i}"));
            let t = g.add_activity("train");
            g.set_vprop(t, "command", "train");
            let w = g.add_entity(&format!("w{i}"));
            let e1 = g.add_edge(EdgeKind::Used, t, d).unwrap();
            let e2 = g.add_edge(EdgeKind::WasGeneratedBy, w, t).unwrap();
            segs.push(SegmentRef::new(vec![d, t, w], vec![e1, e2]));
        }
        (g, segs)
    }

    #[test]
    fn g0_has_one_node_per_segment_vertex() {
        let (g, segs) = twin_segments();
        let g0 = build_g0(&g, &segs, &PropertyAggregation::ignore_all(), 1);
        assert_eq!(g0.len(), 6);
        assert_eq!(g0.segment_count, 2);
        // Adjacency matches segment edges (2 per segment).
        let total_out: usize = g0.out_adj.iter().map(|a| a.len()).sum();
        assert_eq!(total_out, 4);
    }

    #[test]
    fn classes_unify_across_segments() {
        let (g, segs) = twin_segments();
        let g0 = build_g0(&g, &segs, &PropertyAggregation::ignore_all(), 1);
        // 3 classes: input entity, train activity, output entity.
        assert_eq!(g0.class_count(), 3);
        // Corresponding vertices of the two segments share classes.
        assert_eq!(g0.class(0), g0.class(3));
        assert_eq!(g0.class(1), g0.class(4));
        assert_eq!(g0.class(2), g0.class(5));
        // But input and output entities differ (k = 1 structure).
        assert_ne!(g0.class(0), g0.class(2));
    }

    #[test]
    fn aggregation_splits_classes() {
        let (mut g, mut segs) = twin_segments();
        // Give the second train a different command and make it visible.
        let t2 = segs[1].vertices[1];
        assert_eq!(g.vertex_kind(t2), VertexKind::Activity);
        g.set_vprop(t2, "command", "finetune");
        let agg = PropertyAggregation::ignore_all().with_keys(VertexKind::Activity, &["command"]);
        let g0 = build_g0(&g, &segs, &agg, 0);
        // Activities now in different classes; entities still shared.
        assert_ne!(g0.class(1), g0.class(4));
        segs.truncate(1);
        let g0_single = build_g0(&g, &segs, &agg, 0);
        assert_eq!(g0_single.segment_count, 1);
    }

    #[test]
    fn k_zero_merges_input_and_output_entities() {
        let (g, segs) = twin_segments();
        let g0 = build_g0(&g, &segs, &PropertyAggregation::ignore_all(), 0);
        // Without structural types all entities are one class.
        assert_eq!(g0.class(0), g0.class(2));
        assert_eq!(g0.class_count(), 2);
    }
}
