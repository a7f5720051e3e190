//! Vertex equivalence `≡kκ` and the initial summary graph `g0 = ⋃ᵢ Sᵢ`.
//!
//! Each segment vertex becomes one `g0` node labeled by its equivalence class
//! under `≡kκ` (same kind, same visible property values, same provenance
//! type). `g0` itself is a valid Psg — the merging phase only improves on it.
//!
//! A [`G0`] is flat: its nodes are one array and each adjacency is one
//! compressed row array of packed [`Link`]s, so neither `build_g0` nor
//! [`crate::merge::quotient`] allocates per node.

use crate::aggregation::{LabelIds, PropertyAggregation};
use crate::refine::{refine, Neighbours};
use crate::segment_ref::SegmentRef;
use prov_model::VertexId;
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

/// One adjacency entry: a neighbor node and the edge kind, packed into one
/// word as `node << 3 | kind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Link(u32);

impl Link {
    /// Pack `(kind, node)`; `kind` must be an `EdgeKind` index (below 8) and
    /// `node` below 2²⁹.
    #[inline]
    pub fn new(kind: u8, node: u32) -> Link {
        debug_assert!(kind < 8 && node < 1 << 29, "link ({kind}, {node}) out of range");
        Link(node << 3 | u32::from(kind))
    }

    /// The edge kind index.
    #[inline]
    pub fn kind(self) -> u8 {
        (self.0 & 7) as u8
    }

    /// The neighbor node.
    #[inline]
    pub fn node(self) -> u32 {
        self.0 >> 3
    }
}

/// Compressed rows: node `v`'s links are `links[start[v]..start[v + 1]]`.
#[derive(Debug, Clone, Default)]
pub(crate) struct Adjacency {
    start: Vec<u32>,
    links: Vec<Link>,
}

impl Adjacency {
    /// One row per item of `rows`, in order.
    pub(crate) fn from_rows<R: IntoIterator<Item = Link>>(
        rows: impl Iterator<Item = R>,
    ) -> Adjacency {
        let mut adjacency = Adjacency { start: vec![0], links: Vec::new() };
        for row in rows {
            adjacency.links.extend(row);
            adjacency.start.push(adjacency.links.len() as u32);
        }
        adjacency
    }

    /// One row per node `0..n` from sorted [`edge_key`]s: node `v`'s row is
    /// the `Link`s of the keys whose source is `v`, in key order.
    fn from_sorted_keys(n: usize, keys: &[u64]) -> Adjacency {
        assert!(n <= 1 << 29, "{n} nodes do not fit a link");
        let mut start = vec![0u32; n + 1];
        for &key in keys {
            start[(key >> 32) as usize + 1] += 1;
        }
        for v in 0..n {
            start[v + 1] += start[v];
        }
        Adjacency { start, links: keys.iter().map(|&key| Link(key as u32)).collect() }
    }

    #[inline]
    pub(crate) fn row(&self, v: u32) -> &[Link] {
        &self.links[self.start[v as usize] as usize..self.start[v as usize + 1] as usize]
    }

    /// The reverse edges: `w`'s row holds `(k, v)` for every `(k, w)` in
    /// `v`'s row, in ascending `v`, so every reversed row is sorted by
    /// node.
    pub(crate) fn reversed(&self) -> Adjacency {
        let n = self.start.len() - 1;
        let mut start = vec![0u32; n + 1];
        for l in &self.links {
            start[l.node() as usize + 1] += 1;
        }
        for v in 0..n {
            start[v + 1] += start[v];
        }
        let mut fill = start.clone();
        let mut links = vec![Link(0); self.links.len()];
        for v in 0..n as u32 {
            for l in self.row(v) {
                let slot = &mut fill[l.node() as usize];
                links[*slot as usize] = Link::new(l.kind(), v);
                *slot += 1;
            }
        }
        Adjacency { start, links }
    }
}

/// The disjoint union of the input segments, class-labeled.
#[derive(Debug, Clone, Default)]
pub struct G0 {
    /// Nodes (instances).
    pub nodes: Vec<G0Node>,
    pub(crate) out: Adjacency,
    pub(crate) inc: Adjacency,
    /// Number of input segments.
    pub segment_count: usize,
    class_count: usize,
}

/// An edge `src →kind dst` packed as one sortable key: `src` in the high
/// word, the `Link` to `dst` in the low one.
#[inline]
pub(crate) fn edge_key(src: u32, kind: u8, dst: u32) -> u64 {
    u64::from(src) << 32 | u64::from(Link::new(kind, dst).0)
}

impl G0 {
    /// Assemble a `G0` from its nodes and edges `(src, kind, dst)`; repeated
    /// edges are kept once. Every class id must be below `class_count`, and
    /// every kind below 8.
    pub fn new(
        nodes: Vec<G0Node>,
        edges: impl IntoIterator<Item = (u32, u8, u32)>,
        segment_count: usize,
        class_count: usize,
    ) -> G0 {
        assert!(
            nodes.iter().all(|node| (node.class.0 as usize) < class_count),
            "a node's class is not below class_count {class_count}"
        );
        let keys = edges
            .into_iter()
            .map(|(s, k, d)| {
                assert!(k < 8, "edge kind {k} does not fit a link");
                edge_key(s, k, d)
            })
            .collect();
        G0::from_keys(nodes, keys, segment_count, class_count)
    }

    /// [`G0::new`] over [`edge_key`]s: sort and dedup them, then lay out
    /// both adjacencies (out-rows ordered by `(dst, kind)`, in-rows by
    /// `(src, kind)`).
    pub(crate) fn from_keys(
        nodes: Vec<G0Node>,
        mut keys: Vec<u64>,
        segment_count: usize,
        class_count: usize,
    ) -> G0 {
        keys.sort_unstable();
        keys.dedup();
        let out = Adjacency::from_sorted_keys(nodes.len(), &keys);
        let inc = out.reversed();
        G0 { nodes, out, inc, segment_count, class_count }
    }

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
        self.class_count
    }

    /// Number of (distinct) edges.
    pub fn edge_count(&self) -> usize {
        self.out.links.len()
    }

    /// Outgoing edges of `v`: `(kind, dst)` links.
    #[inline]
    pub fn out_links(&self, v: u32) -> &[Link] {
        self.out.row(v)
    }

    /// Incoming edges of `v`: `(kind, src)` links.
    #[inline]
    pub fn in_links(&self, v: u32) -> &[Link] {
        self.inc.row(v)
    }
}

/// Build `g0` from segments under the aggregation `K` and provenance type
/// radius `k`.
///
/// Each vertex's aggregate label is interned once to a dense id; the
/// classes are `k` rounds of multiset refinement from those ids over g0's
/// rows. g0 is the disjoint union of the segments, so that is a round per
/// segment, with one first-appearance numbering for all of them. A type
/// counts every edge, so the rows are refined before a repeat is dropped.
pub fn build_g0(
    graph: &ProvGraph,
    segments: &[SegmentRef],
    aggregation: &PropertyAggregation,
    k: usize,
) -> G0 {
    let total: usize = segments.iter().map(|s| s.vertices.len()).sum();
    let mut label_ids = LabelIds::new(graph, aggregation);
    let mut nodes: Vec<G0Node> = Vec::with_capacity(total);
    let mut keys: Vec<u64> = Vec::new();
    for (si, seg) in segments.iter().enumerate() {
        // The node of the segment's rank-`r` vertex is `base + r`.
        let base = nodes.len() as u32;
        let node = |v: VertexId| {
            let rank = seg.vertices.binary_search(&v).expect("vertex belongs to the segment");
            base + rank as u32
        };
        keys.extend(seg.edges.iter().map(|&e| {
            let rec = graph.edge(e);
            edge_key(node(rec.src), rec.kind.as_index() as u8, node(rec.dst))
        }));
        for &vertex in &seg.vertices {
            // Until the refinement, a node's class holds its label id.
            let class = ClassId(label_ids.id(vertex));
            nodes.push(G0Node { segment: si as u32, vertex, class });
        }
    }
    keys.sort_unstable();
    let out = Adjacency::from_sorted_keys(nodes.len(), &keys);
    let inc = out.reversed();
    let labels = nodes.iter().map(|node| node.class.0);
    let (class, class_count) = refine(labels, &out, &inc, Neighbours::Multiset, k);
    for (node, c) in nodes.iter_mut().zip(class) {
        node.class = ClassId(c);
    }
    // g0 keeps a repeated edge once: only then are its rows laid out anew.
    if keys.windows(2).any(|w| w[0] == w[1]) {
        return G0::from_keys(nodes, keys, segments.len(), class_count);
    }
    G0 { nodes, out, inc, segment_count: segments.len(), class_count }
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
        assert_eq!(g0.edge_count(), 4);
    }

    /// The twin rounds share classes at every k, as two segments and as
    /// two rounds of one segment.
    #[test]
    fn classes_unify_across_segments() {
        let (g, segs) = twin_segments();
        let one = SegmentRef::new(g.vertex_ids().collect(), g.edge_ids().collect());
        for (k, segs) in (1..4).flat_map(|k| [(k, &segs[..]), (k, std::slice::from_ref(&one))]) {
            let g0 = build_g0(&g, segs, &PropertyAggregation::ignore_all(), k);
            // 3 classes: input entity, train activity, output entity.
            assert_eq!(g0.class_count(), 3, "k={k}");
            // Corresponding vertices of the two rounds share classes.
            assert_eq!(g0.class(0), g0.class(3));
            assert_eq!(g0.class(1), g0.class(4));
            assert_eq!(g0.class(2), g0.class(5));
            // But input and output entities differ (k >= 1 structure).
            assert_ne!(g0.class(0), g0.class(2));
        }
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

    /// A parallel edge counts twice in the type, though `g0` keeps it once:
    /// `u_dup` uses `e0` through two edge ids, `u_one` uses `e1`, `u_two`
    /// uses `e2` and `e3`. At k = 1, `u_dup` has `u_two`'s shape (two
    /// entity inputs), not `u_one`'s, and `e0` (used twice) is apart from
    /// the entities used once.
    #[test]
    fn parallel_edges_count_twice_in_the_type() {
        let mut g = ProvGraph::new();
        let e: Vec<VertexId> = (0..4).map(|i| g.add_entity(&format!("e{i}"))).collect();
        let u: Vec<VertexId> = (0..3).map(|_| g.add_activity("update")).collect();
        let edges = [(u[0], e[0]), (u[0], e[0]), (u[1], e[1]), (u[2], e[2]), (u[2], e[3])]
            .map(|(a, x)| g.add_edge(EdgeKind::Used, a, x).unwrap());
        let seg = SegmentRef::new([&e[..], &u[..]].concat(), edges.to_vec());
        let g0 = build_g0(&g, &[seg], &PropertyAggregation::ignore_all(), 1);
        let classes: Vec<u32> = g0.nodes.iter().map(|node| node.class.0).collect();
        assert_eq!(classes, [0, 1, 1, 1, 2, 3, 2]);
        assert_eq!(g0.edge_count(), 4);
    }

    #[test]
    fn k_zero_merges_input_and_output_entities() {
        let (g, segs) = twin_segments();
        let g0 = build_g0(&g, &segs, &PropertyAggregation::ignore_all(), 0);
        // Without structural types all entities are one class.
        assert_eq!(g0.class(0), g0.class(2));
        assert_eq!(g0.class_count(), 2);
    }

    /// k = 0 ignores structure; from k = 1 the types are degree-aware, and
    /// they see only the segment's own edges. Two `update` activities of
    /// different degrees: u1 (vertex 3) uses e0, u2 (vertex 4) uses e1 and
    /// e2, the paper's update-v2 vs update-v3 example. Edge i is the i-th use.
    #[test]
    fn degrees_separate_types_from_k1() {
        let mut g = ProvGraph::new();
        let e = [0, 1, 2].map(|i| g.add_entity(&format!("e{i}")));
        let [u1, u2] = [0, 1].map(|_| {
            let a = g.add_activity("update");
            g.set_vprop(a, "command", "update");
            a
        });
        for (a, x) in [(u1, e[0]), (u2, e[1]), (u2, e[2])] {
            g.add_edge(EdgeKind::Used, a, x).unwrap();
        }
        let agg = PropertyAggregation::ignore_all().with_keys(VertexKind::Activity, &["command"]);
        let segment = |vs: &[u32], uses: u32| {
            let edges = (0..uses).map(prov_model::EdgeId::new).collect();
            [SegmentRef::new(vs.iter().map(|&v| VertexId::new(v)).collect(), edges)]
        };
        for k in [0, 1] {
            let g0 = build_g0(&g, &segment(&[0, 1, 2, 3, 4], 3), &agg, k);
            assert_eq!(g0.class(3) == g0.class(4), k == 0, "k={k}: 1-input vs 2-input update");
        }
        // Without e2 and u2's second use, the two updates look alike.
        let g0 = build_g0(&g, &segment(&[0, 1, 3, 4], 2), &agg, 1);
        assert_eq!(g0.class(2), g0.class(3));
    }

    #[test]
    fn direction_matters() {
        // a uses e  vs  e' generated-by a': same degree, opposite direction.
        let mut g = ProvGraph::new();
        let vs = [g.add_entity("x"), g.add_activity("f"), g.add_entity("x"), g.add_activity("f")];
        let edges = vec![
            g.add_edge(EdgeKind::Used, vs[1], vs[0]).unwrap(),
            g.add_edge(EdgeKind::WasGeneratedBy, vs[2], vs[3]).unwrap(),
        ];
        let seg = SegmentRef::new(vs.to_vec(), edges);
        let g0 = build_g0(&g, &[seg], &PropertyAggregation::ignore_all(), 1);
        assert_ne!(g0.class(0), g0.class(2));
        assert_ne!(g0.class(1), g0.class(3));
    }
}
