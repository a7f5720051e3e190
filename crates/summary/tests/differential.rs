//! Differential suite for PgSum's simulation and merge phases:
//!
//! * the children-first [`simulation`] sweep over class-local rows ≡ the
//!   naive pair fixpoint ([`simulation_naive`]), in both directions, on
//!   `g0`s built from random segments, on raw, mostly cyclic `G0`s, and at
//!   the rows' edges (singleton classes, one class of every node, classes of
//!   64 and 65 members);
//! * [`merge`] ≡ a test-local merge that recomputes both relations with
//!   [`simulation_naive`] on a fresh [`quotient`] before every round: the
//!   same `group_of` labels on random segments, raw `G0`s and fig6's `Sd`
//!   generator;
//! * [`psum`] ≡ the bisimulation it was first written as, with the two
//!   virtual keyword anchors materialized: the same `block_of` on raw `G0`s
//!   and on every quick-scale fig6 input;
//! * [`build_g0`]'s classes ≡ the per-segment provenance-type refinement
//!   they are defined as, node for node, and the same partition whatever
//!   the order of the segments.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use prov_model::{EdgeKind, VertexId, VertexKind};
use prov_store::hash::FxHashMap;
use prov_store::ProvGraph;
use prov_summary::simulation::{simulation, simulation_naive, SimDirection};
use prov_summary::union::G0Node;
use prov_summary::{
    build_g0, merge, pgsum, psum, quotient, AggLabel, ClassId, MergeResult, PgSumQuery,
    PropertyAggregation, Psg, SegmentRef, G0,
};
use prov_workload::{generate_pd, generate_sd, pd_segments, PdParams, SdParams};
use std::collections::BTreeMap;

/// Plan for one segment: a chain/DAG of `steps` activities over `k` activity
/// type labels, each consuming 1–2 previous entities and producing 0–2
/// (0-output steps create truncated shapes, the interesting case for
/// condition-3 domination merges).
#[derive(Debug, Clone)]
struct SegmentPlan {
    steps: Vec<(u8, Vec<prop::sample::Index>, usize)>, // (type, inputs, outputs)
}

fn segment_plan(max_types: u8) -> impl Strategy<Value = SegmentPlan> {
    proptest::collection::vec(
        (0..max_types, proptest::collection::vec(any::<prop::sample::Index>(), 1..3), 0..3usize),
        1..7,
    )
    .prop_map(|steps| SegmentPlan { steps })
}

/// Materialize segments into one backing graph.
fn build(plans: &[SegmentPlan]) -> (ProvGraph, Vec<SegmentRef>) {
    let mut g = ProvGraph::new();
    let mut segs = Vec::new();
    for plan in plans {
        let mut vertices: Vec<VertexId> = Vec::new();
        let mut edges = Vec::new();
        let seed = g.add_entity("seed");
        g.set_vprop(seed, "filename", "seed");
        let mut entities = vec![seed];
        vertices.push(seed);
        for (ty, inputs, outputs) in &plan.steps {
            let a = g.add_activity(&format!("op{ty}"));
            g.set_vprop(a, "command", format!("op{ty}"));
            vertices.push(a);
            let mut used = std::collections::BTreeSet::new();
            for idx in inputs {
                used.insert(*idx.get(&entities));
            }
            for e in used {
                edges.push(g.add_edge(EdgeKind::Used, a, e).unwrap());
            }
            for oi in 0..*outputs {
                let e = g.add_entity(&format!("f{oi}"));
                g.set_vprop(e, "filename", format!("f{oi}"));
                edges.push(g.add_edge(EdgeKind::WasGeneratedBy, e, a).unwrap());
                entities.push(e);
                vertices.push(e);
            }
        }
        segs.push(SegmentRef::new(vertices, edges));
    }
    (g, segs)
}

fn g0s(plans: &[SegmentPlan]) -> Vec<G0> {
    let (g, segs) = build(plans);
    // Coarse classes (k = 0) give the simulation the most candidates to
    // strike; k = 1 exercises the rank-space WL types.
    vec![
        build_g0(&g, &segs, &PropertyAggregation::ignore_all(), 0),
        build_g0(&g, &segs, &PgSumQuery::fig2e().aggregation, 1),
    ]
}

/// The merge phase by its definition: before every round, recompute both
/// relations with [`simulation_naive`] on the quotient so far. Unions and
/// group ids follow the same rules as [`merge`]: `≃` groups join, a
/// condition-3 round joins only its first dominated pair, and ids are dense
/// in first-appearance order over the original nodes.
fn merge_oracle(g0: &G0) -> Vec<u32> {
    fn find(root: &mut [u32], x: u32) -> u32 {
        let mut r = x;
        while root[r as usize] != r {
            r = root[r as usize];
        }
        root[x as usize] = r;
        r
    }
    let n0 = g0.len();
    let mut group_of: Vec<u32> = (0..n0 as u32).collect();
    let mut gcount = n0;
    loop {
        let mut any = false;
        for round in 0..3 {
            let q = quotient(g0, &group_of, gcount);
            let le_in = simulation_naive(&q, SimDirection::In);
            let le_out = simulation_naive(&q, SimDirection::Out);
            let mut root: Vec<u32> = (0..gcount as u32).collect();
            'pairs: for u in 0..gcount {
                for v in 0..gcount {
                    let join = match round {
                        0 => le_in[u][v] && le_in[v][u],
                        1 => le_out[u][v] && le_out[v][u],
                        _ => u != v && le_in[u][v] && le_out[u][v],
                    };
                    if join {
                        let (a, b) = (find(&mut root, u as u32), find(&mut root, v as u32));
                        root[a as usize] = b;
                        if round == 2 && a != b {
                            break 'pairs;
                        }
                    }
                }
            }
            let mut dense: FxHashMap<u32, u32> = FxHashMap::default();
            for g in group_of.iter_mut() {
                let r = find(&mut root, *g);
                let next = dense.len() as u32;
                *g = *dense.entry(r).or_insert(next);
            }
            any |= dense.len() < gcount;
            gcount = dense.len();
        }
        if !any {
            return group_of;
        }
    }
}

/// A `G0` drawn directly, not built from segments: arbitrary edges over two
/// kinds, so self-loops, multi-edges and cycles all occur (a quotient can
/// have them; a `build_g0` output never does).
fn raw_g0(class_of: &[u32], classes: usize, edges: &[(usize, u8, usize)]) -> G0 {
    let nodes = class_of
        .iter()
        .enumerate()
        .map(|(i, &c)| G0Node { segment: 0, vertex: VertexId::new(i as u32), class: ClassId(c) })
        .collect();
    G0::new(nodes, edges.iter().map(|&(s, k, d)| (s as u32, k, d as u32)), 1, classes)
}

/// True when `g0`'s edges contain a cycle (Kahn leaves a node behind).
fn is_cyclic(g0: &G0) -> bool {
    let mut children: Vec<usize> = (0..g0.len() as u32).map(|v| g0.out_links(v).len()).collect();
    let mut ready: Vec<usize> = (0..g0.len()).filter(|&v| children[v] == 0).collect();
    let mut done = 0;
    while let Some(v) = ready.pop() {
        done += 1;
        for l in g0.in_links(v as u32) {
            let p = l.node() as usize;
            children[p] -= 1;
            if children[p] == 0 {
                ready.push(p);
            }
        }
    }
    done < g0.len()
}

/// pSum's blocks by their first definition: a `start` anchor with an edge
/// to every root and an `end` anchor with an edge from every leaf, each in
/// a block of its own, then forward+backward signature refinement over
/// copied adjacency lists until the ids stop changing.
fn psum_oracle(g0: &G0) -> Vec<u32> {
    const VIRT: u8 = 255;
    let n = g0.len();
    let (start, end, total) = (n, n + 1, n + 2);
    let mut out_adj: Vec<Vec<(u8, u32)>> = vec![Vec::new(); total];
    let mut in_adj: Vec<Vec<(u8, u32)>> = vec![Vec::new(); total];
    for (v, row) in out_adj.iter_mut().enumerate().take(n) {
        for l in g0.out_links(v as u32) {
            row.push((l.kind(), l.node()));
            in_adj[l.node() as usize].push((l.kind(), v as u32));
        }
    }
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
    fn dense<K: std::hash::Hash + Eq>(keys: Vec<K>) -> Vec<u32> {
        let mut ids = FxHashMap::default();
        keys.into_iter()
            .map(|k| {
                let next = ids.len() as u32;
                *ids.entry(k).or_insert(next)
            })
            .collect()
    }
    let initial = (0..total).map(|v| match v {
        _ if v == start => u32::MAX - 1,
        _ if v == end => u32::MAX,
        _ => g0.class(v as u32).0,
    });
    let mut block = dense(initial.collect());
    loop {
        let signature = |adj: &[(u8, u32)], block: &[u32]| {
            let mut sig: Vec<(u8, u32)> =
                adj.iter().map(|&(k, u)| (k, block[u as usize])).collect();
            sig.sort_unstable();
            sig.dedup();
            sig
        };
        let sigs: Vec<_> = (0..total)
            .map(|v| (block[v], signature(&out_adj[v], &block), signature(&in_adj[v], &block)))
            .collect();
        let next = dense(sigs);
        if next == block {
            return block[..n].to_vec();
        }
        block = next;
    }
}

/// `psum` equals the anchored oracle on raw graphs of up to 14 nodes,
/// 3 classes and `3n` edges (cycles, self-loops and multi-edges included),
/// and on every quick-scale fig6 input: 6a's `Sd` sets of |S| = 5–40, 6b's
/// of n = 10–40, and 6c's 12-activity windows of `Pd` 2,000, under fig6's
/// query (activities by command, k = 1).
#[test]
fn psum_matches_the_anchored_oracle() {
    let mut rng = TestRng::deterministic("differential::psum_matches_the_anchored_oracle");
    for case in 0..1_024 {
        let n = (1..15usize).sample(&mut rng);
        let classes = (1..4usize).sample(&mut rng);
        let class_of = proptest::collection::vec(0..classes as u32, n..n + 1).sample(&mut rng);
        let edges = proptest::collection::vec((0..n, 0..2u8, 0..n), 0..3 * n + 1).sample(&mut rng);
        let g0 = raw_g0(&class_of, classes, &edges);
        assert_eq!(psum(&g0).block_of, psum_oracle(&g0), "case {case}: edges={edges:?}");
    }

    let aggregation =
        PropertyAggregation::ignore_all().with_keys(VertexKind::Activity, &["command"]);
    let check = |name: String, graph: &ProvGraph, segments: Vec<prov_workload::SdSegment>| {
        let segments: Vec<SegmentRef> =
            segments.into_iter().map(|s| SegmentRef::new(s.vertices, s.edges)).collect();
        let g0 = build_g0(graph, &segments, &aggregation, 1);
        assert_eq!(psum(&g0).block_of, psum_oracle(&g0), "{name} ({} g0 nodes)", g0.len());
    };
    for (num_segments, n) in [(5, 20), (10, 20), (20, 20), (40, 20), (10, 10), (10, 40)] {
        let sd = generate_sd(&SdParams { num_segments, n, ..SdParams::default() });
        check(format!("Sd |S|={num_segments} n={n}"), &sd.graph, sd.segments);
    }
    let pd = generate_pd(&PdParams::with_size(2_000));
    for count in [4, 8, 16, 32] {
        check(format!("Pd2000 |S|={count}"), &pd, pd_segments(&pd, 12, count));
    }
}

/// `build_g0`'s classes by their definition: `k` rounds of degree-aware WL
/// from the aggregate labels, run per segment over its raw `ProvGraph`
/// edges, so a parallel edge counts twice. Keys are compared, not hashed;
/// one id map per round serves every segment, in (segment, vertex) order.
fn g0_classes_oracle(
    graph: &ProvGraph,
    segments: &[SegmentRef],
    aggregation: &PropertyAggregation,
    k: usize,
) -> Vec<u32> {
    let mut labels: Vec<AggLabel> = Vec::new();
    let mut label_id = |v: VertexId| {
        let label = aggregation.label(graph, v);
        if !labels.contains(&label) {
            labels.push(label.clone());
        }
        labels.iter().position(|l| *l == label).unwrap() as u32
    };
    let mut ids: Vec<Vec<u32>> =
        segments.iter().map(|seg| seg.vertices.iter().map(|&v| label_id(v)).collect()).collect();
    for _ in 0..k {
        let mut round: BTreeMap<(u32, Vec<(u8, u32)>), u32> = BTreeMap::new();
        ids = segments
            .iter()
            .zip(&ids)
            .map(|(seg, id)| {
                let rank = |v: VertexId| seg.vertices.binary_search(&v).unwrap();
                let mut rows = vec![Vec::new(); id.len()];
                for rec in seg.edges.iter().map(|&e| graph.edge(e)) {
                    let kind = rec.kind.as_index() as u8;
                    rows[rank(rec.src)].push((kind, id[rank(rec.dst)]));
                    rows[rank(rec.dst)].push((1 << 3 | kind, id[rank(rec.src)]));
                }
                let class = |(mut row, &own): (Vec<(u8, u32)>, &u32)| {
                    row.sort_unstable();
                    let next = round.len() as u32;
                    *round.entry((own, row)).or_insert(next)
                };
                rows.into_iter().zip(id).map(class).collect()
            })
            .collect();
    }
    ids.concat()
}

/// Segments drawn at random over one graph of up to 24 vertices of all
/// three kinds: edges of every kind, parallel ones and `WasDerivedFrom`
/// self-loops included. A segment keeps each edge and each vertex with
/// probability 3/4, and the ends of its edges; a vertex may lie in several.
fn raw_segments(rng: &mut TestRng) -> (ProvGraph, Vec<SegmentRef>) {
    let mut g = ProvGraph::new();
    let n = 1 + rng.below(24);
    for _ in 0..n {
        let v = g.add_vertex(VertexKind::ALL[rng.below(3) as usize], None).unwrap();
        g.set_vprop(v, "command", format!("op{}", rng.below(2)));
    }
    let mut edges = Vec::new();
    for _ in 0..rng.below(3 * n + 1) {
        let [src, dst] = [0, 1].map(|_| VertexId::new(rng.below(n) as u32));
        // At most one edge kind fits a pair of vertex kinds.
        let ends = (g.vertex_kind(src), g.vertex_kind(dst));
        if let Some(&kind) = EdgeKind::ALL.iter().find(|kind| kind.endpoints() == ends) {
            for _ in 0..1 + rng.below(2) {
                edges.push(g.add_edge(kind, src, dst).unwrap());
            }
        }
    }
    let segments = (0..1 + rng.below(4))
        .map(|_| {
            let kept: Vec<_> = edges.iter().copied().filter(|_| rng.below(4) != 0).collect();
            let ends = kept.iter().flat_map(|&e| [g.edge(e).src, g.edge(e).dst]);
            let members = g.vertex_ids().filter(|_| rng.below(4) != 0).chain(ends).collect();
            SegmentRef::new(members, kept)
        })
        .collect();
    (g, segments)
}

/// `build_g0`'s classes equal [`g0_classes_oracle`] node for node at
/// k = 0, 1, 2 and 64 (past every input's fixpoint): on 512 raw segment
/// sets with parallel and multi-kind edges, on 64 sets of `segment_plan`
/// segments, and on every quick-scale fig6 input (6a's `Sd` sets of
/// |S| = 5–40, 6b's of n = 10–40, 6c's 12-activity windows of `Pd` 2,000).
#[test]
fn g0_classes_match_the_per_segment_refinement() {
    let ignore_all = PropertyAggregation::ignore_all();
    let by_command = ignore_all.clone().with_keys(VertexKind::Activity, &["command"]);
    let fig2e = PropertyAggregation::fig2e();
    let check = |name: &str, graph: &ProvGraph, segments: &[SegmentRef], aggs: &[&_]| {
        for (agg, k) in aggs.iter().flat_map(|agg| [0, 1, 2, 64].map(|k| (agg, k))) {
            let classes: Vec<u32> =
                build_g0(graph, segments, agg, k).nodes.iter().map(|node| node.class.0).collect();
            assert_eq!(classes, g0_classes_oracle(graph, segments, agg, k), "{name} k={k}");
        }
    };
    let mut rng =
        TestRng::deterministic("differential::g0_classes_match_the_per_segment_refinement");
    for case in 0..512 {
        let (g, segments) = raw_segments(&mut rng);
        check(&format!("case {case}: {segments:?}"), &g, &segments, &[&ignore_all, &by_command]);
    }
    for case in 0..64 {
        let (g, segments) =
            build(&proptest::collection::vec(segment_plan(3), 1..5).sample(&mut rng));
        check(&format!("plans {case}: {segments:?}"), &g, &segments, &[&ignore_all, &fig2e]);
    }
    let fig6 = |segments: Vec<prov_workload::SdSegment>| -> Vec<SegmentRef> {
        segments.into_iter().map(|s| SegmentRef::new(s.vertices, s.edges)).collect()
    };
    for (num_segments, n) in [(5, 20), (10, 20), (20, 20), (40, 20), (10, 10), (10, 40)] {
        let sd = generate_sd(&SdParams { num_segments, n, ..SdParams::default() });
        let name = format!("Sd |S|={num_segments} n={n}");
        check(&name, &sd.graph, &fig6(sd.segments), &[&by_command]);
    }
    let pd = generate_pd(&PdParams::with_size(2_000));
    for count in [4, 8, 16, 32] {
        let name = format!("Pd2000 |S|={count}");
        check(&name, &pd, &fig6(pd_segments(&pd, 12, count)), &[&by_command]);
    }
}

/// The refinement runs over the union of the segments, yet a class is a
/// property of one (segment, vertex) pair: reversing or rotating the
/// segments renumbers the classes but must not regroup the pairs. Checked
/// on 256 raw segment sets and 256 `segment_plan` sets, at k = 0, 1 and 64.
#[test]
fn g0_partition_ignores_segment_order() {
    let mut rng = TestRng::deterministic("differential::g0_partition_ignores_segment_order");
    let fig2e = PropertyAggregation::fig2e();
    for case in 0..512 {
        let (g, segs) = match case % 2 {
            0 => raw_segments(&mut rng),
            _ => build(&proptest::collection::vec(segment_plan(3), 1..6).sample(&mut rng)),
        };
        let n = segs.len();
        let identity: Vec<usize> = (0..n).collect();
        let reversed = (0..n).rev().collect();
        for order in [reversed, (1..=n).map(|i| i % n).collect::<Vec<_>>()] {
            let permuted: Vec<SegmentRef> = order.iter().map(|&i| segs[i].clone()).collect();
            for k in [0, 1, 64] {
                // The partition of the (original segment index, vertex)
                // pairs, numbered by first appearance in pair order.
                let partition = |segments: &[SegmentRef], original: &[usize]| {
                    let g0 = build_g0(&g, segments, &fig2e, k);
                    let pair = |node: &G0Node| (original[node.segment as usize], node.vertex);
                    let by_pair: BTreeMap<_, _> =
                        g0.nodes.iter().map(|node| (pair(node), node.class.0)).collect();
                    let mut ids = BTreeMap::new();
                    let id = |c| {
                        let next = ids.len();
                        *ids.entry(c).or_insert(next)
                    };
                    by_pair.into_values().map(id).collect::<Vec<_>>()
                };
                let (a, b) = (partition(&segs, &identity), partition(&permuted, &order));
                assert_eq!(a, b, "case {case} k={k} order={order:?}");
            }
        }
    }
}

/// `simulation` equals the naive pair fixpoint, in both directions, on raw
/// graphs of up to 14 nodes, 3 classes and `3n` edges. Most of them are
/// cyclic, which is where a children-first order runs out and the relation
/// must still reach its greatest fixpoint.
#[test]
fn simulation_matches_naive_on_raw_cyclic_g0s() {
    const CASES: usize = 1_024;
    let mut rng =
        TestRng::deterministic("differential::simulation_matches_naive_on_raw_cyclic_g0s");
    let mut cyclic = 0;
    for case in 0..CASES {
        let n = (1..15usize).sample(&mut rng);
        let classes = (1..4usize).sample(&mut rng);
        let class_of = proptest::collection::vec(0..classes as u32, n..n + 1).sample(&mut rng);
        let edges = proptest::collection::vec((0..n, 0..2u8, 0..n), 0..3 * n + 1).sample(&mut rng);
        let g0 = raw_g0(&class_of, classes, &edges);
        cyclic += is_cyclic(&g0) as usize;
        for dir in [SimDirection::Out, SimDirection::In] {
            let fast = simulation(&g0, dir);
            let naive = simulation_naive(&g0, dir);
            for v in 0..n as u32 {
                for u in 0..n as u32 {
                    assert_eq!(
                        fast.le(v, u),
                        naive[v as usize][u as usize],
                        "case {case}: dir={dir:?} v={v} u={u} class_of={class_of:?} \
                         edges={edges:?}"
                    );
                }
            }
        }
        assert_eq!(merge(&g0).group_of, merge_oracle(&g0), "case {case}: edges={edges:?}");
    }
    assert!(2 * cyclic > CASES, "only {cyclic} of {CASES} cases are cyclic");
}

/// Class-local rows at their edges: every class a singleton (one-bit rows),
/// one class holding every node (rows as wide as the graph), and classes of
/// exactly 64 and 65 members (a row that fills one word, and one that spills
/// a bit into a second). Members of the two-class shapes interleave, so a
/// node's position in its class differs from its id. Half the graphs are
/// DAGs (edges run to lower ids), half arbitrary.
#[test]
fn class_local_simulation_matches_naive_at_row_edges() {
    let shapes: [(&str, Vec<u32>); 4] = [
        ("singletons", (0..40).collect()),
        ("one class", vec![0; 70]),
        ("64 members", (0..128).map(|i| i % 2).collect()),
        ("65 members", (0..130).map(|i| i % 2).collect()),
    ];
    let mut rng =
        TestRng::deterministic("differential::class_local_simulation_matches_naive_at_row_edges");
    for (shape, class_of) in shapes {
        let n = class_of.len();
        let classes = class_of.iter().max().map_or(0, |&c| c as usize + 1);
        for case in 0..8 {
            let mut edges =
                proptest::collection::vec((0..n, 0..2u8, 0..n), n / 2..2 * n).sample(&mut rng);
            if case % 2 == 0 {
                edges.retain(|&(s, _, d)| s > d);
            }
            let g0 = raw_g0(&class_of, classes, &edges);
            for dir in [SimDirection::Out, SimDirection::In] {
                let fast = simulation(&g0, dir);
                let naive = simulation_naive(&g0, dir);
                for v in 0..n as u32 {
                    for u in 0..n as u32 {
                        assert_eq!(
                            fast.le(v, u),
                            naive[v as usize][u as usize],
                            "{shape} case {case}: dir={dir:?} v={v} u={u}"
                        );
                    }
                }
            }
        }
    }
}

/// `merge` equals the recompute oracle on fig6's `Sd` inputs (Markov chains
/// over 5 activity types; activities by command) at k = 0 and k = 1: the
/// smallest 6a point (|S| = 5, n = 20), the smallest 6b point (|S| = 10,
/// n = 10) and a set of short chains. The oracle runs the naive fixpoint
/// before every round, so larger points are left to the proptests' shapes.
#[test]
fn merge_matches_the_oracle_on_sd_inputs() {
    let aggregation =
        PropertyAggregation::ignore_all().with_keys(VertexKind::Activity, &["command"]);
    for (num_segments, n) in [(5, 20), (10, 10), (8, 5)] {
        let sd = generate_sd(&SdParams { num_segments, n, ..SdParams::default() });
        let segs: Vec<SegmentRef> = sd
            .segments
            .iter()
            .map(|s| SegmentRef::new(s.vertices.clone(), s.edges.clone()))
            .collect();
        for k in [0, 1] {
            let g0 = build_g0(&sd.graph, &segs, &aggregation, k);
            assert_eq!(
                merge(&g0).group_of,
                merge_oracle(&g0),
                "|S|={num_segments} n={n} k={k} ({} g0 nodes)",
                g0.len()
            );
        }
    }
}

/// After a `≃in` round, `merge` must drop `≤out`, not project it onto the
/// quotient: a merged node has the union of its members' children, so the
/// `≤out` row of any one member can be wrong for it. This graph (one class,
/// two edge kinds, cyclic) tells the two apart: projecting leaves node 0
/// alone; recomputing merges all four. Found by mutating `merge` to
/// project and searching raw `G0`s; about 2 in a million random ones of up
/// to 11 nodes hit it, so it is pinned here rather than left to sampling.
#[test]
fn merge_recomputes_out_simulation_after_an_in_equivalence_round() {
    let edges =
        [(2, 1, 2), (3, 0, 3), (1, 0, 3), (1, 0, 2), (0, 1, 1), (2, 1, 1), (0, 0, 2), (3, 0, 2)];
    let g0 = raw_g0(&[0; 4], 1, &edges);
    assert_eq!(merge_oracle(&g0), [0; 4]);
    assert_eq!(merge(&g0).group_of, [0; 4]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sweep_simulation_matches_naive(
        plans in proptest::collection::vec(segment_plan(3), 1..5),
    ) {
        for g0 in g0s(&plans) {
            for dir in [SimDirection::Out, SimDirection::In] {
                let fast = simulation(&g0, dir);
                let naive = simulation_naive(&g0, dir);
                for v in 0..g0.len() as u32 {
                    for u in 0..g0.len() as u32 {
                        prop_assert_eq!(
                            fast.le(v, u),
                            naive[v as usize][u as usize],
                            "dir={:?} v={} u={}", dir, v, u
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn simulation_is_a_preorder(
        plans in proptest::collection::vec(segment_plan(3), 1..4),
    ) {
        for g0 in g0s(&plans) {
            let n = g0.len() as u32;
            for dir in [SimDirection::Out, SimDirection::In] {
                let rel = simulation(&g0, dir);
                for v in 0..n {
                    prop_assert!(rel.le(v, v), "reflexive at {}", v);
                }
                // Transitivity: u ≤ v ∧ v ≤ w ⟹ u ≤ w.
                for u in 0..n {
                    for v in 0..n {
                        if !rel.le(u, v) {
                            continue;
                        }
                        for w in 0..n {
                            if rel.le(v, w) {
                                prop_assert!(rel.le(u, w), "{} ≤ {} ≤ {}", u, v, w);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn merge_matches_the_recompute_oracle(
        plans in proptest::collection::vec(segment_plan(3), 1..5),
    ) {
        for g0 in g0s(&plans) {
            prop_assert_eq!(merge(&g0).group_of, merge_oracle(&g0));
        }
    }

    #[test]
    fn pgsum_end_to_end_matches_the_oracle_summary(
        plans in proptest::collection::vec(segment_plan(2), 1..4),
    ) {
        let (g, segs) = build(&plans);
        for q in [PgSumQuery::new(PropertyAggregation::ignore_all(), 0), PgSumQuery::fig2e()] {
            let g0 = build_g0(&g, &segs, &q.aggregation, q.k);
            let group_of = merge_oracle(&g0);
            let group_count = group_of.iter().max().map_or(0, |&m| m as usize + 1);
            let oracle = Psg::from_merge(&g, &g0, &MergeResult { group_of, group_count, rounds: 0 });
            let psg = pgsum(&g, &segs, &q);
            prop_assert_eq!(psg.vertex_count(), oracle.vertex_count());
            prop_assert_eq!(psg.edge_count(), oracle.edge_count());
            prop_assert!((psg.compaction_ratio() - oracle.compaction_ratio()).abs() < 1e-12);
        }
    }
}
