//! Fidelity test for Sec. III-B's handcrafted Cypher query (Query 1).
//!
//! The paper expresses the `L(SimProv)` query in Cypher with two path
//! variables joined node-by-node. We reproduce that query plan through the
//! store's pattern-matching engine — materialize `p1` (destination→source
//! ancestry paths) and `p2` (all destination-anchored ancestry paths), join
//! on label sequences per anchor — and check that it computes exactly the
//! same answers as the four operator evaluators.

use prov_core::fig2;
use prov_model::{EdgeKind, VertexId, VertexKind};
use prov_segment::{evaluate_similarity, MaskedGraph, PgSegOptions};
use prov_store::{Budget, NodeSpec, PathPattern, PatternDir, RelSpec};
use prov_store::{Direction, Pipeline, Plan, PropFilter, ProvGraph, ProvIndex};

/// Execute the paper's Query 1 plan: enumerate both path variables and join.
fn cypher_query1(graph: &ProvGraph, vsrc: &[VertexId], vdst: &[VertexId]) -> Vec<VertexId> {
    let ancestry = [EdgeKind::Used, EdgeKind::WasGeneratedBy];

    // match p1 = (b:E)<-[:U|G*]-(e1:E) where id(b) in Vsrc, id(e1) in Vdst
    let p1_pattern =
        PathPattern::node(NodeSpec::of_kind(VertexKind::Entity).with_ids(vsrc.to_vec())).then(
            RelSpec::star(&ancestry, PatternDir::Backward, 0, RelSpec::UNBOUNDED),
            NodeSpec::of_kind(VertexKind::Entity).with_ids(vdst.to_vec()),
        );
    let p1 = prov_store::pattern::match_paths(graph, &p1_pattern, Budget::default());
    assert!(p1.is_complete());

    // match p2 = (c:E)<-[:U|G*]-(e2:E) where id(e2) in Vdst
    let p2_pattern =
        PathPattern::node(NodeSpec::of_kind(VertexKind::Entity).with_ids(vdst.to_vec())).then(
            RelSpec::star(&ancestry, PatternDir::Forward, 0, RelSpec::UNBOUNDED),
            NodeSpec::of_kind(VertexKind::Entity),
        );
    let p2 = prov_store::pattern::match_paths(graph, &p2_pattern, Budget::default());
    assert!(p2.is_complete());

    // Join: same anchor (the SimProv pivot) and equal label sequences. With
    // only U|G edges the node/edge label sequences of alternating ancestry
    // paths are determined by the hop count, so the extract(...) = extract(...)
    // comparison reduces to (anchor, length) equality.
    let accepted: prov_store::hash::FxHashSet<(VertexId, usize)> = p1
        .paths()
        .iter()
        .map(|p| (*p.vertices.last().expect("p1 ends at the anchor"), p.len()))
        .collect();
    let mut answer: Vec<VertexId> = p2
        .paths()
        .iter()
        .filter(|p| accepted.contains(&(p.vertices[0], p.len())))
        .map(|p| *p.vertices.last().expect("p2 non-empty"))
        .collect();
    answer.sort_unstable();
    answer.dedup();
    answer
}

/// ISSUE 8: the same Query 1 plan re-expressed on the query IR, with the
/// frozen pattern-engine plan above kept as the differential reference.
///
/// Each Cypher path variable becomes a family of pipelines rooted at the
/// shared anchor `e1 = e2 ∈ Vdst`: `L` chained single-hop `Traverse` steps
/// compute "reachable from the anchor by a path of exactly `L` ancestry
/// edges" — on a DAG every walk is a path, so no edge-uniqueness
/// bookkeeping is needed — and the node kind / id constraints of the
/// pattern's `NodeSpec`s become IR `Filter` steps. The node-by-node
/// `extract(...)` join then reduces, exactly as in the pattern plan, to
/// joining the two families on (anchor, length).
fn cypher_query1_ir(
    graph: &ProvGraph,
    index: &ProvIndex,
    vsrc: &[VertexId],
    vdst: &[VertexId],
) -> Vec<VertexId> {
    let ancestry = [(EdgeKind::WasGeneratedBy, Direction::Out), (EdgeKind::Used, Direction::Out)];
    let walk = |anchor: VertexId, hops: usize| {
        let mut p = Pipeline::from_ids(vec![anchor]);
        for _ in 0..hops {
            p = p.traverse(&ancestry, 1, 1);
        }
        p
    };
    let eval = |pipeline: Pipeline| {
        let plan = Plan::compile(pipeline).expect("query1 pipelines compile");
        prov_store::evaluate(graph, index, &plan).expect("fresh snapshot is never stale").rows
    };

    let mut answer = Vec::new();
    for &anchor in vdst {
        // Both path variables anchor on an entity (e1:E, e2:E).
        if graph.vertex_kind(anchor) != VertexKind::Entity {
            continue;
        }
        for hops in 0.. {
            let reach = eval(walk(anchor, hops));
            if reach.is_empty() {
                break; // longest ancestry path from this anchor exhausted
            }
            // p1 side: does a length-`hops` path end at a Vsrc entity (b:E)?
            let hit = eval(walk(anchor, hops).filter(PropFilter {
                kind: Some(VertexKind::Entity),
                ids: Some(vsrc.to_vec()),
                ..PropFilter::default()
            }));
            if !hit.is_empty() {
                // p2 side at the joined length: every entity endpoint (c:E).
                answer.extend(eval(
                    walk(anchor, hops).filter(PropFilter::of_kind(VertexKind::Entity)),
                ));
            }
        }
    }
    answer.sort_unstable();
    answer.dedup();
    answer
}

#[test]
fn ir_pipelines_match_cypher_plan_and_operators() {
    let ex = fig2::build();
    let index = ProvIndex::build(&ex.graph);
    let view = MaskedGraph::unmasked(&index);

    let cases = [
        (vec![ex.v("dataset-v1")], vec![ex.v("weight-v2")]),
        (vec![ex.v("dataset-v1")], vec![ex.v("log-v3")]),
        (vec![ex.v("model-v1")], vec![ex.v("weight-v3")]),
        (vec![ex.v("solver-v1")], vec![ex.v("weight-v1"), ex.v("weight-v3")]),
        (vec![ex.v("weight-v2")], vec![ex.v("weight-v2")]), // anchor ∈ Vsrc: L = 0 join
    ];
    for (vsrc, vdst) in cases {
        let ir = cypher_query1_ir(&ex.graph, &index, &vsrc, &vdst);
        let cypher = cypher_query1(&ex.graph, &vsrc, &vdst);
        assert_eq!(ir, cypher, "IR join vs pattern plan on src={vsrc:?} dst={vdst:?}");
        let operator = evaluate_similarity(&view, &vsrc, &vdst, &PgSegOptions::default()).unwrap();
        assert_eq!(ir, operator.answer, "IR join vs SimProvTst on src={vsrc:?} dst={vdst:?}");
    }
}

#[test]
fn cypher_plan_matches_all_operator_evaluators() {
    let ex = fig2::build();
    let index = ProvIndex::build(&ex.graph);
    let view = MaskedGraph::unmasked(&index);

    let cases = [
        (vec![ex.v("dataset-v1")], vec![ex.v("weight-v2")]), // Query 1
        (vec![ex.v("dataset-v1")], vec![ex.v("log-v3")]),    // Query 2
        (vec![ex.v("model-v1")], vec![ex.v("weight-v3")]),
        (vec![ex.v("solver-v1")], vec![ex.v("weight-v1"), ex.v("weight-v3")]),
    ];
    for (vsrc, vdst) in cases {
        let cypher = cypher_query1(&ex.graph, &vsrc, &vdst);
        let operator = evaluate_similarity(&view, &vsrc, &vdst, &PgSegOptions::default()).unwrap();
        assert_eq!(
            cypher, operator.answer,
            "Cypher plan vs SimProvTst on src={vsrc:?} dst={vdst:?}"
        );
    }
}

#[test]
fn cypher_plan_materializes_exponentially_more_paths_than_needed() {
    // The point of Fig. 5(a): the path-variable plan *works* but holds every
    // ancestry path. On a chain of k diamonds there are 2^k full-length paths
    // (plus all prefixes) against O(k) vertices.
    let mut g = ProvGraph::new();
    let mut prev = g.add_entity("e0");
    let depth = 7;
    for i in 0..depth {
        let a1 = g.add_activity(&format!("a{i}x"));
        let a2 = g.add_activity(&format!("a{i}y"));
        let e = g.add_entity(&format!("e{}", i + 1));
        g.add_edge(EdgeKind::Used, a1, prev).unwrap();
        g.add_edge(EdgeKind::Used, a2, prev).unwrap();
        g.add_edge(EdgeKind::WasGeneratedBy, e, a1).unwrap();
        g.add_edge(EdgeKind::WasGeneratedBy, e, a2).unwrap();
        prev = e;
    }
    let p2_pattern = PathPattern::node(NodeSpec::of_kind(VertexKind::Entity).with_ids(vec![prev]))
        .then(
            RelSpec::star(
                &[EdgeKind::Used, EdgeKind::WasGeneratedBy],
                PatternDir::Forward,
                0,
                RelSpec::UNBOUNDED,
            ),
            NodeSpec::any(),
        );
    let p2 = prov_store::pattern::match_paths(&g, &p2_pattern, Budget::default());
    assert!(p2.is_complete());
    assert!(
        p2.paths().len() > (1 << depth) && p2.paths().len() > 4 * g.vertex_count(),
        "path variables blow up exponentially: {} paths over {} vertices",
        p2.paths().len(),
        g.vertex_count()
    );
    // The linear-time operator answers the same question without holding any
    // path at all.
    let index = ProvIndex::build(&g);
    let view = MaskedGraph::unmasked(&index);
    let src = VertexId::new(0);
    let out = evaluate_similarity(&view, &[src], &[prev], &PgSegOptions::default()).unwrap();
    assert!(out.answer.contains(&src));
}
