//! Fidelity test for Sec. III-B's handcrafted Cypher query (Query 1).
//!
//! The paper expresses the `L(SimProv)` query in Cypher with two path
//! variables joined node-by-node. Its plan is reproduced once, as
//! `prov_segment::similar_naive` — materialize every destination-anchored
//! ancestry path, keep the lengths of those ending at a source, join on
//! (anchor, length) — and checked here to compute exactly the answers of
//! the operator evaluators and of the same join written on the query IR.

use prov_core::fig2;
use prov_model::{EdgeKind, VertexId, VertexKind};
use prov_segment::{evaluate_similarity, similar_naive, MaskedGraph, NaiveBudget, PgSegOptions};
use prov_store::{Direction, Pipeline, Plan, PropFilter, ProvGraph, ProvIndex};

/// Execute the paper's Query 1 plan: enumerate both path variables and join.
fn cypher_query1(view: &MaskedGraph<'_>, vsrc: &[VertexId], vdst: &[VertexId]) -> Vec<VertexId> {
    let out = similar_naive(view, vsrc, vdst, NaiveBudget::default());
    assert!(!out.stats.dnf, "the Cypher plan finishes on these graphs");
    out.answer
}

/// The same Query 1 plan re-expressed on the query IR, with the
/// path-enumerating plan above as the differential reference.
///
/// Each Cypher path variable becomes a family of pipelines rooted at the
/// shared anchor `e1 = e2 ∈ Vdst`: `L` chained single-hop `Traverse` steps
/// compute "reachable from the anchor by a path of exactly `L` ancestry
/// edges" — on a DAG every walk is a path, so no edge-uniqueness
/// bookkeeping is needed — and the node kind / id constraints of the
/// pattern's `NodeSpec`s become IR `Filter` steps. The node-by-node
/// `extract(...)` join then reduces, exactly as in the enumerating plan, to
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
        let cypher = cypher_query1(&view, &vsrc, &vdst);
        assert_eq!(ir, cypher, "IR join vs Cypher plan on src={vsrc:?} dst={vdst:?}");
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
        let cypher = cypher_query1(&view, &vsrc, &vdst);
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
    let index = ProvIndex::build(&g);
    let view = MaskedGraph::unmasked(&index);
    let src = VertexId::new(0);
    let cypher = similar_naive(&view, &[src], &[prev], NaiveBudget::default());
    let paths = cypher.stats.work;
    assert!(!cypher.stats.dnf);
    assert!(
        paths > (1 << depth) && paths > 4 * g.vertex_count() as u64,
        "path variables blow up exponentially: {paths} paths over {} vertices",
        g.vertex_count()
    );
    // The linear-time operator answers the same question without holding any
    // path at all.
    let out = evaluate_similarity(&view, &[src], &[prev], &PgSegOptions::default()).unwrap();
    assert!(out.answer.contains(&src));
    assert_eq!(out.answer, cypher.answer);
}
