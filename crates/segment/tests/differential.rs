//! Differential property tests: on random lifecycle-shaped PROV DAGs, all
//! `L(SimProv)` evaluators must return identical reachability answers, and
//! the two exact inducers (SimProvTst, naive enumeration) must agree on the
//! full `VC2` vertex set.

use proptest::prelude::*;
use prov_bitset::SetBackend;
use prov_model::{EdgeKind, VertexId, VertexKind};
use prov_segment::{
    evaluate_similarity, similar_naive, similar_tst, MaskedGraph, NaiveBudget, PgSegOptions,
    SimilarEvaluator, TstConfig,
};
use prov_store::{ProvGraph, ProvIndex};

/// Plan for one activity: which existing entities it uses (by index into the
/// entity pool) and how many entities it generates.
#[derive(Debug, Clone)]
struct ActivityPlan {
    inputs: Vec<prop::sample::Index>,
    outputs: usize,
}

fn activity_plan() -> impl Strategy<Value = ActivityPlan> {
    (proptest::collection::vec(any::<prop::sample::Index>(), 1..4), 1..3usize)
        .prop_map(|(inputs, outputs)| ActivityPlan { inputs, outputs })
}

/// Build a temporally-consistent provenance DAG from plans (entities always
/// exist before the activities that use them — the lifecycle invariant the
/// early-stopping rule relies on).
fn build_graph(seed_entities: usize, plans: &[ActivityPlan]) -> (ProvGraph, Vec<VertexId>) {
    let mut g = ProvGraph::new();
    let mut entities: Vec<VertexId> =
        (0..seed_entities).map(|i| g.add_entity(&format!("seed{i}"))).collect();
    for (ai, plan) in plans.iter().enumerate() {
        let a = g.add_activity(&format!("act{ai}"));
        let mut used = std::collections::BTreeSet::new();
        for idx in &plan.inputs {
            used.insert(*idx.get(&entities));
        }
        for &e in &used {
            g.add_edge(EdgeKind::Used, a, e).unwrap();
        }
        for oi in 0..plan.outputs {
            let e = g.add_entity(&format!("out{ai}_{oi}"));
            g.add_edge(EdgeKind::WasGeneratedBy, e, a).unwrap();
            entities.push(e);
        }
    }
    (g, entities)
}

/// The same graph with its vertex ids (= births) shuffled: vertex `v` of `g`
/// becomes the vertex created `rank of keys[v]`-th. Nothing in a document the
/// store imports ties ids to creation order, so no evaluator may rely on it.
fn renumbered(g: &ProvGraph, keys: &[u32]) -> (ProvGraph, Vec<VertexId>) {
    let mut by_key: Vec<VertexId> = g.vertex_ids().collect();
    by_key.sort_by_key(|v| (keys[v.index()], *v));
    let mut renamed = vec![VertexId::new(0); g.vertex_count()];
    let mut out = ProvGraph::new();
    for old in by_key {
        renamed[old.index()] = out.add_vertex(g.vertex_kind(old), g.vertex_name(old)).unwrap();
    }
    for eid in g.edge_ids() {
        let e = g.edge(eid);
        out.add_edge(e.kind, renamed[e.src.index()], renamed[e.dst.index()]).unwrap();
    }
    (out, renamed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_evaluators_agree_on_answers(
        seed_entities in 1..4usize,
        plans in proptest::collection::vec(activity_plan(), 1..10),
        src_pick in any::<prop::sample::Index>(),
        dst_pick in any::<prop::sample::Index>(),
        dst_pick2 in any::<prop::sample::Index>(),
    ) {
        let (g, entities) = build_graph(seed_entities, &plans);
        g.validate_acyclic().expect("generated graphs are DAGs");
        let idx = ProvIndex::build(&g);
        let view = MaskedGraph::unmasked(&idx);
        let vsrc = vec![*src_pick.get(&entities)];
        let mut vdst = vec![*dst_pick.get(&entities), *dst_pick2.get(&entities)];
        vdst.dedup();

        let evaluators = [
            SimilarEvaluator::Naive,
            SimilarEvaluator::CflrB(SetBackend::Hash),
            SimilarEvaluator::CflrB(SetBackend::Bit),
            SimilarEvaluator::CflrB(SetBackend::Compressed),
            SimilarEvaluator::SimProvAlg(SetBackend::Bit),
            SimilarEvaluator::SimProvAlg(SetBackend::Compressed),
            SimilarEvaluator::SimProvTst,
        ];
        let mut answers = Vec::new();
        for ev in evaluators {
            let opts = PgSegOptions { evaluator: ev, ..PgSegOptions::default() };
            let out = evaluate_similarity(&view, &vsrc, &vdst, &opts).unwrap();
            prop_assert!(!out.stats.dnf, "naive must finish on small graphs");
            answers.push((ev, out.answer));
        }
        for window in answers.windows(2) {
            prop_assert_eq!(
                &window[0].1,
                &window[1].1,
                "{:?} vs {:?}",
                window[0].0,
                window[1].0
            );
        }
    }

    #[test]
    fn tst_and_naive_agree_on_vc2(
        seed_entities in 1..4usize,
        plans in proptest::collection::vec(activity_plan(), 1..8),
        src_pick in any::<prop::sample::Index>(),
        dst_pick in any::<prop::sample::Index>(),
    ) {
        let (g, entities) = build_graph(seed_entities, &plans);
        let idx = ProvIndex::build(&g);
        let view = MaskedGraph::unmasked(&idx);
        let vsrc = vec![*src_pick.get(&entities)];
        let vdst = vec![*dst_pick.get(&entities)];
        let tst = similar_tst(&view, &vsrc, &vdst, &TstConfig::default()).unwrap();
        let naive = similar_naive(&view, &vsrc, &vdst, NaiveBudget::default());
        prop_assert!(!naive.stats.dnf);
        prop_assert_eq!(tst.answer, naive.answer);
        prop_assert_eq!(tst.vc2, naive.vc2);
    }

    #[test]
    fn early_stop_and_pruning_do_not_change_answers(
        seed_entities in 1..4usize,
        plans in proptest::collection::vec(activity_plan(), 1..10),
        src_pick in any::<prop::sample::Index>(),
        dst_pick in any::<prop::sample::Index>(),
    ) {
        let (g, entities) = build_graph(seed_entities, &plans);
        let idx = ProvIndex::build(&g);
        let view = MaskedGraph::unmasked(&idx);
        let vsrc = vec![*src_pick.get(&entities)];
        let vdst = vec![*dst_pick.get(&entities)];
        let reference =
            similar_tst(&view, &vsrc, &vdst, &TstConfig { early_stop: false }).unwrap();
        let fast = similar_tst(&view, &vsrc, &vdst, &TstConfig::default()).unwrap();
        prop_assert_eq!(&reference.answer, &fast.answer);
        prop_assert_eq!(&reference.vc2, &fast.vc2);

        for symmetric_prune in [false, true] {
            for early_stop in [false, true] {
                let opts = PgSegOptions {
                    evaluator: SimilarEvaluator::SimProvAlg(SetBackend::Bit),
                    early_stop,
                    symmetric_prune,
                    ..PgSegOptions::default()
                };
                let out = evaluate_similarity(&view, &vsrc, &vdst, &opts).unwrap();
                prop_assert_eq!(
                    &reference.answer,
                    &out.answer,
                    "prune={} early={}",
                    symmetric_prune,
                    early_stop
                );
            }
        }
    }

    #[test]
    fn early_stop_is_a_pure_work_bound_under_any_vertex_numbering(
        seed_entities in 1..4usize,
        plans in proptest::collection::vec(activity_plan(), 1..10),
        keys in proptest::collection::vec(any::<u32>(), 40..41),
        src_pick in any::<prop::sample::Index>(),
        dst_pick in any::<prop::sample::Index>(),
    ) {
        let (g, entities) = build_graph(seed_entities, &plans);
        let (shuffled, renamed) = renumbered(&g, &keys);
        let idx = ProvIndex::build(&shuffled);
        let view = MaskedGraph::unmasked(&idx);
        let vsrc = vec![renamed[src_pick.get(&entities).index()]];
        let vdst = vec![renamed[dst_pick.get(&entities).index()]];
        let on = similar_tst(&view, &vsrc, &vdst, &TstConfig { early_stop: true }).unwrap();
        let off = similar_tst(&view, &vsrc, &vdst, &TstConfig { early_stop: false }).unwrap();
        prop_assert_eq!(&on.answer, &off.answer);
        prop_assert_eq!(&on.vc2, &off.vc2);
        prop_assert!(on.stats.work <= off.stats.work);
        // And both are the answer of the graph in creation order.
        let idx = ProvIndex::build(&g);
        let ordered = similar_tst(
            &MaskedGraph::unmasked(&idx),
            &[*src_pick.get(&entities)],
            &[*dst_pick.get(&entities)],
            &TstConfig::default(),
        )
        .unwrap();
        let mut expect: Vec<VertexId> = ordered.answer.iter().map(|v| renamed[v.index()]).collect();
        expect.sort_unstable();
        prop_assert_eq!(&on.answer, &expect);
    }

    #[test]
    fn vc1_vertices_really_lie_on_paths(
        seed_entities in 1..3usize,
        plans in proptest::collection::vec(activity_plan(), 1..8),
        src_pick in any::<prop::sample::Index>(),
        dst_pick in any::<prop::sample::Index>(),
    ) {
        let (g, entities) = build_graph(seed_entities, &plans);
        let idx = ProvIndex::build(&g);
        let view = MaskedGraph::unmasked(&idx);
        let src = *src_pick.get(&entities);
        let dst = *dst_pick.get(&entities);
        let vc1 = prov_segment::direct_path_vertices(&view, &[src], &[dst]);
        // Brute-force check: enumerate all ancestry paths dst -> src and
        // collect their vertices.
        let mut expect = std::collections::BTreeSet::new();
        let mut stack = vec![vec![dst]];
        while let Some(path) = stack.pop() {
            let head = *path.last().unwrap();
            if head == src {
                expect.extend(path.iter().copied());
                // Continue: other paths may pass through src again? A DAG
                // cannot revisit, so stop this branch.
                continue;
            }
            for w in view.upstream(head) {
                let mut p = path.clone();
                p.push(w);
                stack.push(p);
            }
        }
        let expect: Vec<VertexId> = expect.into_iter().collect();
        prop_assert_eq!(vc1, expect);
    }

    #[test]
    fn generated_graphs_satisfy_prov_invariants(
        seed_entities in 1..4usize,
        plans in proptest::collection::vec(activity_plan(), 1..10),
    ) {
        let (g, _) = build_graph(seed_entities, &plans);
        prop_assert!(g.validate_acyclic().is_ok());
        for eid in g.edge_ids() {
            let e = g.edge(eid);
            let (src_kind, dst_kind) = e.kind.endpoints();
            prop_assert_eq!(g.vertex_kind(e.src), src_kind);
            prop_assert_eq!(g.vertex_kind(e.dst), dst_kind);
            // Temporal consistency: every edge points to something older.
            prop_assert!(g.vertex(e.src).birth > g.vertex(e.dst).birth);
        }
        let _ = g.vertices_of_kind(VertexKind::Entity);
    }
}
