//! Differential proptests for the query IR (ISSUE 8 acceptance): pipelines
//! produced by the lowering constructors must answer **byte-identically** to
//! their frozen fixed-shape references — `ProvGraph::find_by_prop` and
//! `pattern::match_paths`. The lineage differentials live next to
//! their reference in `prov-core`; the cursor-stability interleavings live
//! in `prov-api`.

use proptest::prelude::*;
use prov_model::{EdgeKind, PropValue, VertexId, VertexKind};
use prov_store::query::{evaluate, evaluate_at, lower_pattern, Pipeline, Plan};
use prov_store::{Budget, NodeSpec, PathPattern, PatternDir, ProvGraph, ProvIndex, RelSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const KEYS: [&str; 2] = ["stage", "score"];

/// Random layered provenance DAG: every edge points from a newer vertex's
/// row to an older vertex (ancestry runs backward in creation order), so
/// the graph is acyclic by construction. Properties land on a random subset.
fn random_graph(rng: &mut StdRng, steps: usize) -> ProvGraph {
    let mut g = ProvGraph::new();
    let mut entities = vec![g.add_entity("e0")];
    let mut activities: Vec<VertexId> = Vec::new();
    for step in 0..steps {
        if rng.gen_bool(0.45) {
            let a = g.add_activity(&format!("a{step}"));
            for _ in 0..rng.gen_range(1..3) {
                let used = entities[rng.gen_range(0..entities.len())];
                let _ = g.add_edge(EdgeKind::Used, a, used);
            }
            activities.push(a);
        } else {
            let e = g.add_entity(&format!("e{step}"));
            if !activities.is_empty() && rng.gen_bool(0.8) {
                let gen = activities[rng.gen_range(0..activities.len())];
                let _ = g.add_edge(EdgeKind::WasGeneratedBy, e, gen);
            }
            if rng.gen_bool(0.3) {
                let src = entities[rng.gen_range(0..entities.len())];
                let _ = g.add_edge(EdgeKind::WasDerivedFrom, e, src);
            }
            entities.push(e);
        }
        if rng.gen_bool(0.5) {
            let v = VertexId::new(rng.gen_range(0..g.vertex_count()) as u32);
            let key = KEYS[rng.gen_range(0..KEYS.len())];
            let value: PropValue = if rng.gen_bool(0.5) {
                PropValue::from(format!("v{}", rng.gen_range(0..3)))
            } else {
                PropValue::from(rng.gen_range(0..3) as i64)
            };
            g.set_vprop(v, key, value);
        }
    }
    g
}

fn eval_rows(g: &ProvGraph, idx: &ProvIndex, pipeline: Pipeline) -> Vec<VertexId> {
    let plan = Plan::compile(pipeline).expect("lowered pipelines compile");
    evaluate(g, idx, &plan).expect("full-watermark evaluation cannot be stale").rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `Pipeline::find_by_prop` == `ProvGraph::find_by_prop`, with and
    /// without a declared secondary index.
    #[test]
    fn find_by_prop_lowering_matches_reference(
        seed in 0u64..100_000,
        steps in 5usize..50,
        declare_index in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = random_graph(&mut rng, steps);
        if declare_index {
            g.create_vprop_index(VertexKind::Entity, KEYS[0]);
        }
        let idx = ProvIndex::build(&g);
        for kind in [VertexKind::Entity, VertexKind::Activity] {
            for key in KEYS {
                for value in [
                    PropValue::from("v0"), PropValue::from("v1"),
                    PropValue::from(0i64), PropValue::from(1i64),
                ] {
                    let reference = g.find_by_prop(kind, key, &value);
                    let ir = eval_rows(&g, &idx, Pipeline::find_by_prop(kind, key, value.clone()));
                    prop_assert_eq!(
                        &ir, &reference,
                        "kind {:?} key {} value {:?}", kind, key, value
                    );
                }
            }
        }
    }

    /// Lowerable star patterns: the pipeline's row set == the sorted,
    /// deduplicated endpoint set of `match_paths`.
    #[test]
    fn star_pattern_lowering_matches_match_paths(
        seed in 0u64..100_000,
        steps in 5usize..40,
        min_hops in 0u32..2,
        dir_pick in 0usize..3,
        kinds_pick in 1u32..8,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_graph(&mut rng, steps);
        let idx = ProvIndex::build(&g);
        let start = VertexId::new(rng.gen_range(0..g.vertex_count()) as u32);
        let dir = [PatternDir::Forward, PatternDir::Backward, PatternDir::Either][dir_pick];
        // Any non-empty subset of the non-agent ancestry/derivation kinds.
        let mut kinds = Vec::new();
        for (bit, kind) in
            [EdgeKind::Used, EdgeKind::WasGeneratedBy, EdgeKind::WasDerivedFrom].iter().enumerate()
        {
            if kinds_pick & (1 << bit) != 0 {
                kinds.push(*kind);
            }
        }
        let end = if rng.gen_bool(0.5) {
            NodeSpec::of_kind(if rng.gen_bool(0.5) { VertexKind::Entity } else { VertexKind::Activity })
        } else {
            NodeSpec::any().with_prop(KEYS[0], "v0")
        };
        let pattern = PathPattern::node(NodeSpec::any().with_ids(vec![start])).then(
            RelSpec::star(&kinds, dir, min_hops, RelSpec::UNBOUNDED),
            end,
        );
        let lowered = lower_pattern(&pattern)
            .expect("single-start unbounded non-agent stars are the lowerable family");

        let outcome = prov_store::pattern::match_paths(&g, &pattern, Budget::default());
        prop_assert!(outcome.is_complete(), "reference must finish in budget for the comparison");
        let mut reference: Vec<VertexId> =
            outcome.paths().iter().map(|p| *p.vertices.last().unwrap()).collect();
        reference.sort_unstable();
        reference.dedup();

        let ir = eval_rows(&g, &idx, lowered);
        prop_assert_eq!(&ir, &reference);
    }

    /// Bounded replay: evaluating over a grown snapshot at an old watermark
    /// equals evaluating over the old snapshot itself — the structural
    /// half of cursor stability.
    #[test]
    fn replay_at_watermark_matches_old_snapshot(
        seed in 0u64..100_000,
        steps_before in 5usize..30,
        steps_after in 1usize..30,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = random_graph(&mut rng, steps_before);
        let old_idx = ProvIndex::build(&g);
        let watermark = g.cursor();
        // Grow (reusing the same generator over the same graph).
        for step in 0..steps_after {
            let a = g.add_activity(&format!("post-a{step}"));
            let used = VertexId::new(rng.gen_range(0..watermark.vertices));
            let _ = g.add_edge(EdgeKind::Used, a, used);
            let e = g.add_entity(&format!("post-e{step}"));
            let _ = g.add_edge(EdgeKind::WasGeneratedBy, e, a);
        }
        let new_idx = ProvIndex::build(&g);
        let start = VertexId::new(rng.gen_range(0..watermark.vertices));
        for pipeline in [
            Pipeline::from_ids(vec![start]).traverse(
                &[(EdgeKind::Used, prov_store::Direction::In),
                  (EdgeKind::WasGeneratedBy, prov_store::Direction::In)],
                1, u32::MAX,
            ),
            Pipeline::from_kind(VertexKind::Entity).traverse(
                &[(EdgeKind::Used, prov_store::Direction::In)],
                0, 2,
            ),
        ] {
            let plan = Plan::compile(pipeline).unwrap();
            let over_old = evaluate_at(&g, &old_idx, &plan, watermark, 1).unwrap();
            let replayed = evaluate_at(&g, &new_idx, &plan, watermark, 1).unwrap();
            prop_assert_eq!(&replayed.rows, &over_old.rows);
        }
    }
}
