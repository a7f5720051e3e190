//! Differential proptests for the query IR: pipelines produced by the
//! lowering constructors must answer **byte-identically** to their
//! definitions — `ProvGraph::find_by_prop` (the frozen fixed-shape read) and,
//! for path patterns, a trail-enumeration oracle below. The lineage
//! differentials live next to their reference in `prov-core`; the
//! cursor-stability interleavings live in `prov-api`.

use proptest::prelude::*;
use prov_model::{EdgeId, EdgeKind, PropValue, VertexId, VertexKind};
use prov_store::query::{evaluate, evaluate_at, lower_pattern, Pipeline, Plan};
use prov_store::{Direction, NodeSpec, PathPattern, PatternDir, ProvGraph, ProvIndex, RelSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

const KEYS: [&str; 2] = ["stage", "score"];

/// Random layered provenance DAG: every edge points from a newer vertex's
/// row to an older vertex (ancestry runs backward in creation order), so
/// the graph is acyclic by construction. One agent, vertex 1, is associated
/// with some activities and attributed some entities. Properties land on a
/// random subset.
fn random_graph(rng: &mut StdRng, steps: usize) -> ProvGraph {
    let mut g = ProvGraph::new();
    let mut entities = vec![g.add_entity("e0")];
    let agent = g.add_agent("agent");
    let mut activities: Vec<VertexId> = Vec::new();
    for step in 0..steps {
        if rng.gen_bool(0.45) {
            let a = g.add_activity(&format!("a{step}"));
            for _ in 0..rng.gen_range(1..3) {
                let used = entities[rng.gen_range(0..entities.len())];
                let _ = g.add_edge(EdgeKind::Used, a, used);
            }
            if rng.gen_bool(0.3) {
                let _ = g.add_edge(EdgeKind::WasAssociatedWith, a, agent);
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
            if rng.gen_bool(0.2) {
                let _ = g.add_edge(EdgeKind::WasAttributedTo, e, agent);
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

fn node_ok(g: &ProvGraph, spec: &NodeSpec, v: VertexId) -> bool {
    spec.kind.is_none_or(|k| g.vertex_kind(v) == k)
        && spec.name.as_deref().is_none_or(|n| g.vertex_name(v) == Some(n))
        && spec.ids.as_ref().is_none_or(|ids| ids.contains(&v))
        && spec.props.iter().all(|(key, want)| g.vprop(v, key) == Some(want))
}

/// The pattern semantics, by definition: the endpoints of every *trail* (a
/// path repeating no edge) of `min..=max` hops from a matching start to a
/// matching end, found by enumerating the trails one by one over the
/// mutable adjacency. It must stay path-based: a BFS oracle shares the IR's
/// distance semantics and cannot see the patterns the lowering must refuse.
fn trail_endpoints(g: &ProvGraph, pattern: &PathPattern) -> Vec<VertexId> {
    fn walk(
        g: &ProvGraph,
        step: &(RelSpec, NodeSpec),
        here: VertexId,
        trail: &mut Vec<EdgeId>,
        out: &mut BTreeSet<VertexId>,
    ) {
        let (rel, end) = step;
        let hops = trail.len() as u32;
        if hops >= rel.min_hops && node_ok(g, end, here) {
            out.insert(here);
        }
        if hops == rel.max_hops {
            return;
        }
        let kind_ok = |kind| rel.kinds.is_empty() || rel.kinds.contains(&kind);
        let mut next = Vec::new();
        if rel.dir != PatternDir::Backward {
            next.extend(
                g.out_edges(here).filter(|(_, e)| kind_ok(e.kind)).map(|(i, e)| (i, e.dst)),
            );
        }
        if rel.dir != PatternDir::Forward {
            next.extend(g.in_edges(here).filter(|(_, e)| kind_ok(e.kind)).map(|(i, e)| (i, e.src)));
        }
        for (edge, w) in next {
            if !trail.contains(&edge) {
                trail.push(edge);
                walk(g, step, w, trail, out);
                trail.pop();
            }
        }
    }
    let [step] = pattern.steps.as_slice() else { panic!("the oracle takes one-step patterns") };
    let mut out = BTreeSet::new();
    for start in g.vertex_ids().filter(|&v| node_ok(g, &pattern.start, v)) {
        walk(g, step, start, &mut Vec::new(), &mut out);
    }
    out.into_iter().collect()
}

/// The family `lower_pattern` must accept, restated independently: one
/// step, no reverse agent slice (an empty kind list names the agent kinds),
/// and `min_hops` 0 — or 1 from at most one start id, `Forward`/`Backward`.
fn in_family(pattern: &PathPattern) -> bool {
    let [(rel, _)] = pattern.steps.as_slice() else { return pattern.steps.is_empty() };
    let agent = |k: &EdgeKind| matches!(k, EdgeKind::WasAssociatedWith | EdgeKind::WasAttributedTo);
    let names_agents = rel.kinds.is_empty() || rel.kinds.iter().any(agent);
    let single_start = matches!(&pattern.start.ids, Some(ids) if ids.len() <= 1);
    !(rel.dir != PatternDir::Forward && names_agents)
        && (rel.min_hops == 0
            || (rel.min_hops == 1 && single_start && rel.dir != PatternDir::Either))
}

/// Why the oracle is path-based: the trail `a1 → e0 ← a0 ← e1 ← a1`
/// returns to its start, which a `Traverse{1..}` never re-emits. The
/// lowering once answered this pattern with the pipeline's rows; it is
/// refused now.
#[test]
fn trail_oracle_sees_the_either_cycle_the_distance_pipeline_misses() {
    let mut g = ProvGraph::new();
    let e0 = g.add_entity("e0");
    let a0 = g.add_activity("a0");
    let e1 = g.add_entity("e1");
    let a1 = g.add_activity("a1");
    g.add_edge(EdgeKind::Used, a0, e0).unwrap();
    g.add_edge(EdgeKind::WasGeneratedBy, e1, a0).unwrap();
    g.add_edge(EdgeKind::Used, a1, e0).unwrap();
    g.add_edge(EdgeKind::Used, a1, e1).unwrap();
    let ancestry = [EdgeKind::Used, EdgeKind::WasGeneratedBy];
    let pattern = PathPattern::node(NodeSpec::any().with_ids(vec![a1]))
        .then(RelSpec::star(&ancestry, PatternDir::Either, 1, RelSpec::UNBOUNDED), NodeSpec::any());
    assert_eq!(trail_endpoints(&g, &pattern), vec![e0, a0, e1, a1]);
    let selectors: Vec<_> =
        ancestry.iter().flat_map(|&k| [(k, Direction::Out), (k, Direction::In)]).collect();
    let distance = Pipeline::from_ids(vec![a1]).traverse(&selectors, 1, u32::MAX);
    assert_eq!(eval_rows(&g, &ProvIndex::build(&g), distance), vec![e0, a0, e1]);
    assert!(lower_pattern(&pattern).is_err());
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// `lower_pattern` is `Ok` exactly on the family, and there the
    /// pipeline's row set is the trail oracle's endpoint set.
    #[test]
    fn pattern_lowering_matches_the_trail_oracle_on_the_family(
        seed in 0u64..100_000,
        steps in 4usize..24,
        min_hops in 0u32..2,
        max_pick in 0usize..6,
        start_pick in 0usize..5,
        dir_pick in 0usize..3,
        kinds_pick in 0u32..10,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_graph(&mut rng, steps);
        let max_hops = [0, 1, 2, 3, 5, RelSpec::UNBOUNDED][max_pick];
        let dir = [PatternDir::Forward, PatternDir::Backward, PatternDir::Either][dir_pick];
        let mut random_id = || VertexId::new(rng.gen_range(0..g.vertex_count()) as u32);
        let start = match start_pick {
            0 => NodeSpec::any().with_ids(vec![random_id()]),
            // The oldest vertices have the most users, so they close the
            // most undirected cycles back to themselves.
            1 => NodeSpec::any().with_ids(vec![VertexId::new(rng.gen_range(0..4))]),
            2 => NodeSpec::any().with_ids((0..3).map(|_| random_id()).collect()),
            3 => NodeSpec::of_kind(VertexKind::Activity),
            _ => NodeSpec::any(),
        };
        // A non-empty subset of the ancestry/derivation kinds, the empty
        // list (every kind), or a list naming one agent kind.
        let kinds = match kinds_pick {
            0..=6 => [EdgeKind::Used, EdgeKind::WasGeneratedBy, EdgeKind::WasDerivedFrom]
                .into_iter()
                .enumerate()
                .filter(|(bit, _)| (kinds_pick + 1) & (1 << bit) != 0)
                .map(|(_, kind)| kind)
                .collect(),
            7 => Vec::new(),
            8 => vec![EdgeKind::Used, EdgeKind::WasAssociatedWith],
            _ => vec![EdgeKind::WasGeneratedBy, EdgeKind::WasAttributedTo],
        };
        let end = match rng.gen_range(0..6) {
            0 => NodeSpec::of_kind(VertexKind::Entity),
            1 => NodeSpec::of_kind(VertexKind::Activity),
            2 => NodeSpec::any().with_prop(KEYS[0], "v0"),
            _ => NodeSpec::any(),
        };
        let pattern =
            PathPattern::node(start).then(RelSpec::star(&kinds, dir, min_hops, max_hops), end);
        match lower_pattern(&pattern) {
            Ok(lowered) => {
                prop_assert!(in_family(&pattern), "lowered outside the family: {:?}", pattern);
                let ir = eval_rows(&g, &ProvIndex::build(&g), lowered);
                prop_assert_eq!(&ir, &trail_endpoints(&g, &pattern), "{:?}", pattern);
            }
            Err(e) => prop_assert!(!in_family(&pattern), "refused in the family: {:?}: {}", pattern, e),
        }
    }
}
