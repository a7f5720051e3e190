//! PgSum invariants on randomly generated segment sets:
//!
//! * the summary preserves bounded path-label words exactly;
//! * `cr(PgSum) ≤ cr(pSum) ≤ 1`;
//! * merging is idempotent (summarizing a summary changes nothing);
//! * the fast simulation equals the naive fixpoint.

use proptest::prelude::*;
use prov_model::{EdgeKind, VertexId};
use prov_store::ProvGraph;
use prov_summary::paths::check_invariant;
use prov_summary::simulation::{simulation, simulation_naive, SimDirection};
use prov_summary::{
    build_g0, merge, pgsum_with_internals, psum, PgSumQuery, PropertyAggregation, SegmentRef,
};

/// Plan for one segment: a chain/DAG of `steps` activities over `k` activity
/// type labels, each consuming 1–2 previous entities and producing 1–2.
#[derive(Debug, Clone)]
struct SegmentPlan {
    steps: Vec<(u8, Vec<prop::sample::Index>, usize)>, // (type, inputs, outputs)
}

fn segment_plan(max_types: u8) -> impl Strategy<Value = SegmentPlan> {
    proptest::collection::vec(
        (0..max_types, proptest::collection::vec(any::<prop::sample::Index>(), 1..3), 1..3usize),
        1..6,
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

fn queries() -> Vec<PgSumQuery> {
    vec![
        PgSumQuery::new(PropertyAggregation::ignore_all(), 0),
        PgSumQuery::new(PropertyAggregation::ignore_all(), 1),
        PgSumQuery::fig2e(),
        PgSumQuery::new(PropertyAggregation::fig2e().aggregation_clone(), 2),
    ]
}

/// Helper because PropertyAggregation lacks Clone in public builder position.
trait AggClone {
    fn aggregation_clone(&self) -> PropertyAggregation;
}

impl AggClone for PropertyAggregation {
    fn aggregation_clone(&self) -> PropertyAggregation {
        self.clone()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn summary_preserves_bounded_path_words(
        plans in proptest::collection::vec(segment_plan(3), 1..5),
    ) {
        let (g, segs) = build(&plans);
        for q in queries() {
            let (_, g0, quotiented) = pgsum_with_internals(&g, &segs, &q);
            if let Err(e) = check_invariant(&g0, &quotiented, 5) {
                prop_assert!(false, "k={} violates invariant: {e}", q.k);
            }
        }
    }

    #[test]
    fn pgsum_never_worse_than_psum_and_bounded(
        plans in proptest::collection::vec(segment_plan(3), 1..5),
    ) {
        let (g, segs) = build(&plans);
        for q in queries() {
            let (psg, g0, _) = pgsum_with_internals(&g, &segs, &q);
            let ps = psum(&g0);
            prop_assert!(psg.compaction_ratio() <= ps.compaction_ratio + 1e-12);
            prop_assert!(ps.compaction_ratio <= 1.0 + 1e-12);
            prop_assert!(psg.compaction_ratio() > 0.0);
            prop_assert_eq!(psg.input_vertex_count, g0.len());
        }
    }

    #[test]
    fn merging_is_idempotent(
        plans in proptest::collection::vec(segment_plan(2), 1..4),
    ) {
        let (g, segs) = build(&plans);
        let q = PgSumQuery::new(PropertyAggregation::ignore_all(), 1);
        let (_, g0, quotiented) = pgsum_with_internals(&g, &segs, &q);
        // Re-merging the quotient must be a no-op.
        let again = merge(&quotiented);
        prop_assert_eq!(again.members.len(), quotiented.len());
        let _ = g0;
    }

    #[test]
    fn fast_simulation_matches_naive(
        plans in proptest::collection::vec(segment_plan(2), 1..3),
    ) {
        let (g, segs) = build(&plans);
        let g0 = build_g0(&g, &segs, &PropertyAggregation::ignore_all(), 0);
        for dir in [SimDirection::Out, SimDirection::In] {
            let fast = simulation(&g0, dir);
            let slow = simulation_naive(&g0, dir);
            for v in 0..g0.len() as u32 {
                for u in 0..g0.len() as u32 {
                    prop_assert_eq!(fast.le(v, u), slow[v as usize][u as usize]);
                }
            }
        }
    }

    #[test]
    fn summary_edges_have_valid_frequencies(
        plans in proptest::collection::vec(segment_plan(3), 1..5),
    ) {
        let (g, segs) = build(&plans);
        let (psg, _, quotiented) = pgsum_with_internals(&g, &segs, &PgSumQuery::fig2e());
        let nseg = segs.len() as f64;
        for e in &psg.edges {
            prop_assert!(e.frequency > 0.0 && e.frequency <= 1.0);
            let scaled = e.frequency * nseg;
            prop_assert!((scaled - scaled.round()).abs() < 1e-9);
            prop_assert!(e.src != e.dst, "Lemma-5 merging cannot create self-loops");
        }
        // Psg vertex count matches quotient node count.
        prop_assert_eq!(psg.vertex_count(), quotiented.len());
    }
}

/// Smallest known input on which one condition-3 (`Round::Dominated`) round
/// unions several node pairs whose redirected languages are individually
/// dominated but jointly are not: the summary gains the 4-edge word
/// `f1 -G-> op0 -U-> f0 -G-> op0 -U-> f1`, which no path of the segment
/// spells. Sound at k = 1 and k = 2; broken at k = 0 for either vertex order.
#[test]
#[ignore = "condition-3 round unsound, ROADMAP item 3"]
fn condition_three_round_keeps_the_path_language() {
    let mut g = ProvGraph::new();
    let mut vertices = Vec::new();
    let mut entity = |g: &mut ProvGraph, file: &str| {
        let e = g.add_entity(file);
        g.set_vprop(e, "filename", file);
        vertices.push(e);
        e
    };
    let e0 = entity(&mut g, "f0");
    let e1 = entity(&mut g, "f1");
    let e2 = entity(&mut g, "f1");
    let a3 = g.add_activity("op0");
    let e5 = entity(&mut g, "f0");
    let a6 = g.add_activity("op0");
    let e8 = entity(&mut g, "f0");
    let a9 = g.add_activity("op0");
    let e10 = entity(&mut g, "f1");
    let a11 = g.add_activity("op0");
    let activities = [a3, a6, a9, a11];
    for &a in &activities {
        g.set_vprop(a, "command", "op0");
    }
    vertices.extend(activities);
    let (used, gen) = (EdgeKind::Used, EdgeKind::WasGeneratedBy);
    let edges = [
        (used, a3, e2),
        (gen, e5, a3),
        (used, a6, e5),
        (gen, e8, a6),
        (used, a9, e1),
        (used, a9, e8),
        (gen, e10, a9),
        (used, a11, e0),
        (used, a11, e8),
    ]
    .map(|(kind, src, dst)| g.add_edge(kind, src, dst).unwrap());
    let segs = [SegmentRef::new(vertices, edges.to_vec())];
    let q = PgSumQuery::new(PgSumQuery::fig2e().aggregation, 0);
    let (psg, g0, quotiented) = pgsum_with_internals(&g, &segs, &q);
    assert_eq!(psg.vertex_count(), 7);
    check_invariant(&g0, &quotiented, 8).unwrap();
}
