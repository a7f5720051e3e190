//! Differential suite for the summarization rewrite (ISSUE 4): on random
//! multi-segment `g0` inputs,
//!
//! * the counting-based [`simulation`] ≡ the naive pair fixpoint
//!   ([`simulation_naive`]) ≡ the frozen seed sweep
//!   ([`simulation_reference`]), in both directions;
//! * the quotient-incremental [`merge`] produces the same quotient groups as
//!   the frozen recompute-every-round [`merge_reference`] (up to group
//!   relabeling — asserted via partition normalization AND, stronger, via the
//!   exact `group_of` labels, which the rewrite preserves by construction).

use proptest::prelude::*;
use prov_model::{EdgeKind, VertexId};
use prov_store::hash::FxHashMap;
use prov_store::ProvGraph;
use prov_summary::merge_reference::merge_reference;
use prov_summary::simulation::{simulation, simulation_naive, SimDirection};
use prov_summary::simulation_reference::simulation_reference;
use prov_summary::{build_g0, merge, PgSumQuery, PropertyAggregation, SegmentRef, G0};

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

/// Normalize a partition labeling to first-appearance order, so two
/// partitions compare equal iff they group the same nodes together.
fn normalize(group_of: &[u32]) -> Vec<u32> {
    let mut remap: FxHashMap<u32, u32> = FxHashMap::default();
    group_of
        .iter()
        .map(|&g| {
            let next = remap.len() as u32;
            *remap.entry(g).or_insert(next)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn counting_simulation_matches_naive_and_reference(
        plans in proptest::collection::vec(segment_plan(3), 1..5),
    ) {
        for g0 in g0s(&plans) {
            for dir in [SimDirection::Out, SimDirection::In] {
                let fast = simulation(&g0, dir);
                let naive = simulation_naive(&g0, dir);
                let frozen = simulation_reference(&g0, dir);
                for v in 0..g0.len() as u32 {
                    for u in 0..g0.len() as u32 {
                        prop_assert_eq!(
                            fast.le(v, u),
                            naive[v as usize][u as usize],
                            "vs naive: dir={:?} v={} u={}", dir, v, u
                        );
                        prop_assert_eq!(
                            fast.le(v, u),
                            frozen.le(v, u),
                            "vs reference: dir={:?} v={} u={}", dir, v, u
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
    fn incremental_merge_matches_reference_quotient(
        plans in proptest::collection::vec(segment_plan(3), 1..5),
    ) {
        for g0 in g0s(&plans) {
            let new = merge(&g0);
            let old = merge_reference(&g0);
            // Same quotient groups up to relabeling...
            prop_assert_eq!(
                normalize(&new.group_of),
                normalize(&old.group_of),
                "partitions differ"
            );
            // ...and in fact the same labels: the incremental discipline
            // assigns dense ids in the seed's first-appearance order.
            prop_assert_eq!(&new.group_of, &old.group_of);
            prop_assert_eq!(new.members.len(), old.members.len());
        }
    }

    #[test]
    fn pgsum_end_to_end_matches_reference(
        plans in proptest::collection::vec(segment_plan(2), 1..4),
    ) {
        let (g, segs) = build(&plans);
        for q in [PgSumQuery::new(PropertyAggregation::ignore_all(), 0), PgSumQuery::fig2e()] {
            let new = prov_summary::pgsum(&g, &segs, &q);
            let old = prov_summary::pgsum_reference(&g, &segs, &q);
            prop_assert_eq!(new.vertex_count(), old.vertex_count());
            prop_assert_eq!(new.edge_count(), old.edge_count());
            prop_assert!((new.compaction_ratio() - old.compaction_ratio()).abs() < 1e-12);
        }
    }
}
