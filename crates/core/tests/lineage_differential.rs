//! Lineage differential: the `compile_lineage` lowering onto the query IR —
//! what `ProvDb::lineage`/`lineage_within`/`k_hop` execute — must answer
//! exactly like the definitional level-BFS oracle on random `Pd` workloads,
//! for every bound shape, both directions, entity and activity starts alike.
//! The oracle itself is pinned to the frozen seed walk (`lineage_reference`)
//! on the unbounded closure, and the bounded variants must be consistent
//! prefixes/rings of that closure.

mod common;

use common::{compiled_lineage as compiled, lineage_oracle};
use proptest::prelude::*;
use prov_core::{lineage_reference, LineageBound, LineageDirection};
use prov_model::VertexKind;
use prov_store::ProvIndex;
use prov_workload::{generate_pd, PdParams};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn bounded_lineage_is_consistent_with_the_seed_closure_on_pd(
        n in 60usize..400,
        seed in 0u64..1_000,
        se in 1.1f64..2.1,
        start_pick in any::<prop::sample::Index>(),
        kind_pick in 0usize..2,
    ) {
        let graph = generate_pd(&PdParams { n, seed, se, ..PdParams::default() });
        let idx = ProvIndex::build(&graph);
        let kind = [VertexKind::Entity, VertexKind::Activity][kind_pick];
        let of_kind = graph.vertices_of_kind(kind);
        // Pd always seeds entities and at least one activity.
        prop_assert!(!of_kind.is_empty());
        let start = *start_pick.get(of_kind);
        for dir in [LineageDirection::Ancestors, LineageDirection::Descendants] {
            let closure = compiled(&graph, &idx, start, dir, LineageBound::Unbounded);
            let oracle = lineage_oracle(&graph, start, dir, LineageBound::Unbounded);
            prop_assert_eq!(&oracle, &lineage_reference(&idx, start, dir), "oracle vs seed walk");
            prop_assert_eq!(&closure, &oracle, "closure diverged at {} {:?}", start, dir);
            prop_assert!(closure.windows(2).all(|w| w[0] < w[1]), "unsorted");

            // Within(d) is monotone in d and reaches the closure; Exactly(d)
            // rings partition Within's increments.
            let mut prev = Vec::new();
            for d in 1..=8u32 {
                let within = compiled(&graph, &idx, start, dir, LineageBound::Within(d));
                prop_assert_eq!(
                    &within, &lineage_oracle(&graph, start, dir, LineageBound::Within(d)),
                    "Within({}) vs oracle", d
                );
                prop_assert!(prev.iter().all(|v| within.contains(v)), "Within not monotone");
                let ring = compiled(&graph, &idx, start, dir, LineageBound::Exactly(d));
                let grew: Vec<_> =
                    within.iter().filter(|v| !prev.contains(v)).copied().collect();
                prop_assert_eq!(&ring, &grew, "ring {} != Within increment", d);
                prev = within;
            }
            prop_assert!(prev.iter().all(|v| closure.contains(v)), "Within(8) ⊄ closure");
        }
    }

    #[test]
    fn compiled_lineage_matches_oracle_on_pd(
        n in 60usize..300,
        seed in 0u64..1_000,
        se in 1.1f64..2.1,
        start_pick in any::<prop::sample::Index>(),
        kind_pick in 0usize..2,
    ) {
        let graph = generate_pd(&PdParams { n, seed, se, ..PdParams::default() });
        let idx = ProvIndex::build(&graph);
        let kind = [VertexKind::Entity, VertexKind::Activity][kind_pick];
        let start = *start_pick.get(graph.vertices_of_kind(kind));
        for dir in [LineageDirection::Ancestors, LineageDirection::Descendants] {
            for bound in [
                LineageBound::Unbounded,
                LineageBound::Within(0),
                LineageBound::Within(3),
                LineageBound::Exactly(0),
                LineageBound::Exactly(2),
            ] {
                prop_assert_eq!(
                    &compiled(&graph, &idx, start, dir, bound),
                    &lineage_oracle(&graph, start, dir, bound),
                    "{:?} {:?}", dir, bound
                );
            }
        }
    }
}
