//! Incremental-refresh differential tests (ISSUE 5 acceptance): a
//! [`ProvIndex`] maintained through `refresh_in_place`/`refreshed` across
//! random ingest/query interleavings must stay `==` to a full
//! [`ProvIndex::build`] of the same graph — identical CSR rows (targets and
//! edge ids, whatever the layout holding them), kind tables, ranks, births,
//! and counts, which is exactly what `PartialEq` compares.
//!
//! The generator grows a random PROV-typed graph in batches (every edge kind,
//! edges landing on arbitrarily old vertices so frozen CSR rows must grow,
//! interleaved property writes that must NOT age the snapshot), and after
//! each batch "queries" the maintained snapshot by comparing it against the
//! reference build. Both refresh flavors — in place (sole owner) and
//! clone-extend (pinned by sessions) — take the same append path and are
//! exercised alternately; a second snapshot refreshed only at the end covers
//! multi-batch deltas. A second leg refreshes one index after every single
//! activity, the serving loop's shape, long enough that its CSRs repack.

use proptest::prelude::*;
use prov_model::{EdgeKind, VertexId, VertexKind};
use prov_store::{Csr, Direction, ProvGraph, ProvIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One randomized mutation; invalid endpoint draws fall back to inserts so
/// every step mutates something.
fn mutate(g: &mut ProvGraph, rng: &mut StdRng, step: usize) {
    let pick = |g: &ProvGraph, rng: &mut StdRng, kind: VertexKind| {
        let of_kind = g.vertices_of_kind(kind);
        if of_kind.is_empty() {
            None
        } else {
            Some(of_kind[rng.gen_range(0..of_kind.len())])
        }
    };
    match rng.gen_range(0..10u32) {
        0 => {
            g.add_entity(&format!("e{step}"));
        }
        1 => {
            g.add_activity(&format!("a{step}"));
        }
        2 => {
            g.add_agent(&format!("u{step}"));
        }
        // Property writes: must leave the delta cursor (and thus snapshot
        // freshness) untouched.
        3 => {
            if let Some(v) = pick(g, rng, VertexKind::Entity) {
                g.set_vprop(v, "tag", format!("t{step}"));
            }
        }
        4 => match (pick(g, rng, VertexKind::Activity), pick(g, rng, VertexKind::Entity)) {
            (Some(a), Some(e)) => {
                g.add_edge(EdgeKind::Used, a, e).unwrap();
            }
            _ => {
                g.add_activity(&format!("a{step}"));
            }
        },
        5 => match (pick(g, rng, VertexKind::Entity), pick(g, rng, VertexKind::Activity)) {
            (Some(e), Some(a)) => {
                g.add_edge(EdgeKind::WasGeneratedBy, e, a).unwrap();
            }
            _ => {
                g.add_entity(&format!("e{step}"));
            }
        },
        6 => match (pick(g, rng, VertexKind::Activity), pick(g, rng, VertexKind::Agent)) {
            (Some(a), Some(u)) => {
                g.add_edge(EdgeKind::WasAssociatedWith, a, u).unwrap();
            }
            _ => {
                g.add_agent(&format!("u{step}"));
            }
        },
        7 => match (pick(g, rng, VertexKind::Entity), pick(g, rng, VertexKind::Agent)) {
            (Some(e), Some(u)) => {
                g.add_edge(EdgeKind::WasAttributedTo, e, u).unwrap();
            }
            _ => {
                g.add_agent(&format!("u{step}"));
            }
        },
        _ => match (pick(g, rng, VertexKind::Entity), pick(g, rng, VertexKind::Entity)) {
            (Some(d1), Some(d2)) => {
                g.add_edge(EdgeKind::WasDerivedFrom, d1, d2).unwrap();
            }
            _ => {
                g.add_entity(&format!("e{step}"));
            }
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Per-batch refresh (alternating in-place and clone-extend) plus one
    /// end-of-run refresh over the whole accumulated delta, both `==` to the
    /// reference full build at every query point.
    #[test]
    fn refresh_equals_build_on_random_interleavings(
        seed in 0u64..100_000,
        batches in 1usize..9,
        batch_size in 1usize..40,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = ProvGraph::new();
        // A tiny seed population so early edge draws can land.
        let e0 = g.add_entity("seed-e");
        g.add_activity("seed-a");
        g.add_agent("seed-u");
        g.add_edge(EdgeKind::WasAttributedTo, e0, g.vertex_by_name("seed-u").unwrap()).unwrap();

        let mut maintained = ProvIndex::build(&g);
        let pinned_at_start = maintained.clone();

        let mut step = 0usize;
        for batch in 0..batches {
            for _ in 0..batch_size {
                mutate(&mut g, &mut rng, step);
                step += 1;
            }
            // Query point: the maintained snapshot must equal the reference.
            if batch % 2 == 0 {
                maintained.refresh_in_place(&g);
            } else {
                maintained = maintained.refreshed(&g);
            }
            let reference = ProvIndex::build(&g);
            prop_assert_eq!(&maintained, &reference, "batch {} diverged", batch);
            prop_assert!(maintained.is_fresh(&g));
            // Structural invariants hold at every query point, for both the
            // mutable store and the incrementally maintained snapshot.
            prop_assert!(g.validate().is_ok(), "store invariants: {:?}", g.validate());
            prop_assert!(
                maintained.validate().is_ok(),
                "snapshot invariants: {:?}",
                maintained.validate()
            );
        }

        // Multi-batch delta in one refresh: same answer.
        let late = pinned_at_start.refreshed(&g);
        prop_assert_eq!(&late, &ProvIndex::build(&g));
        // The pinned original is untouched by the clone-extend path.
        prop_assert_eq!(pinned_at_start.vertex_count(), 3);
    }
}

/// The eight stored CSRs (plus the two empty agent in-directions).
fn csrs(idx: &ProvIndex) -> Vec<(String, &Csr)> {
    let mut all = Vec::new();
    for kind in EdgeKind::ALL {
        for dir in [Direction::Out, Direction::In] {
            // lint-ok(csr-traversal): reads column counts, walks no adjacency
            all.push((format!("{kind:?}/{dir:?}"), idx.csr(kind, dir)));
        }
    }
    all
}

/// 240 single-activity refreshes of one index: it stays `==` to the
/// reference build after every one, no CSR's columns ever exceed twice its
/// entries (the repack rule), and a CSR whose columns shrank was repacked
/// into exactly the packed layout — columns holding only live entries.
#[test]
fn single_activity_refreshes_repack_and_stay_equal_to_build() {
    let mut rng = StdRng::seed_from_u64(25);
    let mut g = ProvGraph::new();
    let alice = g.add_agent("alice");
    let seeds: Vec<VertexId> = (0..4).map(|i| g.add_entity(&format!("seed{i}"))).collect();
    let mut pool = seeds.clone();
    let mut idx = ProvIndex::build(&g);
    let mut repacks = 0;
    for round in 0..240 {
        let a = g.add_activity(&format!("a{round}"));
        // Half the inputs are the four seeds, so their rows keep growing
        // past their slots and moving; the rest land anywhere in the pool.
        let mut inputs = Vec::new();
        for _ in 0..rng.gen_range(1..4usize) {
            let e = if rng.gen_bool(0.5) {
                seeds[rng.gen_range(0..seeds.len())]
            } else {
                pool[rng.gen_range(0..pool.len())]
            };
            if !inputs.contains(&e) {
                g.add_edge(EdgeKind::Used, a, e).unwrap();
                inputs.push(e);
            }
        }
        let out = g.add_entity(&format!("o{round}"));
        g.add_edge(EdgeKind::WasGeneratedBy, out, a).unwrap();
        g.add_edge(EdgeKind::WasAssociatedWith, a, alice).unwrap();
        g.add_edge(EdgeKind::WasDerivedFrom, out, inputs[0]).unwrap();
        pool.push(out);

        let slots_before: Vec<usize> = csrs(&idx).iter().map(|(_, c)| c.slots()).collect();
        idx.refresh_in_place(&g);
        assert_eq!(idx, ProvIndex::build(&g), "round {round} diverged");
        assert!(idx.validate().is_ok(), "round {round}: {:?}", idx.validate());
        for ((name, csr), before) in csrs(&idx).into_iter().zip(slots_before) {
            assert!(csr.slots() <= 2 * csr.len(), "round {round}: {name} kept its slack");
            if csr.slots() < before {
                repacks += 1;
                assert_eq!(csr.slots(), csr.len(), "round {round}: {name} repacked with slack");
            }
        }
    }
    assert!(repacks > 0, "240 refreshes never repacked a CSR");
}

/// A tiny frozen prefix grown 2×, 10× and 50×: a refresh in place and a
/// refresh on a copy of a pinned snapshot (`refreshed`) both equal the
/// reference build and keep every invariant, and the pin does not move.
/// `ProvDb` rebuilds past half the prefix because that is cheaper, not
/// because a refresh would be wrong.
#[test]
fn deltas_many_times_the_prefix_refresh_equal_to_build() {
    for factor in [2usize, 10, 50] {
        let mut rng = StdRng::seed_from_u64(factor as u64);
        let mut g = ProvGraph::new();
        let mut step = 0usize;
        while g.vertex_count() < 8 {
            mutate(&mut g, &mut rng, step);
            step += 1;
        }
        let pinned = ProvIndex::build(&g);
        let base = g.vertex_count();
        while g.vertex_count() < factor * base {
            mutate(&mut g, &mut rng, step);
            step += 1;
        }
        let reference = ProvIndex::build(&g);
        let mut owned = pinned.clone();
        owned.refresh_in_place(&g);
        let copy = pinned.refreshed(&g);
        for (how, idx) in [("in place", &owned), ("copy", &copy)] {
            assert_eq!(idx, &reference, "{factor}x {how}");
            assert!(idx.validate().is_ok(), "{factor}x {how}: {:?}", idx.validate());
        }
        assert_eq!(pinned.vertex_count(), base, "{factor}x: the pinned snapshot moved");
    }
}
