//! SimProvTst against its definition at the scale where its bug class lives.
//!
//! `differential.rs` compares the kernel with path enumeration on at most ten
//! activities: one word, one length per vertex. Here the oracle is the level
//! construction of `common/` and the graphs are the ones whose length sets
//! span many words — `Pd` at 200–2,000 vertices, deep DAGs whose length axis
//! ends on either side of a word boundary, masks, degenerate queries — plus
//! the two memory bounds and the work ordering the kernel promises. The oracle
//! is quadratic; `just segment-test` runs this file in `--release`.

mod common;

use common::{levels, similar_by_levels};
use proptest::prelude::*;
use prov_model::{EdgeKind, VertexId, VertexKind};
use prov_segment::{
    similar_tst, Boundary, EdgePred, MaskedGraph, SimilarOutcome, TstConfig, VertexPred,
};
use prov_store::{ProvGraph, ProvIndex};
use prov_workload::{generate_pd, sources_at_percentile, PdParams};
use std::sync::Arc;

fn tst(
    view: &MaskedGraph<'_>,
    vsrc: &[VertexId],
    vdst: &[VertexId],
    early_stop: bool,
) -> SimilarOutcome {
    similar_tst(view, vsrc, vdst, &TstConfig { early_stop }).expect("test graphs are DAGs")
}

/// Kernel ≡ oracle on `answer` and `VC2`, with and without the length cut.
fn assert_matches_definition(view: &MaskedGraph<'_>, vsrc: &[VertexId], vdst: &[VertexId]) {
    let (answer, vc2) = similar_by_levels(view, vsrc, vdst);
    for early_stop in [true, false] {
        let out = tst(view, vsrc, vdst, early_stop);
        assert_eq!(out.answer, answer, "answer, early_stop={early_stop} src={vsrc:?} dst={vdst:?}");
        assert_eq!(
            out.vc2.as_deref(),
            Some(&vc2[..]),
            "vc2, early_stop={early_stop} src={vsrc:?} dst={vdst:?}"
        );
    }
}

fn pd(n: usize, seed: u64) -> (ProvGraph, ProvIndex) {
    let graph = generate_pd(&PdParams { seed, ..PdParams::with_size(n) });
    let index = ProvIndex::build(&graph);
    (graph, index)
}

/// The newest `k` entities, newest first.
fn newest_entities(graph: &ProvGraph, k: usize) -> Vec<VertexId> {
    graph.vertices_of_kind(VertexKind::Entity).iter().rev().take(k).copied().collect()
}

#[test]
fn pd_graphs_match_the_definition() {
    // The `explore` family: sources slide along the creation order,
    // destinations are the newest entities; one to three of them, one twice.
    for (n, seed) in [(200, 1), (700, 2), (2_000, 3)] {
        let (graph, index) = pd(n, seed);
        let view = MaskedGraph::unmasked(&index);
        let last = newest_entities(&graph, 3);
        for (percent, vdst) in [
            (0.0, vec![last[0], last[1]]),
            (20.0, vec![last[0]]),
            (40.0, vec![last[0], last[2], last[0]]),
        ] {
            let vsrc = sources_at_percentile(&graph, percent, 2);
            assert_matches_definition(&view, &vsrc, &vdst);
        }
    }
}

#[test]
fn masks_and_degenerate_queries_match_the_definition() {
    let (graph, index) = pd(700, 4);
    let last = newest_entities(&graph, 2);
    let vsrc = sources_at_percentile(&graph, 20.0, 2);

    // Every seventh vertex hidden (never a query vertex), then every fifth edge.
    let keep = [vsrc.clone(), last.clone()].concat();
    let hidden = move |v: VertexId| v.raw() % 7 == 3 && !keep.contains(&v);
    let vertex_mask = Boundary::none()
        .with_vertex_pred(VertexPred::Custom(Arc::new(move |_, v| !hidden(v))))
        .compile(&graph);
    assert_matches_definition(&MaskedGraph::new(&index, Some(&vertex_mask)), &vsrc, &last);
    let edge_mask = Boundary::none()
        .with_edge_pred(EdgePred::Custom(Arc::new(|_, e| e.raw() % 5 != 0)))
        .compile(&graph);
    assert_matches_definition(&MaskedGraph::new(&index, Some(&edge_mask)), &vsrc, &last);

    // A masked destination contributes nothing; the other one still answers.
    let dst_mask = Boundary::none()
        .with_vertex_pred(VertexPred::Custom(Arc::new({
            let gone = last[0];
            move |_, v| v != gone
        })))
        .compile(&graph);
    let view = MaskedGraph::new(&index, Some(&dst_mask));
    assert_matches_definition(&view, &vsrc, &last);
    assert_eq!(tst(&view, &vsrc, &last[..1], true).vc2, Some(vec![]));

    let view = MaskedGraph::unmasked(&index);
    // `src == dst`: length 0 is accepted.
    assert_matches_definition(&view, &last[..1], &last[..1]);
    assert_eq!(tst(&view, &last[..1], &last[..1], true).answer, vec![last[0]]);
    // A source that is not upstream of the destination is never reached.
    assert_matches_definition(&view, &last[..1], &vsrc[..1]);
    assert!(tst(&view, &last[..1], &vsrc[..1], true).answer.is_empty());
    // One reachable and one unreachable source.
    assert_matches_definition(&view, &[vsrc[0], last[0]], &last[1..]);
}

/// A DAG laid out along the length axis: position `p` (even = entity, odd =
/// activity) holds a spine vertex and a side vertex, the spine steps
/// `p → p + 1` up to `depth`, and every extra edge jumps an odd distance
/// forward. Positions only grow, so the longest upstream path from the spine
/// head is exactly `depth`, while the jumps give the vertices behind them many
/// path lengths. Returns the graph and `[spine, side]` per position.
fn axis_dag(
    depth: usize,
    jumps: &[(prop::sample::Index, usize, bool, bool)],
) -> (ProvGraph, Vec<[VertexId; 2]>) {
    let mut g = ProvGraph::new();
    let at: Vec<[VertexId; 2]> = (0..=depth)
        .map(|p| {
            let kind = if p.is_multiple_of(2) { VertexKind::Entity } else { VertexKind::Activity };
            [0, 1].map(|lane| g.add_vertex(kind, Some(&format!("p{p}l{lane}"))).unwrap())
        })
        .collect();
    let mut step = |p: usize, from: VertexId, to: VertexId| {
        let kind = if p.is_multiple_of(2) { EdgeKind::WasGeneratedBy } else { EdgeKind::Used };
        g.add_edge(kind, from, to).unwrap();
    };
    for p in 0..depth {
        step(p, at[p][0], at[p + 1][0]);
    }
    for &(from, half_jump, from_side, to_side) in jumps {
        let p = from.index(depth);
        let q = p + 2 * half_jump + 1;
        if q <= depth {
            step(p, at[p][from_side as usize], at[q][to_side as usize]);
        }
    }
    (g, at)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The length axis ends one bit before, on, and one bit after a word
    /// boundary. Without the cut `cap` is `depth` itself (odd when the
    /// deepest vertex is an activity); with it, the distance of the deepest
    /// source entity, `depth` rounded down to even: 62, 64, 126, 128.
    #[test]
    fn deep_dags_match_the_definition_around_word_boundaries(
        jumps in proptest::collection::vec(
            (any::<prop::sample::Index>(), 0..12usize, any::<bool>(), any::<bool>()),
            60..160,
        ),
        near in any::<prop::sample::Index>(),
    ) {
        for depth in [63, 64, 65, 127, 128, 129] {
            let (g, at) = axis_dag(depth, &jumps);
            g.validate_acyclic().expect("positions only grow");
            let index = ProvIndex::build(&g);
            let view = MaskedGraph::unmasked(&index);
            prop_assert_eq!(levels(&view, at[0][0]).len(), depth + 1, "the axis ends at `depth`");
            let deepest_entity = at[depth - depth % 2];
            // The spine end alone pins `cap`; a nearer side entity (reachable
            // or not) adds accepted lengths below it.
            let near_entity = at[2 * near.index(depth / 2)][1];
            assert_matches_definition(&view, &[deepest_entity[0]], &[at[0][0]]);
            assert_matches_definition(
                &view,
                &[deepest_entity[0], deepest_entity[1], near_entity],
                &[at[0][0], at[2][0]],
            );
        }
    }
}

/// `e0 <-U- a1 <-G- e1 <-U- a2 ... <-G- e_k`: one path, every length once.
fn chain(activities: usize) -> (ProvGraph, VertexId, VertexId) {
    let mut g = ProvGraph::new();
    let first = g.add_entity("e0");
    let mut last = first;
    for i in 1..=activities {
        let a = g.add_activity(&format!("a{i}"));
        let e = g.add_entity(&format!("e{i}"));
        g.add_edge(EdgeKind::Used, a, last).unwrap();
        g.add_edge(EdgeKind::WasGeneratedBy, e, a).unwrap();
        last = e;
    }
    (g, first, last)
}

#[test]
fn memory_follows_the_windows_not_the_length_axis() {
    // 200,001 vertices, `cap` = 200,000: one bitset of `cap` bits per vertex
    // would be 5 GB. Each window is a single word (16.1 MiB in all, 600,002
    // word operations).
    let (g, first, last) = chain(100_000);
    let index = ProvIndex::build(&g);
    let view = MaskedGraph::unmasked(&index);
    for early_stop in [true, false] {
        let out = tst(&view, &[first], &[last], early_stop);
        assert_eq!(out.answer, vec![first]);
        assert_eq!(out.vc2.map(|v| v.len()), Some(g.vertex_count()));
        assert!(
            out.stats.memory_bytes < 32 << 20,
            "chain: {} bytes, early_stop={early_stop}",
            out.stats.memory_bytes
        );
        // One accepted length at the far end: widening `T_e` a word-row at
        // a time would be `cap²/64` = 625M operations here.
        assert!(out.stats.work < 2_000_000, "chain: {} word operations", out.stats.work);
    }

    // The Fig. 5(a) quick-scale maximum, standard first/last-entity query.
    let (graph, index) = pd(5_000, 42);
    let view = MaskedGraph::unmasked(&index);
    let (vsrc, vdst) = prov_workload::standard_query(&graph, 2);
    for early_stop in [true, false] {
        let out = tst(&view, &vsrc, &vdst, early_stop);
        assert!(!out.answer.is_empty());
        assert!(
            out.stats.memory_bytes < 8 << 20,
            "Pd5000: {} bytes, early_stop={early_stop}",
            out.stats.memory_bytes
        );
    }
}

#[test]
fn the_length_cut_never_adds_work() {
    let (graph, index) = pd(2_000, 5);
    let view = MaskedGraph::unmasked(&index);
    let vdst = newest_entities(&graph, 2);
    let mut saved = false;
    for percent in [0.0, 40.0, 80.0] {
        let vsrc = sources_at_percentile(&graph, percent, 2);
        let (on, off) = (tst(&view, &vsrc, &vdst, true), tst(&view, &vsrc, &vdst, false));
        assert_eq!((&on.answer, &on.vc2), (&off.answer, &off.vc2));
        assert!(on.stats.work <= off.stats.work, "{} > {}", on.stats.work, off.stats.work);
        saved |= on.stats.work < off.stats.work;
    }
    assert!(saved, "late sources cut the axis short");
}

// ---- the definition itself ------------------------------------------------

/// The Fig. 3 shape in miniature: two parallel adjustment rounds.
///
/// ```text
/// d  <-U- t1 <-G- m1          d  <-U- t2 <-G- m2
/// m1 <-U- t3 <-G- w           m2 <-U- t4 <-G- w2
/// ```
fn two_round() -> (ProvIndex, Vec<VertexId>) {
    let mut g = ProvGraph::new();
    let d = g.add_entity("d");
    let t1 = g.add_activity("t1");
    let m1 = g.add_entity("m1");
    let t2 = g.add_activity("t2");
    let m2 = g.add_entity("m2");
    let t3 = g.add_activity("t3");
    let w = g.add_entity("w");
    let t4 = g.add_activity("t4");
    let w2 = g.add_entity("w2");
    for (kind, from, to) in [
        (EdgeKind::Used, t1, d),
        (EdgeKind::WasGeneratedBy, m1, t1),
        (EdgeKind::Used, t2, d),
        (EdgeKind::WasGeneratedBy, m2, t2),
        (EdgeKind::Used, t3, m1),
        (EdgeKind::WasGeneratedBy, w, t3),
        (EdgeKind::Used, t4, m2),
        (EdgeKind::WasGeneratedBy, w2, t4),
    ] {
        g.add_edge(kind, from, to).unwrap();
    }
    (ProvIndex::build(&g), vec![d, t1, m1, t2, m2, t3, w, t4, w2])
}

#[test]
fn levels_alternate_and_cover_ancestry() {
    let (idx, ids) = two_round();
    let view = MaskedGraph::unmasked(&idx);
    // w -> {t3} -> {m1} -> {t1} -> {d}
    let ls = levels(&view, ids[6]);
    assert_eq!(ls, vec![vec![ids[6]], vec![ids[5]], vec![ids[2]], vec![ids[1]], vec![ids[0]]]);
}

#[test]
fn pair_relation_is_symmetric_reflexive_on_levels() {
    // The full `Ee` relation of one destination: all ordered pairs of
    // entities sharing an even level, identity included.
    let (idx, ids) = two_round();
    let view = MaskedGraph::unmasked(&idx);
    let mut pairs = std::collections::BTreeSet::new();
    for level in levels(&view, ids[6]).iter().step_by(2) {
        for &a in level {
            pairs.extend(level.iter().map(|&b| (a, b)));
        }
    }
    assert!(pairs.contains(&(ids[6], ids[6])));
    assert!(pairs.contains(&(ids[2], ids[2])));
    for &(a, b) in &pairs {
        assert!(pairs.contains(&(b, a)));
    }
}
