//! `SimProvTst`: per-destination transitive evaluation via equivalence classes.
//!
//! Evaluating each `vj ∈ Vdst` separately restores transitivity of the `Ee` /
//! `Aa` relations (Sec. III-B), so instead of pair facts the algorithm keeps a
//! single *equivalence class per iteration* — precisely the alternating
//! upstream level sets of `vj`:
//!
//! ```text
//! [e]₀ = {vj}
//! [a]₁ = { a : ∃e ∈ [e]₀, (e, a) ∈ G }   (generators)
//! [e]₂ = { e : ∃a ∈ [a]₁, (a, e) ∈ U }   (inputs)
//! ...
//! ```
//!
//! Any two vertices in the same even level are `Ee`-related; the reachability
//! answer is the union of the levels that contain a source. The level
//! construction runs in `O(Σ_m Σ_{v∈[.]_m} deg(v))` — `O(|G| + |U|)` per
//! destination when level sets are disjoint (the typical provenance case,
//! Theorem 2) — and supports the paper's early-stopping rule: once every
//! vertex of a level is older than every source entity, no deeper level can
//! contain a source and exploration stops.
//!
//! Unlike the pair-relation solvers, this module also induces the exact `VC2`
//! vertex set (every vertex on an accepting path): a vertex `u ∈ [.]_m` lies
//! on a valid side-2 path iff it can extend upstream to length `M` for some
//! accepted `M` (a source level), i.e. iff `∃M ∈ Mset: m ≤ M ≤ m + ext(u)`
//! where `ext(u)` is the longest upstream ancestry path from `u`. Every
//! upstream neighbor of a level-`m` vertex is in level `m+1`, so extensions
//! never leave the level structure and the interval test is exact.

use crate::outcome::{marks_to_vec, EvalStats, SimilarOutcome};
use crate::view::MaskedGraph;
use prov_model::{VertexId, VertexKind};
use prov_store::rank_u32;
use std::time::Instant;

/// Configuration for [`similar_tst`].
#[derive(Debug, Clone, Copy)]
pub struct TstConfig {
    /// Apply the temporal early-stopping rule (assumes births respect
    /// generation/usage order, which lifecycle ingestion guarantees).
    pub early_stop: bool,
    /// Safety cap on the number of levels (defaults to the vertex count; the
    /// DAG's longest path bounds it anyway).
    pub max_levels: Option<usize>,
    /// Use compressed bitmaps for the per-level dedup sets instead of the
    /// dense stamp array (the paper's `w CBM` space/time trade-off).
    pub compressed_sets: bool,
}

impl Default for TstConfig {
    fn default() -> Self {
        TstConfig { early_stop: true, max_levels: None, compressed_sets: false }
    }
}

/// Longest upstream (ancestry) path length from each vertex, lazily memoized.
/// `-1` = unknown; computed with an explicit stack (the graph is a DAG).
fn ext_of(view: &MaskedGraph<'_>, start: VertexId, memo: &mut [i64]) -> u32 {
    if memo[start.index()] >= 0 {
        return rank_u32(memo[start.index()] as usize);
    }
    let mut stack: Vec<VertexId> = vec![start];
    while let Some(&u) = stack.last() {
        if memo[u.index()] >= 0 {
            stack.pop();
            continue;
        }
        let mut pending = false;
        let mut best: i64 = 0;
        for w in view.upstream(u) {
            let m = memo[w.index()];
            if m < 0 {
                stack.push(w);
                pending = true;
            } else {
                best = best.max(1 + m);
            }
        }
        if !pending {
            memo[u.index()] = best;
            stack.pop();
        }
    }
    // A DAG path length, below the vertex count.
    rank_u32(memo[start.index()] as usize)
}

/// The level sets of one destination (exposed for tests and for the
/// summarization pipeline's diagnostics).
#[derive(Debug, Clone)]
pub struct LevelSets {
    /// `levels[m]` = the equivalence class at iteration `m` (even = entities,
    /// odd = activities).
    pub levels: Vec<Vec<VertexId>>,
    /// Even levels containing at least one source ("accepted lengths").
    pub msets: Vec<usize>,
}

/// Build the upstream level sets for a single destination.
pub fn level_sets(
    view: &MaskedGraph<'_>,
    vj: VertexId,
    is_src: &[bool],
    min_src_birth: Option<u64>,
    cfg: &TstConfig,
    stamps: &mut [u32],
    stamp_counter: &mut u32,
) -> LevelSets {
    let mut levels: Vec<Vec<VertexId>> = Vec::new();
    let mut msets: Vec<usize> = Vec::new();
    if !view.vertex_ok(vj) {
        return LevelSets { levels, msets };
    }
    levels.push(vec![vj]);
    if is_src[vj.index()] {
        msets.push(0);
    }
    let cap = cfg.max_levels.unwrap_or(view.index().vertex_count() + 1);
    loop {
        let m = levels.len();
        if m > cap {
            break;
        }
        let last = &levels[m - 1];
        let mut next: Vec<VertexId> = Vec::new();
        if cfg.compressed_sets {
            use prov_bitset::FastSet;
            let mut seen = prov_bitset::CompressedBitmap::new();
            for &u in last {
                for w in view.upstream(u) {
                    if seen.insert(w.raw()) {
                        next.push(w);
                    }
                }
            }
        } else {
            *stamp_counter += 1;
            let stamp = *stamp_counter;
            for &u in last {
                for w in view.upstream(u) {
                    if stamps[w.index()] != stamp {
                        stamps[w.index()] = stamp;
                        next.push(w);
                    }
                }
            }
        }
        if next.is_empty() {
            break;
        }
        let has_src = m.is_multiple_of(2) && next.iter().any(|&v| is_src[v.index()]);
        let all_old = match min_src_birth {
            Some(min) => next.iter().all(|&v| view.index().birth(v) < min),
            None => true,
        };
        if has_src {
            msets.push(m);
        }
        levels.push(next);
        if cfg.early_stop && all_old {
            // No deeper level can contain a source (upstream is strictly
            // older), and levels beyond the last accepted M never contribute
            // to the answer or to VC2.
            break;
        }
    }
    LevelSets { levels, msets }
}

/// Evaluate `L(SimProv)`-reachability with SimProvTst and induce the exact
/// `VC2` vertex set.
pub fn similar_tst(
    view: &MaskedGraph<'_>,
    vsrc: &[VertexId],
    vdst: &[VertexId],
    cfg: &TstConfig,
) -> SimilarOutcome {
    let t0 = Instant::now();
    let n = view.index().vertex_count();
    let mut is_src = vec![false; n];
    let mut min_src_birth: Option<u64> = None;
    for &s in vsrc {
        if s.index() < n && view.vertex_ok(s) {
            is_src[s.index()] = true;
            let b = view.index().birth(s);
            min_src_birth = Some(min_src_birth.map_or(b, |m: u64| m.min(b)));
        }
    }
    let mut in_answer = vec![false; n];
    let mut in_vc2 = vec![false; n];
    let mut ext_memo: Vec<i64> = vec![-1; n];
    let mut stamps: Vec<u32> = vec![0; n];
    let mut stamp_counter: u32 = 0;
    let mut work: u64 = 0;
    let mut mem = n * (1 + 1 + 8 + 4);

    let mut seen_dst = vec![false; n];
    for &vj in vdst {
        if vj.index() >= n || seen_dst[vj.index()] {
            continue;
        }
        seen_dst[vj.index()] = true;
        debug_assert_eq!(view.index().kind(vj), VertexKind::Entity, "Vdst must be entities");
        let ls = level_sets(view, vj, &is_src, min_src_birth, cfg, &mut stamps, &mut stamp_counter);
        work += ls.levels.iter().map(|l| l.len() as u64).sum::<u64>();
        mem = mem.max(n * 14 + ls.levels.iter().map(|l| l.len() * 4).sum::<usize>());
        let Some(&max_m) = ls.msets.last() else { continue };
        // Answer: union of source levels.
        for &m in &ls.msets {
            for &u in &ls.levels[m] {
                in_answer[u.index()] = true;
            }
        }
        // VC2: u ∈ level m contributes iff some accepted M ∈ [m, m + ext(u)].
        let mut mset_ptr = 0usize;
        for (m, level) in ls.levels.iter().enumerate().take(max_m + 1) {
            while mset_ptr < ls.msets.len() && ls.msets[mset_ptr] < m {
                mset_ptr += 1;
            }
            debug_assert!(mset_ptr < ls.msets.len(), "m <= max_m implies a following M");
            let next_m = ls.msets[mset_ptr];
            for &u in level {
                if in_vc2[u.index()] {
                    continue;
                }
                let reach = m as u64 + ext_of(view, u, &mut ext_memo) as u64;
                if next_m as u64 <= reach {
                    in_vc2[u.index()] = true;
                }
            }
        }
    }

    SimilarOutcome {
        answer: marks_to_vec(&in_answer),
        vc2: Some(marks_to_vec(&in_vc2)),
        stats: EvalStats { elapsed: t0.elapsed(), work, memory_bytes: mem, dnf: false },
    }
}

/// Test helper: the full `Ee` pair relation (all ordered pairs of entities
/// sharing an even level of some destination, identity included). Quadratic —
/// only for differential testing on small graphs.
#[doc(hidden)]
pub fn entity_pairs_for_tests(
    view: &MaskedGraph<'_>,
    vdst: &[VertexId],
) -> std::collections::BTreeSet<(u32, u32)> {
    let n = view.index().vertex_count();
    let mut stamps = vec![0u32; n];
    let mut counter = 0u32;
    let cfg = TstConfig { early_stop: false, max_levels: None, compressed_sets: false };
    let is_src = vec![false; n];
    let mut pairs = std::collections::BTreeSet::new();
    for &vj in vdst {
        let ls = level_sets(view, vj, &is_src, None, &cfg, &mut stamps, &mut counter);
        for (m, level) in ls.levels.iter().enumerate() {
            if m % 2 != 0 {
                continue;
            }
            for &a in level {
                for &b in level {
                    pairs.insert((a.raw(), b.raw()));
                }
            }
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_model::EdgeKind;
    use prov_store::{ProvGraph, ProvIndex};

    /// The Fig. 3 shape in miniature: two parallel adjustment rounds feeding a
    /// final artifact.
    ///
    /// ```text
    /// d  <-U- t1 <-G- m1          d  <-U- t2 <-G- m2
    /// m1 <-U- t3 <-G- w           m2 <-U- t4 <-G- w2
    /// ```
    fn two_round() -> (ProvGraph, ProvIndex, Vec<VertexId>) {
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
        g.add_edge(EdgeKind::Used, t1, d).unwrap();
        g.add_edge(EdgeKind::WasGeneratedBy, m1, t1).unwrap();
        g.add_edge(EdgeKind::Used, t2, d).unwrap();
        g.add_edge(EdgeKind::WasGeneratedBy, m2, t2).unwrap();
        g.add_edge(EdgeKind::Used, t3, m1).unwrap();
        g.add_edge(EdgeKind::WasGeneratedBy, w, t3).unwrap();
        g.add_edge(EdgeKind::Used, t4, m2).unwrap();
        g.add_edge(EdgeKind::WasGeneratedBy, w2, t4).unwrap();
        let idx = ProvIndex::build(&g);
        let ids = vec![d, t1, m1, t2, m2, t3, w, t4, w2];
        (g, idx, ids)
    }

    #[test]
    fn levels_alternate_and_cover_ancestry() {
        let (_, idx, ids) = two_round();
        let view = MaskedGraph::unmasked(&idx);
        let n = idx.vertex_count();
        let (mut stamps, mut counter) = (vec![0u32; n], 0u32);
        let is_src = vec![false; n];
        let ls = level_sets(
            &view,
            ids[6], // w
            &is_src,
            None,
            // With no sources the early-stopping rule fires immediately;
            // disable it to inspect the full level structure.
            &TstConfig { early_stop: false, max_levels: None, compressed_sets: false },
            &mut stamps,
            &mut counter,
        );
        // w -> {t3} -> {m1} -> {t1} -> {d}
        assert_eq!(ls.levels.len(), 5);
        assert_eq!(ls.levels[0], vec![ids[6]]);
        assert_eq!(ls.levels[1], vec![ids[5]]);
        assert_eq!(ls.levels[2], vec![ids[2]]);
        assert_eq!(ls.levels[4], vec![ids[0]]);
    }

    #[test]
    fn answer_is_the_source_level() {
        let (_, idx, ids) = two_round();
        let view = MaskedGraph::unmasked(&idx);
        let (d, m1, m2, w, w2) = (ids[0], ids[2], ids[4], ids[6], ids[8]);
        // src = {m1}, dst = {w}: m1 is in level 2 of w, so the answer is
        // level 2 = {m1} itself (no other entity shares that level).
        let out = similar_tst(&view, &[m1], &[w], &TstConfig::default());
        assert_eq!(out.answer, vec![m1]);
        // src = {d}, dst = {w}: d is in level 4; level 4 = {d}.
        let out = similar_tst(&view, &[d], &[w], &TstConfig::default());
        assert_eq!(out.answer, vec![d]);
        // src = {d}, dst = {w, w2}: both chains accept; answer still {d}.
        let out = similar_tst(&view, &[d], &[w, w2], &TstConfig::default());
        assert_eq!(out.answer, vec![d]);
        // Sibling model of the same round: from w2's perspective m2 is level 2.
        let out = similar_tst(&view, &[m2], &[w2], &TstConfig::default());
        assert_eq!(out.answer, vec![m2]);
    }

    #[test]
    fn vc2_contains_similar_round_not_unrelated() {
        // Make the rounds share the destination: t3 and t4 both feed w.
        let mut g = ProvGraph::new();
        let d = g.add_entity("d");
        let t1 = g.add_activity("t1");
        let m1 = g.add_entity("m1");
        let t2 = g.add_activity("t2");
        let m2 = g.add_entity("m2");
        let t3 = g.add_activity("t3");
        let w = g.add_entity("w");
        g.add_edge(EdgeKind::Used, t1, d).unwrap();
        g.add_edge(EdgeKind::WasGeneratedBy, m1, t1).unwrap();
        g.add_edge(EdgeKind::Used, t2, d).unwrap();
        g.add_edge(EdgeKind::WasGeneratedBy, m2, t2).unwrap();
        g.add_edge(EdgeKind::Used, t3, m1).unwrap();
        g.add_edge(EdgeKind::Used, t3, m2).unwrap();
        g.add_edge(EdgeKind::WasGeneratedBy, w, t3).unwrap();
        let idx = ProvIndex::build(&g);
        let view = MaskedGraph::unmasked(&idx);
        // src = {m1}, dst = {w}: level 2 of w = {m1, m2} — the *similar* model
        // m2 is part of the answer even though the user never named it.
        let out = similar_tst(&view, &[m1], &[w], &TstConfig::default());
        assert_eq!(out.answer, vec![m1, m2]);
        let vc2 = out.vc2.unwrap();
        // Path vertices: w(level0), t3(level1), m1/m2(level2) are all on
        // accepting paths; deeper levels (t1, t2, d) are beyond max M = 2.
        assert!(vc2.contains(&w) && vc2.contains(&t3));
        assert!(vc2.contains(&m1) && vc2.contains(&m2));
        assert!(!vc2.contains(&d) && !vc2.contains(&t1) && !vc2.contains(&t2));
    }

    #[test]
    fn vc2_excludes_dead_end_branches_shorter_than_m() {
        // w's ancestry has a long chain (via m1) and a short stub (via cfg):
        // src = {d} is 4 levels up; the stub entity cfg is at level 2 but has
        // ext(cfg)=0, so it cannot lie on a length-4 side-2 path... unless it
        // can: [m, m+ext] = [2,2] does not contain 4 -> excluded.
        let mut g = ProvGraph::new();
        let d = g.add_entity("d");
        let t1 = g.add_activity("t1");
        let m1 = g.add_entity("m1");
        let cfg = g.add_entity("cfg");
        let t3 = g.add_activity("t3");
        let w = g.add_entity("w");
        g.add_edge(EdgeKind::Used, t1, d).unwrap();
        g.add_edge(EdgeKind::WasGeneratedBy, m1, t1).unwrap();
        g.add_edge(EdgeKind::Used, t3, m1).unwrap();
        g.add_edge(EdgeKind::Used, t3, cfg).unwrap();
        g.add_edge(EdgeKind::WasGeneratedBy, w, t3).unwrap();
        let idx = ProvIndex::build(&g);
        let view = MaskedGraph::unmasked(&idx);
        let out = similar_tst(&view, &[d], &[w], &TstConfig::default());
        assert_eq!(out.answer, vec![d]);
        let vc2 = out.vc2.unwrap();
        assert!(!vc2.contains(&cfg), "stub config is not on a length-4 path");
        assert!(vc2.contains(&m1) && vc2.contains(&t1) && vc2.contains(&t3));
    }

    #[test]
    fn early_stop_agrees_with_full_run() {
        let (_, idx, ids) = two_round();
        let view = MaskedGraph::unmasked(&idx);
        let (m1, w) = (ids[2], ids[6]);
        let with = similar_tst(
            &view,
            &[m1],
            &[w],
            &TstConfig { early_stop: true, max_levels: None, compressed_sets: false },
        );
        let without = similar_tst(
            &view,
            &[m1],
            &[w],
            &TstConfig { early_stop: false, max_levels: None, compressed_sets: false },
        );
        assert_eq!(with.answer, without.answer);
        assert_eq!(with.vc2, without.vc2);
        // Early stop must do no more work than the full run.
        assert!(with.stats.work <= without.stats.work);
    }

    #[test]
    fn masked_destination_or_empty_sources_yield_empty() {
        let (_, idx, ids) = two_round();
        let view = MaskedGraph::unmasked(&idx);
        let out = similar_tst(&view, &[], &[ids[6]], &TstConfig::default());
        assert!(out.answer.is_empty());
        assert_eq!(out.vc2, Some(vec![]));
    }

    #[test]
    fn identical_src_dst_answers_itself() {
        let (_, idx, ids) = two_round();
        let view = MaskedGraph::unmasked(&idx);
        let w = ids[6];
        // Vsrc = Vdst = {w}: level 0 accepts, answer = {w}.
        let out = similar_tst(&view, &[w], &[w], &TstConfig::default());
        assert_eq!(out.answer, vec![w]);
        assert!(out.vc2.unwrap().contains(&w));
    }

    #[test]
    fn pair_relation_helper_is_symmetric_reflexive_on_levels() {
        let (_, idx, ids) = two_round();
        let view = MaskedGraph::unmasked(&idx);
        let pairs = entity_pairs_for_tests(&view, &[ids[6]]);
        assert!(pairs.contains(&(ids[6].raw(), ids[6].raw())));
        assert!(pairs.contains(&(ids[2].raw(), ids[2].raw())));
        for &(a, b) in &pairs {
            assert!(pairs.contains(&(b, a)));
        }
    }
}
