//! `SimProvTst`: per-destination transitive evaluation over bit-parallel
//! path-length sets.
//!
//! Evaluating each `vj ∈ Vdst` separately restores transitivity of the `Ee` /
//! `Aa` relations (Sec. III-B), so instead of pair facts the algorithm keeps a
//! single *equivalence class per iteration* — the alternating upstream level
//! sets of `vj`:
//!
//! ```text
//! [e]₀ = {vj}
//! [a]₁ = { a : ∃e ∈ [e]₀, (e, a) ∈ G }   (generators)
//! [e]₂ = { e : ∃a ∈ [a]₁, (a, e) ∈ U }   (inputs)
//! ...
//! ```
//!
//! Any two vertices in the same even level are `Ee`-related; the reachability
//! answer is the union of the levels that contain a source (the *accepted
//! lengths* `Mset`).
//!
//! Building the levels as vertex lists costs `Σ_m |[.]_m| · deg`, which is
//! `O(|G| + |U|)` only when the levels are disjoint. On the paper's own `Pd`
//! generator they are nowhere near disjoint: a vertex sits in one level per
//! distinct path length from `vj`, measured at 130–280 levels *per vertex* on
//! `Pd2000` (262k–567k level entries for 2,000 vertices) and growing
//! quadratically with `N`. This module therefore stores the transposition:
//! **one bitset of path lengths per vertex**, `L(u) = { m : u ∈ [.]_m }`, and
//! moves 64 lengths per instruction. Per destination:
//!
//! 1. one iterative DFS over the masked upstream closure `R` of `vj` records
//!    the closure's adjacency, a topological order (reverse post-order) and
//!    `ext(u)`, the longest upstream path from `u`; a back edge is reported as
//!    [`StoreError::CycleDetected`] (the store's `add_edge` can close a cycle,
//!    and on one the level construction never terminates);
//! 2. one pass in topological order yields the shortest and longest distance
//!    `dmin(u)`, `dmax(u)` from `vj`, and the length axis is cut at `cap`, the
//!    longest distance from `vj` to a source: a longer length is neither an
//!    accepted `M` nor below one, so the cut is exact whatever the vertex
//!    births are (`early_stop: false` keeps the whole axis, `cap = ext(vj)`);
//! 3. `L(vj) = {0}`, then `L(w) |= L(u) << 1` for every closure edge `u → w`
//!    in topological order, each `L(u)` held only over the words of its own
//!    window `[dmin(u), min(dmax(u), cap)]` — a chain costs one word per
//!    vertex, not `n × cap` bits;
//! 4. `Mset` is the even bits of `⋃ L(s)` over the sources, the answer is
//!    `{u : L(u) ∩ Mset ≠ ∅}`, and `VC2` is the interval test below.
//!
//! Work is `O(|R| + E_R + E_R · cap/64 + cap)` word operations and the arena
//! holds `Σ_u (window words of u) ≤ |R| · (cap/64 + 1)` words; on the `Pd2000`
//! queries above that is 33k–54k word operations, and at `Pd100k` 116M
//! of them in 262 MiB where the level lists would hold ~1.4G entries.
//!
//! Unlike the pair-relation solvers, this module also induces the exact `VC2`
//! vertex set (every vertex on an accepting path): a vertex `u ∈ [.]_m` lies
//! on a valid side-2 path iff it can extend upstream to length `M` for some
//! accepted `M` (a source level), i.e. iff `∃M ∈ Mset: m ≤ M ≤ m + ext(u)`
//! where `ext(u)` is the longest upstream ancestry path from `u`. Every
//! upstream neighbor of a level-`m` vertex is in level `m+1`, so extensions
//! never leave the level structure and the interval test is exact. Over
//! length sets it reads `L(u) ∩ T_e ≠ ∅` with `e = min(ext(u), cap)` and
//! `T_e = ⋃_{k ≤ e} (Mset >> k)`. `T_e = T_{e−1} | T_{e−1} >> 1`, so one
//! sweep of the closure in ascending `e` maintains it incrementally; a step
//! only moves the lower edge of each run of set lengths down by one, so the
//! sweep tracks those edges and sets each length once (`O(cap)` in all, where
//! shifting whole words per step is `cap²/64` on a chain).

use crate::outcome::{marks_to_vec, EvalStats, SimilarOutcome};
use crate::view::MaskedGraph;
use prov_model::{VertexId, VertexKind};
use prov_store::{rank_u32, StoreError, StoreResult};
use std::time::Instant;

/// Configuration for [`similar_tst`].
#[derive(Debug, Clone, Copy)]
pub struct TstConfig {
    /// Cut the length axis at the longest distance from the destination to a
    /// source instead of at its longest upstream path. A pure work bound: the
    /// cut is exact, so the outcome is the same either way.
    pub early_stop: bool,
}

impl Default for TstConfig {
    fn default() -> Self {
        TstConfig { early_stop: true }
    }
}

/// "Not yet": a vertex outside the current closure in [`Kernel::local`], an
/// `ext` the DFS has not finished, a `dmin` no path has reached.
const NONE: u32 = u32::MAX;
/// The even path lengths of a word (words are aligned to absolute lengths).
const EVEN: u64 = 0x5555_5555_5555_5555;

/// One vertex of the current destination's upstream closure.
struct Node {
    vertex: VertexId,
    /// End of this vertex's upstream list in [`Kernel::adj`]; it starts where
    /// the previous node's ends.
    adj_end: u32,
    /// Longest upstream path from here.
    ext: u32,
    /// Shortest and longest distance from the destination.
    dmin: u32,
    dmax: u32,
    /// Arena offset of the window's first word (the one holding `dmin`).
    off: usize,
}

/// Scratch reused across the destinations of one evaluation. Everything but
/// `local` is sized by the closure, and `local` is cleared vertex by vertex,
/// so a destination costs `O(|R|)`, not `O(n)`, to set up.
struct Kernel {
    /// Vertex id → index into `nodes` (discovery order), `NONE` outside.
    local: Vec<u32>,
    nodes: Vec<Node>,
    /// Upstream neighbours per node: vertex ids while the DFS runs, node
    /// indices afterwards.
    adj: Vec<u32>,
    /// DFS stack of `(node, cursor into adj)`.
    stack: Vec<(u32, u32)>,
    /// Nodes in finish order — reversed, a topological order from `vj` —
    /// until step 4 re-sorts the ones inside the cut by `ext`.
    order: Vec<u32>,
    /// Counting-sort offsets of that re-sort, one per `ext` value.
    starts: Vec<u32>,
    /// The length sets, one window of words per node.
    arena: Vec<u64>,
    /// `Mset`, and `T_e` widened from it.
    mset: Vec<u64>,
    widened: Vec<u64>,
    /// Where `T_e` grows next: the clear lengths whose successor is set.
    edges: Vec<u32>,
    /// 64-bit word operations so far.
    work: u64,
}

impl Kernel {
    fn new(n: usize) -> Kernel {
        Kernel {
            local: vec![NONE; n],
            nodes: Vec::new(),
            adj: Vec::new(),
            stack: Vec::new(),
            order: Vec::new(),
            starts: Vec::new(),
            arena: Vec::new(),
            mset: Vec::new(),
            widened: Vec::new(),
            edges: Vec::new(),
            work: 0,
        }
    }

    /// Heap bytes held. The vectors only grow across destinations, so the
    /// capacities after the last one are the peak.
    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let ids = [&self.local, &self.adj, &self.order, &self.starts, &self.edges];
        ids.iter().map(|v| v.capacity() * size_of::<u32>()).sum::<usize>()
            + self.nodes.capacity() * size_of::<Node>()
            + self.stack.capacity() * size_of::<(u32, u32)>()
            + (self.arena.capacity() + self.mset.capacity() + self.widened.capacity())
                * size_of::<u64>()
    }

    fn adj_range(&self, i: u32) -> std::ops::Range<usize> {
        let start = if i == 0 { 0 } else { self.nodes[i as usize - 1].adj_end as usize };
        start..self.nodes[i as usize].adj_end as usize
    }

    /// Admit `v` to the closure and push its DFS frame.
    fn discover(&mut self, view: &MaskedGraph<'_>, v: VertexId) {
        let (i, adj_start) = (rank_u32(self.nodes.len()), rank_u32(self.adj.len()));
        self.local[v.index()] = i;
        self.adj.extend(view.upstream(v).map(VertexId::raw));
        let adj_end = rank_u32(self.adj.len());
        self.nodes.push(Node { vertex: v, adj_end, ext: NONE, dmin: NONE, dmax: 0, off: 0 });
        self.stack.push((i, adj_start));
    }

    /// Step 1: DFS over the upstream closure of `vj`.
    fn closure(&mut self, view: &MaskedGraph<'_>, vj: VertexId) -> StoreResult<()> {
        self.nodes.clear();
        self.adj.clear();
        self.order.clear();
        self.discover(view, vj);
        while let Some(&(i, cursor)) = self.stack.last() {
            if cursor < self.nodes[i as usize].adj_end {
                let depth = self.stack.len() - 1;
                self.stack[depth].1 += 1;
                let w = VertexId::new(self.adj[cursor as usize]);
                match self.local[w.index()] {
                    NONE => self.discover(view, w),
                    j if self.nodes[j as usize].ext == NONE => {
                        return Err(StoreError::CycleDetected { on: w });
                    }
                    _ => {}
                }
            } else {
                // Every upstream neighbour is finished: a DAG has no other way out.
                self.nodes[i as usize].ext = self.adj[self.adj_range(i)]
                    .iter()
                    .map(|&w| 1 + self.nodes[self.local[w as usize] as usize].ext)
                    .max()
                    .unwrap_or(0);
                self.order.push(i);
                self.stack.pop();
            }
        }
        for a in &mut self.adj {
            *a = self.local[*a as usize];
        }
        for node in &self.nodes {
            self.local[node.vertex.index()] = NONE;
        }
        Ok(())
    }

    /// Steps 2–4 for one destination; marks `in_answer` / `in_vc2`.
    fn run(
        &mut self,
        view: &MaskedGraph<'_>,
        vj: VertexId,
        is_src: &[bool],
        early_stop: bool,
        in_answer: &mut [bool],
        in_vc2: &mut [bool],
    ) -> StoreResult<()> {
        self.closure(view, vj)?;

        // Step 2: distances from `vj`, then the exact cut of the length axis.
        self.nodes[0].dmin = 0;
        for &i in self.order.iter().rev() {
            let (lo, hi) = (self.nodes[i as usize].dmin + 1, self.nodes[i as usize].dmax + 1);
            for k in self.adj_range(i) {
                let w = &mut self.nodes[self.adj[k] as usize];
                w.dmin = w.dmin.min(lo);
                w.dmax = w.dmax.max(hi);
            }
        }
        let farthest_src =
            self.nodes.iter().filter(|u| is_src[u.vertex.index()]).map(|u| u.dmax).max();
        let Some(farthest_src) = farthest_src else { return Ok(()) };
        let cap = if early_stop { farthest_src } else { self.nodes[0].ext };
        // A node inside the cut, and the absolute words of the length axis
        // its window covers.
        let live = |u: &Node| u.dmin <= cap;
        let words = |u: &Node| (u.dmin / 64) as usize..(u.dmax.min(cap) / 64) as usize + 1;

        // Step 3: windows in topological order, so a vertex's words always
        // sit below those of its upstream neighbours in the arena.
        self.arena.clear();
        for &i in self.order.iter().rev() {
            let u = &mut self.nodes[i as usize];
            if live(u) {
                u.off = self.arena.len();
                self.arena.resize(u.off + words(u).len(), 0);
            }
        }
        self.arena[0] = 1;
        for &i in self.order.iter().rev() {
            let u = &self.nodes[i as usize];
            if !live(u) {
                continue;
            }
            let u_at = words(u);
            for k in self.adj_range(i) {
                let w = &self.nodes[self.adj[k] as usize];
                if !live(w) {
                    continue;
                }
                let w_at = words(w);
                let (below, above) = self.arena.split_at_mut(w.off);
                self.work += shift_or(
                    &below[u.off..u.off + u_at.len()],
                    u_at.start,
                    &mut above[..w_at.len()],
                    w_at.start,
                );
            }
        }

        // Step 4: accepted lengths, then both membership tests in one sweep
        // of the cut closure in ascending `e = min(ext, cap)` (counting sort).
        let reach = |u: &Node| u.ext.min(cap);
        self.starts.clear();
        self.starts.resize(cap as usize + 2, 0);
        for u in self.nodes.iter().filter(|u| live(u)) {
            self.starts[reach(u) as usize + 1] += 1;
        }
        for e in 1..self.starts.len() {
            self.starts[e] += self.starts[e - 1];
        }
        self.order.clear();
        self.order.resize(self.starts[cap as usize + 1] as usize, 0);
        for (i, u) in self.nodes.iter().enumerate() {
            if live(u) {
                let slot = &mut self.starts[reach(u) as usize];
                self.order[*slot as usize] = rank_u32(i);
                *slot += 1;
            }
        }
        let arena = &self.arena;
        let window = |u: &Node| &arena[u.off..u.off + words(u).len()];
        self.mset.clear();
        self.mset.resize((cap / 64) as usize + 1, 0);
        for &i in &self.order {
            let u = &self.nodes[i as usize];
            if is_src[u.vertex.index()] {
                for (m, &x) in self.mset[words(u)].iter_mut().zip(window(u)) {
                    *m |= x & EVEN;
                }
                self.work += words(u).len() as u64;
            }
        }
        self.widened.clear();
        self.widened.extend_from_slice(&self.mset);
        // Accepted lengths are even, so the length before each one is clear.
        self.edges.clear();
        for (k, &word) in self.mset.iter().enumerate() {
            let mut bits = if k == 0 { word & !1 } else { word };
            while bits != 0 {
                self.edges.push(rank_u32(64 * k) + bits.trailing_zeros() - 1);
                bits &= bits - 1;
            }
        }
        // `widened` is `T_e`: one step sets every edge, and an edge moves down
        // with it unless it ran into the next run of set lengths. Each length
        // is set once, so the whole sweep costs `O(cap)`.
        let mut e = 0;
        for &i in &self.order {
            let u = &self.nodes[i as usize];
            while e < reach(u) && !self.edges.is_empty() {
                e += 1;
                self.work += self.edges.len() as u64;
                let t = &mut self.widened;
                self.edges.retain_mut(|p| {
                    t[(*p / 64) as usize] |= 1 << (*p % 64);
                    let open = *p > 0 && t[((*p - 1) / 64) as usize] >> ((*p - 1) % 64) & 1 == 0;
                    *p = p.saturating_sub(1);
                    open
                });
            }
            self.work += words(u).len() as u64;
            // `Mset ⊆ T_e`: a vertex that misses `T_e` misses both.
            if intersects(window(u), &self.widened[words(u)]) {
                in_vc2[u.vertex.index()] = true;
                in_answer[u.vertex.index()] |= intersects(window(u), &self.mset[words(u)]);
            }
        }
        Ok(())
    }
}

/// `dst |= src << 1`, where `src` / `dst` start at the absolute words
/// `src_at` / `dst_at` of the length axis (`dst_at ≤ src_at + 1`: an upstream
/// neighbour is at most one step farther). Bits shifted past the end of `dst`
/// are lengths beyond its window and are dropped. Returns the words written.
fn shift_or(src: &[u64], src_at: usize, dst: &mut [u64], dst_at: usize) -> u64 {
    let start = src_at.max(dst_at);
    let mut carry = if start > src_at { src[start - src_at - 1] >> 63 } else { 0 };
    let Some(dst) = dst.get_mut(start - dst_at..) else { return 0 };
    let mut written = 0;
    // One word past `src` for the carry out of its last word.
    for (y, &x) in dst.iter_mut().zip(src[start - src_at..].iter().chain(&[0])) {
        *y |= (x << 1) | carry;
        carry = x >> 63;
        written += 1;
    }
    written
}

fn intersects(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(&x, &y)| x & y != 0)
}

/// Evaluate `L(SimProv)`-reachability with SimProvTst and induce the exact
/// `VC2` vertex set. Fails with [`StoreError::CycleDetected`] when the masked
/// upstream closure of a destination is not a DAG.
pub fn similar_tst(
    view: &MaskedGraph<'_>,
    vsrc: &[VertexId],
    vdst: &[VertexId],
    cfg: &TstConfig,
) -> StoreResult<SimilarOutcome> {
    let t0 = Instant::now();
    let n = view.index().vertex_count();
    let mut is_src = vec![false; n];
    for &s in vsrc {
        if s.index() < n && view.vertex_ok(s) {
            is_src[s.index()] = true;
        }
    }
    let mut in_answer = vec![false; n];
    let mut in_vc2 = vec![false; n];
    let mut kernel = Kernel::new(n);

    let mut dsts: Vec<VertexId> =
        vdst.iter().copied().filter(|&vj| vj.index() < n && view.vertex_ok(vj)).collect();
    dsts.sort_unstable();
    dsts.dedup();
    for vj in dsts {
        debug_assert_eq!(view.index().kind(vj), VertexKind::Entity, "Vdst must be entities");
        kernel.run(view, vj, &is_src, cfg.early_stop, &mut in_answer, &mut in_vc2)?;
    }

    Ok(SimilarOutcome {
        answer: marks_to_vec(&in_answer),
        vc2: Some(marks_to_vec(&in_vc2)),
        stats: EvalStats {
            elapsed: t0.elapsed(),
            work: kernel.work,
            memory_bytes: 3 * n + kernel.heap_bytes(),
            dnf: false,
        },
    })
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
    fn answer_is_the_source_level() {
        let (_, idx, ids) = two_round();
        let view = MaskedGraph::unmasked(&idx);
        let (d, m1, m2, w, w2) = (ids[0], ids[2], ids[4], ids[6], ids[8]);
        // src = {m1}, dst = {w}: m1 is in level 2 of w, so the answer is
        // level 2 = {m1} itself (no other entity shares that level).
        let out = similar_tst(&view, &[m1], &[w], &TstConfig::default()).unwrap();
        assert_eq!(out.answer, vec![m1]);
        // src = {d}, dst = {w}: d is in level 4; level 4 = {d}.
        let out = similar_tst(&view, &[d], &[w], &TstConfig::default()).unwrap();
        assert_eq!(out.answer, vec![d]);
        // src = {d}, dst = {w, w2}: both chains accept; answer still {d}.
        let out = similar_tst(&view, &[d], &[w, w2], &TstConfig::default()).unwrap();
        assert_eq!(out.answer, vec![d]);
        // Sibling model of the same round: from w2's perspective m2 is level 2.
        let out = similar_tst(&view, &[m2], &[w2], &TstConfig::default()).unwrap();
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
        let out = similar_tst(&view, &[m1], &[w], &TstConfig::default()).unwrap();
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
        let out = similar_tst(&view, &[d], &[w], &TstConfig::default()).unwrap();
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
        let with = similar_tst(&view, &[m1], &[w], &TstConfig { early_stop: true }).unwrap();
        let without = similar_tst(&view, &[m1], &[w], &TstConfig { early_stop: false }).unwrap();
        assert_eq!(with.answer, without.answer);
        assert_eq!(with.vc2, without.vc2);
        // Early stop must do no more work than the full run.
        assert!(with.stats.work <= without.stats.work);
    }

    #[test]
    fn masked_destination_or_empty_sources_yield_empty() {
        let (_, idx, ids) = two_round();
        let view = MaskedGraph::unmasked(&idx);
        let out = similar_tst(&view, &[], &[ids[6]], &TstConfig::default()).unwrap();
        assert!(out.answer.is_empty());
        assert_eq!(out.vc2, Some(vec![]));
    }

    #[test]
    fn identical_src_dst_answers_itself() {
        let (_, idx, ids) = two_round();
        let view = MaskedGraph::unmasked(&idx);
        let w = ids[6];
        // Vsrc = Vdst = {w}: level 0 accepts, answer = {w}.
        let out = similar_tst(&view, &[w], &[w], &TstConfig::default()).unwrap();
        assert_eq!(out.answer, vec![w]);
        assert!(out.vc2.unwrap().contains(&w));
    }

    #[test]
    fn back_edge_in_the_closure_is_an_error_not_a_loop() {
        // e0 -G-> a1 -U-> e2 -G-> a3 -U-> e0: every edge is well typed, so
        // `add_edge` accepts the cycle.
        let mut g = ProvGraph::new();
        let e0 = g.add_entity("e0");
        let a1 = g.add_activity("a1");
        let e2 = g.add_entity("e2");
        let a3 = g.add_activity("a3");
        g.add_edge(EdgeKind::WasGeneratedBy, e0, a1).unwrap();
        g.add_edge(EdgeKind::Used, a1, e2).unwrap();
        g.add_edge(EdgeKind::WasGeneratedBy, e2, a3).unwrap();
        g.add_edge(EdgeKind::Used, a3, e0).unwrap();
        let idx = ProvIndex::build(&g);
        let view = MaskedGraph::unmasked(&idx);
        for early_stop in [true, false] {
            let out = similar_tst(&view, &[e0], &[e2], &TstConfig { early_stop });
            assert!(matches!(out, Err(StoreError::CycleDetected { .. })), "{out:?}");
        }
    }

    #[test]
    fn shift_carries_across_words_and_window_starts() {
        // Length 63 of a window starting at word 0 becomes length 64: word 1.
        let src = [1u64 << 63];
        let mut same_start = [0u64, 0];
        assert_eq!(shift_or(&src, 0, &mut same_start, 0), 2);
        assert_eq!(same_start, [0, 1]);
        // The upstream window may start one word later: only the carry lands.
        let mut later_start = [0u64];
        assert_eq!(shift_or(&src, 0, &mut later_start, 1), 1);
        assert_eq!(later_start, [1]);
        // ... or earlier (a shorter path exists), and end first (the cut).
        let mut earlier_start = [0u64, 0];
        assert_eq!(shift_or(&[0b101, 7], 1, &mut earlier_start, 0), 1);
        assert_eq!(earlier_start, [0, 0b1010]);
    }
}
