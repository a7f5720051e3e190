//! Simulation preorders `≤s_in` / `≤s_out` (Sec. IV-B).
//!
//! Trace equivalence is PSPACE-complete (Theorem 4), so PgSum approximates it
//! with similarity in the style of Henzinger–Henzinger–Kopke: `u ≤s_out v`
//! iff `ρ(u) = ρ(v)` and every labeled child of `u` is out-simulate-dominated
//! by some equally-labeled child of `v`. Simulation implies trace containment
//! (Lemma 5 direction), which is all the merge step needs.
//!
//! The implementation is the *counting* variant of the HHK fixpoint
//! (ISSUE 4): instead of the seed's Gauss–Seidel sweeps — which rescan all
//! `n` candidates of every node until a full pass goes quiet, `O(n² · m / w)`
//! per sweep — it maintains, for every `(candidate u, kind k, node w)` with
//! `post_k(u) ≠ ∅`, the counter
//!
//! ```text
//! count_k(u, w) = |post_k(u) ∩ sim(w)|
//! ```
//!
//! When a strike removes `u` from `sim(w)`, the counters of `u`'s k-parents
//! decrement; a counter hitting zero proves its owner `u''` can no longer
//! match the child `w` and pushes `u''` onto the `(w, k)` remove worklist,
//! whose processing strikes `u''` from `sim(parent)` for every k-parent of
//! `w`. Each `(u, w, k)` zero-crossing happens at most once, so every strike
//! is processed exactly once: `O(n · m)` total instead of per-sweep.
//!
//! Initialization uses a shared class-partition table (one bitset row per
//! `≡kκ` class, indexed by dense [`ClassId`]) intersected word-parallel with
//! per-kind capability rows, replacing the seed's per-node
//! `HashMap`-lookup-then-clone and its `O(n² · KINDS)` boxed
//! `children_by_kind` bitsets. The seed implementation is frozen verbatim in
//! [`mod@crate::simulation_reference`] for differential tests and benchmarks.
//!
//! [`ClassId`]: crate::union::ClassId

use crate::union::G0;
use prov_bitset::{FastSet, FixedBitSet};
use prov_store::hash::FxHashMap;

/// Number of edge kinds (`prov_model::EdgeKind::ALL.len()`).
const KINDS: usize = 5;

/// A computed simulation preorder over `g0` nodes.
#[derive(Debug, Clone)]
pub struct SimRelation {
    /// `sim[v]` = set of `u` such that `u` simulates `v` (i.e. `v ≤ u`).
    sim: Vec<FixedBitSet>,
}

impl SimRelation {
    /// Wrap precomputed rows (used by the frozen reference implementation).
    pub(crate) fn from_rows(sim: Vec<FixedBitSet>) -> SimRelation {
        SimRelation { sim }
    }

    /// Is `u ≤ v` (does `v` simulate `u`)?
    #[inline]
    pub fn le(&self, u: u32, v: u32) -> bool {
        self.sim[u as usize].contains(v)
    }

    /// Are `u` and `v` simulation-equivalent (`u ≃ v`)?
    #[inline]
    pub fn equiv(&self, u: u32, v: u32) -> bool {
        self.le(u, v) && self.le(v, u)
    }

    /// All nodes simulating `u` (including `u`).
    pub fn above(&self, u: u32) -> Vec<u32> {
        self.sim[u as usize].to_vec()
    }

    /// The row of nodes simulating `u`, as a bitset (no allocation).
    #[inline]
    pub fn row(&self, u: u32) -> &FixedBitSet {
        &self.sim[u as usize]
    }

    /// Project the relation onto a quotient: `map[old] = new` must send
    /// simulation-equivalent nodes (w.r.t. *this* relation's direction) to
    /// the same new id, with new ids dense in `0..new_len`. Exactness of the
    /// projection for same-direction quotients is argued in `DESIGN.md` §5.
    pub(crate) fn project(&self, map: &[u32], new_len: usize) -> SimRelation {
        // One representative old row per new id (any member works: `≃` nodes
        // have identical up-sets, and membership is invariant within a
        // member's class).
        let mut rep: Vec<u32> = vec![u32::MAX; new_len];
        for (old, &new) in map.iter().enumerate() {
            if rep[new as usize] == u32::MAX {
                rep[new as usize] = old as u32;
            }
        }
        let sim = rep
            .iter()
            .map(|&old| {
                let mut row = FixedBitSet::new(new_len);
                self.sim[old as usize].remap_into(map, &mut row);
                row
            })
            .collect();
        SimRelation { sim }
    }
}

/// Direction of the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimDirection {
    /// Children = out-neighbors (`≤s_out`).
    Out,
    /// Children = in-neighbors (`≤s_in`).
    In,
}

/// Flat per-(node, kind) adjacency: `slice(v, k)` is the sorted list of v's
/// k-children (or k-parents, depending on which rows it was built from).
struct KindAdjacency {
    /// `off[v * (KINDS + 1) + k] .. off[v * (KINDS + 1) + k + 1]` → `data`.
    off: Vec<u32>,
    data: Vec<u32>,
}

impl KindAdjacency {
    fn build(adj: &[Vec<(u8, u32)>]) -> KindAdjacency {
        let n = adj.len();
        let stride = KINDS + 1;
        let mut off = vec![0u32; n * stride + 1];
        for (v, row) in adj.iter().enumerate() {
            for &(k, _) in row {
                off[v * stride + k as usize + 1] += 1;
            }
        }
        for i in 1..off.len() {
            off[i] += off[i - 1];
        }
        let mut cursor = off.clone();
        let mut data = vec![0u32; off[off.len() - 1] as usize];
        for (v, row) in adj.iter().enumerate() {
            for &(k, c) in row {
                let slot = &mut cursor[v * stride + k as usize];
                data[*slot as usize] = c;
                *slot += 1;
            }
        }
        KindAdjacency { off, data }
    }

    #[inline]
    fn slice(&self, v: u32, k: usize) -> &[u32] {
        let i = v as usize * (KINDS + 1) + k;
        &self.data[self.off[i] as usize..self.off[i + 1] as usize]
    }
}

/// Per-kind counter matrices `count_k(u, w) = |post_k(u) ∩ sim(w)|`, stored
/// densely for the nodes that actually have k-children.
struct Counters {
    /// `row_of[k][u]` = dense row index of `u` in kind `k`, or `u32::MAX`.
    row_of: [Vec<u32>; KINDS],
    /// `counts[k][row * n + w]`.
    counts: [Vec<u32>; KINDS],
    n: usize,
}

impl Counters {
    #[inline]
    fn get(&self, k: usize, u: u32, w: u32) -> Option<u32> {
        let row = self.row_of[k][u as usize];
        if row == u32::MAX {
            return None;
        }
        Some(self.counts[k][row as usize * self.n + w as usize])
    }

    #[inline]
    fn get_mut(&mut self, k: usize, u: u32, w: u32) -> Option<&mut u32> {
        let row = self.row_of[k][u as usize];
        if row == u32::MAX {
            return None;
        }
        Some(&mut self.counts[k][row as usize * self.n + w as usize])
    }
}

/// Compute the simulation preorder over `g0` in the given direction.
pub fn simulation(g0: &G0, direction: SimDirection) -> SimRelation {
    let n = g0.len();
    if n == 0 {
        return SimRelation { sim: Vec::new() };
    }
    let (adj, radj) = match direction {
        SimDirection::Out => (&g0.out_adj, &g0.in_adj),
        SimDirection::In => (&g0.in_adj, &g0.out_adj),
    };
    let parents = KindAdjacency::build(radj);

    // Shared class-partition table: one row per dense ClassId, plus
    // per-(kind, child-class) occurrence rows — `has_kc[i]` holds every node
    // with at least one k-child of class cc, for the i-th (k, cc) pair seen.
    let mut class_row: Vec<FixedBitSet> =
        (0..g0.class_count()).map(|_| FixedBitSet::new(n)).collect();
    let mut kc_index: FxHashMap<(u8, u32), u32> = FxHashMap::default();
    let mut has_kc: Vec<FixedBitSet> = Vec::new();
    let mut kind_mask = vec![0u8; n];
    for v in 0..n as u32 {
        class_row[g0.class(v).0 as usize].insert(v);
        for &(k, c) in &adj[v as usize] {
            kind_mask[v as usize] |= 1 << k;
            let next = has_kc.len() as u32;
            let idx = *kc_index.entry((k, g0.class(c).0)).or_insert_with(|| {
                has_kc.push(FixedBitSet::new(n));
                next
            });
            has_kc[idx as usize].insert(v);
        }
    }

    // Init: sim[v] = class-mates of v that, for every child (k, c) of v,
    // have at least one k-child of c's class — one unrolled refinement round
    // as word-parallel intersections. A candidate missing a (kind, class)
    // pair could never satisfy the recursive condition (sim(c) ⊆ class(c)),
    // and filtering it here is far cheaper than striking it pair-by-pair.
    let mut sim: Vec<FixedBitSet> = Vec::with_capacity(n);
    let mut kc_scratch: Vec<u32> = Vec::new();
    for v in 0..n as u32 {
        let mut row = class_row[g0.class(v).0 as usize].clone();
        kc_scratch.clear();
        kc_scratch.extend(adj[v as usize].iter().map(|&(k, c)| kc_index[&(k, g0.class(c).0)]));
        kc_scratch.sort_unstable();
        kc_scratch.dedup();
        for &idx in &kc_scratch {
            row.intersect_with(&has_kc[idx as usize]);
        }
        sim.push(row);
    }

    // Counter matrices, one dense row per node with k-children.
    let mut counters = Counters {
        row_of: std::array::from_fn(|_| vec![u32::MAX; n]),
        counts: std::array::from_fn(|_| Vec::new()),
        n,
    };
    for k in 0..KINDS {
        let mut rows = 0u32;
        for (v, &mask) in kind_mask.iter().enumerate() {
            if mask & (1 << k) != 0 {
                counters.row_of[k][v] = rows;
                rows += 1;
            }
        }
        counters.counts[k] = vec![0u32; rows as usize * n];
    }

    // Init counts by *transposing* the (sparse) relation instead of scanning
    // every (candidate, node) cell: each member x of sim(w) contributes one
    // k2-child-in-sim(w) to each of its k2-parents. Work is proportional to
    // `Σ_w |sim(w)| · in-degree`, not `n · m`.
    for w in 0..n as u32 {
        for x in sim[w as usize].ones() {
            for &(k2, u2) in &radj[x as usize] {
                let row = counters.row_of[k2 as usize][u2 as usize];
                counters.counts[k2 as usize][row as usize * n + w as usize] += 1;
            }
        }
    }

    // Remove worklists, keyed (w, k): candidates u whose count_k(u, w) hit
    // zero and therefore cannot k-match the child w anymore.
    let stride = KINDS;
    let mut remove: Vec<Vec<u32>> = vec![Vec::new(); n * stride];
    let mut queued = vec![false; n * stride];
    let mut queue: Vec<u32> = Vec::new();
    let push = |remove: &mut Vec<Vec<u32>>,
                queued: &mut Vec<bool>,
                queue: &mut Vec<u32>,
                w: u32,
                k: usize,
                u: u32| {
        let slot = w as usize * stride + k;
        remove[slot].push(u);
        if !queued[slot] {
            queued[slot] = true;
            queue.push(slot as u32);
        }
    };

    // Seed the worklists with one constraint sweep over the relation itself
    // (O(1) counter lookups; again `Σ_v |sim(v)| · degree` work, not a scan
    // of the counter matrices): u ∈ sim(v) is violated iff some child (k, c)
    // of v finds count_k(u, c) = 0. Violations detected here strike
    // directly; violations *created* later zero-cross a counter and queue.
    let mut strikes: Vec<u32> = Vec::new();
    for v in 0..n as u32 {
        strikes.clear();
        for u in sim[v as usize].ones() {
            for &(k, c) in &adj[v as usize] {
                match counters.get(k as usize, u, c) {
                    Some(cnt) if cnt > 0 => {}
                    _ => {
                        strikes.push(u);
                        break;
                    }
                }
            }
        }
        for &u in &strikes {
            sim[v as usize].remove(u);
            debug_assert_ne!(u, v, "simulation must stay reflexive");
            for &(k2, u2) in &radj[u as usize] {
                let cnt = counters.get_mut(k2 as usize, u2, v).expect("parent has k2-children");
                *cnt -= 1;
                if *cnt == 0 && !parents.slice(v, k2 as usize).is_empty() {
                    push(&mut remove, &mut queued, &mut queue, v, k2 as usize, u2);
                }
            }
        }
    }

    // Fixpoint: drain the worklists. Processing (w, k) strikes every queued
    // candidate u from sim(v) for each k-parent v of w; each strike
    // decrements the counters of u's own parents, possibly queueing more.
    while let Some(slot) = queue.pop() {
        let slot = slot as usize;
        queued[slot] = false;
        let strikes = std::mem::take(&mut remove[slot]);
        let (w, k) = ((slot / stride) as u32, slot % stride);
        for &v in parents.slice(w, k) {
            for &u in &strikes {
                if !sim[v as usize].remove(u) {
                    continue;
                }
                debug_assert_ne!(u, v, "simulation must stay reflexive");
                // u left sim(v): decrement count_k2(u'', v) for every
                // k2-parent u'' of u.
                for &(k2, u2) in &radj[u as usize] {
                    let cnt = counters.get_mut(k2 as usize, u2, v).expect("parent has k2-children");
                    *cnt -= 1;
                    if *cnt == 0 && !parents.slice(v, k2 as usize).is_empty() {
                        push(&mut remove, &mut queued, &mut queue, v, k2 as usize, u2);
                    }
                }
            }
        }
    }
    SimRelation { sim }
}

/// Reference implementation used by property tests: the naive fixpoint over
/// explicit pair checks (`O(n⁴)`-ish, tiny inputs only).
#[doc(hidden)]
#[allow(clippy::needless_range_loop)] // pairwise index loops mirror the math
pub fn simulation_naive(g0: &G0, direction: SimDirection) -> Vec<Vec<bool>> {
    let n = g0.len();
    let adj = match direction {
        SimDirection::Out => &g0.out_adj,
        SimDirection::In => &g0.in_adj,
    };
    let mut le = vec![vec![false; n]; n];
    for v in 0..n {
        for u in 0..n {
            le[v][u] = g0.class(v as u32) == g0.class(u as u32);
        }
    }
    loop {
        let mut changed = false;
        for v in 0..n {
            for u in 0..n {
                if !le[v][u] {
                    continue;
                }
                let ok = adj[v].iter().all(|&(k, c)| {
                    adj[u].iter().any(|&(k2, c2)| k2 == k && le[c as usize][c2 as usize])
                });
                if !ok {
                    le[v][u] = false;
                    changed = true;
                }
            }
        }
        if !changed {
            return le;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregation::PropertyAggregation;
    use crate::segment_ref::SegmentRef;
    use crate::simulation_reference::simulation_reference;
    use crate::union::build_g0;
    use prov_model::EdgeKind;
    use prov_store::ProvGraph;

    /// One segment: d <-U- t <-G- w ; second segment: d' <-U- t' (no output).
    fn asymmetric() -> G0 {
        let mut g = ProvGraph::new();
        let d1 = g.add_entity("d");
        let t1 = g.add_activity("t");
        let w1 = g.add_entity("w");
        let e1 = g.add_edge(EdgeKind::Used, t1, d1).unwrap();
        let e2 = g.add_edge(EdgeKind::WasGeneratedBy, w1, t1).unwrap();
        let d2 = g.add_entity("d");
        let t2 = g.add_activity("t");
        let e3 = g.add_edge(EdgeKind::Used, t2, d2).unwrap();
        let s1 = SegmentRef::new(vec![d1, t1, w1], vec![e1, e2]);
        let s2 = SegmentRef::new(vec![d2, t2], vec![e3]);
        // k = 0 so both activities share a class despite different shapes.
        build_g0(&g, &[s1, s2], &PropertyAggregation::ignore_all(), 0)
    }

    #[test]
    fn out_simulation_dominance_is_directional() {
        let g0 = asymmetric();
        // Node ids: 0=d1, 1=t1, 2=w1, 3=d2, 4=t2.
        let out = simulation(&g0, SimDirection::Out);
        // t2's out-children (d2) ⊂ t1's (d1): t2 ≤out t1.
        assert!(out.le(4, 1), "t2 ≤out t1");
        assert!(out.le(1, 4), "t1 also ≤out t2: both only use one entity");
        // w1 has no out-children: it out-simulates nothing more than entities
        // with no children; every entity class-mate with no children works.
        assert!(out.le(2, 2));
    }

    #[test]
    fn in_simulation_separates_generated_entities() {
        let g0 = asymmetric();
        let inn = simulation(&g0, SimDirection::In);
        // Stored orientation: w1's G edge is OUTgoing (w1 -> t1), so w1 has no
        // in-edges and is vacuously in-dominated by any entity; d1 has an
        // in-edge (t1 -U-> d1) and therefore is NOT in-dominated by w1.
        assert!(inn.le(2, 0), "w1 (no in-edges) ≤in d1 vacuously");
        assert!(!inn.le(0, 2), "d1 (used by t1) not in-dominated by w1");
        // d2 ≤in d1 (t2's parent set is a vacuous subset of t1's behaviour),
        // but not conversely: d1's parent t1 is fed by a generated entity
        // while d2's parent t2 has no parents at all.
        assert!(inn.le(3, 0));
        assert!(!inn.le(0, 3));
    }

    #[test]
    fn optimized_matches_naive_and_reference_on_fixture() {
        let g0 = asymmetric();
        for dir in [SimDirection::Out, SimDirection::In] {
            let fast = simulation(&g0, dir);
            let slow = simulation_naive(&g0, dir);
            let frozen = simulation_reference(&g0, dir);
            for v in 0..g0.len() as u32 {
                for u in 0..g0.len() as u32 {
                    assert_eq!(
                        fast.le(v, u),
                        slow[v as usize][u as usize],
                        "naive: dir={dir:?} v={v} u={u}"
                    );
                    assert_eq!(
                        fast.le(v, u),
                        frozen.le(v, u),
                        "reference: dir={dir:?} v={v} u={u}"
                    );
                }
            }
        }
    }

    #[test]
    fn simulation_is_reflexive_and_class_respecting() {
        let g0 = asymmetric();
        let out = simulation(&g0, SimDirection::Out);
        for v in 0..g0.len() as u32 {
            assert!(out.le(v, v), "reflexive at {v}");
            for u in out.above(v) {
                assert_eq!(g0.class(u), g0.class(v));
            }
        }
    }

    #[test]
    fn empty_graph_yields_empty_relation() {
        let g = ProvGraph::new();
        let g0 = build_g0(&g, &[], &PropertyAggregation::ignore_all(), 0);
        let rel = simulation(&g0, SimDirection::Out);
        assert!(rel.sim.is_empty());
    }
}
