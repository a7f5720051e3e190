//! Simulation preorders `≤s_in` / `≤s_out` (Sec. IV-B).
//!
//! Trace equivalence is PSPACE-complete (Theorem 4), so PgSum approximates it
//! with similarity in the style of Henzinger–Henzinger–Kopke: `u ≤s_out v`
//! iff `ρ(u) = ρ(v)` and every labeled child of `u` is out-simulate-dominated
//! by some equally-labeled child of `v`. Simulation implies trace containment
//! (Lemma 5 direction), which is all the merge step needs.
//!
//! Written as rows, `sim(u)` (every `v` with `u ≤ v`) is the greatest
//! solution of
//!
//! ```text
//! sim(u) = class(u) ∩ ⋂ { pre_k(sim(c)) : (k, c) a child of u }
//! ```
//!
//! where `pre_k(S)` is the set of k-parents of `S`. [`simulation`] solves it
//! with a children-first sweep: Kahn over the child edges orders the nodes,
//! every row starts as its `≡kκ` class, and each node intersects its row
//! with `pre_k` of each child's row. On a DAG every child's row is final
//! before its parents read it, so one pass is exact. On a cyclic input (a
//! quotient can be one) the nodes Kahn leaves behind go last and the sweep
//! repeats over them until no row shrinks: rows only shrink and never drop
//! below the greatest fixpoint, so the first quiet pass is that fixpoint.
//! [`simulation_naive`] is the definitional oracle the tests hold it to.

use crate::union::G0;
use prov_bitset::{FastSet, FixedBitSet};

/// A computed simulation preorder over `g0` nodes.
#[derive(Debug, Clone)]
pub struct SimRelation {
    /// `sim[v]` = set of `u` such that `u` simulates `v` (i.e. `v ≤ u`).
    sim: Vec<FixedBitSet>,
}

impl SimRelation {
    /// Is `u ≤ v` (does `v` simulate `u`)?
    #[inline]
    pub fn le(&self, u: u32, v: u32) -> bool {
        self.sim[u as usize].contains(v)
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

/// Compute the simulation preorder over `g0` in the given direction.
pub fn simulation(g0: &G0, direction: SimDirection) -> SimRelation {
    let n = g0.len();
    let (adj, radj) = match direction {
        SimDirection::Out => (&g0.out_adj, &g0.in_adj),
        SimDirection::In => (&g0.in_adj, &g0.out_adj),
    };

    // Children first (Kahn over `adj`): a node is ready once every child is
    // placed. Nodes on or above a cycle never get ready and are appended.
    let mut pending: Vec<u32> = adj.iter().map(|row| row.len() as u32).collect();
    let mut order: Vec<u32> = (0..n as u32).filter(|&v| pending[v as usize] == 0).collect();
    let mut next = 0;
    while next < order.len() {
        for &(_, p) in &radj[order[next] as usize] {
            pending[p as usize] -= 1;
            if pending[p as usize] == 0 {
                order.push(p);
            }
        }
        next += 1;
    }
    let placed = order.len();
    order.extend((0..n as u32).filter(|&v| pending[v as usize] != 0));

    let mut class_row: Vec<FixedBitSet> =
        (0..g0.class_count()).map(|_| FixedBitSet::new(n)).collect();
    for v in 0..n as u32 {
        class_row[g0.class(v).0 as usize].insert(v);
    }
    let mut sim: Vec<FixedBitSet> =
        (0..n as u32).map(|v| class_row[g0.class(v).0 as usize].clone()).collect();

    // sim(u) ∩= pre_k(sim(c)) for every child (k, c) of u, where pre_k(S)
    // is the set of k-parents of S. Whichever side is smaller is walked: the
    // candidates in sim(u), keeping those with a k-child in sim(c), or
    // sim(c), gathering its k-parents into `pre`. Both read sim(c) in full
    // before the row changes, so a self-loop sees the row as it stood. A row
    // down to `{u}` cannot shrink further: the relation is reflexive.
    let mut pre = FixedBitSet::new(n);
    let mut strikes: Vec<u32> = Vec::new();
    let mut sweep = &order[..];
    loop {
        let mut shrunk = false;
        for &u in sweep {
            let before = sim[u as usize].len();
            for &(k, c) in &adj[u as usize] {
                let (row, child) = (&sim[u as usize], &sim[c as usize]);
                if row.len() == 1 {
                    break;
                }
                if row.len() < child.len() {
                    strikes.clear();
                    strikes.extend(row.ones().filter(|&w| {
                        !adj[w as usize].iter().any(|&(k2, c2)| k2 == k && child.contains(c2))
                    }));
                    for &w in &strikes {
                        sim[u as usize].remove(w);
                    }
                } else {
                    pre.clear();
                    for x in child.ones() {
                        for &(k2, p) in &radj[x as usize] {
                            if k2 == k {
                                pre.insert(p);
                            }
                        }
                    }
                    sim[u as usize].intersect_with(&pre);
                }
            }
            shrunk |= sim[u as usize].len() < before;
        }
        if !shrunk {
            return SimRelation { sim };
        }
        // Rows Kahn placed were final after the first pass; only the rest
        // can still shrink.
        sweep = &order[placed..];
    }
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
    fn sweep_matches_naive_on_fixture() {
        let g0 = asymmetric();
        for dir in [SimDirection::Out, SimDirection::In] {
            let fast = simulation(&g0, dir);
            let slow = simulation_naive(&g0, dir);
            for v in 0..g0.len() as u32 {
                for u in 0..g0.len() as u32 {
                    assert_eq!(
                        fast.le(v, u),
                        slow[v as usize][u as usize],
                        "dir={dir:?} v={v} u={u}"
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
            for u in out.row(v).ones() {
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
