//! Lemma-5 merging: collapse `g0` under simulation while preserving paths.
//!
//! Merging `u` into `v` preserves the Psg path invariant when
//!
//! 1. `u ≃s_in v`, or
//! 2. `u ≃s_out v`, or
//! 3. `u ≤s_in v ∧ u ≤s_out v`,
//!
//! because simulation implies trace containment and any in-path of a vertex
//! concatenates with any of its out-paths (Lemma 3 / Lemma 5).
//!
//! **Round discipline.** Merges justified by *different* conditions do not
//! commute in general (an `≃in` merge grows the group's out-language, which
//! can invalidate a pending `≃out` justification against a member). The
//! algorithm therefore alternates rounds — all `≃in` classes, then all `≃out`
//! classes, then all `≤in∧≤out` dominations — until a full cycle performs no
//! merge. Condition-1 groups share their in-language exactly, so an `≃in`
//! round is jointly sound (symmetrically `≃out`). Condition-3 unions are
//! not: each is justified against the relations as they stand, and a
//! union-find that composed several of them could form groups no single
//! pairwise justification covers, so the summary could gain a path word no
//! segment spells (and even a cyclic quotient). A condition-3 round
//! therefore makes one union, the first dominated pair in node order, and
//! the next cycle recomputes both relations before it trusts them again
//! (`condition_three_round_keeps_the_path_language` in
//! `tests/invariants.rs` is the smallest input that needs this).
//!
//! **A relation lasts as long as its quotient.** It is reused only while its
//! round merged nothing; after any union both are recomputed on the new,
//! smaller quotient. The tests hold this to a merge that recomputes both
//! relations before every round (test-local in `tests/differential.rs`).
//!
//! **`≃` groups by row scan.** In a preorder `u ≃ v` holds exactly when each
//! is in the other's row, so an `≃` round joins every node to the first
//! member of its row that it simulates back: the smallest member of its
//! `≃`-class. No pair scan and no hashing of rows.

use crate::simulation::{simulation, SimDirection, SimRelation};
use crate::union::{edge_key, G0Node, G0};
use std::borrow::Cow;

/// Union-find over g0 node ids, with union-by-size and path compression.
///
/// The union *direction* is semantically irrelevant for the merge phase: the
/// quotient's group ids and representatives are assigned by
/// first-appearance order over the original nodes ([`apply_unions`] /
/// [`quotient`]), never by DSU root. So `union` is free to pick the larger
/// side as root — callers that conceptually merge "u into v" (condition 3)
/// lose nothing when the tree roots at u instead.
pub(crate) struct Dsu {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl Dsu {
    pub(crate) fn new(n: usize) -> Self {
        Dsu { parent: (0..n as u32).collect(), size: vec![1; n] }
    }

    pub(crate) fn find(&mut self, x: u32) -> u32 {
        let mut r = x;
        while self.parent[r as usize] != r {
            r = self.parent[r as usize];
        }
        let mut c = x;
        while self.parent[c as usize] != r {
            let next = self.parent[c as usize];
            self.parent[c as usize] = r;
            c = next;
        }
        r
    }

    /// Union the two groups; returns false when already joined. The larger
    /// tree absorbs the smaller (union-by-size keeps find paths `O(α(n))`
    /// together with compression).
    pub(crate) fn union(&mut self, a: u32, b: u32) -> bool {
        let (mut a, mut b) = (self.find(a), self.find(b));
        if a == b {
            return false;
        }
        if self.size[a as usize] > self.size[b as usize] {
            std::mem::swap(&mut a, &mut b);
        }
        self.parent[a as usize] = b;
        self.size[b as usize] += self.size[a as usize];
        true
    }
}

/// Result of the merge phase: a mapping from original `g0` nodes to quotient
/// groups, dense in first-appearance order over the original nodes.
#[derive(Debug, Clone)]
pub struct MergeResult {
    /// Quotient group of each original node.
    pub group_of: Vec<u32>,
    /// Number of groups.
    pub group_count: usize,
    /// How many rounds ran (diagnostics).
    pub rounds: usize,
}

/// Build the quotient `G0` induced by `group_of` (dedup multi-edges). Group
/// `g`'s node takes the `segment` / `vertex` of its first member.
/// `group_of` values must be dense in `0..group_count`.
pub fn quotient(g0: &G0, group_of: &[u32], group_count: usize) -> G0 {
    let mut nodes: Vec<Option<G0Node>> = vec![None; group_count];
    for (node, &g) in g0.nodes.iter().zip(group_of) {
        nodes[g as usize].get_or_insert_with(|| node.clone());
    }
    let nodes = nodes.into_iter().map(|n| n.expect("group non-empty")).collect();
    let mut keys = Vec::with_capacity(g0.edge_count());
    for (v, &g) in group_of.iter().enumerate() {
        let out = g0.out_links(v as u32);
        keys.extend(out.iter().map(|l| edge_key(g, l.kind(), group_of[l.node() as usize])));
    }
    G0::from_keys(nodes, keys, g0.segment_count, g0.class_count())
}

/// Union every `≃` group of a simulation relation. In a preorder the
/// `≃`-class of `v` is `{w ∈ sim(v) : v ∈ sim(w)}`, so the first such `w` in
/// `v`'s ascending row is the class's smallest member: join `v` to it.
fn merge_equiv_classes(rel: &SimRelation, n: usize, dsu: &mut Dsu) -> bool {
    let mut merged = false;
    for v in 0..n as u32 {
        let u = rel.row(v).find(|&w| rel.le(w, v)).unwrap_or(v);
        if u != v {
            merged |= dsu.union(v, u);
        }
    }
    merged
}

/// Union the first condition-3 pair `u ≤in v ∧ u ≤out v` (u strictly
/// dominated) and stop: the justification holds against the relations as
/// they stand, so only one union per round is sound (Lemma 5).
fn merge_dominated(n: usize, le_in: &SimRelation, le_out: &SimRelation, dsu: &mut Dsu) -> bool {
    for u in 0..n as u32 {
        for v in le_in.row(u) {
            if v != u && le_out.le(u, v) && dsu.union(u, v) {
                return true;
            }
        }
    }
    false
}

/// Apply a round's unions: return `(new_count, node_map)` where
/// `node_map[old quotient id] = new quotient id`, and rewrite `group_of`
/// (original node → quotient id) through it. New ids follow first
/// appearance over the old ids, which themselves first appear in order over
/// the original nodes, so the labeling does not depend on which DSU root a
/// union picked.
fn apply_unions(group_of: &mut [u32], dsu: &mut Dsu, old_count: usize) -> (usize, Vec<u32>) {
    let mut root_id: Vec<u32> = vec![u32::MAX; old_count];
    let mut next = 0u32;
    let node_map: Vec<u32> = (0..old_count as u32)
        .map(|c| {
            let r = dsu.find(c) as usize;
            if root_id[r] == u32::MAX {
                root_id[r] = next;
                next += 1;
            }
            root_id[r]
        })
        .collect();
    for g in group_of.iter_mut() {
        *g = node_map[*g as usize];
    }
    (next as usize, node_map)
}

/// Run the full merge phase on `g0`.
pub fn merge(g0: &G0) -> MergeResult {
    let n0 = g0.len();
    // group_of maps ORIGINAL node -> current quotient node id (kept dense).
    let mut group_of: Vec<u32> = (0..n0 as u32).collect();
    // `g0` itself until the first union: its identity quotient is a copy.
    let mut current = Cow::Borrowed(g0);
    let mut rounds = 0usize;

    // The preorders of `current`; `None` until computed on it.
    let mut sim_in: Option<SimRelation> = None;
    let mut sim_out: Option<SimRelation> = None;

    enum Round {
        InEquiv,
        OutEquiv,
        Dominated,
    }

    loop {
        rounds += 1;
        let mut any = false;
        for round in [Round::InEquiv, Round::OutEquiv, Round::Dominated] {
            let n = current.len();
            let mut dsu = Dsu::new(n);
            let le_in = || simulation(&current, SimDirection::In);
            let le_out = || simulation(&current, SimDirection::Out);
            let merged = match round {
                Round::InEquiv => {
                    merge_equiv_classes(sim_in.get_or_insert_with(le_in), n, &mut dsu)
                }
                Round::OutEquiv => {
                    merge_equiv_classes(sim_out.get_or_insert_with(le_out), n, &mut dsu)
                }
                Round::Dominated => {
                    let le_in = sim_in.get_or_insert_with(le_in);
                    merge_dominated(n, le_in, sim_out.get_or_insert_with(le_out), &mut dsu)
                }
            };
            if merged {
                any = true;
                let (count, node_map) = apply_unions(&mut group_of, &mut dsu, n);
                current = Cow::Owned(quotient(&current, &node_map, count));
                sim_in = None;
                sim_out = None;
            }
        }
        if !any {
            break;
        }
    }

    MergeResult { group_of, group_count: current.len(), rounds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregation::PropertyAggregation;
    use crate::segment_ref::SegmentRef;
    use crate::union::build_g0;
    use prov_model::EdgeKind;
    use prov_store::ProvGraph;

    /// Two identical segments: d <-U- t <-G- w.
    fn twins() -> G0 {
        let mut g = ProvGraph::new();
        let mut segs = Vec::new();
        for i in 0..2 {
            let d = g.add_entity(&format!("d{i}"));
            let t = g.add_activity("t");
            let w = g.add_entity(&format!("w{i}"));
            let e1 = g.add_edge(EdgeKind::Used, t, d).unwrap();
            let e2 = g.add_edge(EdgeKind::WasGeneratedBy, w, t).unwrap();
            segs.push(SegmentRef::new(vec![d, t, w], vec![e1, e2]));
        }
        build_g0(&g, &segs, &PropertyAggregation::ignore_all(), 1)
    }

    #[test]
    fn identical_segments_collapse_completely() {
        let g0 = twins();
        let res = merge(&g0);
        // 6 instances -> 3 groups (d, t, w).
        assert_eq!(res.group_count, 3);
        assert_eq!(res.group_of[0], res.group_of[3]);
        assert_eq!(res.group_of[1], res.group_of[4]);
        assert_eq!(res.group_of[2], res.group_of[5]);
        assert!(res.rounds >= 1);
    }

    #[test]
    fn quotient_dedups_edges() {
        let g0 = twins();
        let res = merge(&g0);
        let q = quotient(&g0, &res.group_of, res.group_count);
        assert_eq!(q.len(), 3);
        assert_eq!(q.edge_count(), 2, "U and G edges once each");
    }

    #[test]
    fn divergent_suffixes_do_not_merge_sources() {
        // Segment 1: d <-U- t <-G- w ; segment 2: d' <-U- t' (no output).
        // k=0 so classes allow merging; but the trace structures differ:
        // t and t' are NOT out-equivalent... they are: out(t)=out(t')={(U,d)}.
        // They differ in IN: t has a generated child w... in(t) = {(G,w)}.
        // Merging t' into t is allowed by condition 3 (t' ≤in t vacuously,
        // t' ≤out t), which preserves paths. The two d's merge as ≃.
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
        let g0 = build_g0(&g, &[s1, s2], &PropertyAggregation::ignore_all(), 0);
        let res = merge(&g0);
        // Everything class-compatible merges here: {d1,d2}, {t1,t2}, {w1}.
        assert_eq!(res.group_count, 3);
    }

    #[test]
    fn different_classes_never_merge() {
        let g0 = twins();
        let res = merge(&g0);
        for u in 0..g0.len() {
            for v in 0..g0.len() {
                if res.group_of[u] == res.group_of[v] {
                    assert_eq!(g0.class(u as u32), g0.class(v as u32));
                }
            }
        }
    }

    #[test]
    fn dsu_behaves() {
        let mut d = Dsu::new(4);
        assert!(d.union(0, 1));
        assert!(!d.union(1, 0));
        assert!(d.union(2, 3));
        assert!(d.union(0, 3));
        assert_eq!(d.find(1), d.find(2));
    }

    #[test]
    fn dsu_unions_by_size() {
        let mut d = Dsu::new(6);
        // Build a 3-element group {0,1,2}.
        d.union(0, 1);
        d.union(1, 2);
        let big = d.find(0);
        // Union a singleton "into" the big group in the caller's direction:
        // by-size keeps the big root regardless.
        assert!(d.union(big, 5));
        assert_eq!(d.find(5), big);
        assert_eq!(d.size[big as usize], 4);
    }

    #[test]
    fn dsu_path_compression_flattens_chains() {
        let mut d = Dsu::new(8);
        for i in 0..7u32 {
            d.union(i, i + 1);
        }
        let root = d.find(0);
        for i in 0..8u32 {
            d.find(i);
            assert_eq!(d.parent[i as usize], root, "find must compress {i} to the root");
        }
    }

    #[test]
    fn dsu_find_union_invariants() {
        let mut d = Dsu::new(10);
        // find is idempotent and reflexive before any union.
        for i in 0..10u32 {
            assert_eq!(d.find(i), i);
        }
        d.union(2, 7);
        d.union(7, 9);
        // Connectivity is an equivalence: symmetric + transitive.
        assert_eq!(d.find(2), d.find(9));
        assert_eq!(d.find(9), d.find(2));
        // Unrelated elements stay apart, and sizes account for every member.
        assert_ne!(d.find(0), d.find(2));
        let root = d.find(2) as usize;
        assert_eq!(d.size[root], 3);
        // union returns false exactly on already-joined pairs.
        assert!(!d.union(9, 2));
    }
}
