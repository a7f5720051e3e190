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
//! round is jointly sound (symmetrically `≃out`). A condition-3 round is
//! **not**: each union is justified against the relations as they stood
//! before the round, and the union-find composes several of them into groups
//! no single pairwise justification covers, so the summary can gain a path
//! word no segment spells (and even a cyclic quotient). The smallest known case is the ignored
//! `condition_three_round_keeps_the_path_language` in
//! `tests/invariants.rs`; ROADMAP item 3 tracks the fix.
//!
//! **Quotient-incremental rounds** (ISSUE 4). The seed recomputed *both*
//! simulation preorders from scratch on the current quotient before every
//! round (frozen as [`mod@crate::merge_reference`]). But quotienting by
//! simulation equivalence is exact for the *same* direction: `[u] ≤ [v]` on
//! the quotient iff `u ≤ v` on the pre-merge graph (see `DESIGN.md` §5 for
//! the two-inclusion proof). So after an `≃in` round the maintained `≤in`
//! relation is *projected* onto the surviving representatives — rows and
//! columns shrunk in place through the group map — and only the `≤out`
//! relation (whose languages the merge really changed) is marked stale and
//! recomputed lazily. Symmetrically for `≃out` rounds. Condition-3 rounds
//! change both languages of the absorbed node, so they invalidate both
//! relations and fall back to full recompute. A full cycle that used to cost
//! four fixpoints now costs at most three, almost all on already-shrunk
//! quotients.

use crate::simulation::{simulation, SimDirection, SimRelation};
use crate::union::{G0Node, G0};
use prov_store::hash::FxHashSet;

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
/// groups, plus the quotient graph itself (as a new `G0` whose `segment` /
/// `vertex` fields hold a representative member).
#[derive(Debug, Clone)]
pub struct MergeResult {
    /// Quotient group of each original node.
    pub group_of: Vec<u32>,
    /// Members of each group (original node ids).
    pub members: Vec<Vec<u32>>,
    /// How many rounds ran (diagnostics).
    pub rounds: usize,
}

/// Build the quotient `G0` induced by `group_of` (dedup multi-edges).
/// `group_of` values must be dense in `0..group_count`.
pub fn quotient(g0: &G0, group_of: &[u32], group_count: usize) -> G0 {
    let mut nodes: Vec<Option<G0Node>> = vec![None; group_count];
    for (i, node) in g0.nodes.iter().enumerate() {
        let slot = group_of[i] as usize;
        if nodes[slot].is_none() {
            nodes[slot] =
                Some(G0Node { segment: node.segment, vertex: node.vertex, class: node.class });
        }
    }
    let nodes: Vec<G0Node> = nodes.into_iter().map(|n| n.expect("group non-empty")).collect();
    let n = nodes.len();
    let mut out_adj: Vec<Vec<(u8, u32)>> = vec![Vec::new(); n];
    let mut in_adj: Vec<Vec<(u8, u32)>> = vec![Vec::new(); n];
    let mut seen: FxHashSet<(u32, u8, u32)> = FxHashSet::default();
    for (i, adj) in g0.out_adj.iter().enumerate() {
        let s = group_of[i];
        for &(k, d) in adj {
            let d2 = group_of[d as usize];
            if seen.insert((s, k, d2)) {
                out_adj[s as usize].push((k, d2));
                in_adj[d2 as usize].push((k, s));
            }
        }
    }
    G0 {
        nodes,
        out_adj,
        in_adj,
        segment_count: g0.segment_count,
        class_labels: g0.class_labels.clone(),
        class_names: g0.class_names.clone(),
    }
}

/// Collect all ≃-equivalence groups of a simulation relation and union them.
fn merge_equiv_classes(g: &G0, rel: &SimRelation, dsu: &mut Dsu) -> bool {
    let mut merged = false;
    for v in 0..g.len() as u32 {
        for u in rel.row(v).ones() {
            if u > v && rel.equiv(u, v) {
                merged |= dsu.union(u, v);
            }
        }
    }
    merged
}

/// Union condition-3 pairs: `u ≤in v ∧ u ≤out v` (u strictly dominated).
fn merge_dominated(g: &G0, le_in: &SimRelation, le_out: &SimRelation, dsu: &mut Dsu) -> bool {
    let mut merged = false;
    for u in 0..g.len() as u32 {
        for v in le_in.row(u).ones() {
            if v != u && le_out.le(u, v) {
                merged |= dsu.union(u, v);
                break; // one dominating target suffices for u
            }
        }
    }
    merged
}

/// Apply a round's unions: rewrite `group_of` (original node → new dense
/// quotient id) and return `(new_count, node_map)` where `node_map[old
/// quotient id] = new quotient id`. Dense ids follow first-appearance order
/// over the original nodes, exactly like the seed's `dsu.find` + [`densify`]
/// composition, so the resulting partition (and its labeling) is identical.
fn apply_unions(group_of: &mut [u32], dsu: &mut Dsu, old_count: usize) -> (usize, Vec<u32>) {
    let mut root_id: Vec<u32> = vec![u32::MAX; old_count];
    let mut next = 0u32;
    for g in group_of.iter_mut() {
        let r = dsu.find(*g) as usize;
        if root_id[r] == u32::MAX {
            root_id[r] = next;
            next += 1;
        }
        *g = root_id[r];
    }
    // Complete the old-quotient-id → new-id map for non-root members.
    let node_map: Vec<u32> = (0..old_count as u32).map(|c| root_id[dsu.find(c) as usize]).collect();
    (next as usize, node_map)
}

/// Run the full merge phase on `g0`.
pub fn merge(g0: &G0) -> MergeResult {
    let n0 = g0.len();
    // group_of maps ORIGINAL node -> current quotient node id (kept dense).
    let mut group_of: Vec<u32> = (0..n0 as u32).collect();
    let mut gcount = n0;
    let mut current = quotient(g0, &group_of, gcount);
    let mut rounds = 0usize;

    // Maintained preorders of `current`; `None` = stale (must recompute).
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
            let mut dsu = Dsu::new(current.len());
            let merged = match round {
                Round::InEquiv => {
                    let rel = sim_in.get_or_insert_with(|| simulation(&current, SimDirection::In));
                    merge_equiv_classes(&current, rel, &mut dsu)
                }
                Round::OutEquiv => {
                    let rel =
                        sim_out.get_or_insert_with(|| simulation(&current, SimDirection::Out));
                    merge_equiv_classes(&current, rel, &mut dsu)
                }
                Round::Dominated => {
                    let le_in =
                        sim_in.take().unwrap_or_else(|| simulation(&current, SimDirection::In));
                    let le_out =
                        sim_out.take().unwrap_or_else(|| simulation(&current, SimDirection::Out));
                    let m = merge_dominated(&current, &le_in, &le_out, &mut dsu);
                    if !m {
                        // No merge: the quotient is unchanged, keep both.
                        sim_in = Some(le_in);
                        sim_out = Some(le_out);
                    }
                    m
                }
            };
            if merged {
                any = true;
                let (new_count, node_map) = apply_unions(&mut group_of, &mut dsu, gcount);
                gcount = new_count;
                current = quotient(g0, &group_of, gcount);
                // Shrink-in-place vs full recompute: quotienting by ≃ is
                // exact for the merged direction only; a condition-3 merge
                // (or the opposite direction) is invalidated.
                match round {
                    Round::InEquiv => {
                        sim_in = sim_in.take().map(|rel| rel.project(&node_map, gcount));
                        sim_out = None;
                    }
                    Round::OutEquiv => {
                        sim_out = sim_out.take().map(|rel| rel.project(&node_map, gcount));
                        sim_in = None;
                    }
                    Round::Dominated => {
                        sim_in = None;
                        sim_out = None;
                    }
                }
            }
        }
        if !any {
            break;
        }
    }

    let mut members: Vec<Vec<u32>> = vec![Vec::new(); gcount];
    for (i, &g) in group_of.iter().enumerate() {
        members[g as usize].push(i as u32);
    }
    MergeResult { group_of, members, rounds }
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
        assert_eq!(res.members.len(), 3);
        assert_eq!(res.group_of[0], res.group_of[3]);
        assert_eq!(res.group_of[1], res.group_of[4]);
        assert_eq!(res.group_of[2], res.group_of[5]);
        assert!(res.rounds >= 1);
    }

    #[test]
    fn quotient_dedups_edges() {
        let g0 = twins();
        let res = merge(&g0);
        let q = quotient(&g0, &res.group_of, res.members.len());
        assert_eq!(q.len(), 3);
        let total: usize = q.out_adj.iter().map(|a| a.len()).sum();
        assert_eq!(total, 2, "U and G edges once each");
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
        assert_eq!(res.members.len(), 3);
    }

    #[test]
    fn different_classes_never_merge() {
        let g0 = twins();
        let res = merge(&g0);
        for group in &res.members {
            let class = g0.class(group[0]);
            for &m in group {
                assert_eq!(g0.class(m), class);
            }
        }
    }

    #[test]
    fn matches_reference_discipline_on_fixtures() {
        for g0 in [twins(), {
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
            build_g0(&g, &[s1, s2], &PropertyAggregation::ignore_all(), 0)
        }] {
            let new = merge(&g0);
            let old = crate::merge_reference::merge_reference(&g0);
            assert_eq!(new.group_of, old.group_of, "identical partition and labeling");
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
