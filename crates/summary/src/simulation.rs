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
//!
//! Since `sim(u) ⊆ class(u)`, a row is stored over `u`'s class only: bit `i`
//! stands for the class's `i`-th member in global-id order, so a row's set
//! bits ascend by global id too. All rows share one word array, and a
//! relation costs `Σ |class|²` bits instead of `n²`. While a child's row is
//! still its whole class (every leaf's is), `pre_k` of it depends only on
//! the two classes and `k`, so that mask is built once per triple.

use crate::union::{Adjacency, Link, G0};
use prov_store::hash::FxHashMap;

const WORD: usize = 64;

/// The nodes renumbered class by class, and where each node's row lives.
/// A node's *slot* is its position in that order: class `c` holds slots
/// `first[c]..first[c + 1]`, its members in global-id order, so bit `i` of
/// a class-`c` row stands for slot `first[c] + i`.
#[derive(Debug, Clone)]
struct Layout {
    /// Slot of every node.
    slot: Vec<u32>,
    /// Node in every slot.
    node: Vec<u32>,
    /// Class of every slot.
    class: Vec<u32>,
    /// First slot of every class, and the slot count at the end.
    first: Vec<u32>,
    /// First word of every slot's row.
    row: Vec<usize>,
}

impl Layout {
    /// The layout of `g0`'s classes and the words all rows take.
    fn new(g0: &G0) -> (Layout, usize) {
        let (n, classes) = (g0.len(), g0.class_count());
        let mut first = vec![0u32; classes + 1];
        for node in &g0.nodes {
            first[node.class.0 as usize + 1] += 1;
        }
        for c in 0..classes {
            first[c + 1] += first[c];
        }
        let mut layout = Layout {
            slot: vec![0; n],
            node: vec![0; n],
            class: vec![0; n],
            row: vec![0; n],
            first,
        };
        let mut fill = layout.first.clone();
        for (v, node) in g0.nodes.iter().enumerate() {
            let c = node.class.0;
            let x = fill[c as usize];
            fill[c as usize] += 1;
            layout.slot[v] = x;
            layout.node[x as usize] = v as u32;
            layout.class[x as usize] = c;
        }
        // Rows follow the slots, each as wide as its class needs.
        let mut words = 0;
        for x in 0..n {
            layout.row[x] = words;
            words += layout.width(layout.class[x]);
        }
        (layout, words)
    }

    /// Members of class `c`.
    #[inline]
    fn size(&self, c: u32) -> usize {
        (self.first[c as usize + 1] - self.first[c as usize]) as usize
    }

    /// Words per row of class `c`.
    #[inline]
    fn width(&self, c: u32) -> usize {
        self.size(c).div_ceil(WORD)
    }

    /// The word range of slot `x`'s row.
    #[inline]
    fn span(&self, x: u32) -> std::ops::Range<usize> {
        let start = self.row[x as usize];
        start..start + self.width(self.class[x as usize])
    }

    /// One direction's child rows and parent rows over slots, each row
    /// sorted by slot: so the links of a row into one class are one
    /// contiguous run ([`around`]).
    fn rows(&self, g0: &G0, children: fn(&G0, u32) -> &[Link]) -> (Adjacency, Adjacency) {
        let unsorted = Adjacency::from_rows(self.node.iter().map(|&v| {
            children(g0, v).iter().map(|l| Link::new(l.kind(), self.slot[l.node() as usize]))
        }));
        let up = unsorted.reversed();
        (up.reversed(), up)
    }
}

/// A run of `row` (sorted by node) that holds every link into slots
/// `lo..hi`: the whole row when it is short, since a scan beats a binary
/// search there.
#[inline]
fn around(row: &[Link], lo: u32, hi: u32) -> &[Link] {
    if row.len() <= 16 {
        return row;
    }
    let from = row.partition_point(|l| l.node() < lo);
    let to = from + row[from..].partition_point(|l| l.node() < hi);
    &row[from..to]
}

#[inline]
fn test(words: &[u64], i: u32) -> bool {
    words[i as usize / WORD] >> (i as usize % WORD) & 1 == 1
}

/// The set bits of a row, ascending.
fn ones(words: &[u64]) -> impl Iterator<Item = u32> + '_ {
    words.iter().enumerate().flat_map(|(i, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros();
                rest &= rest - 1;
                (i * WORD) as u32 + bit
            })
        })
    })
}

/// `row &= mask`; returns the row's new count.
fn intersect(row: &mut [u64], mask: &[u64]) -> u32 {
    row.iter_mut()
        .zip(mask)
        .map(|(w, &keep)| {
            *w &= keep;
            w.count_ones()
        })
        .sum()
}

/// A computed simulation preorder over `g0` nodes.
#[derive(Debug, Clone)]
pub struct SimRelation {
    layout: Layout,
    /// Every row, class-local: bit `i` of `u`'s row is set iff the `i`-th
    /// member of `u`'s class simulates `u`.
    words: Vec<u64>,
}

impl SimRelation {
    /// Is `u ≤ v` (does `v` simulate `u`)?
    #[inline]
    pub fn le(&self, u: u32, v: u32) -> bool {
        let layout = &self.layout;
        let (x, y) = (layout.slot[u as usize], layout.slot[v as usize]);
        let c = layout.class[x as usize];
        layout.class[y as usize] == c
            && test(&self.words[layout.span(x)], y - layout.first[c as usize])
    }

    /// The nodes simulating `u`, ascending (no allocation).
    pub fn row(&self, u: u32) -> impl Iterator<Item = u32> + '_ {
        let x = self.layout.slot[u as usize];
        let first = self.layout.first[self.layout.class[x as usize] as usize];
        let row = &self.words[self.layout.span(x)];
        ones(row).map(move |i| self.layout.node[(first + i) as usize])
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
    let (layout, total) = Layout::new(g0);
    // Children and parents by slot: a class's candidates are consecutive
    // slots, so walking them reads their rows in order.
    let (adj, radj) = match direction {
        SimDirection::Out => layout.rows(g0, G0::out_links),
        SimDirection::In => layout.rows(g0, G0::in_links),
    };

    // Children first (Kahn over `adj`): a slot is ready once every child is
    // placed. Slots on or above a cycle never get ready and are appended.
    let mut pending: Vec<u32> = (0..n as u32).map(|x| adj.row(x).len() as u32).collect();
    let mut order: Vec<u32> = Vec::with_capacity(n);
    order.extend((0..n as u32).filter(|&x| pending[x as usize] == 0));
    let mut next = 0;
    while next < order.len() {
        for &p in radj.row(order[next]) {
            let p = p.node();
            pending[p as usize] -= 1;
            if pending[p as usize] == 0 {
                order.push(p);
            }
        }
        next += 1;
    }
    let placed = order.len();
    order.extend((0..n as u32).filter(|&x| pending[x as usize] != 0));

    // Every row starts as its whole class.
    let mut words = vec![0u64; total];
    let mut len: Vec<u32> = vec![0; n];
    for x in 0..n as u32 {
        let size = layout.size(layout.class[x as usize]);
        let row = &mut words[layout.span(x)];
        row.fill(!0);
        if size % WORD != 0 {
            row[size / WORD] = (1 << (size % WORD)) - 1;
        }
        len[x as usize] = size as u32;
    }

    // sim(u) ∩= pre_k(sim(c)) for every child (k, c) of u, where pre_k(S)
    // is the set of k-parents of S. Whichever side is smaller is walked: the
    // candidates in sim(u), keeping those with a k-child in sim(c), or
    // sim(c), gathering its k-parents of u's class. Either way the mask is
    // built before the row changes, so a self-loop sees the row as it
    // stood. A row down to `{u}` cannot shrink further: the relation is
    // reflexive.
    let mut mask: Vec<u64> = Vec::new();
    let mut whole: FxHashMap<(usize, u8, usize), Vec<u64>> = FxHashMap::default();
    let mut sweep = &order[..];
    loop {
        let mut shrunk = false;
        for &u in sweep {
            let cu = layout.class[u as usize] as usize;
            let (lo_u, hi_u) = (layout.first[cu], layout.first[cu + 1]);
            let before = len[u as usize];
            for &child in adj.row(u) {
                if len[u as usize] == 1 {
                    break;
                }
                let (k, c) = (child.kind(), child.node());
                let cc = layout.class[c as usize] as usize;
                let (lo_c, hi_c) = (layout.first[cc], layout.first[cc + 1]);
                let (row, child_row) = (&words[layout.span(u)], &words[layout.span(c)]);
                if len[c as usize] as usize == layout.size(cc as u32) {
                    // sim(c) is c's whole class, so pre_k of it depends on
                    // (class(c), k, class(u)) alone: build it once.
                    let whole = whole.entry((cc, k, cu)).or_insert_with(|| {
                        let mut keep = vec![0u64; row.len()];
                        for w in lo_u..hi_u {
                            let into = |l: &Link| l.kind() == k && (lo_c..hi_c).contains(&l.node());
                            if around(adj.row(w), lo_c, hi_c).iter().any(into) {
                                let i = (w - lo_u) as usize;
                                keep[i / WORD] |= 1 << (i % WORD);
                            }
                        }
                        keep
                    });
                    len[u as usize] = intersect(&mut words[layout.span(u)], whole);
                    continue;
                }
                mask.clear();
                if len[u as usize] < len[c as usize] {
                    // Keep the candidates with a k-child in sim(c).
                    let kept = |l: &Link| {
                        let y = l.node();
                        l.kind() == k && (lo_c..hi_c).contains(&y) && test(child_row, y - lo_c)
                    };
                    mask.extend(row.iter().enumerate().map(|(i, &word)| {
                        let (mut rest, mut keep) = (word, 0u64);
                        while rest != 0 {
                            let bit = rest.trailing_zeros();
                            rest &= rest - 1;
                            let w = lo_u + (i * WORD) as u32 + bit;
                            if around(adj.row(w), lo_c, hi_c).iter().any(kept) {
                                keep |= 1 << bit;
                            }
                        }
                        keep
                    }));
                } else {
                    // Gather the k-parents of sim(c) that are in u's class.
                    mask.resize(row.len(), 0);
                    for (j, &word) in child_row.iter().enumerate() {
                        let mut rest = word;
                        while rest != 0 {
                            let bit = rest.trailing_zeros();
                            rest &= rest - 1;
                            let x = lo_c + (j * WORD) as u32 + bit;
                            for &parent in around(radj.row(x), lo_u, hi_u) {
                                let p = parent.node();
                                if parent.kind() == k && (lo_u..hi_u).contains(&p) {
                                    let i = (p - lo_u) as usize;
                                    mask[i / WORD] |= 1 << (i % WORD);
                                }
                            }
                        }
                    }
                }
                len[u as usize] = intersect(&mut words[layout.span(u)], &mask);
            }
            shrunk |= len[u as usize] < before;
        }
        if !shrunk {
            return SimRelation { layout, words };
        }
        // Rows Kahn placed were final after the first pass; only the rest
        // can still shrink.
        sweep = &order[placed..];
    }
}

/// Reference implementation used by property tests: the naive fixpoint over
/// explicit pair checks (`O(n⁴)`-ish, tiny inputs only).
#[doc(hidden)]
#[expect(clippy::needless_range_loop, reason = "pairwise index loops mirror the math")]
pub fn simulation_naive(g0: &G0, direction: SimDirection) -> Vec<Vec<bool>> {
    let n = g0.len();
    let adj = |v: usize| match direction {
        SimDirection::Out => g0.out_links(v as u32),
        SimDirection::In => g0.in_links(v as u32),
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
                let ok = adj(v).iter().all(|c| {
                    adj(u).iter().any(|c2| {
                        c2.kind() == c.kind() && le[c.node() as usize][c2.node() as usize]
                    })
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
            for u in out.row(v) {
                assert_eq!(g0.class(u), g0.class(v));
            }
        }
    }

    #[test]
    fn empty_graph_yields_empty_relation() {
        let g = ProvGraph::new();
        let g0 = build_g0(&g, &[], &PropertyAggregation::ignore_all(), 0);
        let rel = simulation(&g0, SimDirection::Out);
        assert!(rel.words.is_empty());
    }
}
