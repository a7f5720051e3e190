//! Allocation-free lineage traversal over frozen snapshots.
//!
//! The seed lineage path allocated an `O(n)` visited vector, wrapped the
//! snapshot in a [`prov_segment::MaskedGraph`], and chased iterator chains on
//! every call — fine for a one-shot query, hostile to a serving loop issuing
//! thousands of lineage calls between ingests. The engine here replaces all
//! of that with:
//!
//! * an **epoch-stamped scratch pool**: visited state is a `Vec<u32>` of
//!   stamps reused across calls — marking is `stamp[v] = epoch`, clearing is
//!   `epoch += 1` (no `O(n)` zeroing), and on `u32` wraparound the pool
//!   resets so a stale stamp can never alias a live epoch. Each thread owns
//!   its scratch (`thread_local`), making the fast path lock-free; a
//!   re-entrant call on the same thread degrades to a fresh scratch instead
//!   of panicking;
//! * a **direction-parameterized frontier BFS** straight over the snapshot's
//!   CSR slices in dense-id (rank) space — no view wrapper, no per-edge
//!   closure dispatch;
//! * **bounds**: the same engine serves the unbounded closure, the
//!   depth-bounded prefix ([`LineageBound::Within`]), and the exact-ring
//!   k-hop query ([`LineageBound::Exactly`]).
//!
//! Output contract (wire-stable, asserted by regression tests): the result
//! is sorted ascending by dense vertex id and excludes the start vertex.
//! BFS discovery order is an implementation detail and never escapes.

use prov_model::{EdgeKind, VertexId};
use prov_store::{Direction, Pipeline, ProvIndex};
use std::cell::RefCell;

/// Which way a lineage traversal walks the ancestry relations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineageDirection {
    /// Transitive inputs: walk `used`/`wasGeneratedBy` upstream.
    Ancestors,
    /// Transitive products: walk the same relations downstream.
    Descendants,
}

/// How far a lineage walk reaches. One ancestry hop is one edge traversal
/// (entity → activity or activity → entity), so "k activities away" is `2k`
/// hops — the same convention as session expansion's `bx(Vx, k)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LineageBound {
    /// The full transitive closure.
    #[default]
    Unbounded,
    /// Every vertex within `max_hops` ancestry hops of the start.
    Within(u32),
    /// Only the vertices at *exactly* `hops` ancestry hops (the BFS ring) —
    /// the k-hop neighborhood query.
    Exactly(u32),
}

/// Reusable visited state: `u32` epoch stamps over the dense vertex space.
///
/// Invariants (see DESIGN.md §6):
/// * `stamps[v] == epoch` ⇔ `v` was visited by the *current* traversal;
/// * `begin` bumps the epoch, so clearing is `O(1)`;
/// * on epoch wraparound (`u32::MAX` traversals on one thread) the stamp
///   array resets to zero and the epoch restarts at 1, so a stamp left by
///   traversal `k` can never collide with epoch `k + 2³²`;
/// * the stamp array only ever grows (to the largest snapshot seen by the
///   thread), so a scratch outlives any one database.
#[derive(Debug, Default)]
struct LineageScratch {
    stamps: Vec<u32>,
    epoch: u32,
    frontier: Vec<VertexId>,
    next: Vec<VertexId>,
}

impl LineageScratch {
    /// Start a traversal over `n` vertices: grow the pool, bump the epoch.
    fn begin(&mut self, n: usize) {
        if self.stamps.len() < n {
            self.stamps.resize(n, 0);
        }
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                self.stamps.fill(0);
                1
            }
        };
    }

    /// Mark `v` visited; true when it was not yet visited this traversal.
    #[inline]
    fn mark(&mut self, v: VertexId) -> bool {
        let slot = &mut self.stamps[v.index()];
        if *slot == self.epoch {
            false
        } else {
            *slot = self.epoch;
            true
        }
    }
}

/// Run `f` on this thread's scratch (the lock-free fast path). A re-entrant
/// call — possible only if `f` itself issues a lineage query — falls back to
/// a fresh scratch instead of panicking on the borrow.
fn with_scratch<R>(f: impl FnOnce(&mut LineageScratch) -> R) -> R {
    thread_local! {
        static SCRATCH: RefCell<LineageScratch> = RefCell::new(LineageScratch::default());
    }
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut LineageScratch::default()),
    })
}

/// The two CSRs one ancestry step reads, per direction. Upstream from an
/// entity crosses `G` (its generators), from an activity `U` (its inputs);
/// downstream reverses both. PROV typing makes exactly one of the pair
/// non-empty per vertex, so chaining both slices is branch-free and correct.
#[inline]
fn step_csrs(
    index: &ProvIndex,
    direction: LineageDirection,
) -> (&prov_store::Csr, &prov_store::Csr) {
    let [(first, fd), (second, sd)] = ancestry_edges(direction);
    // lint-ok(csr-traversal): frozen seed engine, the IR evaluation's differential reference
    (index.csr(first, fd), index.csr(second, sd))
}

/// The CSR selectors one ancestry hop unions, per direction — the
/// `step_csrs` pairing as query-IR data. Upstream crosses `G` then `U`
/// forward; downstream reverses both.
pub fn ancestry_edges(direction: LineageDirection) -> [(EdgeKind, Direction); 2] {
    match direction {
        LineageDirection::Ancestors => {
            [(EdgeKind::WasGeneratedBy, Direction::Out), (EdgeKind::Used, Direction::Out)]
        }
        LineageDirection::Descendants => {
            [(EdgeKind::Used, Direction::In), (EdgeKind::WasGeneratedBy, Direction::In)]
        }
    }
}

/// Lower a lineage query to a one-step query-IR pipeline (DESIGN.md §9).
///
/// The hop window translates the bound: the closure is depth `1..`, a
/// `Within(d)` prefix is `1..=d`, and the `Exactly(d)` ring is `d..=d` —
/// with the degenerate `d = 0` cases mapped to the empty window `1..=0`,
/// matching the engines' "depth 0 is never emitted" contract. Evaluating
/// the pipeline is byte-identical to [`lineage_over`], which stays alive as
/// the differential reference.
pub fn compile_lineage(
    start: VertexId,
    direction: LineageDirection,
    bound: LineageBound,
) -> Pipeline {
    let (min_hops, max_hops) = match bound {
        LineageBound::Unbounded => (1, u32::MAX),
        LineageBound::Within(d) => (1, d),
        LineageBound::Exactly(0) => (1, 0),
        LineageBound::Exactly(d) => (d, d),
    };
    Pipeline::from_ids(vec![start]).traverse(&ancestry_edges(direction), min_hops, max_hops)
}

/// Transitive ancestry walk over a frozen snapshot: the engine behind
/// [`crate::ProvDb::lineage`] and its bounded variants, callable directly
/// against any [`ProvIndex`] (benchmarks and read replicas do).
///
/// Returns the reached vertices sorted ascending by id, start excluded; an
/// out-of-range start yields an empty result.
pub fn lineage_over(
    index: &ProvIndex,
    start: VertexId,
    direction: LineageDirection,
    bound: LineageBound,
) -> Vec<VertexId> {
    if start.index() >= index.vertex_count() {
        return Vec::new();
    }
    let (max_depth, ring_only) = match bound {
        LineageBound::Unbounded => (u32::MAX, false),
        LineageBound::Within(d) => (d, false),
        LineageBound::Exactly(d) => (d, true),
    };
    let mut out = Vec::new();
    if max_depth == 0 {
        return out;
    }
    let (first, second) = step_csrs(index, direction);
    with_scratch(|scratch| {
        scratch.begin(index.vertex_count());
        let mut frontier = std::mem::take(&mut scratch.frontier);
        let mut next = std::mem::take(&mut scratch.next);
        frontier.clear();
        next.clear();
        scratch.mark(start);
        frontier.push(start);
        let mut depth = 0u32;
        while !frontier.is_empty() && depth < max_depth {
            depth += 1;
            for &v in &frontier {
                // lint-ok(csr-traversal): frozen seed BFS, diffed against the IR engine
                for &w in first.neighbors(v).iter().chain(second.neighbors(v)) {
                    if scratch.mark(w) {
                        if !ring_only || depth == max_depth {
                            out.push(w);
                        }
                        next.push(w);
                    }
                }
            }
            std::mem::swap(&mut frontier, &mut next);
            next.clear();
        }
        // Hand the (possibly grown) buffers back to the pool.
        scratch.frontier = frontier;
        scratch.next = next;
    });
    out.sort_unstable();
    out
}

/// The frozen seed lineage path, kept verbatim for differential tests and
/// the fig7(b) latency sweep: per-call `vec![false; n]` visited state, a
/// [`prov_segment::MaskedGraph`] wrapper, DFS worklist, sort at the end.
/// Answers are identical to [`lineage_over`] with [`LineageBound::Unbounded`]
/// (both produce the sorted closure); only the cost profile differs.
pub fn lineage_reference(
    index: &ProvIndex,
    e: VertexId,
    direction: LineageDirection,
) -> Vec<VertexId> {
    let view = prov_segment::MaskedGraph::unmasked(index);
    let mut seen = vec![false; index.vertex_count()];
    let mut stack = vec![e];
    seen[e.index()] = true;
    let mut out = Vec::new();
    while let Some(v) = stack.pop() {
        let mut visit = |w: VertexId| {
            if !seen[w.index()] {
                seen[w.index()] = true;
                out.push(w);
                stack.push(w);
            }
        };
        match direction {
            LineageDirection::Ancestors => view.upstream(v).for_each(&mut visit),
            LineageDirection::Descendants => view.downstream(v).for_each(&mut visit),
        }
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_store::ProvGraph;

    /// d → t1 → w1 → t2 → w2 (a two-step chain), plus a side input s → t2.
    fn chain() -> (ProvIndex, [VertexId; 6]) {
        let mut g = ProvGraph::new();
        let d = g.add_entity("d");
        let t1 = g.add_activity("t1");
        let w1 = g.add_entity("w1");
        let t2 = g.add_activity("t2");
        let w2 = g.add_entity("w2");
        let s = g.add_entity("s");
        g.add_edge(EdgeKind::Used, t1, d).unwrap();
        g.add_edge(EdgeKind::WasGeneratedBy, w1, t1).unwrap();
        g.add_edge(EdgeKind::Used, t2, w1).unwrap();
        g.add_edge(EdgeKind::Used, t2, s).unwrap();
        g.add_edge(EdgeKind::WasGeneratedBy, w2, t2).unwrap();
        (ProvIndex::build(&g), [d, t1, w1, t2, w2, s])
    }

    #[test]
    fn unbounded_matches_reference_both_directions() {
        let (idx, ids) = chain();
        for &v in &ids {
            for dir in [LineageDirection::Ancestors, LineageDirection::Descendants] {
                assert_eq!(
                    lineage_over(&idx, v, dir, LineageBound::Unbounded),
                    lineage_reference(&idx, v, dir),
                    "diverged at {v} {dir:?}"
                );
            }
        }
    }

    #[test]
    fn bounds_cut_the_walk_at_the_right_ring() {
        let (idx, [d, t1, w1, t2, w2, s]) = chain();
        let _ = t1;
        // Ancestors of w2: rings are {t2}, {w1, s}, {t1}, {d}.
        assert!(
            lineage_over(&idx, w2, LineageDirection::Ancestors, LineageBound::Within(0)).is_empty()
        );
        assert_eq!(
            lineage_over(&idx, w2, LineageDirection::Ancestors, LineageBound::Within(1)),
            vec![t2]
        );
        assert_eq!(
            lineage_over(&idx, w2, LineageDirection::Ancestors, LineageBound::Within(2)),
            vec![w1, t2, s]
        );
        assert_eq!(
            lineage_over(&idx, w2, LineageDirection::Ancestors, LineageBound::Within(4)),
            lineage_over(&idx, w2, LineageDirection::Ancestors, LineageBound::Unbounded)
        );
        assert_eq!(
            lineage_over(&idx, w2, LineageDirection::Ancestors, LineageBound::Exactly(2)),
            vec![w1, s]
        );
        assert_eq!(
            lineage_over(&idx, w2, LineageDirection::Ancestors, LineageBound::Exactly(4)),
            vec![d]
        );
        assert!(lineage_over(&idx, w2, LineageDirection::Ancestors, LineageBound::Exactly(5))
            .is_empty());
        // Downstream rings from d.
        assert_eq!(
            lineage_over(&idx, d, LineageDirection::Descendants, LineageBound::Exactly(1)),
            vec![t1]
        );
        assert_eq!(
            lineage_over(&idx, d, LineageDirection::Descendants, LineageBound::Exactly(2)),
            vec![w1]
        );
    }

    #[test]
    fn output_is_sorted_ascending_and_excludes_start() {
        let (idx, ids) = chain();
        for &v in &ids {
            for dir in [LineageDirection::Ancestors, LineageDirection::Descendants] {
                for bound in
                    [LineageBound::Unbounded, LineageBound::Within(3), LineageBound::Exactly(2)]
                {
                    let out = lineage_over(&idx, v, dir, bound);
                    assert!(out.windows(2).all(|w| w[0] < w[1]), "unsorted: {out:?}");
                    assert!(!out.contains(&v), "start leaked into {out:?}");
                }
            }
        }
    }

    #[test]
    fn epoch_reuse_across_many_calls_is_clean() {
        let (idx, [d, ..]) = chain();
        let expect = lineage_over(&idx, d, LineageDirection::Descendants, LineageBound::Unbounded);
        // Hundreds of traversals on one thread reuse the same stamps; every
        // answer must be identical (a stale stamp would drop vertices).
        for _ in 0..500 {
            assert_eq!(
                lineage_over(&idx, d, LineageDirection::Descendants, LineageBound::Unbounded),
                expect
            );
        }
    }

    #[test]
    fn scratch_wraparound_resets_stamps() {
        let mut s =
            LineageScratch { stamps: vec![7, u32::MAX], epoch: u32::MAX, ..Default::default() };
        s.begin(2);
        assert_eq!(s.epoch, 1);
        assert_eq!(s.stamps, vec![0, 0], "wraparound must clear stale stamps");
        assert!(s.mark(VertexId::new(0)));
        assert!(!s.mark(VertexId::new(0)));
    }

    #[test]
    fn out_of_range_start_is_empty_not_a_panic() {
        let (idx, _) = chain();
        assert!(lineage_over(
            &idx,
            VertexId::new(10_000),
            LineageDirection::Ancestors,
            LineageBound::Unbounded
        )
        .is_empty());
    }
}
