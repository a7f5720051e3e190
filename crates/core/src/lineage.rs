//! Lineage vocabulary and its lowering onto the query IR.
//!
//! Ancestor/descendant lineage is the paper's baseline read (Sec. II). It
//! has no engine of its own: [`compile_lineage`] lowers a start vertex, a
//! [`LineageDirection`] and a [`LineageBound`] to a one-step
//! [`prov_store::Pipeline`], and `prov_store::evaluate` — the one traversal
//! engine, with the one epoch-stamp scratch (DESIGN.md §6) — runs it. That
//! is what [`crate::ProvDb::lineage`], `lineage_within`, `k_hop` and the
//! wire `Lineage` request execute.
//!
//! [`lineage_reference`] is the frozen seed walk, kept as the differential
//! oracle for the unbounded closure and as the `Seed` series of figure `7b`.
//!
//! Output contract (wire-stable, asserted by regression tests): the result
//! is sorted ascending by dense vertex id and excludes the start vertex.
//! BFS discovery order is an implementation detail and never escapes.

use prov_model::{EdgeKind, VertexId};
use prov_store::{Direction, Pipeline, ProvIndex};

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

/// The CSR selectors one ancestry hop unions, per direction, as query-IR
/// data. Upstream from an entity crosses `G` (its generators), from an
/// activity `U` (its inputs); downstream reverses both. PROV typing makes
/// exactly one of the pair non-empty per vertex.
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
/// with the degenerate `d = 0` cases mapped to the empty window `1..=0`:
/// depth 0 (the start itself) is never emitted.
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

/// The frozen seed lineage path, kept verbatim for differential tests and
/// the fig7(b) latency sweep: per-call `vec![false; n]` visited state, a
/// [`prov_segment::MaskedGraph`] wrapper, DFS worklist, sort at the end.
/// Answers are identical to the compiled [`LineageBound::Unbounded`]
/// pipeline (both produce the sorted closure); only the cost profile differs.
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
    use prov_store::{evaluate, Plan, ProvGraph};

    /// d → t1 → w1 → t2 → w2 (a two-step chain), plus a side input s → t2.
    fn chain() -> (ProvGraph, ProvIndex, [VertexId; 6]) {
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
        let idx = ProvIndex::build(&g);
        (g, idx, [d, t1, w1, t2, w2, s])
    }

    /// What `ProvDb::lineage` runs: lower, compile, evaluate inline.
    fn lineage(
        (g, idx, _): &(ProvGraph, ProvIndex, [VertexId; 6]),
        start: VertexId,
        direction: LineageDirection,
        bound: LineageBound,
    ) -> Vec<VertexId> {
        let plan = Plan::compile(compile_lineage(start, direction, bound))
            .expect("lineage pipelines always compile");
        evaluate(g, idx, &plan, 1).expect("fresh watermark is never stale").rows
    }

    #[test]
    fn unbounded_matches_reference_both_directions() {
        let c = chain();
        for &v in &c.2 {
            for dir in [LineageDirection::Ancestors, LineageDirection::Descendants] {
                assert_eq!(
                    lineage(&c, v, dir, LineageBound::Unbounded),
                    lineage_reference(&c.1, v, dir),
                    "diverged at {v} {dir:?}"
                );
            }
        }
    }

    #[test]
    fn bounds_cut_the_walk_at_the_right_ring() {
        use LineageBound::{Exactly, Unbounded, Within};
        use LineageDirection::{Ancestors, Descendants};
        let c = chain();
        let [d, t1, w1, t2, w2, s] = c.2;
        // Ancestors of w2: rings are {t2}, {w1, s}, {t1}, {d}.
        assert!(lineage(&c, w2, Ancestors, Within(0)).is_empty());
        assert_eq!(lineage(&c, w2, Ancestors, Within(1)), vec![t2]);
        assert_eq!(lineage(&c, w2, Ancestors, Within(2)), vec![w1, t2, s]);
        assert_eq!(lineage(&c, w2, Ancestors, Within(4)), lineage(&c, w2, Ancestors, Unbounded));
        assert_eq!(lineage(&c, w2, Ancestors, Exactly(2)), vec![w1, s]);
        assert_eq!(lineage(&c, w2, Ancestors, Exactly(4)), vec![d]);
        assert!(lineage(&c, w2, Ancestors, Exactly(5)).is_empty());
        // Downstream rings from d.
        assert_eq!(lineage(&c, d, Descendants, Exactly(1)), vec![t1]);
        assert_eq!(lineage(&c, d, Descendants, Exactly(2)), vec![w1]);
    }

    #[test]
    fn output_is_sorted_ascending_and_excludes_start() {
        let c = chain();
        for &v in &c.2 {
            for dir in [LineageDirection::Ancestors, LineageDirection::Descendants] {
                for bound in
                    [LineageBound::Unbounded, LineageBound::Within(3), LineageBound::Exactly(2)]
                {
                    let out = lineage(&c, v, dir, bound);
                    assert!(out.windows(2).all(|w| w[0] < w[1]), "unsorted: {out:?}");
                    assert!(!out.contains(&v), "start leaked into {out:?}");
                }
            }
        }
    }

    #[test]
    fn out_of_range_start_is_empty_not_a_panic() {
        let c = chain();
        for bound in [LineageBound::Unbounded, LineageBound::Within(2), LineageBound::Exactly(1)] {
            assert!(
                lineage(&c, VertexId::new(10_000), LineageDirection::Ancestors, bound).is_empty()
            );
        }
    }
}
