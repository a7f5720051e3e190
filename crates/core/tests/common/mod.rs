//! What the lineage differential suites share: the compiled production path
//! and the definitional oracle it is checked against.

use prov_core::{compile_lineage, LineageBound, LineageDirection};
use prov_model::{EdgeKind, VertexId};
use prov_store::query::evaluate_with_frontier_min;
use prov_store::{Plan, ProvGraph, ProvIndex};

/// Compiled lineage — what `ProvDb::lineage`/`lineage_within`/`k_hop` run —
/// at `chunks` chunks, with the inline-level threshold forced to 0 so more
/// than one chunk fans out even on tiny frontiers.
pub fn compiled_lineage(
    graph: &ProvGraph,
    idx: &ProvIndex,
    start: VertexId,
    direction: LineageDirection,
    bound: LineageBound,
    chunks: usize,
) -> Vec<VertexId> {
    let plan = Plan::compile(compile_lineage(start, direction, bound))
        .expect("lineage pipelines always compile");
    evaluate_with_frontier_min(graph, idx, &plan, idx.cursor(), chunks, 0)
        .expect("a snapshot is never behind its own watermark")
        .rows
}

/// Lineage by its definition: a level-by-level BFS over the store's own
/// `used`/`wasGeneratedBy` adjacency lists (no snapshot, no scratch), keeping
/// the levels `1..=d` for `Within(d)`, level `d` alone for `Exactly(d)`, and
/// every level for `Unbounded`. Sorted ascending, start excluded.
pub fn lineage_oracle(
    graph: &ProvGraph,
    start: VertexId,
    direction: LineageDirection,
    bound: LineageBound,
) -> Vec<VertexId> {
    let (max_depth, ring_only) = match bound {
        LineageBound::Unbounded => (u32::MAX, false),
        LineageBound::Within(d) => (d, false),
        LineageBound::Exactly(d) => (d, true),
    };
    let up = direction == LineageDirection::Ancestors;
    let mut seen = vec![false; graph.vertex_count()];
    seen[start.index()] = true;
    let (mut level, mut out, mut depth) = (vec![start], Vec::new(), 0u32);
    while !level.is_empty() && depth < max_depth {
        depth += 1;
        let mut next = Vec::new();
        for &v in &level {
            // Upstream follows out-edges to their targets, downstream
            // in-edges back to their sources.
            let hops = graph
                .out_edges(v)
                .map(|(_, e)| (up, e.kind, e.dst))
                .chain(graph.in_edges(v).map(|(_, e)| (!up, e.kind, e.src)));
            for (this_way, kind, w) in hops {
                let ancestry = matches!(kind, EdgeKind::Used | EdgeKind::WasGeneratedBy);
                if this_way && ancestry && !std::mem::replace(&mut seen[w.index()], true) {
                    next.push(w);
                }
            }
        }
        if !ring_only || depth == max_depth {
            out.extend(&next);
        }
        level = next;
    }
    out.sort_unstable();
    out
}
