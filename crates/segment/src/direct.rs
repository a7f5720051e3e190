//! Vertices on direct paths (`VC1` of Sec. III-A.2).
//!
//! A *direct path* runs from a destination entity `vj ∈ Vdst` to a source
//! entity `vi ∈ Vsrc` along forward ancestry edges (`G` then `U`,
//! alternating): `weight-v2 →G train-v2 →U dataset-v1` in Fig. 2(d). The set
//! of vertices lying on *some* direct path is exactly
//!
//! ```text
//! VC1 = forward-reachable(Vdst) ∩ can-reach-forward(Vsrc)
//! ```
//!
//! computed with two linear masked BFS traversals (any vertex in the
//! intersection lies on a concatenation of the two witnessing paths).

use crate::view::MaskedGraph;
use prov_model::VertexId;
use prov_store::rank_u32;

/// Scratch-free BFS marker over vertex ids.
fn bfs(
    view: &MaskedGraph<'_>,
    starts: &[VertexId],
    mut next: impl FnMut(&MaskedGraph<'_>, VertexId, &mut Vec<VertexId>),
) -> Vec<bool> {
    let mut seen = vec![false; view.index().vertex_count()];
    let mut queue: Vec<VertexId> = Vec::new();
    for &s in starts {
        if view.vertex_ok(s) && !seen[s.index()] {
            seen[s.index()] = true;
            queue.push(s);
        }
    }
    let mut buf: Vec<VertexId> = Vec::new();
    while let Some(v) = queue.pop() {
        buf.clear();
        next(view, v, &mut buf);
        for &n in &buf {
            if !seen[n.index()] {
                seen[n.index()] = true;
                queue.push(n);
            }
        }
    }
    seen
}

/// Compute `VC1`: all vertices on some direct (forward `U`/`G`) path from a
/// destination to a source, **including** the endpoints themselves when they
/// lie on such a path. Returns a sorted vertex list.
pub fn direct_path_vertices(
    view: &MaskedGraph<'_>,
    vsrc: &[VertexId],
    vdst: &[VertexId],
) -> Vec<VertexId> {
    // Forward closure from destinations (upstream direction of the data flow).
    let from_dst = bfs(view, vdst, |view, v, out| out.extend(view.upstream(v)));
    // Reverse closure from sources: vertices that can reach a source forward.
    let to_src = bfs(view, vsrc, |view, v, out| out.extend(view.downstream(v)));
    (0..view.index().vertex_count())
        .filter(|&i| from_dst[i] && to_src[i])
        .map(|i| VertexId::new(rank_u32(i)))
        .collect()
}

/// Existence version: is any destination connected to any source by a direct
/// path? (The classic reachability provenance question.)
pub fn direct_path_exists(view: &MaskedGraph<'_>, vsrc: &[VertexId], vdst: &[VertexId]) -> bool {
    !direct_path_vertices(view, vsrc, vdst).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::{Boundary, EdgePred};
    use prov_model::EdgeKind;
    use prov_store::{ProvGraph, ProvIndex};

    /// d → t1 → m → t2 → w  (forward ancestry direction w → t2 → m → t1 → d),
    /// plus a dead-end sibling log generated by t1.
    fn chain() -> (ProvGraph, ProvIndex, [VertexId; 6]) {
        let mut g = ProvGraph::new();
        let d = g.add_entity("d");
        let t1 = g.add_activity("t1");
        let m = g.add_entity("m");
        let log = g.add_entity("log");
        let t2 = g.add_activity("t2");
        let w = g.add_entity("w");
        g.add_edge(EdgeKind::Used, t1, d).unwrap();
        g.add_edge(EdgeKind::WasGeneratedBy, m, t1).unwrap();
        g.add_edge(EdgeKind::WasGeneratedBy, log, t1).unwrap();
        g.add_edge(EdgeKind::Used, t2, m).unwrap();
        g.add_edge(EdgeKind::WasGeneratedBy, w, t2).unwrap();
        let idx = ProvIndex::build(&g);
        (g, idx, [d, t1, m, log, t2, w])
    }

    #[test]
    fn vc1_is_the_interior_chain() {
        let (_, idx, [d, t1, m, log, t2, w]) = chain();
        let view = MaskedGraph::unmasked(&idx);
        let vc1 = direct_path_vertices(&view, &[d], &[w]);
        assert_eq!(vc1, vec![d, t1, m, t2, w]);
        assert!(!vc1.contains(&log), "sibling log is NOT on a direct path");
    }

    #[test]
    fn no_path_yields_empty() {
        let (_, idx, [d, _, _, log, ..]) = chain();
        let view = MaskedGraph::unmasked(&idx);
        // log has no ancestry chain to d? It does: log -G-> t1 -U-> d. But the
        // reverse query (src=log) has no path: nothing descends to log from w.
        assert!(direct_path_vertices(&view, &[log], &[d]).is_empty());
        assert!(!direct_path_exists(&view, &[log], &[d]));
        assert!(direct_path_exists(&view, &[d], &[log]));
    }

    #[test]
    fn multiple_sources_and_destinations_union() {
        let (_, idx, [d, t1, m, log, t2, w]) = chain();
        let view = MaskedGraph::unmasked(&idx);
        let vc1 = direct_path_vertices(&view, &[d, m], &[w, log]);
        // d→…→w, d→t1→log, m→t2→w are all direct paths.
        assert_eq!(vc1, vec![d, t1, m, log, t2, w]);
    }

    #[test]
    fn mask_breaks_paths() {
        let (g, idx, [d, _, _, _, _, w]) = chain();
        // Exclude all Used edges: no alternating path survives.
        let mask =
            Boundary::none().with_edge_pred(EdgePred::ExcludeKind(EdgeKind::Used)).compile(&g);
        let view = MaskedGraph::new(&idx, Some(&mask));
        assert!(direct_path_vertices(&view, &[d], &[w]).is_empty());
    }

    #[test]
    fn identical_src_dst_is_reachable_trivially() {
        let (_, idx, [d, ..]) = chain();
        let view = MaskedGraph::unmasked(&idx);
        // Vsrc = Vdst = {d}: d is on a trivial (0-length) direct path.
        assert_eq!(direct_path_vertices(&view, &[d], &[d]), vec![d]);
    }
}
