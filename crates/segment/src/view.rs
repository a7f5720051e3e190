//! Masked traversal view over a provenance snapshot.
//!
//! All segmentation algorithms traverse the same four typed adjacencies
//! (inputs/users/generators/outputs) after applying the compiled exclusion
//! boundary: an excluded vertex or edge behaves as if its label were ε
//! (Sec. III-A.3), i.e. no path may cross it. [`MaskedGraph`] centralizes that
//! filtering and also exposes the view as [`TerminalEdges`] so the generic
//! CflrB solver evaluates boundaries "fused into the grammar" exactly as the
//! appendix describes.

use crate::boundary::Mask;
use prov_cfl::solver::TerminalEdges;
use prov_cfl::symbol::{Orientation, Terminal};
use prov_model::{EdgeKind, VertexId};
use prov_store::{rank_u32, Direction, ProvIndex};

/// A snapshot plus optional exclusion mask.
#[derive(Clone, Copy)]
pub struct MaskedGraph<'a> {
    index: &'a ProvIndex,
    mask: Option<&'a Mask>,
}

impl<'a> MaskedGraph<'a> {
    /// View with exclusions.
    pub fn new(index: &'a ProvIndex, mask: Option<&'a Mask>) -> Self {
        MaskedGraph { index, mask }
    }

    /// View without exclusions.
    pub fn unmasked(index: &'a ProvIndex) -> Self {
        MaskedGraph { index, mask: None }
    }

    /// The underlying snapshot.
    pub fn index(&self) -> &'a ProvIndex {
        self.index
    }

    /// True when an exclusion mask is installed. SimProvAlg's rank-adjacency
    /// lowering uses this to read raw CSR slices instead of the per-element
    /// filtering iterators when nothing is excluded.
    #[inline]
    pub fn is_masked(&self) -> bool {
        self.mask.is_some()
    }

    /// Is `v` visible under the mask?
    #[inline]
    pub fn vertex_ok(&self, v: VertexId) -> bool {
        self.mask.is_none_or(|m| m.vertex(v))
    }

    /// Masked neighbors over one relation/direction.
    #[inline]
    #[expect(
        clippy::disallowed_methods,
        reason = "the masked view is the PgSeg kernels' own read surface"
    )]
    pub fn neighbors(
        &self,
        kind: EdgeKind,
        dir: Direction,
        v: VertexId,
    ) -> impl Iterator<Item = VertexId> + '_ {
        let csr = self.index.csr(kind, dir);
        csr.entries(v).filter_map(move |(nbr, eid)| match self.mask {
            Some(m) if !(m.edge(eid) && m.vertex(nbr)) => None,
            _ => Some(nbr),
        })
    }

    /// Activities that generated entity `e` (upstream step from an entity).
    #[inline]
    pub fn generators_of(&self, e: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.neighbors(EdgeKind::WasGeneratedBy, Direction::Out, e)
    }

    /// Entities used by activity `a` (upstream step from an activity).
    #[inline]
    pub fn inputs_of(&self, a: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.neighbors(EdgeKind::Used, Direction::Out, a)
    }

    /// Activities that used entity `e` (downstream step from an entity).
    #[inline]
    pub fn users_of(&self, e: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.neighbors(EdgeKind::Used, Direction::In, e)
    }

    /// Entities generated by activity `a` (downstream step from an activity).
    #[inline]
    pub fn outputs_of(&self, a: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.neighbors(EdgeKind::WasGeneratedBy, Direction::In, a)
    }

    /// Upstream ancestry neighbors regardless of vertex kind: generators for
    /// entities, inputs for activities (the alternation is enforced by PROV
    /// edge types, not by this method).
    pub fn upstream(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.generators_of(v).chain(self.inputs_of(v))
    }

    /// Downstream ancestry neighbors: users for entities, outputs for
    /// activities.
    pub fn downstream(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.users_of(v).chain(self.outputs_of(v))
    }
}

impl TerminalEdges for MaskedGraph<'_> {
    fn vertex_count(&self) -> usize {
        self.index.vertex_count()
    }

    fn for_each_edge(&self, t: Terminal, f: &mut dyn FnMut(u32, u32)) {
        match t {
            Terminal::Edge(kind, orientation) => {
                let (dir, flip) = match orientation {
                    Orientation::Forward => (Direction::Out, false),
                    Orientation::Inverse => match kind {
                        EdgeKind::WasAssociatedWith | EdgeKind::WasAttributedTo => {
                            (Direction::Out, true)
                        }
                        _ => (Direction::In, false),
                    },
                };
                #[expect(
                    clippy::disallowed_methods,
                    reason = "CFL terminal enumeration feeds the Datalog solver"
                )]
                let csr = self.index.csr(kind, dir);
                for v in 0..rank_u32(self.index.vertex_count()) {
                    let vid = VertexId::new(v);
                    if !self.vertex_ok(vid) {
                        continue;
                    }
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "whole-relation scan under the mask, not an ad-hoc read path"
                    )]
                    for (nbr, eid) in csr.entries(vid) {
                        if let Some(m) = self.mask {
                            if !(m.edge(eid) && m.vertex(nbr)) {
                                continue;
                            }
                        }
                        if flip {
                            f(nbr.raw(), v);
                        } else {
                            f(v, nbr.raw());
                        }
                    }
                }
            }
            Terminal::VertexLabel(kind) => {
                for &v in self.index.kind_members(kind) {
                    if self.vertex_ok(v) {
                        f(v.raw(), v.raw());
                    }
                }
            }
            Terminal::VertexIs(v) => {
                if v.index() < self.index.vertex_count() && self.vertex_ok(v) {
                    f(v.raw(), v.raw());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::{Boundary, EdgePred, VertexPred};
    use prov_store::ProvGraph;

    fn diamond() -> (ProvGraph, ProvIndex, [VertexId; 5]) {
        // d --U<- t1 ; d --U<- t2 ; w1 -G-> t1 ; w2 -G-> t2
        let mut g = ProvGraph::new();
        let d = g.add_entity("d");
        let t1 = g.add_activity("t1");
        let w1 = g.add_entity("w1");
        let t2 = g.add_activity("t2");
        let w2 = g.add_entity("w2");
        g.add_edge(EdgeKind::Used, t1, d).unwrap();
        g.add_edge(EdgeKind::WasGeneratedBy, w1, t1).unwrap();
        g.add_edge(EdgeKind::Used, t2, d).unwrap();
        g.add_edge(EdgeKind::WasGeneratedBy, w2, t2).unwrap();
        let idx = ProvIndex::build(&g);
        (g, idx, [d, t1, w1, t2, w2])
    }

    #[test]
    fn unmasked_view_matches_index() {
        let (_, idx, [d, t1, _, t2, _]) = diamond();
        let view = MaskedGraph::unmasked(&idx);
        let mut users: Vec<VertexId> = view.users_of(d).collect();
        users.sort();
        assert_eq!(users, vec![t1, t2]);
        assert_eq!(view.inputs_of(t1).collect::<Vec<_>>(), vec![d]);
    }

    #[test]
    fn vertex_mask_hides_neighbors() {
        let (g, idx, [d, t1, _, t2, _]) = diamond();
        let mask = Boundary::none()
            .with_vertex_pred(VertexPred::Custom(std::sync::Arc::new(move |g, v| {
                g.vertex_name(v) != Some("t1")
            })))
            .compile(&g);
        let view = MaskedGraph::new(&idx, Some(&mask));
        assert!(!view.vertex_ok(t1));
        let users: Vec<VertexId> = view.users_of(d).collect();
        assert_eq!(users, vec![t2]);
    }

    #[test]
    fn edge_mask_hides_single_edge() {
        let (g, idx, [d, t1, ..]) = diamond();
        // Exclude the first Used edge (t1 -> d) only.
        let mask = Boundary::none()
            .with_edge_pred(EdgePred::Custom(std::sync::Arc::new(|_, e| e.raw() != 0)))
            .compile(&g);
        let view = MaskedGraph::new(&idx, Some(&mask));
        assert!(!view.users_of(d).any(|a| a == t1));
        assert!(view.inputs_of(t1).next().is_none());
    }

    #[test]
    fn upstream_downstream_combinators() {
        let (_, idx, [d, t1, w1, ..]) = diamond();
        let view = MaskedGraph::unmasked(&idx);
        // Upstream of w1: its generator t1.
        assert_eq!(view.upstream(w1).collect::<Vec<_>>(), vec![t1]);
        // Upstream of t1: its input d.
        assert_eq!(view.upstream(t1).collect::<Vec<_>>(), vec![d]);
        // Downstream of d: t1 and t2.
        assert_eq!(view.downstream(d).count(), 2);
    }

    #[test]
    fn terminal_edges_respect_mask() {
        let (g, idx, [_, t1, ..]) = diamond();
        let mask = Boundary::none()
            .with_vertex_pred(VertexPred::Custom(std::sync::Arc::new(move |g, v| {
                g.vertex_name(v) != Some("t1")
            })))
            .compile(&g);
        let view = MaskedGraph::new(&idx, Some(&mask));
        let mut edges = Vec::new();
        view.for_each_edge(Terminal::fwd(EdgeKind::Used), &mut |i, j| edges.push((i, j)));
        // Only t2 -> d remains.
        assert_eq!(edges.len(), 1);
        assert_ne!(edges[0].0, t1.raw());
        // Vertex-label self-loop for t1 is suppressed.
        let mut loops = Vec::new();
        view.for_each_edge(Terminal::VertexLabel(prov_model::VertexKind::Activity), &mut |i, j| {
            loops.push((i, j))
        });
        assert_eq!(loops.len(), 1);
    }
}
