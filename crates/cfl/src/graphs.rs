//! [`TerminalEdges`] adapters for provenance graph snapshots.

use crate::solver::TerminalEdges;
use crate::symbol::{Orientation, Terminal};
use prov_model::{EdgeKind, VertexId};
use prov_store::graph::rank_u32;
use prov_store::{Direction, ProvIndex};

/// Adapter exposing a [`ProvIndex`] as a terminal-labeled graph:
///
/// * `Edge(k, Forward)` — the stored edges of kind `k`;
/// * `Edge(k, Inverse)` — the same edges reversed (virtual inverse labels);
/// * `VertexLabel(kind)` — a self-loop on every vertex of that kind;
/// * `VertexIs(v)` — a self-loop on exactly `v`.
pub struct IndexedProvGraph<'a> {
    index: &'a ProvIndex,
}

impl<'a> IndexedProvGraph<'a> {
    /// Wrap a snapshot.
    pub fn new(index: &'a ProvIndex) -> Self {
        IndexedProvGraph { index }
    }

    /// The wrapped snapshot.
    pub fn index(&self) -> &ProvIndex {
        self.index
    }
}

impl TerminalEdges for IndexedProvGraph<'_> {
    fn vertex_count(&self) -> usize {
        self.index.vertex_count()
    }

    fn for_each_edge(&self, t: Terminal, f: &mut dyn FnMut(u32, u32)) {
        match t {
            Terminal::Edge(kind, orientation) => {
                let (dir, flip) = match orientation {
                    Orientation::Forward => (Direction::Out, false),
                    // Inverse labels traverse dst -> src; the In CSR already
                    // stores that direction except for agent edges, where the
                    // In CSR is empty by construction (agents are sinks).
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
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "whole-relation scan, not an ad-hoc read path"
                    )]
                    for nbr in csr.neighbors(vid) {
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
                    f(v.raw(), v.raw());
                }
            }
            Terminal::VertexIs(v) => {
                if v.index() < self.index.vertex_count() {
                    f(v.raw(), v.raw());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_model::VertexKind;
    use prov_store::ProvGraph;

    fn sample() -> (ProvGraph, Vec<VertexId>) {
        let mut g = ProvGraph::new();
        let d = g.add_entity("d");
        let t = g.add_activity("t");
        let w = g.add_entity("w");
        let alice = g.add_agent("alice");
        g.add_edge(EdgeKind::Used, t, d).unwrap();
        g.add_edge(EdgeKind::WasGeneratedBy, w, t).unwrap();
        g.add_edge(EdgeKind::WasAssociatedWith, t, alice).unwrap();
        (g, vec![d, t, w, alice])
    }

    fn collect(graph: &IndexedProvGraph<'_>, t: Terminal) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        graph.for_each_edge(t, &mut |i, j| out.push((i, j)));
        out.sort_unstable();
        out
    }

    #[test]
    fn forward_and_inverse_edges() {
        let (g, ids) = sample();
        let idx = ProvIndex::build(&g);
        let tg = IndexedProvGraph::new(&idx);
        let (d, t, w) = (ids[0].raw(), ids[1].raw(), ids[2].raw());
        assert_eq!(collect(&tg, Terminal::fwd(EdgeKind::Used)), vec![(t, d)]);
        assert_eq!(collect(&tg, Terminal::inv(EdgeKind::Used)), vec![(d, t)]);
        assert_eq!(collect(&tg, Terminal::fwd(EdgeKind::WasGeneratedBy)), vec![(w, t)]);
        assert_eq!(collect(&tg, Terminal::inv(EdgeKind::WasGeneratedBy)), vec![(t, w)]);
    }

    #[test]
    fn agent_edges_invert_via_flip() {
        let (g, ids) = sample();
        let idx = ProvIndex::build(&g);
        let tg = IndexedProvGraph::new(&idx);
        let (t, alice) = (ids[1].raw(), ids[3].raw());
        assert_eq!(collect(&tg, Terminal::fwd(EdgeKind::WasAssociatedWith)), vec![(t, alice)]);
        assert_eq!(collect(&tg, Terminal::inv(EdgeKind::WasAssociatedWith)), vec![(alice, t)]);
    }

    #[test]
    fn vertex_label_self_loops() {
        let (g, ids) = sample();
        let idx = ProvIndex::build(&g);
        let tg = IndexedProvGraph::new(&idx);
        let entities = collect(&tg, Terminal::VertexLabel(VertexKind::Entity));
        assert_eq!(entities, vec![(ids[0].raw(), ids[0].raw()), (ids[2].raw(), ids[2].raw())]);
        let agents = collect(&tg, Terminal::VertexLabel(VertexKind::Agent));
        assert_eq!(agents, vec![(ids[3].raw(), ids[3].raw())]);
    }

    #[test]
    fn vertex_id_self_loop_bounds_checked() {
        let (g, ids) = sample();
        let idx = ProvIndex::build(&g);
        let tg = IndexedProvGraph::new(&idx);
        assert_eq!(collect(&tg, Terminal::VertexIs(ids[2])), vec![(ids[2].raw(), ids[2].raw())]);
        assert!(collect(&tg, Terminal::VertexIs(VertexId::new(99))).is_empty());
    }
}
