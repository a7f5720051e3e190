//! The result of a PgSeg query: a connected induced subgraph
//! `S(VS, ES) ⊆ G` with `VS = Vsrc ∪ Vdst ∪ Vind` and `ES = E ∩ VS × VS`.

use prov_model::{EdgeId, VertexId};
use prov_store::ProvGraph;
use std::fmt;

/// Why a vertex is part of the segment (a vertex can qualify several ways).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Categories(u8);

impl Categories {
    /// Queried source entity (`Vsrc`).
    pub const SRC: Categories = Categories(1);
    /// Queried destination entity (`Vdst`).
    pub const DST: Categories = Categories(1 << 1);
    /// On a direct path (`VC1`).
    pub const DIRECT: Categories = Categories(1 << 2);
    /// On a similar path (`VC2`).
    pub const SIMILAR: Categories = Categories(1 << 3);
    /// Sibling entity generated by an on-path activity (`VC3`).
    pub const SIBLING: Categories = Categories(1 << 4);
    /// Involved agent (`VC4`).
    pub const AGENT: Categories = Categories(1 << 5);
    /// Added by an expansion boundary (`Bx`).
    pub const EXPANDED: Categories = Categories(1 << 6);

    /// Empty category set.
    pub fn none() -> Categories {
        Categories(0)
    }

    /// Union of two category sets.
    pub fn union(self, other: Categories) -> Categories {
        Categories(self.0 | other.0)
    }

    /// Does this set include `other` entirely?
    pub fn contains(self, other: Categories) -> bool {
        self.0 & other.0 == other.0
    }

    /// True when no category is set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

/// Short human-readable tags joined by `|`, e.g. `src|vc1|vc2`; the empty
/// set writes nothing. Written piece by piece: no `Vec`, no `String`.
impl fmt::Display for Categories {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut sep = "";
        for (bit, tag) in [
            (Categories::SRC, "src"),
            (Categories::DST, "dst"),
            (Categories::DIRECT, "vc1"),
            (Categories::SIMILAR, "vc2"),
            (Categories::SIBLING, "vc3"),
            (Categories::AGENT, "vc4"),
            (Categories::EXPANDED, "bx"),
        ] {
            if self.contains(bit) {
                f.write_str(sep)?;
                f.write_str(tag)?;
                sep = "|";
            }
        }
        Ok(())
    }
}

/// A provenance graph segment (the PgSeg output).
#[derive(Debug, Clone, Default)]
pub struct SegmentGraph {
    /// Queried sources.
    pub vsrc: Vec<VertexId>,
    /// Queried destinations.
    pub vdst: Vec<VertexId>,
    /// Segment vertices, sorted by id.
    pub vertices: Vec<VertexId>,
    /// Category set per vertex (parallel to `vertices`).
    pub categories: Vec<Categories>,
    /// Induced edges (ids into the backing graph), sorted.
    pub edges: Vec<EdgeId>,
}

impl SegmentGraph {
    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Number of induced edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Membership test (binary search over the sorted vertex list).
    pub fn contains(&self, v: VertexId) -> bool {
        self.vertices.binary_search(&v).is_ok()
    }

    /// Categories of `v`, if present.
    pub fn category(&self, v: VertexId) -> Option<Categories> {
        self.vertices.binary_search(&v).ok().map(|i| self.categories[i])
    }

    /// Vertices holding a given category.
    pub fn vertices_with(&self, cat: Categories) -> Vec<VertexId> {
        self.vertices
            .iter()
            .zip(self.categories.iter())
            .filter(|(_, c)| c.contains(cat))
            .map(|(&v, _)| v)
            .collect()
    }

    /// Build a segment from its members (each vertex once, in any order),
    /// inducing `ES = E ∩ VS×VS` from the backing graph (optionally dropping
    /// edges excluded by the boundary). Linear in the members' degrees, times
    /// the `log` of one membership probe per out-edge.
    pub fn assemble(
        graph: &ProvGraph,
        vsrc: &[VertexId],
        vdst: &[VertexId],
        mut members: Vec<(VertexId, Categories)>,
        edge_ok: impl Fn(EdgeId) -> bool,
    ) -> SegmentGraph {
        members.sort_unstable_by_key(|&(v, _)| v);
        let (vertices, categories) = members.into_iter().unzip();
        let mut seg = SegmentGraph {
            vsrc: vsrc.to_vec(),
            vdst: vdst.to_vec(),
            vertices,
            categories,
            edges: Vec::new(),
        };
        for &v in &seg.vertices {
            for (eid, rec) in graph.out_edges(v) {
                if edge_ok(eid) && seg.contains(rec.dst) {
                    seg.edges.push(eid);
                }
            }
        }
        seg.edges.sort_unstable();
        seg
    }

    /// Render as Graphviz DOT (names + category tags), for the examples.
    pub fn to_dot(&self, graph: &ProvGraph) -> String {
        let mut out = String::from("digraph segment {\n  rankdir=RL;\n");
        for (&v, c) in self.vertices.iter().zip(self.categories.iter()) {
            let shape = match graph.vertex_kind(v) {
                prov_model::VertexKind::Entity => "ellipse",
                prov_model::VertexKind::Activity => "box",
                prov_model::VertexKind::Agent => "house",
            };
            out.push_str(&format!(
                "  v{} [label=\"{}\\n{c}\" shape={shape}];\n",
                v.raw(),
                graph.display_name(v),
            ));
        }
        for &e in &self.edges {
            let rec = graph.edge(e);
            out.push_str(&format!(
                "  v{} -> v{} [label=\"{}\"];\n",
                rec.src.raw(),
                rec.dst.raw(),
                rec.kind.letter()
            ));
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_model::EdgeKind;

    fn tiny() -> (ProvGraph, VertexId, VertexId, VertexId) {
        let mut g = ProvGraph::new();
        let d = g.add_entity("d");
        let t = g.add_activity("t");
        let w = g.add_entity("w");
        g.add_edge(EdgeKind::Used, t, d).unwrap();
        g.add_edge(EdgeKind::WasGeneratedBy, w, t).unwrap();
        (g, d, t, w)
    }

    #[test]
    fn categories_compose() {
        let c = Categories::SRC.union(Categories::DIRECT);
        assert!(c.contains(Categories::SRC));
        assert!(c.contains(Categories::DIRECT));
        assert!(!c.contains(Categories::AGENT));
        assert_eq!(c.to_string(), "src|vc1");
        assert!(Categories::none().is_empty());
        assert_eq!(Categories::none().to_string(), "");
    }

    #[test]
    fn assemble_induces_interior_edges() {
        let (g, d, t, w) = tiny();
        let cat = vec![(w, Categories::DST), (d, Categories::SRC), (t, Categories::DIRECT)];
        let seg = SegmentGraph::assemble(&g, &[d], &[w], cat, |_| true);
        assert_eq!(seg.vertex_count(), 3);
        assert_eq!(seg.edge_count(), 2);
        assert!(seg.contains(t));
        assert_eq!(seg.category(d), Some(Categories::SRC));
        assert_eq!(seg.vertices_with(Categories::DST), vec![w]);
    }

    #[test]
    fn assemble_respects_edge_filter_and_membership() {
        let (g, d, t, w) = tiny();
        let cat = vec![(d, Categories::SRC), (t, Categories::DIRECT)];
        // w not in the segment: its wasGeneratedBy edge must be dropped.
        let seg = SegmentGraph::assemble(&g, &[d], &[w], cat.clone(), |_| true);
        assert_eq!(seg.edge_count(), 1);
        // Edge filter drops everything.
        let seg2 = SegmentGraph::assemble(&g, &[d], &[w], cat, |_| false);
        assert_eq!(seg2.edge_count(), 0);
    }

    #[test]
    fn dot_output_contains_names_and_kinds() {
        let (g, d, t, w) = tiny();
        let cat = vec![(w, Categories::DST), (d, Categories::SRC), (t, Categories::DIRECT)];
        let seg = SegmentGraph::assemble(&g, &[d], &[w], cat, |_| true);
        let dot = seg.to_dot(&g);
        assert!(dot.contains("digraph"));
        assert!(dot.contains("shape=box"));
        assert!(dot.contains("\"d\\nsrc\""));
    }
}
