//! The *induce* step of PgSeg evaluation (Sec. III-B.2).
//!
//! Given `Vsrc`, `Vdst` and the compiled exclusion mask, this step assembles
//! the four induced vertex categories:
//!
//! * `VC1` — vertices on direct paths ([`crate::direct`]);
//! * `VC2` — vertices on similar paths, induced exactly by SimProvTst
//!   ([`crate::tst`]); the alternative evaluators (SimProvAlg, CflrB, naive)
//!   answer the same reachability question and are exposed through
//!   [`crate::query::SimilarEvaluator`] for benchmarking and validation;
//! * `VC3` — sibling entities generated by on-path activities;
//! * `VC4` — agents associated with / attributed to any selected vertex;
//!
//! and induces the connected subgraph `S(VS, ES)`. The categories accumulate
//! in one dense table indexed by vertex id beside the list of vertices
//! selected so far (`Selection`): every step after the two traversals is
//! linear in the segment and its degrees, with no hashing.

use crate::boundary::Mask;
use crate::direct::direct_path_vertices;
use crate::segment_graph::{Categories, SegmentGraph};
use crate::tst::{similar_tst, TstConfig};
use crate::view::MaskedGraph;
use prov_model::{EdgeId, VertexId, VertexKind};
use prov_store::{ProvGraph, StoreResult};

/// The vertices selected so far and why.
struct Selection {
    /// Categories by vertex id; empty for unselected vertices.
    cat: Vec<Categories>,
    /// The selected vertices, in selection order.
    members: Vec<VertexId>,
}

impl Selection {
    fn new(n: usize) -> Selection {
        Selection { cat: vec![Categories::none(); n], members: Vec::new() }
    }

    fn add(&mut self, v: VertexId, c: Categories) {
        let entry = &mut self.cat[v.index()];
        if entry.is_empty() {
            self.members.push(v);
        }
        *entry = entry.union(c);
    }

    fn on_path(&self, v: VertexId) -> bool {
        let c = self.cat[v.index()];
        c.contains(Categories::DIRECT) || c.contains(Categories::SIMILAR)
    }

    /// `VC3`: entities generated by on-path activities that are not
    /// themselves on a path (Sec. III-A.2(c)).
    fn add_siblings(&mut self, view: &MaskedGraph<'_>) {
        for i in 0..self.members.len() {
            let v = self.members[i];
            if view.index().kind(v) != VertexKind::Activity || !self.on_path(v) {
                continue;
            }
            for e in view.outputs_of(v) {
                if !self.on_path(e) {
                    self.add(e, Categories::SIBLING);
                }
            }
        }
    }

    /// `VC4`: agents reachable from the selected vertices via one
    /// `wasAssociatedWith` / `wasAttributedTo` edge (Sec. III-A.2(d)).
    fn add_agents(&mut self, view: &MaskedGraph<'_>) {
        let idx = view.index();
        for i in 0..self.members.len() {
            let v = self.members[i];
            let agents = match idx.kind(v) {
                VertexKind::Activity => idx.agents_of_activity(v),
                VertexKind::Entity => idx.agents_of_entity(v),
                VertexKind::Agent => &[],
            };
            for &u in agents {
                if view.vertex_ok(u) {
                    self.add(u, Categories::AGENT);
                }
            }
        }
    }
}

/// Expansion (`Bx`): ancestry vertices within `k` activities (2k ancestry
/// hops) of `roots`, over the masked view.
pub fn expansion_vertices(view: &MaskedGraph<'_>, roots: &[VertexId], k: u32) -> Vec<VertexId> {
    let n = view.index().vertex_count();
    let mut dist: Vec<u32> = vec![u32::MAX; n];
    let mut frontier: Vec<VertexId> = Vec::new();
    for &r in roots {
        if r.index() < n && view.vertex_ok(r) && dist[r.index()] == u32::MAX {
            dist[r.index()] = 0;
            frontier.push(r);
        }
    }
    let max_hops = k.saturating_mul(2);
    let mut out = Vec::new();
    let mut next = Vec::new();
    for hop in 1..=max_hops {
        next.clear();
        for &u in &frontier {
            for w in view.upstream(u) {
                if dist[w.index()] == u32::MAX {
                    dist[w.index()] = hop;
                    next.push(w);
                    out.push(w);
                }
            }
        }
        std::mem::swap(&mut frontier, &mut next);
        if frontier.is_empty() {
            break;
        }
    }
    out.sort_unstable();
    out
}

/// Run the induce step with SimProvTst-based `VC2` induction. Fails only
/// when the similarity kernel meets a cycle.
pub fn induce(
    graph: &ProvGraph,
    view: &MaskedGraph<'_>,
    vsrc: &[VertexId],
    vdst: &[VertexId],
    mask: Option<&Mask>,
    tst_cfg: &TstConfig,
) -> StoreResult<SegmentGraph> {
    let mut sel = Selection::new(graph.vertex_count());

    // Query vertices are always part of VS (if they pass the mask).
    for (query, tag) in [(vsrc, Categories::SRC), (vdst, Categories::DST)] {
        for &v in query {
            if v.index() < graph.vertex_count() && view.vertex_ok(v) {
                sel.add(v, tag);
            }
        }
    }

    // VC1: direct paths.
    for v in direct_path_vertices(view, vsrc, vdst) {
        sel.add(v, Categories::DIRECT);
    }

    // VC2: similar paths (exact vertex induction via SimProvTst).
    let similar = similar_tst(view, vsrc, vdst, tst_cfg)?;
    for &v in similar.vc2.as_deref().unwrap_or(&[]) {
        sel.add(v, Categories::SIMILAR);
    }

    // VC3 from the on-path activities, then VC4 from everything selected.
    sel.add_siblings(view);
    sel.add_agents(view);

    let members = sel.members.iter().map(|&v| (v, sel.cat[v.index()])).collect();
    let edge_ok = |e: EdgeId| mask.is_none_or(|m| m.edge(e));
    Ok(SegmentGraph::assemble(graph, vsrc, vdst, members, edge_ok))
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_model::EdgeKind;
    use prov_store::hash::FxHashMap;
    use prov_store::ProvIndex;

    /// Fig. 2(d)-style fixture: Alice's v2 round.
    /// dataset <-U- train2 <-G- {log2, weight2}; model2 <-U- train2;
    /// model1 <-U- update2 <-G- model2; Alice associated with both activities.
    fn fig2d() -> (ProvGraph, ProvIndex, FxHashMap<&'static str, VertexId>) {
        let mut g = ProvGraph::new();
        let mut m = FxHashMap::default();
        let dataset = g.add_entity("dataset-v1");
        let model1 = g.add_entity("model-v1");
        let alice = g.add_agent("Alice");
        let update2 = g.add_activity("update-v2");
        let model2 = g.add_entity("model-v2");
        let train2 = g.add_activity("train-v2");
        let log2 = g.add_entity("log-v2");
        let weight2 = g.add_entity("weight-v2");
        g.add_edge(EdgeKind::Used, update2, model1).unwrap();
        g.add_edge(EdgeKind::WasGeneratedBy, model2, update2).unwrap();
        g.add_edge(EdgeKind::Used, train2, dataset).unwrap();
        g.add_edge(EdgeKind::Used, train2, model2).unwrap();
        g.add_edge(EdgeKind::WasGeneratedBy, log2, train2).unwrap();
        g.add_edge(EdgeKind::WasGeneratedBy, weight2, train2).unwrap();
        g.add_edge(EdgeKind::WasAssociatedWith, update2, alice).unwrap();
        g.add_edge(EdgeKind::WasAssociatedWith, train2, alice).unwrap();
        for (k, v) in [
            ("dataset", dataset),
            ("model1", model1),
            ("alice", alice),
            ("update2", update2),
            ("model2", model2),
            ("train2", train2),
            ("log2", log2),
            ("weight2", weight2),
        ] {
            m.insert(k, v);
        }
        let idx = ProvIndex::build(&g);
        (g, idx, m)
    }

    #[test]
    fn induce_includes_all_four_categories() {
        let (g, idx, m) = fig2d();
        let view = MaskedGraph::unmasked(&idx);
        let seg = induce(&g, &view, &[m["dataset"]], &[m["weight2"]], None, &TstConfig::default())
            .unwrap();
        // Direct path: weight2 -> train2 -> dataset.
        assert!(seg.category(m["train2"]).unwrap().contains(Categories::DIRECT));
        // Similar path: model2 is used by train2 alongside dataset (level 2).
        assert!(seg.category(m["model2"]).unwrap().contains(Categories::SIMILAR));
        // Sibling: log2 generated by on-path train2 but on no path itself.
        assert!(seg.category(m["log2"]).unwrap().contains(Categories::SIBLING));
        // Agent: Alice.
        assert!(seg.category(m["alice"]).unwrap().contains(Categories::AGENT));
        // Connectivity: every induced edge has both endpoints in VS.
        for &e in &seg.edges {
            let rec = g.edge(e);
            assert!(seg.contains(rec.src) && seg.contains(rec.dst));
        }
    }

    #[test]
    fn sibling_and_agent_helpers() {
        let (_, idx, m) = fig2d();
        let view = MaskedGraph::unmasked(&idx);
        let mut sel = Selection::new(idx.vertex_count());
        sel.add(m["train2"], Categories::DIRECT);
        sel.add_siblings(&view);
        assert_eq!(sel.members, vec![m["train2"], m["log2"], m["weight2"]]);
        assert_eq!(sel.cat[m["log2"].index()], Categories::SIBLING);
        sel.add_agents(&view);
        assert_eq!(sel.members.last(), Some(&m["alice"]));
        assert_eq!(sel.cat[m["alice"].index()], Categories::AGENT);
        assert_eq!(sel.members.len(), 4, "each vertex is a member once");
    }

    #[test]
    fn expansion_walks_2k_hops() {
        let (_, idx, m) = fig2d();
        let view = MaskedGraph::unmasked(&idx);
        // From weight2, k=1: two hops — train2, then {dataset, model2}.
        let v1 = expansion_vertices(&view, &[m["weight2"]], 1);
        assert!(v1.contains(&m["train2"]) && v1.contains(&m["model2"]));
        assert!(!v1.contains(&m["update2"]));
        // k=2 (the Q1 boundary): reaches update2 and model1.
        let v2 = expansion_vertices(&view, &[m["weight2"]], 2);
        assert!(v2.contains(&m["update2"]) && v2.contains(&m["model1"]));
    }

    #[test]
    fn masked_vertices_never_appear() {
        let (g, idx, m) = fig2d();
        let mask = crate::boundary::Boundary::none()
            .with_vertex_pred(crate::boundary::VertexPred::Custom(std::sync::Arc::new(|g, v| {
                g.vertex_name(v) != Some("model-v2")
            })))
            .compile(&g);
        let view = MaskedGraph::new(&idx, Some(&mask));
        let seg =
            induce(&g, &view, &[m["dataset"]], &[m["weight2"]], Some(&mask), &TstConfig::default())
                .unwrap();
        assert!(!seg.contains(m["model2"]));
    }
}
