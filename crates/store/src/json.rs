//! PROV-JSON-style import/export.
//!
//! A simple, explicit interchange format (vertices + edges with W3C PROV term
//! names and flat property maps) so that example graphs and generated workloads
//! can be saved, diffed and reloaded. Not byte-compatible with the W3C
//! PROV-JSON serialization, but a faithful flattening of the same model.

use crate::error::{StoreError, StoreResult};
use crate::graph::ProvGraph;
use prov_model::{EdgeKind, PropValue, VertexId, VertexKind};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Serialized vertex.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JsonVertex {
    /// Dense id (must equal the vertex's position).
    pub id: u32,
    /// W3C PROV term, e.g. `prov:Entity`.
    pub kind: String,
    /// Optional display name.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub name: Option<String>,
    /// Property map (ordered for stable output).
    #[serde(default, skip_serializing_if = "BTreeMap::is_empty")]
    pub props: BTreeMap<String, PropValue>,
}

/// Serialized edge.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JsonEdge {
    /// W3C PROV term, e.g. `prov:used`.
    pub kind: String,
    /// Source vertex id.
    pub src: u32,
    /// Destination vertex id.
    pub dst: u32,
    /// Property map.
    #[serde(default, skip_serializing_if = "BTreeMap::is_empty")]
    pub props: BTreeMap<String, PropValue>,
}

/// Serialized provenance graph document.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JsonGraph {
    /// All vertices in id order.
    pub vertices: Vec<JsonVertex>,
    /// All edges in id order.
    pub edges: Vec<JsonEdge>,
}

fn kind_to_term(kind: VertexKind) -> String {
    kind.prov_term().to_string()
}

fn term_to_kind(term: &str) -> StoreResult<VertexKind> {
    VertexKind::ALL
        .into_iter()
        .find(|k| k.prov_term() == term)
        .ok_or_else(|| StoreError::Import(format!("unknown vertex kind {term:?}")))
}

fn term_to_edge_kind(term: &str) -> StoreResult<EdgeKind> {
    EdgeKind::ALL
        .into_iter()
        .find(|k| k.prov_term() == term)
        .ok_or_else(|| StoreError::Import(format!("unknown edge kind {term:?}")))
}

/// Export a graph to the JSON document model.
pub fn to_json(graph: &ProvGraph) -> JsonGraph {
    let vertices = graph
        .vertex_ids()
        .map(|v| {
            let rec = graph.vertex(v);
            let props = graph
                .vertex_props(v)
                .iter()
                .map(|(k, val)| (graph.key_name(k).expect("interned key").to_string(), val.clone()))
                .collect();
            JsonVertex {
                id: v.raw(),
                kind: kind_to_term(rec.kind),
                name: rec.name.as_deref().map(str::to_string),
                props,
            }
        })
        .collect();
    let edges = graph
        .edge_ids()
        .map(|eid| {
            let e = graph.edge(eid);
            let props = graph
                .edge_props(eid)
                .iter()
                .map(|(k, val)| (graph.key_name(k).expect("interned key").to_string(), val.clone()))
                .collect();
            JsonEdge {
                kind: e.kind.prov_term().to_string(),
                src: e.src.raw(),
                dst: e.dst.raw(),
                props,
            }
        })
        .collect();
    JsonGraph { vertices, edges }
}

/// Serialize a graph to a pretty JSON string. Fails when a property holds a
/// value JSON cannot represent (a non-finite float).
pub fn to_json_string(graph: &ProvGraph) -> StoreResult<String> {
    serde_json::to_string_pretty(&to_json(graph))
        .map_err(|e| StoreError::Import(format!("graph has no JSON form: {e}")))
}

/// Rebuild a graph from the JSON document model.
pub fn from_json(doc: &JsonGraph) -> StoreResult<ProvGraph> {
    let mut g = ProvGraph::new();
    for (i, v) in doc.vertices.iter().enumerate() {
        if v.id as usize != i {
            return Err(StoreError::Import(format!(
                "vertex ids must be dense and ordered; expected {i}, got {}",
                v.id
            )));
        }
        let kind = term_to_kind(&v.kind)?;
        let id = g.add_vertex(kind, v.name.as_deref())?;
        for (key, value) in &v.props {
            g.set_vprop(id, key, value.clone());
        }
    }
    for e in &doc.edges {
        let kind = term_to_edge_kind(&e.kind)?;
        let eid = g.add_edge(kind, VertexId::new(e.src), VertexId::new(e.dst))?;
        for (key, value) in &e.props {
            g.set_eprop(eid, key, value.clone());
        }
    }
    Ok(g)
}

/// Parse a graph from a JSON string.
pub fn from_json_string(s: &str) -> StoreResult<ProvGraph> {
    let doc: JsonGraph = serde_json::from_str(s).map_err(|e| StoreError::Import(e.to_string()))?;
    from_json(&doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ProvGraph {
        let mut g = ProvGraph::new();
        let d = g.add_entity("dataset-v1");
        let t = g.add_activity("train-v1");
        let w = g.add_entity("weights-v1");
        let alice = g.add_agent("Alice");
        g.set_vprop(d, "url", "http://data");
        g.set_vprop(t, "opt", "-gpu");
        g.set_vprop(w, "acc", 0.7);
        let e = g.add_edge(EdgeKind::Used, t, d).unwrap();
        g.set_eprop(e, "at", 1700000000i64);
        g.add_edge(EdgeKind::WasGeneratedBy, w, t).unwrap();
        g.add_edge(EdgeKind::WasAssociatedWith, t, alice).unwrap();
        g
    }

    #[test]
    fn round_trip_preserves_everything() {
        let g = sample();
        let s = to_json_string(&g).unwrap();
        let g2 = from_json_string(&s).unwrap();
        assert_eq!(g2.vertex_count(), g.vertex_count());
        assert_eq!(g2.edge_count(), g.edge_count());
        for v in g.vertex_ids() {
            assert_eq!(g2.vertex_kind(v), g.vertex_kind(v));
            assert_eq!(g2.vertex_name(v), g.vertex_name(v));
        }
        assert_eq!(g2.vprop(VertexId::new(2), "acc"), g.vprop(VertexId::new(2), "acc"));
        assert_eq!(
            g2.eprop(prov_model::EdgeId::new(0), "at").and_then(|v| v.as_int()),
            Some(1700000000)
        );
        // Stable re-serialization.
        assert_eq!(to_json_string(&g2).unwrap(), s);
    }

    #[test]
    fn export_refuses_a_non_finite_float() {
        let mut g = sample();
        g.set_vprop(VertexId::new(2), "acc", f64::INFINITY);
        assert!(matches!(to_json_string(&g), Err(StoreError::Import(_))));
    }

    #[test]
    fn import_rejects_unknown_kinds() {
        let bad = r#"{"vertices":[{"id":0,"kind":"prov:Blob"}],"edges":[]}"#;
        assert!(matches!(from_json_string(bad), Err(StoreError::Import(_))));
    }

    #[test]
    fn import_rejects_sparse_ids() {
        let bad = r#"{"vertices":[{"id":5,"kind":"prov:Entity"}],"edges":[]}"#;
        assert!(matches!(from_json_string(bad), Err(StoreError::Import(_))));
    }

    #[test]
    fn import_rejects_type_violations() {
        let bad = r#"{
            "vertices":[{"id":0,"kind":"prov:Entity"},{"id":1,"kind":"prov:Entity"}],
            "edges":[{"kind":"prov:used","src":0,"dst":1}]
        }"#;
        assert!(matches!(from_json_string(bad), Err(StoreError::InvalidEdge(_))));
    }

    #[test]
    fn prov_terms_appear_in_output() {
        let s = to_json_string(&sample()).unwrap();
        assert!(s.contains("prov:Entity"));
        assert!(s.contains("prov:used"));
        assert!(s.contains("prov:wasGeneratedBy"));
    }
}
