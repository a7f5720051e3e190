//! Property aggregation `K` (Sec. IV-A.1).
//!
//! `K = (KE, KA, KU)` lists, per vertex type, the property keys that remain
//! *visible* during summarization; every other property is discarded before
//! vertices are compared. An empty list for a type means all its vertices of
//! equal kind look identical (e.g. `KU = ∅` folds Alice and Bob into one
//! abstract team member).

use prov_model::{PropKeyId, PropValue, VertexId, VertexKind};
use prov_store::hash::FxHashMap;
use prov_store::ProvGraph;

/// The property aggregation choice of a PgSum query.
#[derive(Debug, Clone, Default)]
pub struct PropertyAggregation {
    /// Visible keys for entities (`KE`).
    pub entity_keys: Vec<String>,
    /// Visible keys for activities (`KA`).
    pub activity_keys: Vec<String>,
    /// Visible keys for agents (`KU`).
    pub agent_keys: Vec<String>,
}

impl PropertyAggregation {
    /// Ignore every property: vertices compare by kind (and provenance type)
    /// only.
    pub fn ignore_all() -> Self {
        Self::default()
    }

    /// The Fig. 2(e) query: entities by `filename`, activities by `command`,
    /// agents anonymous.
    pub fn fig2e() -> Self {
        PropertyAggregation {
            entity_keys: vec!["filename".into()],
            activity_keys: vec!["command".into()],
            agent_keys: vec![],
        }
    }

    /// Builder: set the visible keys of one vertex kind.
    pub fn with_keys(mut self, kind: VertexKind, keys: &[&str]) -> Self {
        let slot = match kind {
            VertexKind::Entity => &mut self.entity_keys,
            VertexKind::Activity => &mut self.activity_keys,
            VertexKind::Agent => &mut self.agent_keys,
        };
        *slot = keys.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Visible keys for `kind`.
    pub fn keys_for(&self, kind: VertexKind) -> &[String] {
        match kind {
            VertexKind::Entity => &self.entity_keys,
            VertexKind::Activity => &self.activity_keys,
            VertexKind::Agent => &self.agent_keys,
        }
    }

    /// The *aggregate label* of a vertex: its kind plus the values of the
    /// visible keys (missing properties stay `None`, preserving partiality).
    pub fn label(&self, graph: &ProvGraph, v: VertexId) -> AggLabel {
        let kind = graph.vertex_kind(v);
        let values = self.keys_for(kind).iter().map(|k| graph.vprop(v, k).cloned()).collect();
        AggLabel { kind, values }
    }
}

/// Dense ids for the aggregate labels of one graph's vertices: two vertices
/// get the same id exactly when [`PropertyAggregation::label`] gives them
/// equal labels. The visible keys are resolved once, and a lookup borrows
/// the values from the graph into a reused buffer, so a label seen before
/// allocates nothing.
pub(crate) struct LabelIds<'g> {
    graph: &'g ProvGraph,
    /// Visible key ids per vertex kind (`None`: the graph never interned the
    /// key, so no vertex carries it).
    keys: [Vec<Option<PropKeyId>>; 3],
    ids: FxHashMap<(VertexKind, Vec<Option<&'g PropValue>>), u32>,
    buf: Vec<Option<&'g PropValue>>,
}

impl<'g> LabelIds<'g> {
    pub(crate) fn new(graph: &'g ProvGraph, aggregation: &PropertyAggregation) -> Self {
        let keys = VertexKind::ALL
            .map(|kind| aggregation.keys_for(kind).iter().map(|k| graph.key_id(k)).collect());
        LabelIds { graph, keys, ids: FxHashMap::default(), buf: Vec::new() }
    }

    /// The label id of `v`, in first-appearance order.
    pub(crate) fn id(&mut self, v: VertexId) -> u32 {
        let kind = self.graph.vertex_kind(v);
        let props = self.graph.vertex_props(v);
        self.buf.clear();
        self.buf.extend(self.keys[kind.as_index()].iter().map(|k| k.and_then(|k| props.get(k))));
        let key = (kind, std::mem::take(&mut self.buf));
        if let Some(&id) = self.ids.get(&key) {
            self.buf = key.1;
            return id;
        }
        let id = self.ids.len() as u32;
        self.ids.insert(key, id);
        id
    }
}

/// A vertex's visible identity under `K`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AggLabel {
    /// Vertex kind (`λv`).
    pub kind: VertexKind,
    /// Values of the visible keys, in `K` order.
    pub values: Vec<Option<PropValue>>,
}

impl AggLabel {
    /// Human-readable rendering (used in Psg output), e.g. `train(-gpu)`.
    pub fn render(&self, graph_name: Option<&str>) -> String {
        let vals: Vec<String> = self
            .values
            .iter()
            .map(|v| v.as_ref().map_or("∅".to_string(), |p| p.to_string()))
            .collect();
        let base = graph_name.unwrap_or(match self.kind {
            VertexKind::Entity => "entity",
            VertexKind::Activity => "activity",
            VertexKind::Agent => "agent",
        });
        if vals.is_empty() {
            base.to_string()
        } else {
            format!("{base}({})", vals.join(","))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_model::EdgeKind;

    fn sample() -> (ProvGraph, VertexId, VertexId, VertexId, VertexId) {
        let mut g = ProvGraph::new();
        let t1 = g.add_activity("train-v1");
        let t2 = g.add_activity("train-v2");
        let d = g.add_entity("data");
        let a = g.add_agent("alice");
        g.set_vprop(t1, "command", "train");
        g.set_vprop(t2, "command", "train");
        g.set_vprop(t1, "lr", 0.1);
        g.set_vprop(t2, "lr", 0.01);
        g.add_edge(EdgeKind::Used, t1, d).unwrap();
        (g, t1, t2, d, a)
    }

    #[test]
    fn aggregation_hides_invisible_keys() {
        let (g, t1, t2, ..) = sample();
        let k = PropertyAggregation::ignore_all().with_keys(VertexKind::Activity, &["command"]);
        // Different lr, same command: equal labels.
        assert_eq!(k.label(&g, t1), k.label(&g, t2));
        // Making lr visible separates them.
        let k2 =
            PropertyAggregation::ignore_all().with_keys(VertexKind::Activity, &["command", "lr"]);
        assert_ne!(k2.label(&g, t1), k2.label(&g, t2));
    }

    #[test]
    fn kinds_always_distinguish() {
        let (g, t1, _, d, a) = sample();
        let k = PropertyAggregation::ignore_all();
        assert_ne!(k.label(&g, t1), k.label(&g, d));
        assert_ne!(k.label(&g, d), k.label(&g, a));
    }

    #[test]
    fn missing_properties_are_none_not_error() {
        let (g, _, _, d, _) = sample();
        let k = PropertyAggregation::ignore_all().with_keys(VertexKind::Entity, &["filename"]);
        let label = k.label(&g, d);
        assert_eq!(label.values, vec![None]);
        assert!(label.render(Some("data")).contains('∅'));
    }

    #[test]
    fn render_formats() {
        let (g, t1, ..) = sample();
        let k = PropertyAggregation::ignore_all().with_keys(VertexKind::Activity, &["command"]);
        assert_eq!(k.label(&g, t1).render(None), "activity(train)");
        assert_eq!(PropertyAggregation::ignore_all().label(&g, t1).render(Some("t")), "t");
    }

    #[test]
    fn label_ids_follow_label_equality() {
        let (g, t1, t2, d, a) = sample();
        let k = PropertyAggregation::ignore_all()
            .with_keys(VertexKind::Activity, &["command", "lr", "never-set"]);
        let mut ids = LabelIds::new(&g, &k);
        let vs = [t1, t2, d, a, t1, d];
        let got: Vec<u32> = vs.iter().map(|&v| ids.id(v)).collect();
        assert_eq!(got, [0, 1, 2, 3, 0, 2]);
        for (i, &x) in vs.iter().enumerate() {
            for (j, &y) in vs.iter().enumerate() {
                assert_eq!(got[i] == got[j], k.label(&g, x) == k.label(&g, y));
            }
        }
    }

    #[test]
    fn fig2e_defaults() {
        let k = PropertyAggregation::fig2e();
        assert_eq!(k.keys_for(VertexKind::Entity), &["filename".to_string()]);
        assert_eq!(k.keys_for(VertexKind::Activity), &["command".to_string()]);
        assert!(k.keys_for(VertexKind::Agent).is_empty());
    }
}
