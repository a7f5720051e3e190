//! The provenance summary graph `Psg(M, E, ρ, γ)` (Sec. IV-A.2).

use crate::merge::MergeResult;
use crate::union::{ClassId, G0};
use prov_model::{EdgeKind, VertexId, VertexKind};
use prov_store::ProvGraph;

/// One summary vertex `µ ⊆ [v]`.
#[derive(Debug, Clone)]
pub struct PsgVertex {
    /// Equivalence class (`ρ(µ)`).
    pub class: ClassId,
    /// Vertex kind (all members share it).
    pub kind: VertexKind,
    /// Display label: representative name + provenance-type tag.
    pub label: String,
    /// Members as `(segment index, underlying vertex)` pairs.
    pub members: Vec<(u32, VertexId)>,
}

/// One summary edge with its appearance frequency `γ`.
#[derive(Debug, Clone)]
pub struct PsgEdge {
    /// Source summary vertex (index into [`Psg::vertices`]).
    pub src: u32,
    /// Destination summary vertex.
    pub dst: u32,
    /// Relationship kind.
    pub kind: EdgeKind,
    /// `γ(e)` — fraction of input segments containing such an edge.
    pub frequency: f64,
}

/// A provenance summary graph.
#[derive(Debug, Clone, Default)]
pub struct Psg {
    /// Summary vertices.
    pub vertices: Vec<PsgVertex>,
    /// Summary edges.
    pub edges: Vec<PsgEdge>,
    /// Number of input segments (`|S|`).
    pub segment_count: usize,
    /// `|⋃ᵢ VSᵢ|` — total input vertex instances (the compaction-ratio
    /// denominator).
    pub input_vertex_count: usize,
}

impl Psg {
    /// `|M|` — number of summary vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Number of summary edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The compaction ratio `cr = |M| / |⋃ᵢ VSᵢ|` (lower is better).
    pub fn compaction_ratio(&self) -> f64 {
        if self.input_vertex_count == 0 {
            return 1.0;
        }
        self.vertex_count() as f64 / self.input_vertex_count as f64
    }

    /// Assemble a Psg from the merge result.
    pub fn from_merge(graph: &ProvGraph, g0: &G0, merged: &MergeResult) -> Psg {
        let group_count = merged.group_count;
        // Each group's first member and size; each class's first node names
        // it, and its group count decides whether labels carry a type tag
        // (t1, t2, ... as in Fig. 2(e)).
        let mut first = vec![u32::MAX; group_count];
        let mut size = vec![0u32; group_count];
        let mut class_first = vec![u32::MAX; g0.class_count()];
        for (i, &g) in merged.group_of.iter().enumerate() {
            if first[g as usize] == u32::MAX {
                first[g as usize] = i as u32;
            }
            size[g as usize] += 1;
            let c = &mut class_first[g0.class(i as u32).0 as usize];
            if *c == u32::MAX {
                *c = i as u32;
            }
        }
        let mut class_groups = vec![0u32; g0.class_count()];
        for &f in &first {
            class_groups[g0.class(f).0 as usize] += 1;
        }
        let names: Vec<String> = class_first
            .iter()
            .map(|&f| {
                if f == u32::MAX {
                    String::new()
                } else {
                    graph.display_name(g0.nodes[f as usize].vertex)
                }
            })
            .collect();
        let mut tags = vec![0u32; g0.class_count()];
        let mut vertices: Vec<PsgVertex> = first
            .iter()
            .zip(&size)
            .map(|(&f, &size)| {
                let node = &g0.nodes[f as usize];
                let c = node.class.0 as usize;
                tags[c] += 1;
                let label = if class_groups[c] == 1 {
                    names[c].clone()
                } else {
                    format!("{} (t{})", names[c], tags[c])
                };
                PsgVertex {
                    class: node.class,
                    kind: graph.vertex_kind(node.vertex),
                    label,
                    members: Vec::with_capacity(size as usize),
                }
            })
            .collect();
        for (node, &g) in g0.nodes.iter().zip(&merged.group_of) {
            vertices[g as usize].members.push((node.segment, node.vertex));
        }

        // γ: one key per (summary edge, segment) that has it, sorted so each
        // edge's keys are adjacent and edges come out in (src, dst, kind)
        // order; an edge's frequency is its count of distinct segments.
        let mut keys: Vec<u128> = Vec::with_capacity(g0.edge_count());
        for (v, node) in g0.nodes.iter().enumerate() {
            let s = merged.group_of[v];
            for l in g0.out_links(v as u32) {
                let d = merged.group_of[l.node() as usize];
                keys.push(
                    u128::from(s) << 96
                        | u128::from(d) << 64
                        | u128::from(l.kind()) << 32
                        | u128::from(node.segment),
                );
            }
        }
        keys.sort_unstable();
        keys.dedup();
        let denominator = g0.segment_count.max(1) as f64;
        let edges = keys
            .chunk_by(|a, b| a >> 32 == b >> 32)
            .map(|run| PsgEdge {
                src: (run[0] >> 96) as u32,
                dst: (run[0] >> 64) as u32,
                kind: EdgeKind::from_index((run[0] >> 32) as u32 as usize).expect("valid kind"),
                frequency: run.len() as f64 / denominator,
            })
            .collect();

        Psg { vertices, edges, segment_count: g0.segment_count, input_vertex_count: g0.len() }
    }

    /// Render as Graphviz DOT with frequency-annotated edges.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph psg {\n  rankdir=RL;\n");
        for (i, v) in self.vertices.iter().enumerate() {
            let shape = match v.kind {
                VertexKind::Entity => "ellipse",
                VertexKind::Activity => "box",
                VertexKind::Agent => "house",
            };
            out.push_str(&format!("  m{} [label=\"{}\" shape={}];\n", i, v.label, shape));
        }
        for e in &self.edges {
            out.push_str(&format!(
                "  m{} -> m{} [label=\"{} {:.0}%\"];\n",
                e.src,
                e.dst,
                e.kind.letter(),
                e.frequency * 100.0
            ));
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregation::PropertyAggregation;
    use crate::merge::merge;
    use crate::segment_ref::SegmentRef;
    use crate::union::build_g0;
    use prov_model::EdgeKind as EK;

    fn two_plus_one() -> (ProvGraph, Vec<SegmentRef>) {
        // Segments 1 & 2: d <-U- t <-G- w. Segment 3: d <-U- t (no output).
        let mut g = ProvGraph::new();
        let mut segs = Vec::new();
        for i in 0..3 {
            let d = g.add_entity(&format!("data{i}"));
            let t = g.add_activity("train");
            let mut vs = vec![d, t];
            let mut es = vec![g.add_edge(EK::Used, t, d).unwrap()];
            if i < 2 {
                let w = g.add_entity(&format!("w{i}"));
                es.push(g.add_edge(EK::WasGeneratedBy, w, t).unwrap());
                vs.push(w);
            }
            segs.push(SegmentRef::new(vs, es));
        }
        (g, segs)
    }

    fn summarize(g: &ProvGraph, segs: &[SegmentRef], k: usize) -> Psg {
        let g0 = build_g0(g, segs, &PropertyAggregation::ignore_all(), k);
        let merged = merge(&g0);
        Psg::from_merge(g, &g0, &merged)
    }

    #[test]
    fn frequencies_reflect_segment_support() {
        let (g, segs) = two_plus_one();
        let psg = summarize(&g, &segs, 1);
        // The U edge appears in all 3 segments... but k=1 gives the lone
        // `train` (no output) a different provenance type, so two activity
        // groups exist with their own U edges.
        let u_freqs: Vec<f64> =
            psg.edges.iter().filter(|e| e.kind == EK::Used).map(|e| e.frequency).collect();
        let g_freqs: Vec<f64> = psg
            .edges
            .iter()
            .filter(|e| e.kind == EK::WasGeneratedBy)
            .map(|e| e.frequency)
            .collect();
        assert!(!u_freqs.is_empty());
        assert!((g_freqs.iter().sum::<f64>() - 2.0 / 3.0).abs() < 1e-9);
        // Every frequency is a multiple of 1/3 in (0, 1].
        for f in u_freqs.iter().chain(g_freqs.iter()) {
            assert!(*f > 0.0 && *f <= 1.0);
            assert!((f * 3.0 - (f * 3.0).round()).abs() < 1e-9);
        }
    }

    #[test]
    fn compaction_ratio_counts_instances() {
        let (g, segs) = two_plus_one();
        let psg = summarize(&g, &segs, 1);
        assert_eq!(psg.input_vertex_count, 8); // 3+3+2
        assert!(psg.vertex_count() < 8, "some merging must happen");
        assert!(psg.compaction_ratio() < 1.0);
        assert!(psg.compaction_ratio() > 0.0);
    }

    #[test]
    fn type_tags_distinguish_same_name_groups() {
        let (g, segs) = two_plus_one();
        let psg = summarize(&g, &segs, 1);
        let train_labels: Vec<&str> = psg
            .vertices
            .iter()
            .filter(|v| v.kind == VertexKind::Activity)
            .map(|v| v.label.as_str())
            .collect();
        // Two provenance types of `train`: both tagged (t1)/(t2)? They are in
        // different CLASSES (class includes the provenance type), so tags
        // only appear when one class splits into several groups. Here each
        // class has one group: labels are untagged and distinct by name.
        assert_eq!(train_labels.len(), 2);
    }

    #[test]
    fn dot_render_mentions_frequencies() {
        let (g, segs) = two_plus_one();
        let psg = summarize(&g, &segs, 1);
        let dot = psg.to_dot();
        assert!(dot.contains("digraph psg"));
        assert!(dot.contains('%'));
    }

    #[test]
    fn empty_input_is_identity() {
        let g = ProvGraph::new();
        let psg = summarize(&g, &[], 1);
        assert_eq!(psg.vertex_count(), 0);
        assert_eq!(psg.compaction_ratio(), 1.0);
    }
}
