//! The PgSum operator: query type and end-to-end evaluation.

use crate::aggregation::PropertyAggregation;
use crate::merge::{merge, quotient};
use crate::psg::Psg;
use crate::psum::{psum, PsumResult};
use crate::segment_ref::SegmentRef;
use crate::union::{build_g0, G0};
use prov_store::ProvGraph;

/// A PgSum query `(S, K, Rk)` (the segment set is passed separately).
#[derive(Debug, Clone, Default)]
pub struct PgSumQuery {
    /// Property aggregation `K`.
    pub aggregation: PropertyAggregation,
    /// Provenance-type radius `k` of `Rk`.
    pub k: usize,
}

impl PgSumQuery {
    /// Query with the given aggregation and radius.
    pub fn new(aggregation: PropertyAggregation, k: usize) -> Self {
        PgSumQuery { aggregation, k }
    }

    /// The Fig. 2(e) query: aggregate by filename/command, k = 1.
    pub fn fig2e() -> Self {
        PgSumQuery { aggregation: PropertyAggregation::fig2e(), k: 1 }
    }
}

/// Evaluate PgSum: build `g0`, merge under Lemma 5, assemble the Psg.
pub fn pgsum(graph: &ProvGraph, segments: &[SegmentRef], query: &PgSumQuery) -> Psg {
    let g0 = build_g0(graph, segments, &query.aggregation, query.k);
    let merged = merge(&g0);
    Psg::from_merge(graph, &g0, &merged)
}

/// Evaluate PgSum and also return the intermediate graphs (for tests and the
/// invariant checker).
pub fn pgsum_with_internals(
    graph: &ProvGraph,
    segments: &[SegmentRef],
    query: &PgSumQuery,
) -> (Psg, G0, G0) {
    let g0 = build_g0(graph, segments, &query.aggregation, query.k);
    let merged = merge(&g0);
    let q = quotient(&g0, &merged.group_of, merged.group_count);
    let psg = Psg::from_merge(graph, &g0, &merged);
    (psg, g0, q)
}

/// Evaluate the pSum baseline under the same `(K, Rk)` labeling.
pub fn psum_baseline(graph: &ProvGraph, segments: &[SegmentRef], query: &PgSumQuery) -> PsumResult {
    let g0 = build_g0(graph, segments, &query.aggregation, query.k);
    psum(&g0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::check_invariant;
    use prov_model::{EdgeKind, VertexKind};

    /// The Fig. 2(d)/(e) running example: Q1 (Alice's v2 round) and Q2
    /// (Bob's v3 round) as segments of one lifecycle graph.
    fn fig2_segments() -> (ProvGraph, Vec<SegmentRef>) {
        let mut g = ProvGraph::new();
        // Q1 segment vertices.
        let dataset = g.add_entity("dataset");
        let model1 = g.add_entity("model");
        let solver1 = g.add_entity("solver");
        let update2 = g.add_activity("update");
        let model2 = g.add_entity("model");
        let train2 = g.add_activity("train");
        let log2 = g.add_entity("log");
        let weight2 = g.add_entity("weight");
        for (v, name) in [
            (dataset, "dataset"),
            (model1, "model"),
            (solver1, "solver"),
            (model2, "model"),
            (log2, "log"),
            (weight2, "weight"),
        ] {
            g.set_vprop(v, "filename", name);
        }
        g.set_vprop(update2, "command", "update");
        g.set_vprop(train2, "command", "train");
        let q1_edges = vec![
            g.add_edge(EdgeKind::Used, update2, model1).unwrap(),
            g.add_edge(EdgeKind::WasGeneratedBy, model2, update2).unwrap(),
            g.add_edge(EdgeKind::Used, train2, dataset).unwrap(),
            g.add_edge(EdgeKind::Used, train2, model2).unwrap(),
            g.add_edge(EdgeKind::Used, train2, solver1).unwrap(),
            g.add_edge(EdgeKind::WasGeneratedBy, log2, train2).unwrap(),
            g.add_edge(EdgeKind::WasGeneratedBy, weight2, train2).unwrap(),
        ];
        let s1 = SegmentRef::new(
            vec![dataset, model1, solver1, update2, model2, train2, log2, weight2],
            q1_edges,
        );

        // Q2 segment: Bob updates the solver instead of the model.
        let solver1b = g.add_entity("solver");
        let update3 = g.add_activity("update");
        let solver3 = g.add_entity("solver");
        let train3 = g.add_activity("train");
        let log3 = g.add_entity("log");
        let weight3 = g.add_entity("weight");
        let model1b = g.add_entity("model");
        let datasetb = g.add_entity("dataset");
        for (v, name) in [
            (solver1b, "solver"),
            (solver3, "solver"),
            (log3, "log"),
            (weight3, "weight"),
            (model1b, "model"),
            (datasetb, "dataset"),
        ] {
            g.set_vprop(v, "filename", name);
        }
        g.set_vprop(update3, "command", "update");
        g.set_vprop(train3, "command", "train");
        let q2_edges = vec![
            g.add_edge(EdgeKind::Used, update3, solver1b).unwrap(),
            g.add_edge(EdgeKind::WasGeneratedBy, solver3, update3).unwrap(),
            g.add_edge(EdgeKind::Used, train3, datasetb).unwrap(),
            g.add_edge(EdgeKind::Used, train3, model1b).unwrap(),
            g.add_edge(EdgeKind::Used, train3, solver3).unwrap(),
            g.add_edge(EdgeKind::WasGeneratedBy, log3, train3).unwrap(),
            g.add_edge(EdgeKind::WasGeneratedBy, weight3, train3).unwrap(),
        ];
        let s2 = SegmentRef::new(
            vec![solver1b, update3, solver3, train3, log3, weight3, model1b, datasetb],
            q2_edges,
        );
        (g, vec![s1, s2])
    }

    #[test]
    fn fig2e_summary_merges_common_pipeline() {
        let (g, segs) = fig2_segments();
        let psg = pgsum(&g, &segs, &PgSumQuery::fig2e());
        // 16 instances compact below 16; trains merge (same command, same
        // 1-hop shape: 3 inputs, 2 outputs).
        assert!(psg.vertex_count() < 16, "got |M| = {}", psg.vertex_count());
        let train_groups: Vec<_> = psg
            .vertices
            .iter()
            .filter(|v| v.kind == VertexKind::Activity && v.label.contains("train"))
            .collect();
        assert_eq!(train_groups.len(), 1, "the two train rounds merge");
        assert_eq!(train_groups[0].members.len(), 2);
        // Merged train's edges carry frequency 1.0 (present in both segments).
        let full: Vec<_> = psg.edges.iter().filter(|e| e.frequency >= 1.0).collect();
        assert!(!full.is_empty());
    }

    #[test]
    fn fig2e_summary_keeps_alternative_update_types() {
        let (g, segs) = fig2_segments();
        let psg = pgsum(&g, &segs, &PgSumQuery::fig2e());
        // Alice updates a model; Bob updates a solver: with k = 1 their
        // `update` activities have different neighborhoods (model vs solver
        // files), so two update types survive (t1/t2 in Fig. 2(e)).
        let update_groups: Vec<_> = psg
            .vertices
            .iter()
            .filter(|v| v.kind == VertexKind::Activity && v.label.contains("update"))
            .collect();
        assert_eq!(update_groups.len(), 2, "two alternative update routines");
        // Their edge frequencies are 50% each.
        for ug in &update_groups {
            assert_eq!(ug.members.len(), 1);
        }
    }

    #[test]
    fn summary_preserves_bounded_path_words() {
        let (g, segs) = fig2_segments();
        let (_, g0, q) = pgsum_with_internals(&g, &segs, &PgSumQuery::fig2e());
        check_invariant(&g0, &q, 5).expect("PgSum preserves path words");
    }

    #[test]
    fn summary_is_acyclic() {
        let (g, segs) = fig2_segments();
        let (psg, _, q) = pgsum_with_internals(&g, &segs, &PgSumQuery::fig2e());
        // Kahn over the quotient.
        let n = q.len();
        let mut indeg: Vec<usize> = (0..n as u32).map(|v| q.in_links(v).len()).collect();
        let mut queue: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
        let mut seen = 0;
        while let Some(v) = queue.pop() {
            seen += 1;
            for l in q.out_links(v as u32) {
                let d = l.node() as usize;
                indeg[d] -= 1;
                if indeg[d] == 0 {
                    queue.push(d);
                }
            }
        }
        assert_eq!(seen, n, "Psg must stay a DAG");
        assert_eq!(psg.vertex_count(), n);
    }

    #[test]
    fn pgsum_compacts_at_least_as_well_as_psum() {
        let (g, segs) = fig2_segments();
        let q = PgSumQuery::fig2e();
        let psg = pgsum(&g, &segs, &q);
        let ps = psum_baseline(&g, &segs, &q);
        assert!(psg.compaction_ratio() <= ps.compaction_ratio + 1e-12);
    }

    #[test]
    fn coarser_aggregation_compacts_more() {
        let (g, segs) = fig2_segments();
        let fine = pgsum(&g, &segs, &PgSumQuery::fig2e());
        let coarse = pgsum(&g, &segs, &PgSumQuery::new(PropertyAggregation::ignore_all(), 0));
        assert!(coarse.vertex_count() <= fine.vertex_count());
    }
}
