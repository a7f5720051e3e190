//! Cross-crate pipeline tests on generated workloads: Pd graphs flow through
//! segmentation (all evaluators agreeing) into summarization, and survive the
//! JSON interchange.

use prov_bitset::SetBackend;
use prov_segment::{evaluate_similarity, MaskedGraph, PgSegOptions, PgSegQuery, SimilarEvaluator};
use prov_store::{ProvGraph, ProvIndex};
use prov_summary::{PgSumQuery, PropertyAggregation, SegmentRef};
use prov_workload::{generate_pd, generate_sd, standard_query, PdParams, SdParams};

#[test]
fn pd_graph_segmentation_evaluators_agree_at_scale() {
    let graph = generate_pd(&PdParams::with_size(800));
    let index = ProvIndex::build(&graph);
    let view = MaskedGraph::unmasked(&index);
    let (vsrc, vdst) = standard_query(&graph, 2);

    let mut answers = Vec::new();
    for evaluator in [
        SimilarEvaluator::CflrB(SetBackend::Bit),
        SimilarEvaluator::SimProvAlg(SetBackend::Bit),
        SimilarEvaluator::SimProvAlg(SetBackend::Compressed),
        SimilarEvaluator::SimProvTst,
    ] {
        let opts = PgSegOptions { evaluator, ..PgSegOptions::default() };
        answers.push((evaluator, evaluate_similarity(&view, &vsrc, &vdst, &opts).unwrap().answer));
    }
    for w in answers.windows(2) {
        assert_eq!(w[0].1, w[1].1, "{:?} vs {:?}", w[0].0, w[1].0);
    }
    assert!(!answers[0].1.is_empty(), "standard query must connect");
}

#[test]
fn pd_end_to_end_segment_then_summarize() {
    let graph = generate_pd(&PdParams::with_size(400));
    let index = ProvIndex::build(&graph);
    let (vsrc, vdst) = standard_query(&graph, 2);
    let seg = prov_segment::pgseg(
        &graph,
        &index,
        PgSegQuery::between(vsrc, vdst),
        &PgSegOptions::default(),
    )
    .unwrap();
    assert!(seg.vertex_count() > 4);

    // Summarize the single segment against itself (degenerate but valid).
    let psg = prov_summary::pgsum(
        &graph,
        &[SegmentRef::from(&seg)],
        &PgSumQuery::new(PropertyAggregation::ignore_all(), 0),
    );
    assert!(psg.vertex_count() <= seg.vertex_count());
    assert!(psg.compaction_ratio() <= 1.0);
}

#[test]
fn sd_segments_summarize_with_correct_frequencies() {
    let out = generate_sd(&SdParams { num_segments: 6, n: 8, ..SdParams::default() });
    let segments: Vec<SegmentRef> =
        out.segments.iter().map(|s| SegmentRef::new(s.vertices.clone(), s.edges.clone())).collect();
    for seg in &segments {
        seg.validate(&out.graph).unwrap();
    }
    let psg = prov_summary::pgsum(
        &out.graph,
        &segments,
        &PgSumQuery::new(
            PropertyAggregation::ignore_all()
                .with_keys(prov_model::VertexKind::Activity, &["command"]),
            0,
        ),
    );
    assert_eq!(psg.segment_count, 6);
    for e in &psg.edges {
        let scaled = e.frequency * 6.0;
        assert!((scaled - scaled.round()).abs() < 1e-9, "γ multiples of 1/|S|");
    }
    // pSum never beats PgSum.
    let ps = prov_summary::psum_baseline(
        &out.graph,
        &segments,
        &PgSumQuery::new(PropertyAggregation::ignore_all(), 0),
    );
    assert!(psg.compaction_ratio() <= ps.compaction_ratio + 1e-12);
}

#[test]
fn pd_graph_survives_json_round_trip() {
    let graph = generate_pd(&PdParams::with_size(300));
    let json = prov_store::json::to_json_string(&graph).unwrap();
    let back: ProvGraph = prov_store::json::from_json_string(&json).unwrap();
    assert_eq!(back.vertex_count(), graph.vertex_count());
    assert_eq!(back.edge_count(), graph.edge_count());
    // Segmentation answers identical on the round-tripped graph.
    let (vsrc, vdst) = standard_query(&graph, 2);
    let a = {
        let idx = ProvIndex::build(&graph);
        let view = MaskedGraph::unmasked(&idx);
        evaluate_similarity(&view, &vsrc, &vdst, &PgSegOptions::default()).unwrap().answer
    };
    let b = {
        let idx = ProvIndex::build(&back);
        let view = MaskedGraph::unmasked(&idx);
        evaluate_similarity(&view, &vsrc, &vdst, &PgSegOptions::default()).unwrap().answer
    };
    assert_eq!(a, b);
}

#[test]
fn early_stopping_saves_work_on_late_sources() {
    use prov_segment::{similar_tst, TstConfig};
    let graph = generate_pd(&PdParams::with_size(3000));
    let index = ProvIndex::build(&graph);
    let view = MaskedGraph::unmasked(&index);
    let (_, vdst) = standard_query(&graph, 2);
    let late_src = prov_workload::sources_at_percentile(&graph, 80.0, 2);
    let early_src = prov_workload::sources_at_percentile(&graph, 0.0, 2);

    let cfg_on = TstConfig { early_stop: true };
    let cfg_off = TstConfig { early_stop: false };
    // Late sources: pruned run does much less work.
    let late_on = similar_tst(&view, &late_src, &vdst, &cfg_on).unwrap();
    let late_off = similar_tst(&view, &late_src, &vdst, &cfg_off).unwrap();
    assert_eq!(late_on.answer, late_off.answer);
    assert!(late_on.stats.work <= late_off.stats.work);
    // Early sources: both explore roughly everything.
    let early_on = similar_tst(&view, &early_src, &vdst, &cfg_on).unwrap();
    let early_off = similar_tst(&view, &early_src, &vdst, &cfg_off).unwrap();
    assert_eq!(early_on.answer, early_off.answer);
}
