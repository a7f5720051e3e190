//! `cargo test` drives every workload end to end at smoke scale, untraced
//! and traced, so the benchmark cannot rot unnoticed — and checks that the
//! layer split is the one each workload was chosen for.

use prov_benchmark::harness::{run, Run, RunConfig};
use prov_benchmark::metrics::{END_TO_END, PER_LAYER};
use prov_benchmark::program::{Scale, Workload};
use prov_benchmark::report::{driver_line, summarize};
use std::path::PathBuf;

fn smoke(workload: Workload, seed: u64, trace: bool) -> Run {
    let config = RunConfig {
        workload,
        seed,
        scale: Scale::SMOKE,
        seconds: 0.0,
        trace,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("{}-{trace}", workload.name())),
    };
    run(&config).expect("the workload runs")
}

#[test]
fn every_workload_is_correct_and_reports_every_metric() {
    for workload in Workload::ALL {
        let untraced = summarize(&smoke(workload, 1, false));
        assert!(untraced.correct, "{}: {:?}", workload.name(), untraced.errors);
        assert_eq!(untraced.ops_failed, 0);
        let line = driver_line(&untraced);
        assert_eq!(line.metrics.len(), END_TO_END.len());
        for def in &END_TO_END {
            let metric = &line.metrics[def.name];
            assert_eq!(metric.unit, def.unit);
            assert!(metric.value > 0.0, "{} {} must never be 0", workload.name(), def.name);
        }

        let traced = summarize(&smoke(workload, 1, true));
        assert!(traced.correct, "{} traced: {:?}", workload.name(), traced.errors);
        assert_eq!(traced.digest, untraced.digest, "tracing must not change any answer");
        let line = driver_line(&traced);
        assert_eq!(line.metrics.len(), PER_LAYER.len());
        for def in &PER_LAYER {
            assert_eq!(line.metrics[def.name].unit, def.unit, "{}", def.name);
        }
        let overhead = line.metrics["trace.overhead"].value;
        assert!(overhead > 0.5 && overhead < 2.0, "{} overhead {overhead}", workload.name());
    }
}

#[test]
fn digests_depend_on_the_seed_and_on_nothing_else() {
    let digest = |seed| smoke(Workload::Mixed, seed, false).plain[0].digest;
    assert_eq!(digest(5), digest(5));
    assert_ne!(digest(5), digest(6));
}

#[test]
fn each_workload_exercises_the_layers_it_was_chosen_for() {
    let rounds = Scale::SMOKE.mixed_rounds as u64;
    for workload in Workload::ALL {
        let run = smoke(workload, 2, true);
        let counts = &run.plain[0].counts;
        let layers = run.traced[0].layers.as_ref().expect("traced repetitions keep layer times");
        let (_, refreshes, rebuilds) = counts.snapshot;
        match workload {
            Workload::Ingest => {
                assert_eq!(counts.writes, Scale::SMOKE.ingest_ops as u64);
                assert_eq!(counts.io.appends, counts.writes, "one WAL append per write");
                assert!(counts.compactions >= 1, "smoke scale must cross one compaction");
                assert_eq!(refreshes + rebuilds, 0, "a write-only stream refreshes nothing");
                assert!(layers.compile.is_empty() && layers.eval.is_empty());
                assert!(layers.segment_kernel.is_empty() && layers.summary_kernel.is_empty());
                assert_eq!(layers.record.len() as u64, counts.writes);
            }
            Workload::Lookup | Workload::Explore => {
                assert_eq!(refreshes + rebuilds, 0, "a frozen store is always reused");
                assert_eq!(counts.io, Default::default(), "storage is idle");
                assert_eq!(counts.writes, 0);
                assert!(layers.record.is_empty() && layers.refresh.is_empty());
            }
            Workload::Mixed => {
                assert_eq!(counts.writes, rounds);
                assert_eq!(refreshes + rebuilds, rounds, "exactly one refresh per write");
                assert_eq!(layers.refresh.len() as u64, rounds, "every refresh was displaced");
                assert!(counts.lineage_checked >= 1, "the oracle saw a lineage answer");
            }
        }
        if workload == Workload::Lookup {
            assert_eq!(counts.walks, Scale::SMOKE.lookup_rounds as u64);
            assert!(counts.pages >= counts.walks && counts.lineage_checked >= 1);
        }
        if workload == Workload::Explore {
            assert_eq!(counts.segments, Scale::SMOKE.explore_rounds as u64);
            assert_eq!(layers.segment_kernel.len() as u64, counts.segments);
            assert_eq!(layers.summary_kernel.len() as u64, counts.segments);
            assert!(counts.psg_vertices > 0 && counts.psg_vertices <= counts.psg_inputs);
        }
    }
}

/// `BENCHMARK.json` is what the driver reads; the catalogue in
/// `src/metrics.rs` is what the program reports. They must name the same
/// workloads and metrics, with the same units, directions and bounds.
#[test]
fn benchmark_json_matches_the_catalogue() {
    use serde::Content;
    struct Json(Content);
    impl serde::Deserialize for Json {
        fn de(content: &Content) -> Result<Self, serde::Error> {
            Ok(Json(content.clone()))
        }
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    // lint-ok(raw-io): a test reading the repository's benchmark contract.
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let Json(doc) = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let text_of = |c: &Content, key: &str| match c.get_field(key) {
        Some(Content::Str(s)) => s.clone(),
        other => panic!("{key}: expected a string, found {other:?}"),
    };
    let list = |key: &str| doc.get_field(key).and_then(Content::as_seq).expect(key).to_vec();

    let names: Vec<String> = list("workloads").iter().map(|w| text_of(w, "name")).collect();
    assert_eq!(names, Workload::ALL.map(|w| w.name().to_string()));
    assert_eq!(list("paths"), vec![Content::Str("benchmark".into())]);

    let listed = list("end_to_end");
    assert_eq!(listed.len(), END_TO_END.len());
    for (entry, def) in listed.iter().zip(&END_TO_END) {
        assert_eq!(text_of(entry, "name"), def.name);
        assert_eq!(text_of(entry, "unit"), def.unit, "{}", def.name);
        assert_eq!(text_of(entry, "better"), def.better.as_str(), "{}", def.name);
        assert_eq!(entry.get_field("bound"), Some(&Content::F64(def.bound)), "{}", def.name);
    }
    let listed = list("per_layer");
    assert_eq!(listed.len(), PER_LAYER.len());
    for (entry, def) in listed.iter().zip(&PER_LAYER) {
        assert_eq!(text_of(entry, "name"), def.name);
        assert_eq!(text_of(entry, "unit"), def.unit, "{}", def.name);
        assert_eq!(text_of(entry, "better"), def.better.as_str(), "{}", def.name);
    }
}
