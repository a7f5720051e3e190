//! PgSum phase probe: times `build_g0`, `merge` and `Psg::from_merge`
//! separately, median of 7 runs, on fixed `Sd` segment sets.
//!
//! The first shape is an `explore`-shaped `Summarize`: 20 segments of one
//! 100-segment `Sd` graph, entities by `filename`, activities by `command`,
//! `k = 1`. The others are fig6's inputs (activities by `command`) at
//! |S| = 40, 80 and 160, each at `k = 0` and `k = 1`.
//!
//! ```sh
//! cargo run --release --example pgsum_phases
//! ```

use prov_model::VertexKind;
use prov_store::ProvGraph;
use prov_summary::{build_g0, merge, PgSumQuery, PropertyAggregation, Psg, SegmentRef};
use prov_workload::{generate_sd, SdParams};
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 7;

/// Median wall time of `REPS` calls, in milliseconds.
fn median_ms<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut times: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[REPS / 2]
}

fn probe(name: &str, graph: &ProvGraph, segments: &[SegmentRef], query: &PgSumQuery) {
    let (aggregation, k) = (&query.aggregation, query.k);
    let g0 = build_g0(graph, segments, aggregation, k);
    let merged = merge(&g0);
    let groups = Psg::from_merge(graph, &g0, &merged).vertex_count();
    let g0_ms = median_ms(|| build_g0(graph, segments, aggregation, k));
    let merge_ms = median_ms(|| merge(&g0));
    let psg_ms = median_ms(|| Psg::from_merge(graph, &g0, &merged));
    println!(
        "{name:<14} k={k}  n0={:>6}  groups={groups:>5}  build_g0 {g0_ms:>8.3} ms  \
         merge {merge_ms:>8.3} ms  psg {psg_ms:>7.3} ms",
        g0.len()
    );
}

fn segment_refs(graph_segments: &[prov_workload::SdSegment]) -> Vec<SegmentRef> {
    graph_segments.iter().map(|s| SegmentRef::new(s.vertices.clone(), s.edges.clone())).collect()
}

fn main() {
    let explore = generate_sd(&SdParams { seed: 1, num_segments: 100, ..SdParams::default() });
    let all = segment_refs(&explore.segments);
    let sessions: Vec<SegmentRef> = all.iter().step_by(5).cloned().collect();
    let service = PropertyAggregation::ignore_all()
        .with_keys(VertexKind::Entity, &["filename"])
        .with_keys(VertexKind::Activity, &["command"]);
    probe("explore-20", &explore.graph, &sessions, &PgSumQuery::new(service, 1));

    let fig6 = PropertyAggregation::ignore_all().with_keys(VertexKind::Activity, &["command"]);
    for num_segments in [40, 80, 160] {
        let sd = generate_sd(&SdParams { num_segments, ..SdParams::default() });
        let segments = segment_refs(&sd.segments);
        for k in [0, 1] {
            let name = format!("Sd|S|={num_segments}");
            probe(&name, &sd.graph, &segments, &PgSumQuery::new(fig6.clone(), k));
        }
    }
}
