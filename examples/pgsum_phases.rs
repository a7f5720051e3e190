//! PgSum phase probe: times `build_g0`, `merge` and `Psg::from_merge`
//! separately, and the pSum baseline (`psum`) on the same `g0`, 7 runs
//! each, on fixed `Sd` segment sets. Each time prints as q1/median/q3 of
//! the 7 runs, in milliseconds.
//!
//! The first shape is an `explore`-shaped `Summarize`: 20 segments of one
//! 100-segment `Sd` graph, entities by `filename`, activities by `command`,
//! `k = 1`. The others are fig6's inputs (activities by `command`) at
//! |S| = 40, 80 and 160, each at `k = 0` and `k = 1`.
//!
//! Every phase runs in one process with no second build alternating
//! against it, so on a shared 2-core host a median moves by up to ≈ 40 %
//! from one run of the binary to the next: it resolves only changes above
//! that. Use it to find where the time goes; a claimed gain is measured
//! with `scripts/bench-pairs.sh`, which alternates the parent's and the
//! change's builds.
//!
//! ```sh
//! cargo run --release --example pgsum_phases
//! ```

use prov_model::VertexKind;
use prov_store::ProvGraph;
use prov_summary::{build_g0, merge, psum, PgSumQuery, PropertyAggregation, Psg, SegmentRef};
use prov_workload::{generate_sd, SdParams};
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 7;

/// q1/median/q3 wall time of `REPS` calls, in milliseconds.
fn quartiles_ms<T>(mut f: impl FnMut() -> T) -> String {
    let mut times: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    let [q1, median, q3] = [REPS / 4, REPS / 2, REPS - 1 - REPS / 4].map(|i| times[i]);
    format!("{q1:.3}/{median:.3}/{q3:.3}")
}

fn probe(name: &str, graph: &ProvGraph, segments: &[SegmentRef], query: &PgSumQuery) {
    let (aggregation, k) = (&query.aggregation, query.k);
    let g0 = build_g0(graph, segments, aggregation, k);
    let merged = merge(&g0);
    let groups = Psg::from_merge(graph, &g0, &merged).vertex_count();
    let g0_ms = quartiles_ms(|| build_g0(graph, segments, aggregation, k));
    let merge_ms = quartiles_ms(|| merge(&g0));
    let psg_ms = quartiles_ms(|| Psg::from_merge(graph, &g0, &merged));
    let psum_ms = quartiles_ms(|| psum(&g0));
    println!(
        "{name:<14} k={k}  n0={:>6}  groups={groups:>5}  build_g0 {g0_ms:>23}  \
         merge {merge_ms:>23}  psg {psg_ms:>20}  psum {psum_ms:>23} ms",
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
