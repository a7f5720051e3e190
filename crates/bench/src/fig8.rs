//! The fig8 query-layer benchmark: IR pipeline evaluation over frozen CSR
//! snapshots (ISSUE 8).
//!
//! **8a** — pipeline latency by depth and result size: x chained single-hop
//! ancestry steps from start entities at three creation-order percentiles of
//! a frozen `Pd` graph (`work` = rows at exactly that walk length, the
//! result-size axis). It runs over cached `Pd` instances ([`PdCache`]) and is
//! committed as `BENCH_fig8.json` through [`crate::BenchReport`], gated in CI
//! next to fig5 and fig6.

use crate::harness::{FigureResult, PdCache, Point, Scale, Series};
use prov_model::{EdgeKind, VertexId, VertexKind};
use prov_store::{evaluate, Direction, Pipeline, Plan, ProvGraph};
use prov_workload::PdParams;
use std::time::Instant;

/// The edge menu every fig8 pipeline traverses: the lineage lowering's
/// `Ancestors` direction (entity → generating activity → its inputs).
const ANCESTRY: [(EdgeKind, Direction); 2] =
    [(EdgeKind::WasGeneratedBy, Direction::Out), (EdgeKind::Used, Direction::Out)];

/// Entity at the given creation-order percentile of a frozen `Pd` graph.
fn entity_at(graph: &ProvGraph, pct: f64) -> VertexId {
    let entities = graph.vertices_of_kind(VertexKind::Entity);
    entities[((entities.len() - 1) as f64 * pct / 100.0) as usize]
}

/// Fig. 8(a): query latency by pipeline depth and result size — x chained
/// single-hop ancestry steps, one series per start-entity percentile.
pub fn fig8a(scale: Scale, cache: &mut PdCache) -> FigureResult {
    let (n, reps) = match scale {
        Scale::Quick => (5_000, 64),
        Scale::Full => (50_000, 16),
    };
    fig8a_sized(cache, n, reps)
}

fn fig8a_sized(cache: &mut PdCache, n: usize, reps: usize) -> FigureResult {
    let inst = cache.instance(&PdParams::with_size(n));
    let depths = [1u32, 2, 4, 8];
    let percentiles = [25.0, 75.0, 95.0];
    let mut series: Vec<Series> = percentiles
        .iter()
        .map(|p| Series { name: format!("src@{p:.0}%"), points: Vec::new() })
        .collect();
    for &depth in &depths {
        for (&pct, serie) in percentiles.iter().zip(series.iter_mut()) {
            let start = entity_at(inst.graph(), pct);
            // Depth as chained single-hop steps (the Cypher Query-1 lowering
            // shape), not one `Traverse` with max_hops = depth: the sweep
            // times the per-step pipeline machinery, not just the BFS.
            let mut pipeline = Pipeline::from_ids(vec![start]);
            for _ in 0..depth {
                pipeline = pipeline.traverse(&ANCESTRY, 1, 1);
            }
            let plan = Plan::compile(pipeline).expect("chained ancestry pipelines compile");
            // Best-of-3 batches of `reps` calls.
            let mut best = f64::INFINITY;
            let mut rows = 0u64;
            for _ in 0..3 {
                let t0 = Instant::now();
                for _ in 0..reps {
                    rows = evaluate(inst.graph(), inst.index(), &plan)
                        .expect("a fresh snapshot is never stale")
                        .count;
                }
                best = best.min(t0.elapsed().as_secs_f64());
            }
            serie.points.push(Point { x: depth as f64, y: Some(best), work: Some(rows) });
        }
    }
    FigureResult {
        id: "8a",
        title: format!(
            "Query IR latency by pipeline depth: x chained single-hop ancestry steps, {reps} \
             evaluations per call, start entity at creation percentile (Pd{n})"
        ),
        x_label: "depth".into(),
        y_label: "runtime (s)".into(),
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8a_sweep_has_expected_shape() {
        // Tiny sizes, minimal reps: shapes and cross-series invariants only
        // (the committed trajectory runs in release through the bench
        // binary).
        let mut cache = PdCache::new();
        let fig = fig8a_sized(&mut cache, 500, 2);
        assert_eq!(fig.id, "8a");
        assert_eq!(fig.series.len(), 3);
        for s in &fig.series {
            assert_eq!(s.points.len(), 4);
            assert!(s.points.iter().all(|p| p.y.is_some() && p.work.is_some()));
        }
        // The deepest-ancestry start really reaches something at depth 1.
        assert!(fig.series[2].points[0].work.unwrap() > 0);
    }
}
