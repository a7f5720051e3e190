//! The fig8 query-layer benchmark: IR pipeline evaluation over frozen CSR
//! snapshots (ISSUE 8).
//!
//! PR 8 compiled every fixed-shape read path onto the composable query IR
//! (`StartSet → Traverse/Filter/Limit → Project`) with wire-level resumable
//! cursors. The two sweeps here gate the new layer:
//!
//! * **8a** — pipeline latency by depth and result size: x chained
//!   single-hop ancestry steps from start entities at three creation-order
//!   percentiles of a frozen `Pd` graph (`work` = rows at exactly that walk
//!   length, the result-size axis).
//! * **8b** — paginated vs one-shot: a full cursor walk (one bounded replay
//!   per page, the serving cost a resuming client pays) against a single
//!   evaluation of the same unbounded ancestry closure, swept over the page
//!   size. Both series report the same total row count — the concatenation
//!   invariant in the committed JSON.
//!
//! Both run over cached `Pd` instances ([`PdCache`]) and are committed
//! as `BENCH_fig8.json` through [`crate::BenchReport`], gated in CI next to
//! fig5–fig7.

use crate::harness::{FigureResult, PdCache, Point, Scale, Series};
use prov_model::{EdgeKind, VertexId, VertexKind};
use prov_store::{evaluate, evaluate_at, paginate, Direction, Pipeline, Plan, ProvGraph, Traverse};
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

/// The unbounded ancestry closure of `start` as a compiled plan — the IR
/// form of `lineage(start, Ancestors)`, the 8b subject.
fn closure_plan(start: VertexId) -> Plan {
    Plan::compile(Pipeline::from_ids(vec![start]).traverse(&ANCESTRY, 1, Traverse::UNBOUNDED))
        .expect("ancestry pipelines always compile")
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
            // Best-of-3 batches of `reps` calls, like the 7b trajectory.
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

/// Fig. 8(b): paginated cursor walk vs one-shot evaluation of the same
/// closure, swept over the page size.
pub fn fig8b(scale: Scale, cache: &mut PdCache) -> FigureResult {
    let (n, reps) = match scale {
        Scale::Quick => (5_000, 8),
        Scale::Full => (50_000, 4),
    };
    fig8b_sized(cache, n, reps)
}

fn fig8b_sized(cache: &mut PdCache, n: usize, reps: usize) -> FigureResult {
    let inst = cache.instance(&PdParams::with_size(n));
    let plan = closure_plan(entity_at(inst.graph(), 95.0));
    let watermark = inst.index().cursor();
    let page_sizes = [16usize, 64, 256, 1_024];
    let mut series = [
        Series { name: "OneShot".into(), points: Vec::new() },
        Series { name: "Paginated".into(), points: Vec::new() },
    ];
    for &page_size in &page_sizes {
        // The one-shot reference is re-timed at every x so the flat line is
        // measured data, not a copied point.
        let mut best = [f64::INFINITY; 2];
        let mut rows = [0u64; 2];
        for _ in 0..3 {
            let t0 = Instant::now();
            for _ in 0..reps {
                rows[0] = evaluate(inst.graph(), inst.index(), &plan)
                    .expect("a fresh snapshot is never stale")
                    .count;
            }
            best[0] = best[0].min(t0.elapsed().as_secs_f64());
            let t0 = Instant::now();
            for _ in 0..reps {
                // A resuming client re-evaluates the pipeline at the pinned
                // watermark once per page — the full serving cost of the
                // walk, not just the slicing.
                let mut total = 0u64;
                let mut cursor = None;
                loop {
                    let out = evaluate_at(inst.graph(), inst.index(), &plan, watermark, 1)
                        .expect("the walk's watermark stays valid");
                    let page = paginate(&out.rows, watermark, cursor.as_ref(), Some(page_size));
                    total += page.rows.len() as u64;
                    match page.next {
                        Some(next) => cursor = Some(next),
                        None => break,
                    }
                }
                rows[1] = total;
            }
            best[1] = best[1].min(t0.elapsed().as_secs_f64());
        }
        for i in 0..2 {
            series[i].points.push(Point {
                x: page_size as f64,
                y: Some(best[i]),
                work: Some(rows[i]),
            });
        }
    }
    FigureResult {
        id: "8b",
        title: format!(
            "Cursor walk vs one-shot: full paginated walk (one bounded replay per page) against \
             a single evaluation of the same ancestry closure, {reps} walks per call (Pd{n})"
        ),
        x_label: "page size".into(),
        y_label: "runtime (s)".into(),
        series: series.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_sweeps_have_expected_shapes() {
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

        let fig = fig8b_sized(&mut cache, 500, 1);
        assert_eq!(fig.id, "8b");
        for (one_shot, paginated) in fig.series[0].points.iter().zip(fig.series[1].points.iter()) {
            // The concatenation invariant: pages sum to the one-shot answer
            // at every page size.
            assert_eq!(one_shot.work, paginated.work, "pages must concatenate losslessly");
            assert!(one_shot.work.unwrap() > 0);
        }
    }
}
