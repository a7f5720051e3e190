//! The fig7 serving-loop benchmark: ingest/query interleaving over a live
//! [`ProvDb`] (ISSUE 5).
//!
//! PRs 3–4 made the PgSeg/PgSum kernels fast; the serving loop above them —
//! ingest a batch, answer lineage queries, ingest again — was still paying a
//! full `ProvIndex::build` per batch and an `O(n)` allocation per lineage
//! call. The three sweeps here gate the incremental replacements:
//!
//! * **7a** — interleaved ingest/query wall-clock vs batch size, the
//!   rebuild-every-batch [`SnapshotPolicy`] baseline against the
//!   delta-refresh default. Identical deterministic ingest stream and query
//!   schedule on both series (the `work` column carries the summed lineage
//!   result sizes as the cross-checkable fingerprint).
//! * **7b** — lineage latency by result-set size: the frozen seed lineage
//!   (`lineage_reference`) against what [`ProvDb::lineage`] executes
//!   (`compile_lineage` → `Plan::compile` → `evaluate` at 1 chunk), on start
//!   entities drawn at increasing creation-order percentiles of a frozen
//!   `Pd` graph (`work` = closure size).
//! * **7c** — session-open latency under repeated mutation: time *only* the
//!   snapshot acquisitions of a mutate → open loop, rebuild-always vs
//!   refresh, across preload sizes.
//!
//! All three run over cached `Pd` instances ([`PdCache`]) and are committed
//! as `BENCH_fig7.json` through [`crate::BenchReport`], gated in CI next to
//! fig5/fig6.

use crate::harness::{FigureResult, PdCache, PdInstance, Point, Scale, Series};
use prov_core::{
    compile_lineage, lineage_reference, ActivityRecord, LineageBound, LineageDirection, OutputSpec,
    ProvDb, SnapshotPolicy,
};
use prov_model::{VertexId, VertexKind};
use prov_store::{evaluate, Plan};
use prov_workload::{ActivityStream, PdParams, StreamParams};
use std::time::Instant;

/// Lineage queries issued after each ingested batch in the 7a interleave
/// (two unbounded closures + two depth-bounded walks, mixed directions).
const QUERIES_PER_BATCH: usize = 4;

/// Seed a live database with a frozen `Pd` graph plus its entity pool in
/// creation order (the stream's recency universe).
fn seeded_db(cache: &mut PdCache, n: usize, policy: SnapshotPolicy) -> (ProvDb, Vec<VertexId>) {
    let inst = cache.instance(&PdParams::with_size(n));
    let pool = inst.graph().vertices_of_kind(VertexKind::Entity).to_vec();
    let mut db = ProvDb::from_graph(inst.graph().clone());
    db.set_snapshot_policy(policy);
    (db, pool)
}

/// Drive one ingest→query interleave: `batches` rounds of `batch_size`
/// streamed activities followed by [`QUERIES_PER_BATCH`] lineage queries
/// (alternating direction, mixed bounded/unbounded) against deterministic
/// probe entities. Returns the summed lineage result sizes — identical
/// across policies by construction, so a divergence is visible in the
/// committed `work` column.
fn drive_interleave(
    db: &mut ProvDb,
    pool: &mut Vec<VertexId>,
    stream: &mut ActivityStream,
    batches: usize,
    batch_size: usize,
) -> u64 {
    let mut work = 0u64;
    for round in 0..batches {
        for record in stream.batch(pool.len(), batch_size) {
            let inputs: Vec<VertexId> =
                record.input_ranks.iter().map(|&r| pool[pool.len() - r]).collect();
            let outcome = db
                .record_activity(ActivityRecord {
                    command: record.command,
                    agent: None,
                    inputs,
                    // Prefixed so streamed artifacts never collide with the
                    // preloaded Pd graph's `artifactN-vM` names.
                    outputs: record
                        .outputs
                        .iter()
                        .map(|a| OutputSpec::named(&format!("s-{a}")))
                        .collect(),
                    props: vec![],
                })
                .expect("streamed ingest is valid");
            pool.extend(outcome.outputs);
        }
        for q in 0..QUERIES_PER_BATCH {
            // Deterministic probes over the middle of the pool: the typical
            // "where did this artifact come from" serving question (the
            // closure-size extremes are 7b's subject).
            let probe = pool[pool.len() * (3 + q) / 8 + round % 7];
            let (direction, result) = match q {
                0 => (LineageDirection::Ancestors, None),
                1 => (LineageDirection::Ancestors, Some(6)),
                2 => (LineageDirection::Descendants, None),
                _ => (LineageDirection::Descendants, Some(6)),
            };
            let result = match result {
                None => db.lineage(probe, direction),
                Some(hops) => db.lineage_within(probe, direction, hops),
            };
            work += result.len() as u64;
        }
    }
    work
}

/// Fig. 7(a): interleaved ingest/query runtime over a fixed activity stream,
/// sweeping how many ingest→query rounds the stream is split into (more
/// rounds = smaller batches = more snapshot acquisitions — the interactive
/// end of the serving spectrum) — the rebuild-every-batch baseline vs the
/// incremental refresh path on identical streams and query schedules.
pub fn fig7a(scale: Scale, cache: &mut PdCache) -> FigureResult {
    let (preload, total, round_counts): (usize, usize, &[usize]) = match scale {
        Scale::Quick => (10_000, 256, &[4, 16, 64]),
        Scale::Full => (10_000, 1_024, &[8, 32, 128]),
    };
    let policies: [(&str, SnapshotPolicy); 2] =
        [("Rebuild", SnapshotPolicy::rebuild_always()), ("Refresh", SnapshotPolicy::default())];
    let mut series: Vec<Series> = policies
        .iter()
        .map(|(name, _)| Series { name: name.to_string(), points: Vec::new() })
        .collect();
    for &rounds in round_counts {
        let batch_size = total / rounds;
        for ((_, policy), serie) in policies.iter().zip(series.iter_mut()) {
            let (mut db, mut pool) = seeded_db(cache, preload, *policy);
            let mut stream = ActivityStream::new(StreamParams::default(), preload * 4);
            let t0 = Instant::now();
            let work = drive_interleave(&mut db, &mut pool, &mut stream, rounds, batch_size);
            let secs = t0.elapsed().as_secs_f64();
            serie.points.push(Point { x: rounds as f64, y: Some(secs), work: Some(work) });
        }
    }
    FigureResult {
        id: "7a",
        title: format!(
            "Serving loop: {total} streamed activities split into x ingest→query rounds \
             ({QUERIES_PER_BATCH} lineage queries per round, Pd{preload} preload), \
             rebuild-every-batch vs incremental refresh"
        ),
        x_label: "rounds".into(),
        y_label: "runtime (s)".into(),
        series,
    }
}

/// Fig. 7(b): lineage latency by result-set size — frozen seed walk vs the
/// compiled query-IR path a lineage request runs, on one frozen snapshot.
pub fn fig7b(scale: Scale, cache: &mut PdCache) -> FigureResult {
    let (n, reps) = match scale {
        Scale::Quick => (5_000, 64),
        Scale::Full => (50_000, 16),
    };
    let inst = cache.instance(&PdParams::with_size(n));
    let entities = inst.graph().vertices_of_kind(VertexKind::Entity);
    let percentiles = [5.0, 25.0, 50.0, 75.0, 95.0];
    type LineageFn = fn(&PdInstance, VertexId, LineageDirection) -> Vec<VertexId>;
    let methods: [(&str, LineageFn); 2] = [
        ("Seed", |inst, v, dir| lineage_reference(inst.index(), v, dir)),
        ("QueryIR", |inst, v, dir| {
            // Lowering and plan compilation are inside the timed call, as
            // they are inside every `ProvDb::lineage`.
            let plan = Plan::compile(compile_lineage(v, dir, LineageBound::Unbounded))
                .expect("lineage pipelines always compile");
            evaluate(inst.graph(), inst.index(), &plan, 1)
                .expect("a fresh snapshot is never stale")
                .rows
        }),
    ];
    let mut series: Vec<Series> = methods
        .iter()
        .map(|(name, _)| Series { name: name.to_string(), points: Vec::new() })
        .collect();
    for &pct in &percentiles {
        let start = entities[((entities.len() - 1) as f64 * pct / 100.0) as usize];
        for ((_, eval), serie) in methods.iter().zip(series.iter_mut()) {
            // Best-of-3 batches of `reps` calls, like the `wl` trajectory.
            let mut best = f64::INFINITY;
            let mut size = 0u64;
            for _ in 0..3 {
                let t0 = Instant::now();
                for _ in 0..reps {
                    size = eval(&inst, start, LineageDirection::Ancestors).len() as u64;
                }
                best = best.min(t0.elapsed().as_secs_f64());
            }
            serie.points.push(Point { x: pct, y: Some(best), work: Some(size) });
        }
    }
    FigureResult {
        id: "7b",
        title: format!(
            "Lineage latency by result size: {reps} ancestor closures per call, start entity at \
             creation percentile (Pd{n})"
        ),
        x_label: "src percentile".into(),
        y_label: "runtime (s)".into(),
        series,
    }
}

/// Mutation rounds per 7c point.
const ROUNDS_7C: usize = 32;

/// Fig. 7(c): snapshot acquisition (session-open) latency under repeated
/// mutation — the cost a fresh session pays right after an ingest.
pub fn fig7c(scale: Scale, cache: &mut PdCache) -> FigureResult {
    let sizes: &[usize] = match scale {
        Scale::Quick => &[500, 2_000, 5_000],
        Scale::Full => &[1_000, 10_000, 50_000],
    };
    let policies: [(&str, SnapshotPolicy); 2] =
        [("Rebuild", SnapshotPolicy::rebuild_always()), ("Refresh", SnapshotPolicy::default())];
    let mut series: Vec<Series> = policies
        .iter()
        .map(|(name, _)| Series { name: name.to_string(), points: Vec::new() })
        .collect();
    for &n in sizes {
        for ((_, policy), serie) in policies.iter().zip(series.iter_mut()) {
            let (mut db, pool) = seeded_db(cache, n, *policy);
            let newest = *pool.last().expect("Pd graphs have entities");
            let mut acquisitions = 0.0f64;
            for round in 0..ROUNDS_7C {
                db.record_activity(ActivityRecord {
                    command: format!("mutate{round}"),
                    agent: None,
                    inputs: vec![newest],
                    outputs: vec![OutputSpec::named("s-open")],
                    props: vec![],
                })
                .expect("valid ingest");
                let t0 = Instant::now();
                let snapshot = db.snapshot();
                acquisitions += t0.elapsed().as_secs_f64();
                // Dropped before the next round: the serving slot stays the
                // sole owner, so the refresh path can extend in place.
                drop(snapshot);
            }
            serie.points.push(Point {
                x: n as f64,
                y: Some(acquisitions),
                work: Some(ROUNDS_7C as u64),
            });
        }
    }
    FigureResult {
        id: "7c",
        title: format!(
            "Session-open latency under mutation: {ROUNDS_7C} ingest+snapshot rounds, \
             acquisition time only"
        ),
        x_label: "N".into(),
        y_label: "runtime (s)".into(),
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleave_work_is_policy_invariant() {
        // The committed `work` fingerprint only means something if both
        // policies really replay the same stream and queries.
        let mut cache = PdCache::new();
        let (mut rebuild_db, mut pool_a) =
            seeded_db(&mut cache, 500, SnapshotPolicy::rebuild_always());
        let (mut refresh_db, mut pool_b) = seeded_db(&mut cache, 500, SnapshotPolicy::default());
        let mut stream_a = ActivityStream::new(StreamParams::default(), 4_000);
        let mut stream_b = ActivityStream::new(StreamParams::default(), 4_000);
        let work_a = drive_interleave(&mut rebuild_db, &mut pool_a, &mut stream_a, 3, 5);
        let work_b = drive_interleave(&mut refresh_db, &mut pool_b, &mut stream_b, 3, 5);
        assert_eq!(work_a, work_b, "policies must not change observable answers");
        assert!(work_a > 0, "queries should reach some lineage");
        // The policies really differ in how they served the loop.
        assert_eq!(rebuild_db.snapshot_counters().refreshes, 0);
        assert!(refresh_db.snapshot_counters().refreshes > 0);
        assert!(refresh_db.snapshot_counters().rebuilds < rebuild_db.snapshot_counters().rebuilds);
    }

    #[test]
    fn fig7_sweeps_have_expected_shapes() {
        // Tiny smoke via the quick paths of 7b/7c on a small shared cache;
        // shapes only (the committed trajectory runs in release).
        let mut cache = PdCache::new();
        let fig = fig7c(Scale::Quick, &mut cache);
        assert_eq!(fig.id, "7c");
        assert_eq!(fig.series.len(), 2);
        for s in &fig.series {
            assert_eq!(s.points.len(), 3);
            assert!(s.points.iter().all(|p| p.y.is_some() && p.work.is_some()));
        }
        let fig = fig7b(Scale::Quick, &mut cache);
        assert_eq!(fig.series.len(), 2);
        // Both lineage engines must report identical closure sizes.
        for (a, b) in fig.series[0].points.iter().zip(fig.series[1].points.iter()) {
            assert_eq!(a.work, b.work, "engines disagreed on closure size");
        }
        // Result size grows with the start percentile (descendants shrink,
        // ancestors grow).
        let works: Vec<u64> = fig.series[1].points.iter().map(|p| p.work.unwrap()).collect();
        assert!(works.last().unwrap() > works.first().unwrap(), "{works:?}");
    }
}
