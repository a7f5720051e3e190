//! The lazy-decode benchmark (`10b`, ISSUE 10): cold start, eager vs lazy
//! snapshot decode.
//!
//! Freeze a fully compacted, property-heavy disk, then time `open → serving
//! snapshot` under both [`prov_store::storage::SnapshotDecode`] modes. Lazy
//! decode materializes only the structural columns (interner, vertices,
//! edges, index declarations) and leaves the property columns on disk behind
//! the `ColumnSource`, so its cold start must beat the full decode; `work`
//! carries the recovered vertex count as the cross-checkable equality
//! fingerprint.
//!
//! The committed trajectory (`BENCH_fig10.json`) gates it the same way as
//! fig5, fig6 and fig8: a >2× slowdown of any point against its committed
//! baseline fails CI.

use crate::harness::{FigureResult, Point, Scale, Series};
use prov_core::{ActivityRecord, DurabilityPolicy, OutputSpec, ProvDb};
use prov_model::VertexId;
use prov_store::storage::MemIo;
use prov_workload::{ActivityStream, StreamParams};
use std::time::Instant;

/// Root artifacts seeded before the stream (its recency universe floor).
const ROOTS: usize = 8;

/// Drive `acts` deterministic streamed activities into `db`, one committed
/// batch per activity, attaching properties to every activity and output so
/// the snapshot's property columns carry real weight (what 10b defers).
fn ingest_props(db: &mut ProvDb, acts: usize) {
    let mut pool: Vec<VertexId> = (0..ROOTS)
        .map(|r| db.add_artifact_version(&format!("root-{r}"), None).expect("fresh root"))
        .collect();
    let mut stream = ActivityStream::new(StreamParams::default(), ROOTS + acts * 2);
    for (i, record) in stream.batch(pool.len(), acts).into_iter().enumerate() {
        let inputs: Vec<VertexId> =
            record.input_ranks.iter().map(|&r| pool[pool.len() - r]).collect();
        let outcome = db
            .record_activity(ActivityRecord {
                command: record.command,
                agent: None,
                inputs,
                outputs: record
                    .outputs
                    .iter()
                    .map(|a| {
                        OutputSpec::named(a)
                            .with("step", i as i64)
                            .with("tool", format!("stage-{}", i % 7))
                    })
                    .collect(),
                props: vec![("seq".into(), (i as i64).into()), ("host".into(), "bench".into())],
            })
            .expect("streamed ingest is valid");
        pool.extend(outcome.outputs);
    }
}

/// A fully compacted, property-heavy frozen disk: every batch folded into
/// one segmented snapshot, empty WAL tail. The database is dropped — cold
/// start means nothing is warm.
fn frozen_compacted_disk(acts: usize) -> MemIo {
    let disk = MemIo::new();
    let mut db = ProvDb::open_with_io(Box::new(disk.clone()), DurabilityPolicy::never_compact())
        .expect("fresh disk opens");
    ingest_props(&mut db, acts);
    assert!(db.compact().expect("durable db compacts"), "bench disk must compact");
    drop(db);
    disk
}

/// Time one cold start from `disk` under `policy`: open (decode snapshot,
/// replay the empty tail, build the index) and acquire the serving snapshot
/// — without touching any property column. Returns (seconds, vertex count).
fn time_open(disk: &MemIo, policy: &DurabilityPolicy) -> (f64, u64) {
    let t0 = Instant::now();
    let db = ProvDb::open_with_io(Box::new(disk.clone()), policy.clone())
        .expect("committed state recovers");
    let snapshot = db.snapshot();
    let secs = t0.elapsed().as_secs_f64();
    drop(snapshot);
    (secs, db.graph().vertex_count() as u64)
}

/// The lazy-decode cold-start figure: eager full decode vs structural-only
/// lazy decode of the same frozen snapshot.
pub fn fig10b(scale: Scale) -> FigureResult {
    let sizes: &[usize] = match scale {
        Scale::Quick => &[500, 2_000, 5_000],
        Scale::Full => &[2_000, 10_000, 50_000],
    };
    let eager = DurabilityPolicy::never_compact();
    let lazy = DurabilityPolicy::never_compact().with_lazy_decode();
    let mut series = [
        Series { name: "EagerDecode".into(), points: Vec::new() },
        Series { name: "LazyDecode".into(), points: Vec::new() },
    ];
    for &acts in sizes {
        let disk = frozen_compacted_disk(acts);
        let mut best = [f64::INFINITY; 2];
        let mut work = [0u64; 2];
        for _ in 0..3 {
            let runs = [time_open(&disk, &eager), time_open(&disk, &lazy)];
            for (i, (secs, w)) in runs.into_iter().enumerate() {
                best[i] = best[i].min(secs);
                work[i] = w;
            }
        }
        for i in 0..2 {
            series[i].points.push(Point { x: acts as f64, y: Some(best[i]), work: Some(work[i]) });
        }
    }
    FigureResult {
        id: "10b",
        title: "Cold start to serving state from a fully compacted property-heavy snapshot: \
                eager full decode vs lazy structural-only decode (property columns stay on \
                disk until first touch)"
            .into(),
        x_label: "activities".into(),
        y_label: "runtime (s)".into(),
        series: series.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eager_and_lazy_cold_starts_recover_the_identical_state() {
        let disk = frozen_compacted_disk(48);
        let eager = ProvDb::open_with_io(Box::new(disk.clone()), DurabilityPolicy::never_compact())
            .unwrap();
        let lazy = ProvDb::open_with_io(
            Box::new(disk.clone()),
            DurabilityPolicy::never_compact().with_lazy_decode(),
        )
        .unwrap();
        // Lazy really deferred its property columns at open...
        let c = lazy.durability_counters().unwrap();
        assert_eq!(c.lazy_segments_deferred, 2);
        assert_eq!(c.lazy_segment_loads, 0);
        assert!(c.lazy_deferred_bytes > 0, "property-heavy disk must defer real bytes");
        // ...and still serves the byte-identical graph once touched.
        assert_eq!(eager.graph(), lazy.graph());
        assert_eq!(*eager.snapshot(), *lazy.snapshot());
        assert_eq!(lazy.durability_counters().unwrap().lazy_segment_loads, 2);
    }
}
