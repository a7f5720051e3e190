//! Multi-threaded serving smoke test (ISSUE 5 satellite): N reader threads
//! hammer lineage and segment queries while a writer ingests batches through
//! `record_activity` and `with_graph_mut`. Asserts:
//!
//! * pinned sessions stay byte-stable on the snapshot they opened against,
//!   across every concurrent mutation;
//! * no refresh ever produces a torn index: after every batch the writer
//!   differentials the served snapshot against a full `ProvIndex::build` of
//!   the current graph;
//! * readers always see internally consistent snapshots (every lineage
//!   answer is sorted, in-bounds for the snapshot it was computed on, and
//!   equal to the definitional oracle over the graph it was frozen from).
//!
//! `ProvDb` mutation takes `&mut self`, so the database sits behind an
//! `RwLock` — but queries deliberately clone out `SharedIndex` handles and
//! run *outside* the lock, which is exactly the torn-read surface the test
//! is after.

mod common;

use common::{compiled_lineage, lineage_oracle};
use prov_core::{ActivityRecord, LineageBound, LineageDirection, OutputSpec, ProvDb};
use prov_model::EdgeKind;
use prov_segment::{PgSegOptions, PgSegQuery};
use prov_store::ProvIndex;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

const READERS: usize = 4;
const BATCHES: usize = 12;
const BATCH_SIZE: usize = 8;

#[test]
fn readers_and_writer_interleave_without_torn_snapshots() {
    let mut db = ProvDb::new();
    let agent = db.add_agent("smoke").unwrap();
    let seed = db.add_artifact_version("dataset", Some(agent)).unwrap();
    // Enough prefix that per-batch deltas take the refresh path.
    for i in 0..20 {
        db.record_activity(ActivityRecord {
            command: format!("prep{i}"),
            agent: Some(agent),
            inputs: vec![seed],
            outputs: vec![OutputSpec::named("prep")],
            props: vec![],
        })
        .unwrap();
    }
    // A session pinned before any concurrent mutation: its snapshot and
    // segment must stay frozen for the whole run.
    let session = db
        .segment_session(
            PgSegQuery::between(vec![seed], vec![db.latest_version("prep").unwrap()]),
            &PgSegOptions::default(),
        )
        .unwrap();
    let pinned_vertices = session.index().vertex_count();
    let pinned_segment = session.segment().vertex_count();

    let db = Arc::new(RwLock::new(db));
    let stop = Arc::new(AtomicBool::new(false));
    let progress: Arc<Vec<AtomicUsize>> =
        Arc::new((0..READERS).map(|_| AtomicUsize::new(0)).collect());

    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let db = Arc::clone(&db);
            let stop = Arc::clone(&stop);
            let progress = Arc::clone(&progress);
            // lint-ok(thread-spawn): smoke test deliberately drives the store from raw OS threads.
            std::thread::spawn(move || {
                let mut queries = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    // Clone the snapshot and graph handles out, release the
                    // lock, then query — the reader must be safe on handles
                    // the writer has since superseded (it copy-on-writes the
                    // graph while a reader still holds the old one).
                    let (snapshot, graph) = {
                        let guard = db.read().expect("reader lock");
                        (guard.snapshot(), guard.graph_shared())
                    };
                    let lineage = |bound| {
                        let dir = LineageDirection::Descendants;
                        let rows = compiled_lineage(&graph, &snapshot, seed, dir, bound, 1);
                        assert_eq!(
                            rows,
                            lineage_oracle(&graph, seed, dir, bound),
                            "reader {r}: {bound:?} diverged from the oracle"
                        );
                        rows
                    };
                    for hops in [2, 6] {
                        let within = lineage(LineageBound::Within(hops));
                        assert!(
                            within.windows(2).all(|w| w[0] < w[1]),
                            "reader {r}: unsorted lineage"
                        );
                        assert!(
                            within.iter().all(|v| v.index() < snapshot.vertex_count()),
                            "reader {r}: lineage escaped its snapshot"
                        );
                    }
                    let closure = lineage(LineageBound::Unbounded);
                    // Every traversed edge endpoint is typed sanely — a torn
                    // CSR would trip the kind check or the bounds above.
                    for &v in closure.iter().take(32) {
                        let _ = snapshot.kind(v);
                    }
                    queries += 1;
                    progress[r].fetch_add(1, Ordering::Relaxed);
                }
                queries
            })
        })
        .collect();

    // Writer: ingest batches, alternating the facade path and the raw
    // `with_graph_mut` path, and differential-check the served snapshot
    // against a full rebuild after every batch.
    for batch in 0..BATCHES {
        {
            let mut guard = db.write().expect("writer lock");
            for i in 0..BATCH_SIZE {
                if (batch + i) % 3 == 0 {
                    guard
                        .with_graph_mut(|g| {
                            let t = g.add_activity(&format!("bulk{batch}-{i}"));
                            let w = g.add_entity(&format!("bulk-out{batch}-{i}"));
                            g.add_edge(EdgeKind::Used, t, seed)?;
                            g.add_edge(EdgeKind::WasGeneratedBy, w, t)?;
                            Ok::<_, prov_store::StoreError>(())
                        })
                        .unwrap();
                } else {
                    guard
                        .record_activity(ActivityRecord {
                            command: format!("train{batch}-{i}"),
                            agent: Some(agent),
                            inputs: vec![seed],
                            outputs: vec![OutputSpec::named("weights")],
                            props: vec![],
                        })
                        .unwrap();
                }
            }
        }
        // Differential: whatever path served this batch's snapshot (refresh
        // in place, refresh on copy, rebuild), it must equal the reference.
        let guard = db.read().expect("verify lock");
        let served = guard.snapshot();
        assert_eq!(
            *served,
            ProvIndex::build(guard.graph()),
            "batch {batch}: served snapshot diverged from the reference build"
        );
    }
    // Keep serving until every reader has landed at least one query against
    // the fully-ingested store, then wind down. A reader that died (its
    // assertion tripped) ends the wait too — the join below surfaces its
    // panic instead of this loop spinning until the CI timeout.
    while progress.iter().any(|p| p.load(Ordering::Relaxed) == 0)
        && !readers.iter().any(|h| h.is_finished())
    {
        std::thread::yield_now();
    }
    stop.store(true, Ordering::Relaxed);
    for handle in readers {
        let queries = handle.join().expect("reader thread panicked");
        assert!(queries > 0, "a reader never got a query in");
    }

    // The pinned session never moved.
    assert_eq!(session.index().vertex_count(), pinned_vertices);
    assert_eq!(session.segment().vertex_count(), pinned_segment);
    let guard = db.read().unwrap();
    assert!(guard.graph().vertex_count() > pinned_vertices);
    // The serving loop actually exercised the incremental path.
    let counters = guard.snapshot_counters();
    assert!(counters.refreshes > 0, "no refresh happened: {counters:?}");
    assert!(counters.reuses > 0, "readers never reused: {counters:?}");
}
