//! Cross-crate concurrency suite for the vendored work-stealing executor and
//! the one parallel path layered on it (the query IR's chunked `Traverse`).
//!
//! Three layers, bottom to top:
//!
//! 1. the [`StealDeque`] itself under adversarial producer/stealer traffic —
//!    every task pushed is observed exactly once, no loss, no duplication;
//! 2. the pool's structured scopes under sustained nested load at several
//!    widths — spawn accounting never drifts;
//! 3. the public wire: a [`ProvService`] answering the same lineage and
//!    query requests must produce **byte-identical** JSON at every
//!    parallelism setting. The response order contract (sorted ascending,
//!    start excluded) is what makes the chunked frontier swappable for the
//!    inline step without clients noticing; this test is the regression net
//!    for that promise.
//!
//! The CI ThreadSanitizer lane runs this file with `-Zsanitizer=thread`, so
//! the stress tests double as race detectors for the shim.

use prov::api::{
    EntityRef, ExportRequest, ImportRequest, LineageDir, LineageRequest, ManualClock, ProvService,
    QueryRequest, QuerySpec, Request, Response,
};
use prov::core_api::ProvDb;
use prov::model::{EdgeKind, VertexKind};
use prov::store::{Direction, Pipeline};
use prov::workload::{generate_pd, sources_at_percentile, PdParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon_core::{StealDeque, ThreadPool};
use std::sync::atomic::{AtomicUsize, Ordering};

// ---------------------------------------------------------------------------
// Layer 1: the deque
// ---------------------------------------------------------------------------

/// N producers push tagged tasks while popping some of their own work back
/// (the owner LIFO path) and M stealers drain the FIFO end with randomized
/// yields shaking the interleavings. When the dust settles, the union of
/// everything observed must be exactly the set of tasks pushed.
#[test]
fn steal_deque_observes_every_task_exactly_once() {
    const PRODUCERS: usize = 4;
    const STEALERS: usize = 4;
    const PER_PRODUCER: usize = 2_000;

    let deque: StealDeque<u64> = StealDeque::new();
    let live_producers = AtomicUsize::new(PRODUCERS);

    let mut observed: Vec<Vec<u64>> = Vec::new();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let deque = &deque;
            let live = &live_producers;
            handles.push(s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(p as u64);
                let mut taken = Vec::new();
                for i in 0..PER_PRODUCER {
                    deque.push((p * PER_PRODUCER + i) as u64);
                    // Owners interleave LIFO pops with their pushes, like a
                    // worker draining its own queue between spawns.
                    if rng.gen_bool(0.25) {
                        if let Some(v) = deque.pop() {
                            taken.push(v);
                        }
                    }
                    if rng.gen_bool(0.05) {
                        std::thread::yield_now();
                    }
                }
                live.fetch_sub(1, Ordering::Release);
                taken
            }));
        }
        for t in 0..STEALERS {
            let deque = &deque;
            let live = &live_producers;
            handles.push(s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(1_000 + t as u64);
                let mut taken = Vec::new();
                loop {
                    match deque.steal() {
                        Some(v) => taken.push(v),
                        // Only safe to exit once no producer can push again
                        // AND the deque is drained; any task still in flight
                        // is already owned by some other thread's `taken`.
                        None if live.load(Ordering::Acquire) == 0 && deque.is_empty() => break,
                        None => std::thread::yield_now(),
                    }
                    if rng.gen_bool(0.1) {
                        std::thread::yield_now();
                    }
                }
                taken
            }));
        }
        for h in handles {
            observed.push(h.join().expect("no worker panics"));
        }
    });

    let mut all: Vec<u64> = observed.into_iter().flatten().collect();
    all.sort_unstable();
    let expected: Vec<u64> = (0..(PRODUCERS * PER_PRODUCER) as u64).collect();
    assert_eq!(all, expected, "every pushed task observed exactly once");
}

// ---------------------------------------------------------------------------
// Layer 2: the pool
// ---------------------------------------------------------------------------

/// Repeated scopes with nested child scopes at several pool widths — the
/// help-while-waiting discipline must neither deadlock (width 1 is the
/// pathological case) nor lose a single spawn.
#[test]
fn nested_scope_stress_accounts_for_every_spawn() {
    const OUTER: usize = 32;
    const INNER: usize = 8;
    for width in [1, 2, 4, 8] {
        let pool = ThreadPool::new(width);
        for round in 0..4 {
            let hits = AtomicUsize::new(0);
            pool.scope(|s| {
                for _ in 0..OUTER {
                    s.spawn(|| {
                        pool.scope(|inner| {
                            for _ in 0..INNER {
                                inner.spawn(|| {
                                    hits.fetch_add(1, Ordering::Relaxed);
                                });
                            }
                        });
                        hits.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            assert_eq!(
                hits.load(Ordering::Relaxed),
                OUTER * (INNER + 1),
                "width {width} round {round}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Layer 3: the wire
// ---------------------------------------------------------------------------

/// The wire contract under parallelism: one frozen `Pd` graph, the same
/// requests, services pinned at 1/2/4/8-chunk parallelism — every serialized
/// response must match byte for byte. The injected [`ManualClock`] freezes
/// the latency stamps so the comparison really covers the whole response,
/// envelope included.
///
/// The single-source lineage frontiers stay far below the evaluator's
/// production fan-out threshold (1,024), so on their own they would compare
/// the inline step with itself. The last request starts from *every* entity,
/// and the test asserts its frontier is wide enough to fan out.
#[test]
fn wire_output_is_byte_identical_across_thread_counts() {
    let graph = generate_pd(&PdParams::with_size(4_000));
    let late = sources_at_percentile(&graph, 95.0, 1)[0];
    let early = sources_at_percentile(&graph, 5.0, 1)[0];

    // Freeze the graph into the interchange document once; every service
    // under test imports the identical bytes.
    let doc = {
        let mut exporter = ProvService::from_db(ProvDb::from_graph(graph));
        match exporter.handle(&Request::Export(ExportRequest {})) {
            Response::Document(d) => d.json,
            other => panic!("export failed: {other:?}"),
        }
    };

    let requests: Vec<String> = [
        Request::Lineage(LineageRequest {
            entity: EntityRef::Id(late),
            direction: LineageDir::Ancestors,
            max_hops: None,
        }),
        Request::Lineage(LineageRequest {
            entity: EntityRef::Id(early),
            direction: LineageDir::Descendants,
            max_hops: None,
        }),
        Request::Lineage(LineageRequest {
            entity: EntityRef::Id(late),
            direction: LineageDir::Ancestors,
            max_hops: Some(6),
        }),
        Request::Query(QueryRequest {
            query: QuerySpec::Pipeline(Pipeline::from_kind(VertexKind::Entity).traverse(
                &[(EdgeKind::WasGeneratedBy, Direction::Out), (EdgeKind::Used, Direction::Out)],
                1,
                1,
            )),
            session: None,
            page_size: None,
            cursor: None,
            max_expansions: None,
            max_paths: None,
        }),
    ]
    .iter()
    .map(|r| serde_json::to_string(r).expect("requests serialize"))
    .collect();

    let mut transcripts: Vec<(usize, Vec<String>)> = Vec::new();
    for threads in [1, 2, 4, 8] {
        let mut service = ProvService::with_clock(Box::new(ManualClock::new()));
        service.set_parallelism(threads);
        assert_eq!(service.parallelism(), threads);
        let imported = service.handle(&Request::Import(ImportRequest { json: doc.clone() }));
        assert!(!imported.is_error(), "import at parallelism {threads}");
        let transcript: Vec<String> = requests.iter().map(|r| service.handle_json(r)).collect();
        transcripts.push((threads, transcript));
    }

    let (_, reference) = &transcripts[0];
    // The sequential engine must have produced real closures — a vacuously
    // empty transcript would make the cross-width comparison meaningless.
    for response in &reference[..3] {
        assert!(response.contains("\"Lineage\""), "unexpected response: {response}");
    }
    assert!(reference[0].len() > 100, "full ancestor closure should be non-trivial");
    match serde_json::from_str::<Response>(&reference[3]).expect("responses deserialize") {
        Response::Query(q) => {
            assert!(!q.rows.is_empty(), "entities have generating activities");
            assert!(
                q.stats.query.frontier_peak >= 1024,
                "frontier of {} never reaches the fan-out threshold: the identity below would \
                 compare the inline step with itself",
                q.stats.query.frontier_peak
            );
        }
        other => panic!("expected a query response, got {other:?}"),
    }

    for (threads, transcript) in &transcripts[1..] {
        assert_eq!(transcript, reference, "wire output diverged at parallelism {threads}");
    }
}
