//! Running one workload: set-up, the measured request loop, the traced
//! variant with per-layer replays, and the in-run correctness checks.
//!
//! The loop is **closed, one client, zero think time, one process**:
//! `ProvService::handle` takes `&mut self`, so a request is sent only after
//! the previous one returned. Every service runs with `set_parallelism(1)`
//! and the default `DurabilityPolicy` / `SnapshotPolicy`.
//!
//! A request's latency is the time inside `ProvService::handle_json`:
//! requests are serialized before the clock starts and responses are parsed
//! after it stops.
//!
//! One run is a sequence of **repetitions** of the same seeded program, each
//! on a freshly set-up store. A repetition does a fixed amount of work, so
//! its counts and its response digest repeat exactly; repetitions are added
//! until the run's time budget is used. End-to-end metrics pool the samples
//! of the untraced repetitions; per-layer metrics come from traced ones.

use crate::io::{CountingIo, IoCounts, IoProbe};
use crate::program::{generate, Class, Program, Scale, Step, Store, Workload, STREAM};
use crate::stats::Digest;
use crate::trace::{Cause, SpanLog};
use prov_api::{EntityRef, LineageDir, ProvService, QueryRequest, QuerySpec, Request, Response};
use prov_core::{ActivityRecord, DurabilityPolicy, LineageDirection, OutputSpec, ProvDb};
use prov_model::{EdgeKind, VertexId, VertexKind};
use prov_segment::PgSegQuery;
use prov_store::hash::FxHashSet;
use prov_store::storage::{Io, MemIo, StdIo};
use prov_store::{Plan, ProvGraph};
use prov_summary::{PgSumQuery, PropertyAggregation, SegmentRef};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Operation counts of one repetition.
    pub scale: Scale,
    /// Time budget of the measured phases, seconds: repetitions are added
    /// until their measured phases have used it.
    pub seconds: f64,
    /// Run the traced variant: untraced and traced repetitions alternate
    /// until the budget is used.
    pub trace: bool,
    /// Where the span log and the real-disk probe may write.
    pub out_dir: PathBuf,
}

/// Exact counts of one repetition's measured phase. Identical in every
/// repetition of a seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Requests sent.
    pub requests: u64,
    /// Requests that failed: `Response::Error`, unparsable response, or a
    /// wrong answer against the lineage oracle.
    pub failed: u64,
    /// Acknowledged `RecordActivity` writes.
    pub writes: u64,
    /// Disk-side counts.
    pub io: IoCounts,
    /// Compactions (snapshot images written).
    pub compactions: u64,
    /// Snapshot acquisitions served by reuse / refresh / rebuild.
    pub snapshot: (u64, u64, u64),
    /// Σ `Stats.query.rows_scanned` over query pages.
    pub rows_scanned: u64,
    /// Σ rows returned by query pages.
    pub rows_returned: u64,
    /// Query pages served.
    pub pages: u64,
    /// Paginated walks run to exhaustion.
    pub walks: u64,
    /// Σ request bytes.
    pub req_bytes: u64,
    /// Σ response bytes.
    pub resp_bytes: u64,
    /// Σ vertices of one-shot segments.
    pub segment_vertices: u64,
    /// One-shot segments.
    pub segments: u64,
    /// Σ summary-graph vertices.
    pub psg_vertices: u64,
    /// Σ input segment vertices of summaries.
    pub psg_inputs: u64,
    /// Lineage answers compared with the oracle.
    pub lineage_checked: u64,
}

/// Layer timings of one traced repetition, nanoseconds, one entry per
/// request of the relevant class.
#[derive(Debug, Default)]
pub struct LayerTimes {
    /// `serde_json::from_str::<Request>`, every request.
    pub decode: Vec<u64>,
    /// `ProvService::handle`, every request.
    pub handle: Vec<u64>,
    /// `serde_json::to_string(&Response)`, every request.
    pub encode: Vec<u64>,
    /// decode + handle + encode, per class.
    pub class_total: [Vec<u64>; Class::COUNT],
    /// `handle` of OpenSession / Expand / Restrict.
    pub session: Vec<u64>,
    /// `handle` minus the kernel replay, Segment / Summarize.
    pub dto: Vec<u64>,
    /// `ProvDb::snapshot()` right after a write (`mixed` only).
    pub refresh: Vec<u64>,
    /// `ProvDb::record_activity` on the in-memory shadow twin.
    pub record: Vec<u64>,
    /// `ProvDb::lineage` / `lineage_within` replay.
    pub lineage: Vec<u64>,
    /// `Plan::compile` replay.
    pub compile: Vec<u64>,
    /// `evaluate_at` replay.
    pub eval: Vec<u64>,
    /// Time inside `Io::append`, per write.
    pub append: Vec<u64>,
    /// Time inside `Io::sync`, per write.
    pub sync: Vec<u64>,
    /// Time inside `Io::write` / `rename` / `remove`, per compaction.
    pub snapshot_write: Vec<u64>,
    /// `handle` − shadow record − disk time, per write.
    pub commit_self: Vec<u64>,
    /// `ProvDb::segment` replay.
    pub segment_kernel: Vec<u64>,
    /// `prov_summary::pgsum` replay.
    pub summary_kernel: Vec<u64>,
    /// append + fsync of a captured commit payload on the real disk.
    pub stdio_sync: Vec<u64>,
    /// Σ (decode + handle + encode), plus the displaced refreshes.
    pub request_ns: u64,
}

/// One repetition.
#[derive(Debug)]
pub struct Rep {
    /// Start of the repetition to the first timed request.
    pub setup_s: f64,
    /// Generating stores and the request program.
    pub generate_s: f64,
    /// Preloading the stream store through `RecordActivity`.
    pub preload_s: f64,
    /// `ProvDb::open_with_io` on the preloaded disk.
    pub recover_s: f64,
    /// Wall time of the measured phase (latency + parsing + checks).
    pub measured_s: f64,
    /// Latency samples per class, nanoseconds, ascending.
    pub samples: [Vec<u64>; Class::COUNT],
    /// Σ latency, nanoseconds.
    pub latency_ns: u64,
    /// Σ latency of compaction-stalled writes, nanoseconds.
    pub stall_ns: u64,
    /// Exact counts.
    pub counts: Counts,
    /// Digest of every response's semantic content.
    pub digest: u64,
    /// Layer timings (traced repetitions only).
    pub layers: Option<LayerTimes>,
    /// What went wrong, if anything (first few messages).
    pub errors: Vec<String>,
}

/// Everything a run produced.
#[derive(Debug)]
pub struct Run {
    /// The configuration it ran under.
    pub config: RunConfig,
    /// Untraced repetitions (in traced mode: the overhead references).
    pub plain: Vec<Rep>,
    /// Traced repetitions (empty in untraced mode).
    pub traced: Vec<Rep>,
    /// `VmHWM` after the untraced repetitions, MiB.
    pub peak_rss_mib: f64,
    /// Failed checks (empty = the run is correct).
    pub errors: Vec<String>,
}

/// Untraced repetitions run at least this many times whatever the budget:
/// the tails need their ten samples beyond, the digest its cross-check.
pub const MIN_REPS: usize = 3;

const MAX_ERRORS: usize = 8;

fn note(errors: &mut Vec<String>, message: String) {
    if errors.len() < MAX_ERRORS {
        errors.push(message);
    }
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

struct Stage {
    program: Program,
    /// Indexed by [`Store`]: the stream store, or `explore`'s graphs.
    services: Vec<ProvService>,
    /// The stream store's disk (shared handle) and its probe.
    disk: Option<(MemIo, IoProbe)>,
    generate_s: f64,
    preload_s: f64,
    recover_s: f64,
    setup_s: f64,
}

/// Snapshot acquisitions so far, summed over the stage's stores:
/// (reuses, refreshes, rebuilds).
fn snapshot_totals(stage: &Stage) -> (u64, u64, u64) {
    stage.services.iter().fold((0, 0, 0), |acc, svc| {
        let c = svc.db().snapshot_counters();
        (acc.0 + c.reuses, acc.1 + c.refreshes, acc.2 + c.rebuilds)
    })
}

fn serving(db: ProvDb) -> ProvService {
    let mut svc = ProvService::from_db(db);
    // The committed thread sweeps show the parallel twins slower on a
    // two-core host; thread scaling is its own experiment.
    svc.set_parallelism(1);
    svc
}

fn open_counted(disk: &MemIo, probe: &IoProbe) -> Result<ProvDb, String> {
    let io = CountingIo::new(Box::new(disk.clone()), probe.clone());
    ProvDb::open_with_io(Box::new(io), DurabilityPolicy::default()).map_err(|e| e.to_string())
}

fn set_up(cfg: &RunConfig) -> Result<Stage, String> {
    let start = Instant::now();
    let program = generate(cfg.workload, cfg.seed, &cfg.scale);
    let generate_s = start.elapsed().as_secs_f64();
    let mut stage = Stage {
        program,
        services: Vec::new(),
        disk: None,
        generate_s,
        preload_s: 0.0,
        recover_s: 0.0,
        setup_s: 0.0,
    };
    if !stage.program.graphs.is_empty() {
        let graphs = std::mem::take(&mut stage.program.graphs);
        stage.services = graphs.into_iter().map(|g| serving(ProvDb::from_graph(g))).collect();
    } else {
        let (disk, probe) = (MemIo::new(), IoProbe::new());
        let preload = Instant::now();
        {
            let mut svc = serving(open_counted(&disk, &probe)?);
            for json in &stage.program.preload {
                let out = svc.handle_json(json);
                if !out.starts_with("{\"Activity\"") {
                    return Err(format!("preload rejected: {out}"));
                }
            }
        }
        stage.preload_s = preload.elapsed().as_secs_f64();
        // Dropped and recovered: the measured phase starts from snapshot +
        // WAL tail, the state a restarted server would be in.
        let recover = Instant::now();
        let db = open_counted(&disk, &probe)?;
        stage.recover_s = recover.elapsed().as_secs_f64();
        stage.services.push(serving(db));
        stage.disk = Some((disk, probe));
    }
    for svc in &stage.services {
        let _ = svc.db().snapshot();
    }
    stage.setup_s = start.elapsed().as_secs_f64();
    Ok(stage)
}

/// Lower a wire record onto the library record, as the service does.
fn activity_record(
    graph: &ProvGraph,
    r: &prov_api::RecordActivityRequest,
) -> Result<ActivityRecord, String> {
    let resolve = |e: &EntityRef| e.resolve(graph).map_err(|e| e.to_string());
    Ok(ActivityRecord {
        command: r.command.clone(),
        agent: r.agent.as_ref().map(resolve).transpose()?,
        inputs: r.inputs.iter().map(resolve).collect::<Result<_, _>>()?,
        outputs: r
            .outputs
            .iter()
            .map(|o| OutputSpec { artifact: o.artifact.clone(), props: o.props.clone() })
            .collect(),
        props: r.props.clone(),
    })
}

// ---------------------------------------------------------------------------
// Accounting (after the clock has stopped)
// ---------------------------------------------------------------------------

/// The definitional lineage: a visited-set BFS over the mutable graph's
/// adjacency, one ancestry hop per level.
fn lineage_oracle(
    graph: &ProvGraph,
    start: VertexId,
    direction: LineageDir,
    max_hops: Option<u32>,
) -> Vec<VertexId> {
    let ancestry = |k: EdgeKind| matches!(k, EdgeKind::Used | EdgeKind::WasGeneratedBy);
    let mut seen: FxHashSet<VertexId> = FxHashSet::default();
    seen.insert(start);
    let mut frontier = vec![start];
    let mut depth = 0u32;
    while !frontier.is_empty() && max_hops.is_none_or(|m| depth < m) {
        let mut next = Vec::new();
        for v in frontier {
            let step: Vec<VertexId> = match direction {
                LineageDir::Ancestors => graph
                    .out_edges(v)
                    .filter(|(_, e)| ancestry(e.kind))
                    .map(|(_, e)| e.dst)
                    .collect(),
                LineageDir::Descendants => graph
                    .in_edges(v)
                    .filter(|(_, e)| ancestry(e.kind))
                    .map(|(_, e)| e.src)
                    .collect(),
            };
            next.extend(step.into_iter().filter(|&n| seen.insert(n)));
        }
        frontier = next;
        depth += 1;
    }
    seen.remove(&start);
    let mut out: Vec<VertexId> = seen.into_iter().collect();
    out.sort_unstable();
    out
}

/// Check every this-many-th lineage answer against the oracle.
const ORACLE_EVERY: u64 = 100;

struct Meter {
    samples: [Vec<u64>; Class::COUNT],
    latency_ns: u64,
    stall_ns: u64,
    counts: Counts,
    digest: Digest,
    snapshots_written: u64,
    lineage_seen: u64,
    errors: Vec<String>,
}

/// What the harness needs back from one accounted response.
#[derive(Default)]
struct Seen {
    stalled: bool,
    cursor: Option<prov_store::QueryCursor>,
}

impl Meter {
    fn ids(&mut self, ids: &[VertexId]) {
        self.digest.u64(ids.len() as u64);
        for v in ids {
            self.digest.u64(u64::from(v.raw()));
        }
    }

    fn segment(&mut self, segment: &prov_api::SegmentDto) {
        self.ids(&segment.vsrc);
        self.ids(&segment.vdst);
        self.digest.u64(segment.vertices.len() as u64);
        for v in &segment.vertices {
            self.digest.u64(u64::from(v.id.raw()));
            self.digest.str(&v.tags);
        }
        self.digest.u64(segment.edges.len() as u64);
        for e in &segment.edges {
            self.digest.u64(u64::from(e.id.raw()));
        }
    }

    /// Fold one response into samples, counts and digest. `ns` is its
    /// latency; `graph` the store it was answered from.
    fn account(
        &mut self,
        class: Class,
        ns: u64,
        request: &str,
        out: &str,
        graph: &ProvGraph,
    ) -> Seen {
        self.samples[class.index()].push(ns);
        self.latency_ns += ns;
        self.counts.requests += 1;
        self.counts.req_bytes += request.len() as u64;
        self.counts.resp_bytes += out.len() as u64;
        let mut seen = Seen::default();
        let response = match serde_json::from_str::<Response>(out) {
            Ok(r) => r,
            Err(e) => {
                self.counts.failed += 1;
                note(&mut self.errors, format!("unparsable response: {e}"));
                return seen;
            }
        };
        if let Some(stats) = response.stats() {
            self.digest.u64(stats.vertices as u64);
            self.digest.u64(stats.edges as u64);
        }
        match &response {
            Response::Error(e) => {
                self.counts.failed += 1;
                note(&mut self.errors, format!("{class:?} failed: {:?} {}", e.code, e.message));
            }
            Response::Activity(a) => {
                self.digest.u64(1);
                self.digest.u64(u64::from(a.activity.raw()));
                self.ids(&a.outputs);
                self.counts.writes += 1;
                let written = a.stats.durability.snapshots_written;
                if written > self.snapshots_written {
                    self.counts.compactions += written - self.snapshots_written;
                    self.snapshots_written = written;
                    self.samples[Class::Stall.index()].push(ns);
                    self.stall_ns += ns;
                    seen.stalled = true;
                }
            }
            Response::Lineage(l) => {
                self.digest.u64(2);
                self.digest.u64(u64::from(l.entity.raw()));
                self.ids(&l.vertices);
                self.lineage_seen += 1;
                if self.lineage_seen % ORACLE_EVERY == 1 {
                    self.check_lineage(request, l, graph);
                }
            }
            Response::Query(q) => {
                self.digest.u64(3);
                self.ids(&q.rows);
                self.digest.u64(q.count);
                self.digest.u64(u64::from(q.is_complete));
                self.counts.pages += 1;
                self.counts.rows_scanned += q.stats.query.rows_scanned;
                self.counts.rows_returned += q.rows.len() as u64;
                seen.cursor = q.cursor;
            }
            Response::Segment(s) => {
                self.digest.u64(4);
                self.segment(&s.segment);
                self.counts.segments += 1;
                self.counts.segment_vertices += s.segment.vertices.len() as u64;
            }
            Response::Session(s) => {
                self.digest.u64(5);
                self.digest.u64(s.session.raw());
                self.segment(&s.segment);
            }
            Response::Closed(c) => {
                self.digest.u64(6);
                self.digest.u64(c.session.raw());
            }
            Response::Summary(s) => {
                self.digest.u64(7);
                for v in &s.summary.vertices {
                    self.digest.str(&v.label);
                    self.digest.u64(v.kind.as_index() as u64);
                    self.digest.u64(v.members.len() as u64);
                    for (segment, vertex) in &v.members {
                        self.digest.u64(u64::from(*segment));
                        self.digest.u64(u64::from(vertex.raw()));
                    }
                }
                for e in &s.summary.edges {
                    self.digest.u64(u64::from(e.src));
                    self.digest.u64(u64::from(e.dst));
                    self.digest.u64(e.kind.as_index() as u64);
                    self.digest.u64(e.frequency.to_bits());
                }
                self.digest.u64(s.summary.segment_count as u64);
                self.counts.psg_vertices += s.summary.vertices.len() as u64;
                self.counts.psg_inputs += s.summary.input_vertex_count as u64;
            }
            other => {
                self.counts.failed += 1;
                note(&mut self.errors, format!("unexpected response to {class:?}: {other:?}"));
            }
        }
        seen
    }

    fn check_lineage(
        &mut self,
        request: &str,
        answer: &prov_api::LineageResponse,
        graph: &ProvGraph,
    ) {
        let Ok(Request::Lineage(asked)) = serde_json::from_str::<Request>(request) else {
            return;
        };
        self.counts.lineage_checked += 1;
        let expected = lineage_oracle(graph, answer.entity, asked.direction, asked.max_hops);
        if expected != answer.vertices {
            self.counts.failed += 1;
            note(
                &mut self.errors,
                format!(
                    "lineage of {:?} ({:?}, {:?} hops): service returned {} vertices, BFS {}",
                    asked.entity,
                    asked.direction,
                    asked.max_hops,
                    answer.vertices.len(),
                    expected.len()
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// One repetition
// ---------------------------------------------------------------------------

/// One served write, waiting for its replay on the shadow twin.
struct PendingRecord {
    id: u64,
    request: prov_api::RecordActivityRequest,
    handle_ns: u64,
    io_ns: u64,
}

/// The traced variant's per-repetition state.
struct Tracer {
    times: LayerTimes,
    /// Writes whose shadow replay is still to run (see `replay_records`).
    pending: Vec<PendingRecord>,
    /// Span log (first traced repetition only — the others just time).
    log: Option<SpanLog>,
    displace_refresh: bool,
}

fn ns(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_nanos() as u64
}

fn lineage_direction(d: LineageDir) -> LineageDirection {
    match d {
        LineageDir::Ancestors => LineageDirection::Ancestors,
        LineageDir::Descendants => LineageDirection::Descendants,
    }
}

impl Tracer {
    fn span(
        &mut self,
        request: u64,
        class: Class,
        name: &'static str,
        interval: (Instant, Instant),
        cause: Cause,
    ) -> Option<u32> {
        self.log.as_mut()?.push(request, class.name(), name, interval, cause)
    }

    /// Time a replay — a direct call that repeats work the request already
    /// did, so it is excluded from request totals.
    fn replay<R>(
        &mut self,
        request: u64,
        class: Class,
        name: &'static str,
        call: impl FnOnce() -> R,
    ) -> (u64, R) {
        let start = Instant::now();
        let result = black_box(call());
        let end = Instant::now();
        self.span(request, class, name, (start, end), Cause::Replay);
        (ns(start, end), result)
    }

    /// Feed an in-memory shadow twin the records the durable store was fed,
    /// timing `ProvDb::record_activity` on its own. Run once the measured
    /// phase is over: the twin evolves exactly like the served store whenever
    /// it is fed, and a second graph of the same size touched between timed
    /// requests would evict the first from the cache.
    fn replay_records(&mut self, preload: &[String]) -> Result<(), String> {
        let mut shadow = ProvDb::new();
        for json in preload {
            if let Ok(Request::RecordActivity(r)) = serde_json::from_str::<Request>(json) {
                let record = activity_record(shadow.graph(), &r)?;
                shadow.record_activity(record).map_err(|e| e.to_string())?;
            }
        }
        for write in std::mem::take(&mut self.pending) {
            let record = activity_record(shadow.graph(), &write.request)?;
            let (record_ns, outcome) = self
                .replay(write.id, Class::Record, "core.record", || shadow.record_activity(record));
            outcome.map_err(|e| format!("shadow twin rejected a record: {e}"))?;
            self.times.record.push(record_ns);
            self.times.commit_self.push(write.handle_ns.saturating_sub(record_ns + write.io_ns));
        }
        Ok(())
    }

    /// `handle_json` split into its three public steps, then direct calls
    /// into each layer's public functions on the same state.
    fn serve(
        &mut self,
        stage: &mut Stage,
        store: Store,
        class: Class,
        id: u64,
        json: &str,
    ) -> Result<(u64, String), String> {
        let probe = stage.disk.as_ref().map(|(_, probe)| probe.clone());
        let io_before = probe.as_ref().map(IoProbe::counts).unwrap_or_default();
        let t0 = Instant::now();
        let request = serde_json::from_str::<Request>(black_box(json));
        let t1 = Instant::now();
        let request = request.map_err(|e| format!("request does not parse: {e}"))?;
        let response = stage.services[store].handle(&request);
        let t2 = Instant::now();
        let out = serde_json::to_string(&response).expect("responses always serialize");
        let t3 = Instant::now();
        let out = black_box(out);

        let (decode, handle, encode) = (ns(t0, t1), ns(t1, t2), ns(t2, t3));
        let total = decode + handle + encode;
        self.times.decode.push(decode);
        self.times.handle.push(handle);
        self.times.encode.push(encode);
        self.times.class_total[class.index()].push(total);
        self.times.request_ns += total;
        let root = self.span(id, class, "request", (t0, t3), Cause::Span(None));
        self.span(id, class, "api.decode", (t0, t1), Cause::Span(root));
        let handle_span = self.span(id, class, "api.handle", (t1, t2), Cause::Span(root));
        self.span(id, class, "api.encode", (t2, t3), Cause::Span(root));
        let io = probe.as_ref().map(|p| p.counts().since(&io_before)).unwrap_or_default();
        if let Some(probe) = &probe {
            for call in probe.drain_calls() {
                self.span(id, class, call.name, (call.start, call.end), Cause::Span(handle_span));
            }
        }

        match &request {
            Request::RecordActivity(r) => {
                if self.displace_refresh {
                    // Moves the refresh out of the read that follows (r1),
                    // so it can be timed on its own; attributed to r1.
                    let db = stage.services[store].db();
                    let start = Instant::now();
                    black_box(db.snapshot());
                    let end = Instant::now();
                    let displaced = (Class::FreshRead, "core.snapshot_refresh");
                    self.span(id + 1, displaced.0, displaced.1, (start, end), Cause::Span(None));
                    self.times.refresh.push(ns(start, end));
                    self.times.request_ns += ns(start, end);
                }
                self.times.append.push(io.append_ns);
                self.times.sync.push(io.sync_ns);
                if io.writes > 0 {
                    self.times.snapshot_write.push(io.snapshot_write_ns);
                }
                self.pending.push(PendingRecord {
                    id,
                    request: r.clone(),
                    handle_ns: handle,
                    io_ns: io.io_ns(),
                });
            }
            Request::Lineage(r) => {
                let db = stage.services[store].db();
                let entity = r.entity.resolve(db.graph()).map_err(|e| e.to_string())?;
                let direction = lineage_direction(r.direction);
                let (lineage_ns, _) = self.replay(id, class, "core.lineage", || match r.max_hops {
                    Some(hops) => db.lineage_within(entity, direction, hops),
                    None => db.lineage(entity, direction),
                });
                self.times.lineage.push(lineage_ns);
            }
            Request::Query(QueryRequest {
                query: QuerySpec::Pipeline(pipeline), cursor, ..
            }) => {
                let db = stage.services[store].db();
                let (compile_ns, plan) = self
                    .replay(id, class, "store.query.compile", || Plan::compile(pipeline.clone()));
                let plan = plan.map_err(|e| e.to_string())?;
                let index = db.snapshot();
                let watermark = cursor.map_or(index.cursor(), |c| c.watermark());
                let (eval_ns, rows) = self.replay(id, class, "store.query.eval", || {
                    prov_store::evaluate_at(db.graph(), &index, &plan, watermark, 1)
                });
                rows.map_err(|e| e.to_string())?;
                self.times.compile.push(compile_ns);
                self.times.eval.push(eval_ns);
            }
            Request::Segment(r) => {
                let db = stage.services[store].db();
                let graph = db.graph();
                let query = PgSegQuery::between(
                    EntityRef::resolve_all(&r.src, graph).map_err(|e| e.to_string())?,
                    EntityRef::resolve_all(&r.dst, graph).map_err(|e| e.to_string())?,
                )
                .with_boundary(r.boundary.resolve(graph).map_err(|e| e.to_string())?);
                let options = r.options.to_options();
                let (kernel_ns, segment) =
                    self.replay(id, class, "segment.kernel", || db.segment(query, &options));
                segment.map_err(|e| e.to_string())?;
                self.times.segment_kernel.push(kernel_ns);
                self.times.dto.push(handle.saturating_sub(kernel_ns));
            }
            Request::Summarize(r) => {
                let svc = &stage.services[store];
                let sessions: Vec<_> =
                    r.sessions.iter().filter_map(|&id| svc.session(id)).collect();
                let graph = sessions.first().ok_or("summarize without sessions")?.graph_shared();
                let segments: Vec<SegmentRef> =
                    sessions.iter().map(|s| SegmentRef::from(s.segment())).collect();
                // The service's defaults: entities by `filename`, activities
                // by `command`.
                let aggregation = PropertyAggregation::ignore_all()
                    .with_keys(VertexKind::Entity, &["filename"])
                    .with_keys(VertexKind::Activity, &["command"]);
                let query = PgSumQuery::new(aggregation, r.k.unwrap_or(1));
                let (kernel_ns, _) = self.replay(id, class, "summary.kernel", || {
                    prov_summary::pgsum(graph, &segments, &query)
                });
                self.times.summary_kernel.push(kernel_ns);
                self.times.dto.push(handle.saturating_sub(kernel_ns));
            }
            Request::OpenSession(_) | Request::Expand(_) | Request::Restrict(_) => {
                self.times.session.push(handle);
            }
            _ => {}
        }
        Ok((total, out))
    }
}

/// Replay the captured commit payloads as append + fsync on the real disk.
/// Informational: it reports the sandbox's device, nothing is gated on it.
fn stdio_sync_probe(cfg: &RunConfig, payloads: &[Vec<u8>]) -> Result<Vec<u64>, String> {
    let dir = cfg.out_dir.join(format!("stdio-{}", std::process::id()));
    let mut io = StdIo::open(&dir).map_err(|e| e.to_string())?;
    let mut samples = Vec::with_capacity(payloads.len());
    for payload in payloads {
        let start = Instant::now();
        io.append("wal", payload).map_err(|e| e.to_string())?;
        io.sync("wal").map_err(|e| e.to_string())?;
        samples.push(start.elapsed().as_nanos() as u64);
    }
    // lint-ok(raw-io): removes the probe's own scratch directory, nothing durable.
    std::fs::remove_dir_all(&dir).map_err(|e| format!("cannot remove {}: {e}", dir.display()))?;
    Ok(samples)
}

/// After a write workload: a crash-consistent copy of the disk must recover
/// to exactly the live graph.
fn check_reopen(stage: &Stage, errors: &mut Vec<String>) {
    let Some((disk, _)) = &stage.disk else {
        return;
    };
    let live = stage.services[STREAM].db().graph();
    match ProvDb::open_with_io(Box::new(disk.fork()), DurabilityPolicy::default()) {
        Ok(reopened) => {
            let g = reopened.graph();
            if (g.vertex_count(), g.edge_count()) != (live.vertex_count(), live.edge_count()) {
                note(
                    errors,
                    format!(
                        "reopened disk holds {}v/{}e, live graph {}v/{}e",
                        g.vertex_count(),
                        g.edge_count(),
                        live.vertex_count(),
                        live.edge_count()
                    ),
                );
            }
            if let Err(e) = g.validate() {
                note(errors, format!("reopened graph is invalid: {e}"));
            }
        }
        Err(e) => note(errors, format!("reopening the disk failed: {e}")),
    }
}

/// The measured loop's state: one request in, one response accounted.
struct Serving {
    stage: Stage,
    meter: Meter,
    tracer: Option<Tracer>,
    sent: u64,
}

impl Serving {
    fn send(&mut self, store: Store, class: Class, json: &str) -> Result<Seen, String> {
        self.sent += 1;
        let (latency, out) = match &mut self.tracer {
            Some(tracer) => tracer.serve(&mut self.stage, store, class, self.sent, json)?,
            None => {
                let svc = &mut self.stage.services[store];
                let start = Instant::now();
                let out = svc.handle_json(black_box(json));
                let latency = start.elapsed().as_nanos() as u64;
                (latency, black_box(out))
            }
        };
        let graph = self.stage.services[store].db().graph();
        let seen = self.meter.account(class, latency, json, &out, graph);
        if let (true, Some(tracer)) = (seen.stalled, &mut self.tracer) {
            tracer.times.class_total[Class::Stall.index()].push(latency);
        }
        Ok(seen)
    }
}

/// `first` marks the first repetition of its kind in the run: it alone pays
/// for the checks and artefacts that need not be repeated (reopen, span
/// log, real-disk probe).
fn run_rep(cfg: &RunConfig, traced: bool, first: bool) -> Result<Rep, String> {
    let mut stage = set_up(cfg)?;
    let tracer = traced.then(|| Tracer {
        times: LayerTimes::default(),
        pending: Vec::new(),
        log: first.then(SpanLog::new),
        displace_refresh: cfg.workload == Workload::Mixed,
    });
    let snapshot_start = snapshot_totals(&stage);
    let io_start = stage.disk.as_ref().map(|(_, p)| p.counts()).unwrap_or_default();
    if let (Some((_, probe)), true) = (&stage.disk, traced) {
        probe.set_timed(true);
    }
    let meter = Meter {
        samples: Default::default(),
        latency_ns: 0,
        stall_ns: 0,
        counts: Counts::default(),
        digest: Digest::default(),
        snapshots_written: stage.services[STREAM]
            .db()
            .durability_counters()
            .map_or(0, |c| c.snapshots_written),
        lineage_seen: 0,
        errors: Vec::new(),
    };

    let measured = Instant::now();
    let steps = std::mem::take(&mut stage.program.steps);
    let mut serving = Serving { stage, meter, tracer, sent: 0 };
    for step in &steps {
        match step {
            Step::Send { store, class, json } => {
                serving.send(*store, *class, json)?;
            }
            Step::Walk { query } => {
                let mut page = query.clone();
                loop {
                    let json = serde_json::to_string(&Request::Query(page.clone()))
                        .expect("requests always serialize");
                    match serving.send(STREAM, Class::Page, &json)?.cursor {
                        Some(cursor) => page.cursor = Some(cursor),
                        None => break,
                    }
                }
                serving.meter.counts.walks += 1;
            }
        }
    }
    let Serving { stage, meter, tracer, .. } = serving;
    let measured_s = measured.elapsed().as_secs_f64();

    let mut counts = meter.counts;
    if let Some((_, probe)) = &stage.disk {
        counts.io = probe.counts().since(&io_start);
    }
    // The same counters every response carries in `Stats.snapshot`. (The
    // replays of a traced repetition add reuses of their own.)
    let snapshot_end = snapshot_totals(&stage);
    counts.snapshot = (
        snapshot_end.0 - snapshot_start.0,
        snapshot_end.1 - snapshot_start.1,
        snapshot_end.2 - snapshot_start.2,
    );
    let mut samples = meter.samples;
    for class in &mut samples {
        class.sort_unstable();
    }
    let mut errors = meter.errors;
    if first && counts.writes > 0 {
        check_reopen(&stage, &mut errors);
    }
    let layers = match tracer {
        Some(mut tracer) => {
            tracer.replay_records(&stage.program.preload)?;
            if let (true, Some((_, probe))) = (first, &stage.disk) {
                let payloads = probe.take_payloads();
                if !payloads.is_empty() {
                    tracer.times.stdio_sync = stdio_sync_probe(cfg, &payloads)?;
                }
            }
            if let Some(log) = &tracer.log {
                let path = cfg.out_dir.join(format!("trace-{}.jsonl", cfg.workload.name()));
                // lint-ok(raw-io): the span log is a diagnostic artefact, nothing durable.
                std::fs::write(&path, log.to_jsonl())
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            }
            Some(tracer.times)
        }
        None => None,
    };
    Ok(Rep {
        setup_s: stage.setup_s,
        generate_s: stage.generate_s,
        preload_s: stage.preload_s,
        recover_s: stage.recover_s,
        measured_s,
        samples,
        latency_ns: meter.latency_ns,
        stall_ns: meter.stall_ns,
        counts,
        digest: meter.digest.value(),
        layers,
        errors,
    })
}

// ---------------------------------------------------------------------------
// One run
// ---------------------------------------------------------------------------

/// `VmHWM` of this process, MiB (0 where `/proc` is not available).
pub fn peak_rss_mib() -> f64 {
    // lint-ok(raw-io): reads the kernel's accounting of this process, nothing durable.
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Digests of the seed-1 programs at [`Scale::FULL`]: the answers this
/// commit's service gives. A change that alters them changes behaviour, not
/// speed, and belongs in a change of its own that also updates this table.
pub const SEED1_DIGESTS: [(Workload, u64); 4] = [
    (Workload::Ingest, 0x9eeb_986f_b725_f0c9),
    (Workload::Lookup, 0xefd2_009c_859e_1ed4),
    (Workload::Mixed, 0xa762_a769_2ace_64b6),
    (Workload::Explore, 0xcacc_aeac_a75e_ff44),
];

/// Run one workload under `cfg`.
pub fn run(cfg: &RunConfig) -> Result<Run, String> {
    // lint-ok(raw-io): creates the benchmark's own output directory, nothing durable.
    std::fs::create_dir_all(&cfg.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", cfg.out_dir.display()))?;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut spent = 0.0;
    if cfg.trace {
        // Untraced and traced repetitions alternate, so that the tracing
        // overhead compares neighbours in time rather than one early
        // reference with everything after it.
        while spent < cfg.seconds || traced.is_empty() {
            let reference = run_rep(cfg, false, plain.is_empty())?;
            let rep = run_rep(cfg, true, traced.is_empty())?;
            spent += reference.measured_s + rep.measured_s;
            plain.push(reference);
            traced.push(rep);
        }
    } else {
        while plain.len() < MIN_REPS || spent < cfg.seconds {
            let rep = run_rep(cfg, false, plain.is_empty())?;
            spent += rep.measured_s;
            plain.push(rep);
        }
    }
    let peak_rss_mib = peak_rss_mib();

    let mut errors = Vec::new();
    let reps = || plain.iter().chain(&traced);
    for rep in reps() {
        for e in &rep.errors {
            note(&mut errors, e.clone());
        }
    }
    let digest = plain[0].digest;
    if reps().any(|r| r.digest != digest) {
        let all: Vec<String> = reps().map(|r| format!("{:016x}", r.digest)).collect();
        note(&mut errors, format!("repetitions disagree on the response digest: {all:?}"));
    }
    if reps().any(|r| r.counts.requests != plain[0].counts.requests) {
        note(&mut errors, "repetitions disagree on the request count".to_string());
    }
    if cfg.seed == 1 && cfg.scale == Scale::FULL {
        let pinned = SEED1_DIGESTS.iter().find(|(w, _)| *w == cfg.workload).map(|(_, d)| *d);
        if pinned != Some(digest) {
            note(
                &mut errors,
                format!(
                    "seed-1 digest is {digest:016x}, the recorded one {:016x}",
                    pinned.unwrap_or(0)
                ),
            );
        }
    }
    Ok(Run { config: cfg.clone(), plain, traced, peak_rss_mib, errors })
}
