//! `ProvDb`: the lifecycle provenance management facade (Fig. 1).
//!
//! Bundles the ingestion surface (agents, versioned artifacts, activity
//! records — what the paper's non-intrusive CLI toolkit would feed in) with
//! the query facilities (PgSeg segmentation, PgSum summarization, lineage and
//! pattern matching) over the embedded property graph store.

use crate::lineage::{compile_lineage, LineageBound};
pub use crate::lineage::{lineage_reference, LineageDirection};
use prov_model::{PropValue, VertexId, VertexKind};
use prov_segment::{PgSegOptions, PgSegQuery, PgSegSession, SegmentGraph};
use prov_store::hash::FxHashMap;
use prov_store::storage::{DurabilityCounters, DurabilityPolicy, Io, Recovered, StdIo, WalStorage};
use prov_store::{
    DeltaCursor, Pipeline, Plan, ProvGraph, ProvIndex, QueryOutput, SharedIndex, StoreError,
    StoreResult,
};
use prov_summary::{pgsum, PgSumQuery, Psg, SegmentRef};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Description of one artifact an activity generates.
#[derive(Debug, Clone)]
pub struct OutputSpec {
    /// Artifact name (versioned automatically: `name-vN`).
    pub artifact: String,
    /// Properties to attach to the new version.
    pub props: Vec<(String, PropValue)>,
}

impl OutputSpec {
    /// Output with no properties.
    pub fn named(artifact: &str) -> Self {
        OutputSpec { artifact: artifact.to_string(), props: Vec::new() }
    }

    /// Attach a property.
    pub fn with(mut self, key: &str, value: impl Into<PropValue>) -> Self {
        self.props.push((key.to_string(), value.into()));
        self
    }
}

/// One ingested activity (a CLI command execution).
#[derive(Debug, Clone)]
pub struct ActivityRecord {
    /// Command line / operation name.
    pub command: String,
    /// Responsible agent.
    pub agent: Option<VertexId>,
    /// Input entity versions the activity used.
    pub inputs: Vec<VertexId>,
    /// Artifacts generated.
    pub outputs: Vec<OutputSpec>,
    /// Extra activity properties.
    pub props: Vec<(String, PropValue)>,
}

/// Result of ingesting an activity.
#[derive(Debug, Clone)]
pub struct ActivityOutcome {
    /// The activity vertex.
    pub activity: VertexId,
    /// The generated entity versions, in `outputs` order.
    pub outputs: Vec<VertexId>,
}

/// When a query needs a snapshot and the cached one is stale, how large may
/// the append-only delta be (relative to the frozen prefix) before the
/// incremental [`ProvIndex::refresh_in_place`] stops paying and the database
/// falls back to a full rebuild?
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnapshotPolicy {
    /// Maximum [`prov_store::GraphDelta::fraction`] still refreshed
    /// incrementally; anything larger rebuilds. `0.0` disables refresh
    /// entirely (the rebuild-every-batch baseline the fig7 benchmark gates
    /// against); the default `0.5` refreshes until the delta reaches half
    /// the frozen graph.
    pub max_refresh_fraction: f64,
}

impl Default for SnapshotPolicy {
    fn default() -> Self {
        SnapshotPolicy { max_refresh_fraction: 0.5 }
    }
}

impl SnapshotPolicy {
    /// The pre-incremental behavior: every stale snapshot is rebuilt from
    /// scratch. Kept as the observable baseline for benchmarks and tests.
    pub fn rebuild_always() -> Self {
        SnapshotPolicy { max_refresh_fraction: 0.0 }
    }
}

/// How the database has been serving snapshot acquisitions: every
/// [`ProvDb::snapshot`] call resolves as exactly one of these three
/// outcomes. Serialized as-is into the service `Stats` envelope (field names
/// and order are wire format), so a serving-loop regression (e.g. a refresh
/// path silently degrading to rebuilds) is observable without profiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SnapshotCounters {
    /// The cached snapshot was still fresh and was handed out as-is.
    pub reuses: u64,
    /// A stale snapshot was extended incrementally from the delta log.
    pub refreshes: u64,
    /// A snapshot was built from scratch (cold start, oversized delta, or
    /// `max_refresh_fraction` = 0).
    pub rebuilds: u64,
}

/// The lifecycle provenance management system facade.
///
/// The graph lives behind an [`Arc`] and the frozen [`ProvIndex`] snapshot is
/// cached behind a lock: queries take `&self`, sessions opened through
/// [`ProvDb::segment_session`] are `'static` (they pin the snapshot they were
/// opened against), and mutations copy-on-write only when a live session
/// still holds the previous graph.
///
/// Snapshot lifecycle (DESIGN.md §6): mutations no longer invalidate the
/// cached snapshot — freshness is the cursor equality test
/// [`ProvIndex::is_fresh`], so the stale snapshot stays in the slot and the
/// next acquisition *extends* it from the append-only delta
/// ([`ProvIndex::refresh_in_place`]) instead of rebuilding, falling back to
/// a full build only when the delta outgrows the [`SnapshotPolicy`]
/// threshold. Every acquisition bumps exactly one [`SnapshotCounters`] slot.
#[derive(Debug, Default)]
pub struct ProvDb {
    graph: Arc<ProvGraph>,
    index: RwLock<Option<SharedIndex>>,
    /// Next version number per artifact name. `None` = not yet hydrated
    /// from the graph's `filename`/`version` properties — a lazily-decoded
    /// database defers the hydration scan (it would touch every property
    /// column) until versions are actually consulted.
    versions: RwLock<Option<FxHashMap<String, u32>>>,
    /// Durable backend, when opened through [`ProvDb::open`] /
    /// [`ProvDb::open_with_io`]. `None` = purely in-memory (the default).
    /// When present, the graph journals its mutations and every ingestion
    /// call drains the journal into one committed WAL batch.
    storage: Option<WalStorage>,
    policy: SnapshotPolicy,
    reuses: AtomicU64,
    refreshes: AtomicU64,
    rebuilds: AtomicU64,
}

impl ProvDb {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wrap an existing provenance graph.
    ///
    /// Version counters are rebuilt from the `name-vN` entities already in
    /// the graph, so [`ProvDb::add_artifact_version`] continues numbering
    /// where the wrapped history left off instead of colliding at `v1`.
    pub fn from_graph(graph: ProvGraph) -> Self {
        let versions = RwLock::new(Some(Self::versions_from_graph(&graph)));
        ProvDb { graph: Arc::new(graph), versions, ..ProvDb::default() }
    }

    /// Open (or create) a durable database in `dir` with the default
    /// [`DurabilityPolicy`]: recover the committed state from the snapshot +
    /// WAL on disk, then journal and durably commit every future mutation.
    pub fn open(dir: impl Into<std::path::PathBuf>) -> StoreResult<ProvDb> {
        let io = StdIo::open(dir).map_err(|e| StoreError::StorageUnavailable(e.to_string()))?;
        Self::open_with_io(Box::new(io), DurabilityPolicy::default())
    }

    /// [`ProvDb::open`] over an explicit [`Io`] backend and policy — how
    /// tests run a durable database on a [`MemIo`](prov_store::storage::MemIo)
    /// disk or behind a fault injector.
    pub fn open_with_io(io: Box<dyn Io>, policy: DurabilityPolicy) -> StoreResult<ProvDb> {
        let (engine, Recovered { mut graph, index }) = WalStorage::open(io, policy)?;
        graph.set_journaling(true);
        // A lazily-decoded graph keeps its property columns deferred: the
        // version-counter hydration scan (which touches every vertex
        // property) is deferred with them, until first consulted.
        let versions = if graph.has_deferred_props() {
            RwLock::new(None)
        } else {
            RwLock::new(Some(Self::versions_from_graph(&graph)))
        };
        Ok(ProvDb {
            graph: Arc::new(graph),
            // Install the recovered index (built once over the replayed
            // graph): the first snapshot acquisition after a cold start is a
            // reuse, not a rebuild.
            index: RwLock::new(Some(Arc::new(index))),
            versions,
            // The engine is the one commit path and holds the group buffer;
            // with the default policy (`group_max_batches` = 1) every batch
            // flushes before `persist()` acknowledges it.
            storage: Some(engine),
            ..ProvDb::default()
        })
    }

    /// Whether this database durably commits its mutations.
    pub fn is_durable(&self) -> bool {
        self.storage.is_some()
    }

    /// Durability activity counters (WAL appends, fsyncs, recoveries, ...);
    /// `None` for an in-memory database.
    pub fn durability_counters(&self) -> Option<DurabilityCounters> {
        self.storage.as_ref().map(|s| s.counters())
    }

    /// Bytes in the current WAL generation; `None` for an in-memory database.
    pub fn wal_bytes(&self) -> Option<u64> {
        self.storage.as_ref().map(|s| s.wal_bytes())
    }

    /// Force a compaction (snapshot the graph, start a fresh WAL generation).
    /// Returns whether one ran (`false` for an in-memory database).
    pub fn compact(&mut self) -> StoreResult<bool> {
        match self.storage.as_mut() {
            Some(storage) => {
                storage.compact(&self.graph)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Durably flush any group-buffered commits. Under a grouped
    /// [`DurabilityPolicy`] (`group_max_batches` > 1), mutations between
    /// flush points are accepted but not yet durable — this is the explicit
    /// durability barrier, and the only one: there is no flush-on-drop, so
    /// dropping a grouped database without calling this discards the
    /// batches accepted since the last flush. No-op for ungrouped and
    /// in-memory databases.
    pub fn flush(&mut self) -> StoreResult<()> {
        match self.storage.as_mut() {
            Some(storage) => storage.flush(),
            None => Ok(()),
        }
    }

    /// Drain the graph's op journal into one durably committed WAL batch.
    /// No-op (and infallible) for in-memory databases and empty journals.
    ///
    /// Commit failures leave the in-memory graph ahead of the durable state
    /// and poison the storage engine: this and every later commit fail with
    /// [`StoreError::StorageUnavailable`] until the database is reopened,
    /// which recovers the last durably committed prefix.
    fn persist(&mut self) -> StoreResult<()> {
        if self.storage.is_none() || self.graph.journal_len() == 0 {
            return Ok(());
        }
        let ops = Arc::make_mut(&mut self.graph).take_journal();
        let storage = self.storage.as_mut().expect("checked above");
        storage.commit(&ops)?;
        storage.maybe_compact(&self.graph)?;
        Ok(())
    }

    /// Hydrate the version counters from the graph if they are still
    /// deferred (lazy decode). Idempotent; takes `&self` so read paths
    /// ([`ProvDb::latest_version`]) can trigger it too.
    fn ensure_versions(&self) {
        if self.versions.read().expect("versions lock").is_some() {
            return;
        }
        let map = Self::versions_from_graph(&self.graph);
        let mut slot = self.versions.write().expect("versions lock");
        if slot.is_none() {
            *slot = Some(map);
        }
    }

    /// Rebuild the per-artifact version counters from `filename`/`version`
    /// properties — shared by JSON import and durable recovery.
    fn versions_from_graph(graph: &ProvGraph) -> FxHashMap<String, u32> {
        let mut versions = FxHashMap::default();
        for v in graph.vertices_of_kind(VertexKind::Entity) {
            if let (Some(name), Some(ver)) = (
                graph.vprop(*v, "filename").and_then(|p| p.as_str().map(str::to_string)),
                graph.vprop(*v, "version").and_then(|p| p.as_int()),
            ) {
                let slot = versions.entry(name).or_insert(0u32);
                *slot = (*slot).max(ver as u32);
            }
        }
        versions
    }

    /// The snapshot refresh-vs-rebuild policy in force.
    pub fn snapshot_policy(&self) -> SnapshotPolicy {
        self.policy
    }

    /// Replace the snapshot policy (e.g. [`SnapshotPolicy::rebuild_always`]
    /// for baseline measurements).
    pub fn set_snapshot_policy(&mut self, policy: SnapshotPolicy) {
        self.policy = policy;
    }

    /// Cumulative snapshot acquisition outcomes since this database was
    /// created (reuse / incremental refresh / full rebuild).
    pub fn snapshot_counters(&self) -> SnapshotCounters {
        SnapshotCounters {
            reuses: self.reuses.load(Ordering::Relaxed),
            refreshes: self.refreshes.load(Ordering::Relaxed),
            rebuilds: self.rebuilds.load(Ordering::Relaxed),
        }
    }

    /// The underlying store (read-only).
    pub fn graph(&self) -> &ProvGraph {
        &self.graph
    }

    /// A shareable handle to the underlying store (what interactive sessions
    /// pin; cheap — clones the handle, not the graph).
    pub fn graph_shared(&self) -> Arc<ProvGraph> {
        Arc::clone(&self.graph)
    }

    /// The frozen snapshot, shared by all queries and sessions opened since
    /// the last mutation.
    ///
    /// Acquisition outcomes, cheapest first (each bumps its
    /// [`SnapshotCounters`] slot):
    ///
    /// 1. **reuse** — the cached snapshot's cursor equals the graph's: hand
    ///    it out under the read lock (the steady-state query path);
    /// 2. **refresh** — the graph grew within the policy threshold: extend
    ///    the stale snapshot from the delta log, in place when nothing else
    ///    pins it, on a column copy when live sessions do (their pinned
    ///    snapshot is immutable either way);
    /// 3. **rebuild** — cold start or oversized delta: full
    ///    [`ProvIndex::build`].
    pub fn snapshot(&self) -> SharedIndex {
        let cursor = self.graph.cursor();
        if let Some(idx) = self.index.read().expect("index lock").as_ref() {
            if idx.cursor() == cursor {
                self.reuses.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(idx);
            }
        }
        let mut slot = self.index.write().expect("index lock");
        // Re-check under the write lock: a racing caller may have already
        // brought the slot up to date (all callers see the same frozen
        // graph, so whichever lands is correct).
        if let Some(idx) = slot.as_ref() {
            if idx.cursor() == cursor {
                self.reuses.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(idx);
            }
        }
        let refreshable = slot.as_ref().is_some_and(|stale| {
            let at = stale.cursor();
            // A cursor beyond the graph's log means the store was swapped
            // out from under us (`with_graph_mut` misuse) — never refresh
            // from it.
            at.vertices <= cursor.vertices
                && at.edges <= cursor.edges
                && self.graph.delta_since(at).fraction() <= self.policy.max_refresh_fraction
        });
        let next = if refreshable {
            self.refreshes.fetch_add(1, Ordering::Relaxed);
            let stale = slot.take().expect("refreshable implies a cached snapshot");
            Arc::new(match Arc::try_unwrap(stale) {
                // Sole owner: extend the columns in place, no copy at all.
                Ok(mut owned) => {
                    owned.refresh_in_place(&self.graph);
                    owned
                }
                // Pinned by live sessions: extend a copy, leave theirs be.
                Err(shared) => shared.refreshed(&self.graph),
            })
        } else {
            self.rebuilds.fetch_add(1, Ordering::Relaxed);
            ProvIndex::build_shared(&self.graph)
        };
        *slot = Some(Arc::clone(&next));
        next
    }

    /// Mutable access to the store: copy-on-writes the graph if a live
    /// session still references it. The cached snapshot is left in place —
    /// it self-identifies as stale by cursor and is refreshed or rebuilt on
    /// the next acquisition.
    fn graph_mut(&mut self) -> &mut ProvGraph {
        Arc::make_mut(&mut self.graph)
    }

    /// Run a closure with mutable access to the underlying store — the
    /// escape hatch for ingestion shapes [`ProvDb::record_activity`] does
    /// not cover (bulk loads, test drivers). Copy-on-write semantics match
    /// every other mutation: live sessions keep their pinned graph.
    ///
    /// Contract: the closure must only *append* (the store is an append-only
    /// log; [`ProvGraph`] offers nothing else). Swapping the graph wholesale
    /// breaks snapshot freshness tracking — replace the database instead.
    ///
    /// On a durable database the closure's mutations are committed as one
    /// WAL batch. A commit failure cannot surface through this signature; it
    /// poisons the storage engine, so the *next* fallible operation reports
    /// [`StoreError::StorageUnavailable`]. Use [`ProvDb::try_with_graph_mut`]
    /// to observe the commit result directly.
    pub fn with_graph_mut<R>(&mut self, f: impl FnOnce(&mut ProvGraph) -> R) -> R {
        let r = f(self.graph_mut());
        let _ = self.persist(); // failure poisons storage; see doc comment
        r
    }

    /// [`ProvDb::with_graph_mut`] that reports the durable commit result:
    /// `Err` means the mutations are applied in memory but not durable (the
    /// storage engine is poisoned until reopen).
    pub fn try_with_graph_mut<R>(&mut self, f: impl FnOnce(&mut ProvGraph) -> R) -> StoreResult<R> {
        let r = f(self.graph_mut());
        self.persist()?;
        Ok(r)
    }

    // ------------------------------------------------------------------
    // Ingestion
    // ------------------------------------------------------------------

    /// Register a team member. Errors (without invalidating the cached
    /// snapshot) when the vertex id space is exhausted.
    pub fn add_agent(&mut self, name: &str) -> StoreResult<VertexId> {
        self.graph.check_vertex_headroom(1)?;
        let id = self.graph_mut().add_agent(name);
        self.persist()?;
        Ok(id)
    }

    /// Register a new version of an artifact (external addition, e.g. a
    /// downloaded dataset); optionally attributed to an agent.
    ///
    /// Atomic: a rejected record leaves the store (and the version
    /// counters) untouched.
    pub fn add_artifact_version(
        &mut self,
        artifact: &str,
        attributed_to: Option<VertexId>,
    ) -> StoreResult<VertexId> {
        if let Some(agent) = attributed_to {
            self.expect_kind(agent, VertexKind::Agent, prov_model::EdgeKind::WasAttributedTo)?;
        }
        self.graph.check_vertex_headroom(1)?;
        self.graph.check_edge_headroom(attributed_to.is_some() as usize)?;
        let v = self.next_version(artifact);
        let graph = self.graph_mut();
        let e = graph.add_entity(&format!("{artifact}-v{v}"));
        graph.set_vprop(e, "filename", artifact);
        graph.set_vprop(e, "version", v as i64);
        if let Some(agent) = attributed_to {
            graph.add_edge(prov_model::EdgeKind::WasAttributedTo, e, agent)?;
        }
        self.persist()?;
        Ok(e)
    }

    fn next_version(&mut self, artifact: &str) -> u32 {
        self.ensure_versions();
        let mut versions = self.versions.write().expect("versions lock");
        let slot = versions.as_mut().expect("hydrated").entry(artifact.to_string()).or_insert(0);
        *slot += 1;
        *slot
    }

    /// Check that `v` exists and can be the target of a `kind` edge, without
    /// mutating anything — the up-front half of atomic ingestion.
    fn expect_kind(
        &self,
        v: VertexId,
        expected: VertexKind,
        kind: prov_model::EdgeKind,
    ) -> StoreResult<()> {
        let rec = self.graph.try_vertex(v)?;
        if rec.kind != expected {
            return Err(
                prov_model::EdgeTypeError { kind, src: kind.endpoints().0, dst: rec.kind }.into()
            );
        }
        Ok(())
    }

    /// Ingest one activity execution with its used/generated artifacts.
    ///
    /// Atomic: the record is validated in full before the first mutation, so
    /// a rejected request leaves the store, the version counters, and any
    /// pinned session snapshots untouched (no copy-on-write is paid either).
    pub fn record_activity(&mut self, record: ActivityRecord) -> StoreResult<ActivityOutcome> {
        if let Some(agent) = record.agent {
            self.expect_kind(agent, VertexKind::Agent, prov_model::EdgeKind::WasAssociatedWith)?;
        }
        for &input in &record.inputs {
            self.expect_kind(input, VertexKind::Entity, prov_model::EdgeKind::Used)?;
        }
        // Id-space headroom for the whole record, up front: one activity plus
        // the outputs; association + used + generated-by + (at most one)
        // derivation edge per output. A capacity failure must be a clean
        // typed error, not a mid-record panic or partial mutation.
        self.graph.check_vertex_headroom(1 + record.outputs.len())?;
        self.graph.check_edge_headroom(
            record.agent.is_some() as usize + record.inputs.len() + 2 * record.outputs.len(),
        )?;
        // Every fallible check is behind us: reserve version numbers (a
        // rejected request must not burn versions and leave a gap in the
        // `WasDerivedFrom` chain of a later valid request), then mutate.
        // The edges below are structurally valid by construction.
        let versions: Vec<u32> =
            record.outputs.iter().map(|spec| self.next_version(&spec.artifact)).collect();
        let graph = self.graph_mut();
        let a = graph.add_activity(&record.command);
        graph.set_vprop(a, "command", record.command.as_str());
        for (k, v) in &record.props {
            graph.set_vprop(a, k, v.clone());
        }
        if let Some(agent) = record.agent {
            graph.add_edge(prov_model::EdgeKind::WasAssociatedWith, a, agent)?;
        }
        for &input in &record.inputs {
            graph.add_edge(prov_model::EdgeKind::Used, a, input)?;
        }
        let mut outputs = Vec::with_capacity(record.outputs.len());
        for (spec, v) in record.outputs.iter().zip(versions) {
            let e = graph.add_entity(&format!("{}-v{}", spec.artifact, v));
            graph.set_vprop(e, "filename", spec.artifact.as_str());
            graph.set_vprop(e, "version", v as i64);
            for (k, val) in &spec.props {
                graph.set_vprop(e, k, val.clone());
            }
            graph.add_edge(prov_model::EdgeKind::WasGeneratedBy, e, a)?;
            // Version lineage: derive from the previous version when it is
            // still addressable. Best-effort by design — name shadowing (an
            // activity named like `model-v1`) can repoint the previous
            // version's name at a non-entity, and a fallible link here would
            // abort a half-applied record and break the atomicity contract.
            if v > 1 {
                if let Some(prev) = graph.vertex_by_name(&format!("{}-v{}", spec.artifact, v - 1)) {
                    if graph.vertex_kind(prev) == VertexKind::Entity {
                        graph.add_edge(prov_model::EdgeKind::WasDerivedFrom, e, prev)?;
                    }
                }
            }
            outputs.push(e);
        }
        self.persist()?;
        Ok(ActivityOutcome { activity: a, outputs })
    }

    /// Latest version of an artifact, if any.
    pub fn latest_version(&self, artifact: &str) -> Option<VertexId> {
        self.ensure_versions();
        let v = *self.versions.read().expect("versions lock").as_ref()?.get(artifact)?;
        self.graph.vertex_by_name(&format!("{artifact}-v{v}"))
    }

    /// Resolve an entity by its versioned name (`model-v2`).
    pub fn entity(&self, versioned_name: &str) -> Option<VertexId> {
        self.graph.vertex_by_name(versioned_name)
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Run a one-shot PgSeg query.
    pub fn segment(&self, query: PgSegQuery, opts: &PgSegOptions) -> StoreResult<SegmentGraph> {
        let index = self.snapshot();
        prov_segment::pgseg(&self.graph, &index, query, opts)
    }

    /// Open an interactive PgSeg session (induce once, adjust repeatedly).
    ///
    /// The session is `'static`: it pins the current graph/index snapshot, so
    /// it stays valid (and unchanged) even if the database is mutated later —
    /// store it in a registry, hand it across threads, adjust at leisure.
    pub fn segment_session(
        &self,
        query: PgSegQuery,
        opts: &PgSegOptions,
    ) -> StoreResult<PgSegSession> {
        let index = self.snapshot();
        PgSegSession::open(self.graph_shared(), index, query, opts)
    }

    /// Summarize a set of segments with PgSum.
    pub fn summarize(&self, segments: &[SegmentRef], query: &PgSumQuery) -> Psg {
        pgsum(&self.graph, segments, query)
    }

    /// Transitive closure over the ancestry relations (`U`/`G` edges) in the
    /// given direction — the shared engine behind [`ProvDb::ancestors_of`]
    /// and [`ProvDb::descendants_of`].
    ///
    /// **Order contract** (wire-stable, part of the service envelope): the
    /// result is sorted ascending by dense vertex id and excludes the start
    /// vertex. BFS discovery order is an implementation detail of the
    /// query-IR evaluator and never escapes; callers and examples may rely
    /// on the sorted order.
    pub fn lineage(&self, e: VertexId, direction: LineageDirection) -> Vec<VertexId> {
        self.lineage_ir(e, direction, LineageBound::Unbounded)
    }

    /// Depth-bounded lineage: every vertex within `max_hops` ancestry hops
    /// (one hop = one `U`/`G` edge, so "k activities away" is `2k` hops).
    /// Same order contract as [`ProvDb::lineage`].
    pub fn lineage_within(
        &self,
        e: VertexId,
        direction: LineageDirection,
        max_hops: u32,
    ) -> Vec<VertexId> {
        self.lineage_ir(e, direction, LineageBound::Within(max_hops))
    }

    /// The k-hop ring: only the vertices at *exactly* `hops` ancestry hops
    /// from `e` (BFS distance). Same order contract as [`ProvDb::lineage`].
    pub fn k_hop(&self, e: VertexId, direction: LineageDirection, hops: u32) -> Vec<VertexId> {
        self.lineage_ir(e, direction, LineageBound::Exactly(hops))
    }

    /// Shared lineage path: lower to a one-step query-IR pipeline
    /// ([`crate::lineage::compile_lineage`]) and evaluate it over the
    /// current snapshot.
    fn lineage_ir(
        &self,
        e: VertexId,
        direction: LineageDirection,
        bound: LineageBound,
    ) -> Vec<VertexId> {
        self.query(compile_lineage(e, direction, bound))
            .expect("lineage pipelines always compile and a fresh snapshot is never stale")
            .rows
    }

    /// Evaluate a query-IR pipeline over the current snapshot.
    ///
    /// This is the unified read path every fixed-shape query compiles into
    /// (DESIGN.md §9); `lineage`, `find_by_prop`, and lowerable patterns all
    /// route through here. Returns the full (unpaginated) output; pair with
    /// [`prov_store::paginate`] or the wire `Query` envelope for cursors.
    pub fn query(&self, pipeline: Pipeline) -> StoreResult<QueryOutput> {
        let plan = Plan::compile(pipeline)?;
        prov_store::evaluate(&self.graph, &self.snapshot(), &plan)
    }

    /// Evaluate a pipeline bounded to an older `watermark` — the replay mode
    /// behind resumable cursors: only vertices and edges at ranks below the
    /// watermark participate, so the answer matches what the snapshot looked
    /// like when the watermark was taken.
    pub fn query_at(&self, pipeline: Pipeline, watermark: DeltaCursor) -> StoreResult<QueryOutput> {
        let plan = Plan::compile(pipeline)?;
        prov_store::evaluate_at(&self.graph, &self.snapshot(), &plan, watermark, 1)
    }

    /// Vertices of `kind` carrying property `key == value`, ascending by id
    /// — the IR route (`StartSet::Kind` + `PropFilter`), byte-identical to
    /// the frozen [`ProvGraph::find_by_prop`] reference.
    pub fn find_by_prop(&self, kind: VertexKind, key: &str, value: &PropValue) -> Vec<VertexId> {
        self.query(Pipeline::find_by_prop(kind, key, value.clone()))
            .expect("find_by_prop pipelines always compile")
            .rows
    }

    /// All ancestors of an entity (transitive inputs through `U`/`G` edges).
    pub fn ancestors_of(&self, e: VertexId) -> Vec<VertexId> {
        self.lineage(e, LineageDirection::Ancestors)
    }

    /// Everything derived (transitively) from an entity.
    pub fn descendants_of(&self, e: VertexId) -> Vec<VertexId> {
        self.lineage(e, LineageDirection::Descendants)
    }

    /// Export to the PROV-JSON-style interchange format. Fails when a
    /// property holds a non-finite float, which JSON cannot represent.
    pub fn export_json(&self) -> StoreResult<String> {
        prov_store::json::to_json_string(&self.graph)
    }

    /// Import from the interchange format. Edges are type-checked one by
    /// one as they load, which cannot see a cycle; a document that closes one
    /// is refused whole with [`StoreError::CycleDetected`] (Definition 1: a
    /// provenance graph is a DAG, and the ancestry kernels rely on it).
    pub fn import_json(data: &str) -> StoreResult<ProvDb> {
        let graph = prov_store::json::from_json_string(data)?;
        graph.validate_acyclic()?;
        Ok(ProvDb::from_graph(graph))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_project() -> (ProvDb, VertexId, VertexId) {
        let mut db = ProvDb::new();
        let alice = db.add_agent("alice").unwrap();
        let data = db.add_artifact_version("dataset", Some(alice)).unwrap();
        let out = db
            .record_activity(ActivityRecord {
                command: "train".into(),
                agent: Some(alice),
                inputs: vec![data],
                outputs: vec![
                    OutputSpec::named("weights").with("acc", 0.7),
                    OutputSpec::named("log"),
                ],
                props: vec![("opt".into(), "-gpu".into())],
            })
            .unwrap();
        (db, data, out.outputs[0])
    }

    #[test]
    fn ingestion_builds_prov_structure() {
        let (db, data, weights) = small_project();
        let g = db.graph();
        assert_eq!(g.kind_count(VertexKind::Entity), 3);
        assert_eq!(g.kind_count(VertexKind::Activity), 1);
        assert_eq!(g.vertex_name(weights), Some("weights-v1"));
        assert_eq!(g.vprop(weights, "acc").and_then(|v| v.as_float()), Some(0.7));
        assert_eq!(g.vertex_name(data), Some("dataset-v1"));
        g.validate_acyclic().unwrap();
    }

    #[test]
    fn versioning_links_derivations() {
        let (mut db, data, w1) = small_project();
        let out = db
            .record_activity(ActivityRecord {
                command: "train".into(),
                agent: None,
                inputs: vec![data],
                outputs: vec![OutputSpec::named("weights").with("acc", 0.75)],
                props: vec![],
            })
            .unwrap();
        let w2 = out.outputs[0];
        assert_eq!(db.graph().vertex_name(w2), Some("weights-v2"));
        assert_eq!(db.latest_version("weights"), Some(w2));
        // D edge w2 -> w1 exists.
        let derived: Vec<VertexId> =
            db.graph().out_neighbors(w2, prov_model::EdgeKind::WasDerivedFrom).collect();
        assert_eq!(derived, vec![w1]);
    }

    #[test]
    fn lineage_queries() {
        let (db, data, weights) = small_project();
        let anc = db.ancestors_of(weights);
        assert!(anc.contains(&data));
        let desc = db.descendants_of(data);
        assert!(desc.contains(&weights));
        assert!(!db.ancestors_of(data).contains(&weights));
    }

    /// Regression for the wire order contract: lineage output is sorted
    /// ascending by id, never BFS discovery order, and matches the frozen
    /// seed implementation exactly.
    #[test]
    fn lineage_output_is_sorted_not_discovery_ordered() {
        let (mut db, data, weights) = small_project();
        // A second generation whose activity is discovered before its
        // (lower-id) sibling inputs, so BFS discovery order != id order.
        let out = db
            .record_activity(ActivityRecord {
                command: "eval".into(),
                agent: None,
                inputs: vec![weights, data],
                outputs: vec![OutputSpec::named("report")],
                props: vec![],
            })
            .unwrap();
        let report = out.outputs[0];
        let anc = db.ancestors_of(report);
        assert!(anc.windows(2).all(|w| w[0] < w[1]), "not ascending: {anc:?}");
        assert!(anc.contains(&data) && anc.contains(&weights));
        assert!(!anc.contains(&report), "start vertex must be excluded");
        // Differential vs the frozen seed path on the same snapshot.
        let idx = db.snapshot();
        for dir in [LineageDirection::Ancestors, LineageDirection::Descendants] {
            for v in [data, weights, report] {
                assert_eq!(db.lineage(v, dir), lineage_reference(&idx, v, dir));
            }
        }
    }

    #[test]
    fn bounded_lineage_and_k_hop_respect_hop_semantics() {
        let (db, data, weights) = small_project();
        // weights <-G- train <-U- data: 2 hops from weights up to data.
        assert_eq!(db.lineage_within(weights, LineageDirection::Ancestors, 0), vec![]);
        let one = db.lineage_within(weights, LineageDirection::Ancestors, 1);
        assert!(!one.contains(&data), "data is 2 hops away");
        let two = db.lineage_within(weights, LineageDirection::Ancestors, 2);
        assert!(two.contains(&data));
        assert_eq!(db.k_hop(weights, LineageDirection::Ancestors, 2), vec![data]);
        assert!(db.k_hop(weights, LineageDirection::Ancestors, 9).is_empty());
        // Unbounded == a large-enough bound.
        assert_eq!(
            db.lineage_within(weights, LineageDirection::Ancestors, 100),
            db.ancestors_of(weights)
        );
    }

    #[test]
    fn snapshot_counters_track_reuse_refresh_rebuild() {
        let (mut db, data, weights) = small_project();
        assert_eq!(db.snapshot_counters(), SnapshotCounters::default());
        // Grow the frozen prefix so a one-activity delta stays well under
        // the default 0.5 refresh threshold.
        for i in 0..6 {
            db.record_activity(ActivityRecord {
                command: format!("prep{i}"),
                agent: None,
                inputs: vec![data],
                outputs: vec![OutputSpec::named("prep")],
                props: vec![],
            })
            .unwrap();
        }
        // Cold start: the first acquisition is a rebuild, the second a reuse.
        let _ = db.snapshot();
        let _ = db.snapshot();
        let c = db.snapshot_counters();
        assert_eq!((c.rebuilds, c.refreshes, c.reuses), (1, 0, 1));
        // A small ingest leaves the stale snapshot refreshable.
        db.record_activity(ActivityRecord {
            command: "tweak".into(),
            agent: None,
            inputs: vec![data],
            outputs: vec![OutputSpec::named("weights")],
            props: vec![],
        })
        .unwrap();
        let refreshed = db.snapshot();
        let c = db.snapshot_counters();
        assert_eq!((c.rebuilds, c.refreshes, c.reuses), (1, 1, 1));
        // The refreshed snapshot equals a reference rebuild.
        assert_eq!(*refreshed, ProvIndex::build(db.graph()));
        // Rebuild-always policy: the same situation rebuilds instead.
        db.set_snapshot_policy(SnapshotPolicy::rebuild_always());
        db.record_activity(ActivityRecord {
            command: "tweak".into(),
            agent: None,
            inputs: vec![weights],
            outputs: vec![OutputSpec::named("weights")],
            props: vec![],
        })
        .unwrap();
        let _ = db.snapshot();
        let c = db.snapshot_counters();
        assert_eq!((c.rebuilds, c.refreshes, c.reuses), (2, 1, 1));
        // An oversized delta under the default policy also rebuilds.
        let mut db2 = ProvDb::new();
        let a = db2.add_agent("a").unwrap();
        let _ = db2.snapshot();
        for _ in 0..50 {
            db2.add_artifact_version("blob", Some(a)).unwrap();
        }
        let _ = db2.snapshot();
        assert_eq!(db2.snapshot_counters().rebuilds, 2, "50x growth must not refresh");
    }

    #[test]
    fn refresh_under_pinned_session_leaves_the_pin_untouched() {
        let (mut db, data, weights) = small_project();
        let session = db
            .segment_session(
                PgSegQuery::between(vec![data], vec![weights]),
                &PgSegOptions::default(),
            )
            .unwrap();
        let pinned_n = session.index().vertex_count();
        db.record_activity(ActivityRecord {
            command: "tweak".into(),
            agent: None,
            inputs: vec![data],
            outputs: vec![OutputSpec::named("extra")],
            props: vec![],
        })
        .unwrap();
        // The session pins the old snapshot, so the refresh copies.
        let fresh = db.snapshot();
        assert_eq!(db.snapshot_counters().refreshes, 1);
        assert_eq!(session.index().vertex_count(), pinned_n, "pinned snapshot must not move");
        assert!(fresh.vertex_count() > pinned_n);
        assert_eq!(*fresh, ProvIndex::build(db.graph()));
    }

    #[test]
    fn with_graph_mut_appends_are_picked_up_by_refresh() {
        let (mut db, data, _) = small_project();
        let v = db.with_graph_mut(|g| {
            let t = g.add_activity("bulk");
            let w = g.add_entity("bulk-out");
            g.add_edge(prov_model::EdgeKind::Used, t, data).unwrap();
            g.add_edge(prov_model::EdgeKind::WasGeneratedBy, w, t).unwrap();
            w
        });
        assert!(db.descendants_of(data).contains(&v));
        assert_eq!(*db.snapshot(), ProvIndex::build(db.graph()));
    }

    #[test]
    fn segment_and_summarize_roundtrip() {
        let (db, data, weights) = small_project();
        let seg = db
            .segment(PgSegQuery::between(vec![data], vec![weights]), &PgSegOptions::default())
            .unwrap();
        assert!(seg.vertex_count() >= 3);
        let psg = db.summarize(&[SegmentRef::from(&seg)], &PgSumQuery::fig2e());
        assert!(psg.vertex_count() >= 3);
        assert!(psg.compaction_ratio() <= 1.0);
    }

    #[test]
    fn rejected_activity_is_atomic() {
        let (mut db, data, _) = small_project();
        let vertices_before = db.graph().vertex_count();
        let edges_before = db.graph().edge_count();
        // `data` is an entity, not an agent: the association edge is invalid
        // and the whole record is rejected...
        let err = db.record_activity(ActivityRecord {
            command: "train".into(),
            agent: Some(data),
            inputs: vec![],
            outputs: vec![OutputSpec::named("model")],
            props: vec![],
        });
        assert!(err.is_err());
        // ...leaving the store byte-for-byte untouched: no orphan activity
        // vertex, no stray edges...
        assert_eq!(db.graph().vertex_count(), vertices_before);
        assert_eq!(db.graph().edge_count(), edges_before);
        // ...and no reserved version: the next valid record starts the
        // artifact at v1 and keeps the derivation chain gap-free.
        let out = db
            .record_activity(ActivityRecord {
                command: "train".into(),
                agent: None,
                inputs: vec![data],
                outputs: vec![OutputSpec::named("model")],
                props: vec![],
            })
            .unwrap();
        assert_eq!(db.graph().vertex_name(out.outputs[0]), Some("model-v1"));
        assert_eq!(db.latest_version("model"), Some(out.outputs[0]));
    }

    #[test]
    fn name_shadowed_prev_version_cannot_break_atomicity() {
        let (mut db, data, _) = small_project();
        // An activity whose command collides with the weights-v1 name
        // repoints `by_name["weights-v1"]` at a non-entity.
        db.record_activity(ActivityRecord {
            command: "weights-v1".into(),
            agent: None,
            inputs: vec![data],
            outputs: vec![],
            props: vec![],
        })
        .unwrap();
        // The next weights version must still ingest cleanly: the derivation
        // link is skipped (its target is no longer an entity), not failed.
        let out = db
            .record_activity(ActivityRecord {
                command: "train".into(),
                agent: None,
                inputs: vec![data],
                outputs: vec![OutputSpec::named("weights")],
                props: vec![],
            })
            .unwrap();
        let w2 = out.outputs[0];
        assert_eq!(db.graph().vertex_name(w2), Some("weights-v2"));
        assert!(db
            .graph()
            .out_neighbors(w2, prov_model::EdgeKind::WasDerivedFrom)
            .next()
            .is_none());
        db.graph().validate_acyclic().unwrap();
    }

    #[test]
    fn sessions_pin_their_snapshot_across_mutations() {
        let (mut db, data, weights) = small_project();
        let mut session = db
            .segment_session(
                PgSegQuery::between(vec![data], vec![weights]),
                &PgSegOptions::default(),
            )
            .unwrap();
        let before = session.segment().vertex_count();
        // Mutating the database copy-on-writes the graph; the live session
        // keeps evaluating against the snapshot it pinned at open.
        db.record_activity(ActivityRecord {
            command: "train".into(),
            agent: None,
            inputs: vec![data],
            outputs: vec![OutputSpec::named("weights")],
            props: vec![],
        })
        .unwrap();
        assert!(db.graph().vertex_count() > session.graph().vertex_count());
        session.expand(&[data], 1);
        assert_eq!(session.segment().vertex_count(), before);
    }

    #[test]
    fn json_round_trip_preserves_versions() {
        let (db, ..) = small_project();
        let json = db.export_json().unwrap();
        let mut db2 = ProvDb::import_json(&json).unwrap();
        assert_eq!(db2.graph().vertex_count(), db.graph().vertex_count());
        // Version counters restored: the next weights version is v2.
        let out = db2
            .record_activity(ActivityRecord {
                command: "train".into(),
                agent: None,
                inputs: vec![],
                outputs: vec![OutputSpec::named("weights")],
                props: vec![],
            })
            .unwrap();
        assert_eq!(db2.graph().vertex_name(out.outputs[0]), Some("weights-v2"));
    }

    #[test]
    fn entity_lookup_by_versioned_name() {
        let (db, data, _) = small_project();
        assert_eq!(db.entity("dataset-v1"), Some(data));
        assert_eq!(db.entity("dataset-v9"), None);
    }

    // ------------------------------------------------------------------
    // Durability
    // ------------------------------------------------------------------

    use prov_store::storage::MemIo;

    fn open_mem(disk: &MemIo) -> ProvDb {
        ProvDb::open_with_io(Box::new(disk.clone()), DurabilityPolicy::never_compact()).unwrap()
    }

    /// Drive the same ingestion through a durable db and return it.
    fn durable_project(disk: &MemIo) -> (ProvDb, VertexId, VertexId) {
        let mut db = open_mem(disk);
        let alice = db.add_agent("alice").unwrap();
        let data = db.add_artifact_version("dataset", Some(alice)).unwrap();
        let out = db
            .record_activity(ActivityRecord {
                command: "train".into(),
                agent: Some(alice),
                inputs: vec![data],
                outputs: vec![
                    OutputSpec::named("weights").with("acc", 0.7),
                    OutputSpec::named("log"),
                ],
                props: vec![("opt".into(), "-gpu".into())],
            })
            .unwrap();
        (db, data, out.outputs[0])
    }

    #[test]
    fn durable_reopen_restores_graph_index_and_versions() {
        let disk = MemIo::new();
        let (db, ..) = durable_project(&disk);
        assert!(db.is_durable());
        let counters = db.durability_counters().unwrap();
        assert_eq!(counters.wal_appends, 3, "one batch per ingestion call");
        assert_eq!(counters.fsyncs, 3);
        drop(db);

        let mut db2 = open_mem(&disk);
        let (reference, ..) = small_project();
        assert_eq!(db2.graph(), reference.graph(), "recovered graph == in-memory twin");
        // The recovered index is installed: the first acquisition reuses it
        // and equals a from-scratch rebuild.
        let snap = db2.snapshot();
        assert_eq!(db2.snapshot_counters().reuses, 1);
        assert_eq!(db2.snapshot_counters().rebuilds, 0);
        assert_eq!(*snap, ProvIndex::build(db2.graph()));
        // Version counters recovered: the next weights version is v2, and it
        // derives from the recovered v1.
        let out = db2
            .record_activity(ActivityRecord {
                command: "retrain".into(),
                agent: None,
                inputs: vec![],
                outputs: vec![OutputSpec::named("weights")],
                props: vec![],
            })
            .unwrap();
        assert_eq!(db2.graph().vertex_name(out.outputs[0]), Some("weights-v2"));
        assert_eq!(db2.durability_counters().unwrap().recoveries, 1);
    }

    #[test]
    fn durable_with_graph_mut_commits_one_batch() {
        let disk = MemIo::new();
        let (mut db, data, _) = durable_project(&disk);
        let appends_before = db.durability_counters().unwrap().wal_appends;
        let v = db
            .try_with_graph_mut(|g| {
                let t = g.add_activity("bulk");
                let w = g.add_entity("bulk-out");
                g.add_edge(prov_model::EdgeKind::Used, t, data).unwrap();
                g.add_edge(prov_model::EdgeKind::WasGeneratedBy, w, t).unwrap();
                w
            })
            .unwrap();
        assert_eq!(db.durability_counters().unwrap().wal_appends, appends_before + 1);
        let db2 = open_mem(&disk);
        assert_eq!(db2.graph(), db.graph());
        assert!(db2.descendants_of(data).contains(&v));
    }

    #[test]
    fn durable_compaction_is_transparent_to_reopen() {
        let disk = MemIo::new();
        let (mut db, data, _) = durable_project(&disk);
        assert!(db.wal_bytes().unwrap() > 0);
        assert!(db.compact().unwrap());
        assert_eq!(db.wal_bytes().unwrap(), 0);
        assert_eq!(db.durability_counters().unwrap().snapshots_written, 1);
        // Post-compaction ingest lands in the new WAL generation.
        db.add_artifact_version("dataset", None).unwrap();
        let db2 = open_mem(&disk);
        assert_eq!(db2.graph(), db.graph());
        assert_eq!(db2.durability_counters().unwrap().batches_replayed, 1);
        assert_eq!(db2.latest_version("dataset"), db.latest_version("dataset"));
        assert!(db2.descendants_of(data).len() >= 2);
    }

    #[test]
    fn durable_auto_compaction_follows_policy() {
        let disk = MemIo::new();
        let mut db = ProvDb::open_with_io(
            Box::new(disk.clone()),
            DurabilityPolicy { compact_after_wal_bytes: 256, ..DurabilityPolicy::default() },
        )
        .unwrap();
        for _ in 0..20 {
            db.add_artifact_version("blob", None).unwrap();
        }
        let counters = db.durability_counters().unwrap();
        assert!(counters.snapshots_written >= 1, "auto-compaction never fired");
        let db2 = open_mem(&disk);
        assert_eq!(db2.graph(), db.graph());
    }

    #[test]
    fn rejected_durable_activity_commits_nothing() {
        let disk = MemIo::new();
        let (mut db, data, _) = durable_project(&disk);
        let appends = db.durability_counters().unwrap().wal_appends;
        let before = db.graph().clone();
        // `data` is an entity, not an agent — rejected up front.
        assert!(db
            .record_activity(ActivityRecord {
                command: "x".into(),
                agent: Some(data),
                inputs: vec![],
                outputs: vec![OutputSpec::named("m")],
                props: vec![],
            })
            .is_err());
        assert_eq!(db.durability_counters().unwrap().wal_appends, appends);
        assert_eq!(db.graph(), &before);
        let db2 = open_mem(&disk);
        assert_eq!(db2.graph(), &before);
    }

    #[test]
    fn in_memory_databases_have_no_durability_surface() {
        let (mut db, ..) = small_project();
        assert!(!db.is_durable());
        assert_eq!(db.durability_counters(), None);
        assert_eq!(db.wal_bytes(), None);
        assert!(!db.compact().unwrap());
        assert_eq!(db.graph().journal_len(), 0, "no journaling overhead in memory");
    }
}
