//! The serializable request/response envelope.
//!
//! Every facade operation of the reproduction — ingestion, PgSeg
//! segmentation (one-shot and interactive), PgSum summarization, lineage,
//! and the JSON interchange — is expressible as one [`Request`] value, and
//! every outcome as one [`Response`]. Both enums are externally tagged on
//! the wire (`{"OpenSession": {...}}`), so a transport can route on the tag
//! without touching the payload.
//!
//! Design points:
//!
//! * [`EntityRef`] — query vertices are addressed by dense id *or* versioned
//!   name (`"model-v2"`), so clients never need to hold ids.
//! * [`Stats`] — every successful response carries a latency/size envelope,
//!   timed by the injected [`crate::Clock`].
//! * DTOs ([`SegmentDto`], [`PsgDto`]) — segments and summaries are
//!   flattened into self-describing wire shapes (names, kinds, category
//!   tags) instead of bare id lists.

use crate::error::ErrorCode;
use prov_model::{EdgeId, EdgeKind, PropValue, VertexId, VertexKind};
use prov_segment::SegmentGraph;
use prov_store::ProvGraph;
use prov_summary::Psg;
use serde::{Deserialize, Serialize};

// ---------------------------------------------------------------------------
// Addressing
// ---------------------------------------------------------------------------

/// Handle of one live PgSeg session inside a [`crate::ProvService`] registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct SessionId(pub u64);

impl SessionId {
    /// Construct from a raw counter value.
    pub const fn new(raw: u64) -> Self {
        SessionId(raw)
    }

    /// The raw counter value.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A vertex reference that resolves by dense id or by versioned name
/// (`"model-v2"`, `"alice"`). Serialized untagged: a JSON number is an id, a
/// JSON string is a name.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(untagged)]
pub enum EntityRef {
    /// Dense vertex id.
    Id(VertexId),
    /// Versioned artifact name (or agent/activity name).
    Name(String),
}

impl EntityRef {
    /// Resolve against a graph: ids are bounds-checked, names looked up.
    pub fn resolve(&self, graph: &ProvGraph) -> crate::error::ApiResult<VertexId> {
        match self {
            EntityRef::Id(v) => {
                graph.try_vertex(*v)?;
                Ok(*v)
            }
            EntityRef::Name(name) => graph
                .vertex_by_name(name)
                .ok_or_else(|| crate::error::ApiError::UnknownEntity(name.clone())),
        }
    }

    /// Resolve a whole reference list.
    pub fn resolve_all(
        refs: &[EntityRef],
        graph: &ProvGraph,
    ) -> crate::error::ApiResult<Vec<VertexId>> {
        refs.iter().map(|r| r.resolve(graph)).collect()
    }
}

impl From<VertexId> for EntityRef {
    fn from(v: VertexId) -> Self {
        EntityRef::Id(v)
    }
}

impl From<&str> for EntityRef {
    fn from(name: &str) -> Self {
        EntityRef::Name(name.to_string())
    }
}

// ---------------------------------------------------------------------------
// The stats envelope
// ---------------------------------------------------------------------------

/// Query-IR evaluation counters (wire twin of [`prov_store::QueryStats`]
/// plus the service's cumulative cursor-resumption count). Meaningful on
/// [`QueryResponse`] stats; all-zero elsewhere. A page served from a held
/// walk answer (a resumption after the first, see [`crate::held`]) ran no
/// step, so its three work counters are 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct QueryActivity {
    /// Pipeline steps evaluated (start materialization included); 0 when
    /// served from a held answer.
    pub steps: u32,
    /// Rows inspected across all steps (frontier vertices + filtered rows);
    /// 0 when served from a held answer.
    pub rows_scanned: u64,
    /// Largest BFS frontier any traverse step held; 0 when served from a
    /// held answer.
    pub frontier_peak: u32,
    /// Cursor resumptions served by this service so far (cumulative, like
    /// [`Stats::snapshot`]): paginated clients make it grow, one-shot
    /// clients leave it flat.
    pub resumptions: u64,
}

impl QueryActivity {
    /// Wrap the evaluator's counters, stamping the service-level
    /// resumption count.
    pub fn from_stats(stats: prov_store::QueryStats, resumptions: u64) -> Self {
        QueryActivity {
            steps: stats.steps,
            rows_scanned: stats.rows_scanned,
            frontier_peak: stats.frontier_peak,
            resumptions,
        }
    }
}

/// Per-response measurement envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Stats {
    /// Service-side latency in microseconds (measured by the injected clock).
    pub elapsed_micros: u64,
    /// Vertices in the result (or in the store, for ingest/import).
    pub vertices: usize,
    /// Edges in the result (or in the store, for ingest/import).
    pub edges: usize,
    /// Snapshot reuse/refresh/rebuild counters at response time (cumulative
    /// over the database's lifetime; stamped by the service). Every query
    /// that needs a frozen snapshot resolves as exactly one of the three, so
    /// refreshes silently degrading to rebuilds is visible to any client.
    /// Absent on old wires: deserializes to all-zero.
    #[serde(default)]
    pub snapshot: prov_core::SnapshotCounters,
    /// Query-IR evaluation counters (set on query responses). Absent on old
    /// wires: deserializes to all-zero.
    #[serde(default)]
    pub query: QueryActivity,
    /// Durable-storage counters at response time (cumulative; all-zero for
    /// in-memory databases). Absent on old wires: deserializes to all-zero.
    #[serde(default)]
    pub durability: prov_core::DurabilityCounters,
}

impl Stats {
    /// Stats sized after a result; latency and snapshot counters are
    /// stamped by the service.
    pub fn sized(vertices: usize, edges: usize) -> Stats {
        Stats { vertices, edges, ..Stats::default() }
    }

    /// Stats sized after a whole graph.
    pub fn of_graph(graph: &ProvGraph) -> Stats {
        Stats::sized(graph.vertex_count(), graph.edge_count())
    }
}

// ---------------------------------------------------------------------------
// Request payloads
// ---------------------------------------------------------------------------

/// Register a team member.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AddAgentRequest {
    /// Agent name.
    pub name: String,
}

/// Register a new artifact version (external addition).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AddArtifactRequest {
    /// Artifact base name (versioned automatically to `name-vN`).
    pub artifact: String,
    /// Optional owning agent.
    #[serde(default)]
    pub attributed_to: Option<EntityRef>,
}

/// One artifact an activity generates (wire twin of
/// [`prov_core::OutputSpec`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OutputSpecDto {
    /// Artifact base name.
    pub artifact: String,
    /// Properties to attach to the new version.
    #[serde(default)]
    pub props: Vec<(String, PropValue)>,
}

/// Ingest one activity execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecordActivityRequest {
    /// Command line / operation name.
    pub command: String,
    /// Responsible agent.
    #[serde(default)]
    pub agent: Option<EntityRef>,
    /// Input entity versions the activity used.
    #[serde(default)]
    pub inputs: Vec<EntityRef>,
    /// Artifacts generated.
    #[serde(default)]
    pub outputs: Vec<OutputSpecDto>,
    /// Extra activity properties.
    #[serde(default)]
    pub props: Vec<(String, PropValue)>,
}

/// Wire-selectable similarity evaluator (subset of
/// [`prov_segment::SimilarEvaluator`] that needs no tuning structs).
///
/// **Accepted and ignored by the serving path.** `Segment` and
/// `OpenSession` always induce with SimProvTst whatever is named here (see
/// [`prov_segment::PgSegOptions`]): every value returns the `Tst` answer.
/// The enum stays on the wire until its removal is coordinated with the
/// clients that name it (ROADMAP items 4(d) and 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EvaluatorSpec {
    /// Naive Cypher-style enumerate-and-join.
    Naive,
    /// Generic CflrB on the Fig. 6 normal form, bitset fact tables.
    CflrBitset,
    /// Generic CflrB, compressed-bitmap fact tables.
    CflrCompressed,
    /// SimProvAlg, bitset fact tables.
    AlgBitset,
    /// SimProvAlg, compressed-bitmap fact tables.
    AlgCompressed,
    /// SimProvTst (the default; exact `VC2` induction).
    Tst,
}

/// Wire twin of [`prov_segment::PgSegOptions`]; unset fields take the
/// library defaults. Only `early_stop` reaches the serving path's kernel:
/// induction is always SimProvTst, so `evaluator` and `symmetric_prune` are
/// accepted and ignored.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SegmentOptions {
    /// Similarity evaluator. Ignored: the serving path always induces with
    /// SimProvTst (see [`EvaluatorSpec`]).
    #[serde(default)]
    pub evaluator: Option<EvaluatorSpec>,
    /// Early stopping (default: on). A pure work bound: SimProvTst cuts its
    /// length axis at the farthest source, which is exact for any document,
    /// so the segment is the same with it off.
    #[serde(default)]
    pub early_stop: Option<bool>,
    /// Symmetric-pair pruning. Ignored: it is a SimProvAlg knob and the
    /// serving path never runs SimProvAlg.
    #[serde(default)]
    pub symmetric_prune: Option<bool>,
}

impl SegmentOptions {
    /// Lower onto the library options, filling unset fields with defaults.
    pub fn to_options(self) -> prov_segment::PgSegOptions {
        use prov_segment::SimilarEvaluator;
        let defaults = prov_segment::PgSegOptions::default();
        let evaluator = match self.evaluator.unwrap_or(EvaluatorSpec::Tst) {
            EvaluatorSpec::Naive => SimilarEvaluator::Naive,
            EvaluatorSpec::CflrBitset => SimilarEvaluator::CflrB(prov_bitset_backend(false)),
            EvaluatorSpec::CflrCompressed => SimilarEvaluator::CflrB(prov_bitset_backend(true)),
            EvaluatorSpec::AlgBitset => SimilarEvaluator::SimProvAlg(prov_bitset_backend(false)),
            EvaluatorSpec::AlgCompressed => SimilarEvaluator::SimProvAlg(prov_bitset_backend(true)),
            EvaluatorSpec::Tst => SimilarEvaluator::SimProvTst,
        };
        prov_segment::PgSegOptions {
            evaluator,
            early_stop: self.early_stop.unwrap_or(defaults.early_stop),
            symmetric_prune: self.symmetric_prune.unwrap_or(defaults.symmetric_prune),
            naive_budget: defaults.naive_budget,
        }
    }
}

fn prov_bitset_backend(compressed: bool) -> prov_bitset::SetBackend {
    if compressed {
        prov_bitset::SetBackend::Compressed
    } else {
        prov_bitset::SetBackend::Bit
    }
}

/// Run a one-shot PgSeg query (`(Vsrc, Vdst, B)`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SegmentRequest {
    /// Source entities.
    pub src: Vec<EntityRef>,
    /// Destination entities.
    pub dst: Vec<EntityRef>,
    /// Boundary criteria `B`.
    #[serde(default)]
    pub boundary: crate::spec::BoundarySpec,
    /// Evaluation options.
    #[serde(default)]
    pub options: SegmentOptions,
}

/// Open an interactive PgSeg session (induce once, adjust repeatedly).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpenSessionRequest {
    /// Source entities.
    pub src: Vec<EntityRef>,
    /// Destination entities.
    pub dst: Vec<EntityRef>,
    /// Boundary criteria `B` applied at induce time.
    #[serde(default)]
    pub boundary: crate::spec::BoundarySpec,
    /// Evaluation options.
    #[serde(default)]
    pub options: SegmentOptions,
}

/// Adjust step: grow a session's segment with an expansion `bx(Vx, k)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExpandRequest {
    /// The session to adjust.
    pub session: SessionId,
    /// Entities to expand from.
    pub roots: Vec<EntityRef>,
    /// Number of activities away (2k ancestry hops).
    pub k: u32,
}

/// Adjust step: filter a session's segment with extra exclusion criteria.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RestrictRequest {
    /// The session to adjust.
    pub session: SessionId,
    /// Additional exclusions (expansions are rejected here — send
    /// [`ExpandRequest`] instead).
    pub boundary: crate::spec::BoundarySpec,
}

/// Drop a session from the registry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CloseSessionRequest {
    /// The session to close.
    pub session: SessionId,
}

/// Summarize the current segments of one or more sessions with PgSum.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SummarizeRequest {
    /// Sessions whose segments form the input set `S` (must all pin the same
    /// graph snapshot).
    pub sessions: Vec<SessionId>,
    /// Provenance-type radius `k` of `Rk` (default 1).
    #[serde(default)]
    pub k: Option<usize>,
    /// Entity property keys to aggregate by (default: `filename`).
    #[serde(default)]
    pub entity_keys: Vec<String>,
    /// Activity property keys to aggregate by (default: `command`).
    #[serde(default)]
    pub activity_keys: Vec<String>,
}

/// Which way a lineage query walks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LineageDir {
    /// Transitive inputs.
    Ancestors,
    /// Transitive products.
    Descendants,
}

/// Walk the ancestry closure of one entity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LineageRequest {
    /// The entity to start from.
    pub entity: EntityRef,
    /// Walk direction.
    pub direction: LineageDir,
    /// Maximum ancestry hops (one hop = one `U`/`G` edge; "k activities
    /// away" is `2k`). Unset walks the full closure — the pre-bounded wire
    /// shape.
    #[serde(default)]
    pub max_hops: Option<u32>,
}

/// What a [`QueryRequest`] evaluates: a query-IR pipeline directly, or a
/// Cypher-flavoured path pattern. Patterns in the lowerable family (single
/// unbounded star, see [`prov_store::lower_pattern`]) compile onto the IR
/// and gain its cursors; the rest fall back to the materializing pattern
/// engine and report truncation via [`QueryResponse::is_complete`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum QuerySpec {
    /// A query-IR pipeline (`StartSet → (Traverse | Filter | Limit)* →
    /// Project`), evaluated as-is.
    Pipeline(prov_store::Pipeline),
    /// A path pattern, lowered onto the IR when possible.
    Pattern(prov_store::PathPattern),
}

/// Evaluate a composable query, optionally paginated with a resumable
/// cursor and optionally pinned to a live session's snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryRequest {
    /// The query to evaluate.
    pub query: QuerySpec,
    /// Pin evaluation to this session's frozen graph/index snapshot. Pinned
    /// queries are byte-stable across pages even while the live store
    /// ingests; unpinned queries evaluate over the current snapshot, where
    /// the cursor's rank watermark keeps *structure* stable but property
    /// edits between pages can show through (property writes do not move
    /// the store's delta cursor).
    #[serde(default)]
    pub session: Option<SessionId>,
    /// Rows per page. Unset returns everything in one shot (no cursor).
    #[serde(default)]
    pub page_size: Option<usize>,
    /// Resume token from a previous page's [`QueryResponse::cursor`]. IR
    /// pipelines and lowerable patterns replay at the token's watermark
    /// (the first resumption of a walk holds that answer for the later
    /// pages, unless the pipeline filters on properties); a non-lowerable
    /// pattern cannot replay, so its token is refused as a stale cursor once
    /// the evaluated snapshot has moved (a pinned session's never does).
    #[serde(default)]
    pub cursor: Option<prov_store::QueryCursor>,
    /// Pattern-fallback budget: maximum search-tree expansions (default
    /// and ceiling: the library's [`prov_store::Budget`] default — a larger
    /// value is clamped to it). Ignored for IR pipelines and lowerable
    /// patterns.
    #[serde(default)]
    pub max_expansions: Option<u64>,
    /// Pattern-fallback budget: maximum materialized paths (same default
    /// and ceiling rule).
    #[serde(default)]
    pub max_paths: Option<usize>,
}

/// Export the store as PROV-JSON-style interchange.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExportRequest {}

/// Replace the store from PROV-JSON-style interchange. Live sessions keep
/// the snapshot they pinned at open.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImportRequest {
    /// The interchange document.
    pub json: String,
}

/// One service request (externally tagged on the wire).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Register a team member.
    AddAgent(AddAgentRequest),
    /// Register a new artifact version.
    AddArtifact(AddArtifactRequest),
    /// Ingest one activity execution.
    RecordActivity(RecordActivityRequest),
    /// One-shot PgSeg.
    Segment(SegmentRequest),
    /// Open an interactive PgSeg session.
    OpenSession(OpenSessionRequest),
    /// Expand a session's segment.
    Expand(ExpandRequest),
    /// Restrict a session's segment.
    Restrict(RestrictRequest),
    /// Close a session.
    CloseSession(CloseSessionRequest),
    /// PgSum over session segments.
    Summarize(SummarizeRequest),
    /// Ancestry closure of one entity.
    Lineage(LineageRequest),
    /// Composable query (IR pipeline or pattern), cursor-paginable.
    Query(QueryRequest),
    /// Export the store.
    Export(ExportRequest),
    /// Replace the store.
    Import(ImportRequest),
}

// ---------------------------------------------------------------------------
// Response payloads
// ---------------------------------------------------------------------------

/// One segment vertex on the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SegmentVertexDto {
    /// Dense vertex id.
    pub id: VertexId,
    /// Vertex name, when named.
    pub name: Option<String>,
    /// Vertex kind.
    pub kind: VertexKind,
    /// Category tags (`src|vc1|vc2|...`).
    pub tags: String,
}

/// One induced segment edge on the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SegmentEdgeDto {
    /// Dense edge id.
    pub id: EdgeId,
    /// Source vertex.
    pub src: VertexId,
    /// Destination vertex.
    pub dst: VertexId,
    /// Relationship kind.
    pub kind: EdgeKind,
}

/// A PgSeg segment on the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SegmentDto {
    /// Queried sources.
    pub vsrc: Vec<VertexId>,
    /// Queried destinations.
    pub vdst: Vec<VertexId>,
    /// Segment vertices.
    pub vertices: Vec<SegmentVertexDto>,
    /// Induced edges.
    pub edges: Vec<SegmentEdgeDto>,
}

impl SegmentDto {
    /// Flatten a segment against its backing graph.
    pub fn from_segment(graph: &ProvGraph, seg: &SegmentGraph) -> SegmentDto {
        let vertices = seg
            .vertices
            .iter()
            .zip(seg.categories.iter())
            .map(|(&v, c)| SegmentVertexDto {
                id: v,
                name: graph.vertex_name(v).map(str::to_string),
                kind: graph.vertex_kind(v),
                tags: c.tags(),
            })
            .collect();
        let edges = seg
            .edges
            .iter()
            .map(|&e| {
                let rec = graph.edge(e);
                SegmentEdgeDto { id: e, src: rec.src, dst: rec.dst, kind: rec.kind }
            })
            .collect();
        SegmentDto { vsrc: seg.vsrc.clone(), vdst: seg.vdst.clone(), vertices, edges }
    }

    /// Membership test by vertex id.
    pub fn contains(&self, v: VertexId) -> bool {
        self.vertices.iter().any(|x| x.id == v)
    }

    /// The raw vertex id set.
    pub fn vertex_ids(&self) -> Vec<VertexId> {
        self.vertices.iter().map(|x| x.id).collect()
    }
}

/// One summary vertex on the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PsgVertexDto {
    /// Display label (representative name + provenance-type tag).
    pub label: String,
    /// Vertex kind.
    pub kind: VertexKind,
    /// Members as `(segment index, vertex id)` pairs.
    pub members: Vec<(u32, VertexId)>,
}

/// One summary edge on the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PsgEdgeDto {
    /// Source summary vertex (index into the vertex list).
    pub src: u32,
    /// Destination summary vertex.
    pub dst: u32,
    /// Relationship kind.
    pub kind: EdgeKind,
    /// `γ(e)` — fraction of input segments containing such an edge.
    pub frequency: f64,
}

/// A provenance summary graph on the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PsgDto {
    /// Summary vertices.
    pub vertices: Vec<PsgVertexDto>,
    /// Summary edges.
    pub edges: Vec<PsgEdgeDto>,
    /// Number of input segments.
    pub segment_count: usize,
    /// Total input vertex instances.
    pub input_vertex_count: usize,
    /// `|M| / |⋃ᵢ VSᵢ|` (lower is better).
    pub compaction_ratio: f64,
}

impl PsgDto {
    /// Flatten a summary graph.
    pub fn from_psg(psg: &Psg) -> PsgDto {
        PsgDto {
            vertices: psg
                .vertices
                .iter()
                .map(|v| PsgVertexDto {
                    label: v.label.clone(),
                    kind: v.kind,
                    members: v.members.clone(),
                })
                .collect(),
            edges: psg
                .edges
                .iter()
                .map(|e| PsgEdgeDto {
                    src: e.src,
                    dst: e.dst,
                    kind: e.kind,
                    frequency: e.frequency,
                })
                .collect(),
            segment_count: psg.segment_count,
            input_vertex_count: psg.input_vertex_count,
            compaction_ratio: psg.compaction_ratio(),
        }
    }
}

/// Error outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorResponse {
    /// Wire-stable discriminant.
    pub code: ErrorCode,
    /// Human-readable description.
    pub message: String,
}

/// A single created/resolved vertex.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VertexResponse {
    /// The vertex.
    pub id: VertexId,
    /// Its name, when named.
    pub name: Option<String>,
    /// Measurement envelope.
    pub stats: Stats,
}

/// Outcome of an activity ingest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActivityResponse {
    /// The activity vertex.
    pub activity: VertexId,
    /// Generated entity versions, in request order.
    pub outputs: Vec<VertexId>,
    /// Measurement envelope.
    pub stats: Stats,
}

/// Outcome of a one-shot PgSeg.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SegmentResponse {
    /// The induced segment.
    pub segment: SegmentDto,
    /// Measurement envelope.
    pub stats: Stats,
}

/// Outcome of opening or adjusting a session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionResponse {
    /// The session handle.
    pub session: SessionId,
    /// Its current (possibly adjusted) segment.
    pub segment: SegmentDto,
    /// Measurement envelope.
    pub stats: Stats,
}

/// Outcome of closing a session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClosedResponse {
    /// The closed session.
    pub session: SessionId,
    /// Measurement envelope.
    pub stats: Stats,
}

/// Outcome of a PgSum summarization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SummaryResponse {
    /// The summary graph.
    pub summary: PsgDto,
    /// Measurement envelope.
    pub stats: Stats,
}

/// Outcome of a lineage walk.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LineageResponse {
    /// The resolved start entity.
    pub entity: VertexId,
    /// The (possibly depth-bounded) closure. **Order contract**: sorted
    /// ascending by dense vertex id, start excluded — never BFS discovery
    /// order. Clients may rely on this (regression-tested in
    /// `tests/service_flow.rs` and `prov_core::provdb`).
    pub vertices: Vec<VertexId>,
    /// Measurement envelope.
    pub stats: Stats,
}

/// Outcome (one page) of a composable query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryResponse {
    /// This page's rows. **Order contract**: ascending by dense vertex id,
    /// like every read path the IR unified.
    pub rows: Vec<VertexId>,
    /// Total result rows at the cursor's watermark (the whole result, not
    /// this page; what `Project::Count` returns with no rows).
    pub count: u64,
    /// False when a pattern fell back to the materializing engine and its
    /// budget ran out before the search finished: `rows` is a *truncated*
    /// answer. IR-evaluated queries are always complete.
    pub is_complete: bool,
    /// Resume token for the next page; absent on the last (or only) page.
    #[serde(default)]
    pub cursor: Option<prov_store::QueryCursor>,
    /// Measurement envelope (query counters in `stats.query`).
    pub stats: Stats,
}

/// Outcome of an export.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DocumentResponse {
    /// The interchange document.
    pub json: String,
    /// Measurement envelope.
    pub stats: Stats,
}

/// Outcome of an import.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImportedResponse {
    /// Measurement envelope (sized after the imported store).
    pub stats: Stats,
}

/// One service response (externally tagged on the wire).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// The request failed and changed nothing: ingestion validates the whole
    /// record before its first write, imports replace the store only on
    /// success, and query operations are read-only.
    Error(ErrorResponse),
    /// A vertex was created or resolved.
    Vertex(VertexResponse),
    /// An activity was ingested.
    Activity(ActivityResponse),
    /// A one-shot segment.
    Segment(SegmentResponse),
    /// A session was opened or adjusted.
    Session(SessionResponse),
    /// A session was closed.
    Closed(ClosedResponse),
    /// A summary graph.
    Summary(SummaryResponse),
    /// A lineage closure.
    Lineage(LineageResponse),
    /// One page of a composable query.
    Query(QueryResponse),
    /// An exported document.
    Document(DocumentResponse),
    /// The store was replaced.
    Imported(ImportedResponse),
}

impl Response {
    /// The measurement envelope, when the response carries one (everything
    /// but errors).
    pub fn stats_mut(&mut self) -> Option<&mut Stats> {
        match self {
            Response::Error(_) => None,
            Response::Vertex(r) => Some(&mut r.stats),
            Response::Activity(r) => Some(&mut r.stats),
            Response::Segment(r) => Some(&mut r.stats),
            Response::Session(r) => Some(&mut r.stats),
            Response::Closed(r) => Some(&mut r.stats),
            Response::Summary(r) => Some(&mut r.stats),
            Response::Lineage(r) => Some(&mut r.stats),
            Response::Query(r) => Some(&mut r.stats),
            Response::Document(r) => Some(&mut r.stats),
            Response::Imported(r) => Some(&mut r.stats),
        }
    }

    /// The measurement envelope, read-only (everything but errors).
    pub fn stats(&self) -> Option<&Stats> {
        match self {
            Response::Error(_) => None,
            Response::Vertex(r) => Some(&r.stats),
            Response::Activity(r) => Some(&r.stats),
            Response::Segment(r) => Some(&r.stats),
            Response::Session(r) => Some(&r.stats),
            Response::Closed(r) => Some(&r.stats),
            Response::Summary(r) => Some(&r.stats),
            Response::Lineage(r) => Some(&r.stats),
            Response::Query(r) => Some(&r.stats),
            Response::Document(r) => Some(&r.stats),
            Response::Imported(r) => Some(&r.stats),
        }
    }

    /// True when this is an error response.
    pub fn is_error(&self) -> bool {
        matches!(self, Response::Error(_))
    }
}
