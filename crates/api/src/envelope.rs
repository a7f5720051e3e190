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
//!   tags) instead of bare id lists. The service writes those shapes
//!   straight from the kernel's result, so a DTO is built only by
//!   [`crate::ProvService::handle`] and by clients that parse answers. The
//!   DTOs' `Serialize` is derived; the views' unit tests and the wire
//!   transcript's `handle_json == to_string(&handle)` leg hold the two
//!   writers to the same bytes.

use crate::error::ErrorCode;
use prov_model::{EdgeId, EdgeKind, PropValue, VertexId, VertexKind};
use prov_segment::SegmentGraph;
use prov_store::ProvGraph;
use prov_summary::{Psg, PsgEdge, PsgVertex};
use serde::{Deserialize, JsonWriter, Serialize};

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
/// clients that name it (ROADMAP items 6(d)/7(c)).
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
    /// graph snapshot). Each session may be listed once: `|S|` divides every
    /// edge frequency `γ`, so a repeated id is refused with `InvalidQuery`.
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
/// Cypher-flavoured path pattern. Both run on the one IR engine: a pattern
/// compiles through [`prov_store::lower_pattern`] when the IR's distance
/// semantics equal its path semantics (at most one step, `min_hops` 0, or 1
/// from at most one start going `Forward`/`Backward`, no reverse agent
/// slice), and is refused with `InvalidQuery` otherwise.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum QuerySpec {
    /// A query-IR pipeline (`StartSet → (Traverse | Filter | Limit)* →
    /// Project`), evaluated as-is.
    Pipeline(prov_store::Pipeline),
    /// A path pattern, lowered onto the IR or refused.
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
    /// Rows per page, at least 1: `Some(0)` is refused with `InvalidQuery`
    /// (it would page nothing and end the walk). Unset returns everything
    /// in one shot (no cursor).
    #[serde(default)]
    pub page_size: Option<usize>,
    /// Resume token from a previous page's [`QueryResponse::cursor`]. The
    /// walk replays at the token's watermark (the first resumption of a
    /// walk holds that answer for the later pages, unless the pipeline
    /// filters on properties).
    #[serde(default)]
    pub cursor: Option<prov_store::QueryCursor>,
    /// Ignored: no query materializes paths, so there is no budget to set.
    /// Kept only because `benchmark/src/program.rs` constructs it; removed
    /// with ROADMAP items 6(d)/7(c).
    #[serde(default)]
    pub max_expansions: Option<u64>,
    /// Ignored, like [`QueryRequest::max_expansions`].
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

impl SegmentEdgeDto {
    /// Edge `e` of `graph`.
    fn of(graph: &ProvGraph, e: EdgeId) -> SegmentEdgeDto {
        let rec = graph.edge(e);
        SegmentEdgeDto { id: e, src: rec.src, dst: rec.dst, kind: rec.kind }
    }
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
                tags: c.to_string(),
            })
            .collect();
        let edges = seg.edges.iter().map(|&e| SegmentEdgeDto::of(graph, e)).collect();
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

impl From<&PsgEdge> for PsgEdgeDto {
    fn from(e: &PsgEdge) -> Self {
        PsgEdgeDto { src: e.src, dst: e.dst, kind: e.kind, frequency: e.frequency }
    }
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
        let vertex = |v: &PsgVertex| PsgVertexDto {
            label: v.label.clone(),
            kind: v.kind,
            members: v.members.clone(),
        };
        PsgDto {
            vertices: psg.vertices.iter().map(vertex).collect(),
            edges: psg.edges.iter().map(PsgEdgeDto::from).collect(),
            segment_count: psg.segment_count,
            input_vertex_count: psg.input_vertex_count,
            compaction_ratio: psg.compaction_ratio(),
        }
    }
}

// ---------------------------------------------------------------------------
// Segment and summary encoders
// ---------------------------------------------------------------------------

/// Bytes reserved per row of a segment or summary, per summary member, and
/// for what surrounds the rows (the `Stats` block among it): a response
/// grows its buffer once, not a doubling at a time. The segment answers of
/// the `explore` benchmark average 58 bytes a row; a member is `[s,v],`.
const ROW_BYTES: usize = 72;
const MEMBER_BYTES: usize = 12;
const ENVELOPE_BYTES: usize = 512;

/// `items` as a JSON array, each written by `write`.
fn write_seq<T>(
    out: &mut JsonWriter,
    items: impl IntoIterator<Item = T>,
    mut write: impl FnMut(&mut JsonWriter, T) -> Result<(), serde::Error>,
) -> Result<(), serde::Error> {
    out.begin_seq();
    for item in items {
        out.element();
        write(out, item)?;
    }
    out.end_seq();
    Ok(())
}

/// A kernel's segment read through its backing graph: writes the bytes of
/// [`SegmentDto::from_segment`]`(graph, segment)` without building it.
#[derive(Clone, Copy)]
pub(crate) struct SegmentView<'a> {
    pub(crate) graph: &'a ProvGraph,
    pub(crate) segment: &'a SegmentGraph,
}

impl Serialize for SegmentView<'_> {
    /// `{"vsrc","vdst","vertices","edges"}`; a vertex is
    /// `{"id","name","kind","tags"}`, its tags written from the
    /// [`prov_segment::Categories`] `Display` text with no intermediate
    /// `String`.
    fn write_json(&self, out: &mut JsonWriter) -> Result<(), serde::Error> {
        let (graph, seg) = (self.graph, self.segment);
        out.reserve(ROW_BYTES * (seg.vertices.len() + seg.edges.len()) + ENVELOPE_BYTES);
        out.begin_map();
        out.quoted_key("\"vsrc\":");
        seg.vsrc.write_json(out)?;
        out.quoted_key("\"vdst\":");
        seg.vdst.write_json(out)?;
        out.quoted_key("\"vertices\":");
        write_seq(out, seg.vertices.iter().zip(&seg.categories), |out, (&v, tags)| {
            out.begin_map();
            out.quoted_key("\"id\":");
            v.write_json(out)?;
            out.quoted_key("\"name\":");
            graph.vertex_name(v).write_json(out)?;
            out.quoted_key("\"kind\":");
            graph.vertex_kind(v).write_json(out)?;
            out.quoted_key("\"tags\":");
            out.display(tags);
            out.end_map();
            Ok(())
        })?;
        out.quoted_key("\"edges\":");
        write_seq(out, &seg.edges, |out, &e| SegmentEdgeDto::of(graph, e).write_json(out))?;
        out.end_map();
        Ok(())
    }
}

/// A kernel's summary: writes the bytes of [`PsgDto::from_psg`] without
/// building it.
pub(crate) struct PsgView<'a>(pub(crate) &'a Psg);

impl Serialize for PsgView<'_> {
    /// `{"vertices","edges","segment_count","input_vertex_count",
    /// "compaction_ratio"}`; a vertex is `{"label","kind","members"}`.
    fn write_json(&self, out: &mut JsonWriter) -> Result<(), serde::Error> {
        let psg = self.0;
        let rows = psg.vertices.len() + psg.edges.len();
        out.reserve(ROW_BYTES * rows + MEMBER_BYTES * psg.input_vertex_count + ENVELOPE_BYTES);
        out.begin_map();
        out.quoted_key("\"vertices\":");
        write_seq(out, &psg.vertices, |out, v| {
            out.begin_map();
            out.quoted_key("\"label\":");
            v.label.write_json(out)?;
            out.quoted_key("\"kind\":");
            v.kind.write_json(out)?;
            out.quoted_key("\"members\":");
            v.members.write_json(out)?;
            out.end_map();
            Ok(())
        })?;
        out.quoted_key("\"edges\":");
        write_seq(out, &psg.edges, |out, e| PsgEdgeDto::from(e).write_json(out))?;
        out.quoted_key("\"segment_count\":");
        psg.segment_count.write_json(out)?;
        out.quoted_key("\"input_vertex_count\":");
        psg.input_vertex_count.write_json(out)?;
        out.quoted_key("\"compaction_ratio\":");
        psg.compaction_ratio().write_json(out)?;
        out.end_map();
        Ok(())
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
    /// Always `true`: every query is evaluated whole. Kept only because
    /// `benchmark/src/harness.rs` digests it; removed with ROADMAP items
    /// 6(d)/7(c).
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

#[cfg(test)]
mod tests {
    use super::*;
    use prov_segment::Categories;
    use prov_summary::ClassId;

    /// The views write the DTOs' bytes: names that need escaping, an
    /// unnamed vertex, every category bit and the empty set, an empty
    /// segment, and summary labels and frequencies, in both layouts.
    #[test]
    fn views_write_the_dto_bytes() {
        let mut graph = ProvGraph::new();
        let data = graph.add_entity("da\"ta\\set\u{1}é-v1");
        let train = graph.add_activity("train\n\t→");
        let weights = graph.add_vertex(VertexKind::Entity, None).unwrap();
        let alice = graph.add_agent("al\"ice");
        graph.add_edge(EdgeKind::Used, train, data).unwrap();
        graph.add_edge(EdgeKind::WasGeneratedBy, weights, train).unwrap();
        graph.add_edge(EdgeKind::WasAssociatedWith, train, alice).unwrap();
        let every = [
            Categories::SRC,
            Categories::DST,
            Categories::DIRECT,
            Categories::SIMILAR,
            Categories::SIBLING,
            Categories::AGENT,
            Categories::EXPANDED,
        ]
        .into_iter()
        .fold(Categories::none(), Categories::union);
        let members = vec![
            (data, Categories::SRC.union(Categories::DIRECT)),
            (train, every),
            (weights, Categories::none()),
            (alice, Categories::AGENT.union(Categories::EXPANDED)),
        ];
        let full = SegmentGraph::assemble(&graph, &[data], &[weights], members, |_| true);
        let empty = SegmentGraph::assemble(&graph, &[data], &[weights], Vec::new(), |_| true);
        assert_eq!(full.edge_count(), 3);
        for segment in [&full, &empty] {
            let view = SegmentView { graph: &graph, segment };
            let dto = SegmentDto::from_segment(&graph, segment);
            assert_eq!(serde_json::to_string(&view).unwrap(), serde_json::to_string(&dto).unwrap());
            let pretty = serde_json::to_string_pretty(&view).unwrap();
            assert_eq!(pretty, serde_json::to_string_pretty(&dto).unwrap());
            assert_eq!(serde_json::from_str::<SegmentDto>(&pretty).unwrap(), dto);
        }
        let tags = SegmentDto::from_segment(&graph, &full).vertices;
        assert_eq!(tags[1].tags, "src|dst|vc1|vc2|vc3|vc4|bx");
        assert_eq!(tags[2].tags, "");

        let vertex = |label: &str, members: Vec<(u32, VertexId)>| PsgVertex {
            class: ClassId(0),
            kind: VertexKind::Entity,
            label: label.into(),
            members,
        };
        let edge = |frequency| PsgEdge { src: 0, dst: 1, kind: EdgeKind::Used, frequency };
        let psg = Psg {
            vertices: vec![
                vertex("da\"ta\u{1}é [t0]", vec![(0, data), (2, data)]),
                vertex("", vec![]),
            ],
            edges: vec![edge(0.5), edge(1.0 / 3.0), edge(1.0)],
            segment_count: 3,
            input_vertex_count: 7,
        };
        for p in [&psg, &Psg::default()] {
            let dto = PsgDto::from_psg(p);
            assert_eq!(
                serde_json::to_string(&PsgView(p)).unwrap(),
                serde_json::to_string(&dto).unwrap()
            );
            let pretty = serde_json::to_string_pretty(&PsgView(p)).unwrap();
            assert_eq!(pretty, serde_json::to_string_pretty(&dto).unwrap());
            assert_eq!(serde_json::from_str::<PsgDto>(&pretty).unwrap(), dto);
        }
    }
}
