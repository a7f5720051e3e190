//! `ProvService`: the request dispatcher over a database and the registry of
//! everything clients made it hold.
//!
//! The service wraps a [`ProvDb`] and a [`crate::held`] registry: live
//! [`PgSegSession`]s under [`SessionId`]s, and the answers of paginated
//! query walks between their first resumption and their last page — one
//! store, one byte budget. Because sessions are `'static` (they pin the
//! graph/index snapshot they were opened against), any number of them can
//! be held concurrently and adjusted independently — the paper's interactive
//! "induce once, adjust repeatedly" loop (Sec. III-B) lifted to a
//! multi-tenant surface.
//!
//! [`ProvService::handle`] maps one [`Request`] to one [`Response`] and
//! never panics on bad input: every failure funnels through
//! [`crate::ApiError`] into [`Response::Error`]. [`ProvService::handle_json`]
//! is the byte-level entry a transport would bind. Both run one dispatch,
//! whose reply keeps a segment or summary answer as the kernel left it:
//! `handle_json` writes that straight into the wire buffer, and only
//! `handle` flattens it into DTOs.

use crate::clock::{Clock, SystemClock};
use crate::envelope::*;
use crate::error::{ApiError, ApiResult};
use crate::held::{Held, Source, WalkKey, HELD_BUDGET_BYTES};
use prov_core::{ActivityRecord, LineageDirection, OutputSpec, ProvDb};
use prov_segment::{PgSegQuery, PgSegSession, SegmentGraph};
use prov_store::{ProvGraph, StoreError};
use prov_summary::{PgSumQuery, PropertyAggregation, Psg, SegmentRef};
use serde::{JsonWriter, Serialize};
use std::sync::Arc;

fn error_response(e: &ApiError) -> Response {
    Response::Error(ErrorResponse { code: e.code(), message: e.to_string() })
}

fn query_response(page: prov_store::Page, count: u64, activity: QueryActivity) -> Response {
    let mut stats = Stats::sized(page.rows.len(), 0);
    stats.query = activity;
    Response::Query(QueryResponse {
        rows: page.rows,
        count,
        is_complete: true,
        cursor: page.next,
        stats,
    })
}

/// What a request produced: a small answer in its wire type, or a segment
/// or summary as the kernel left it (a session's by its id). `dispatch`
/// needs `&mut self`, so a reply it returned could not borrow the session
/// while the stats are stamped; [`ProvService::reply`] borrows it after.
enum Answer {
    Response(Response),
    Segment(SegmentGraph),
    Session(SessionId),
    Summary(Psg),
}

/// One served request, stats stamped, before it is written. Segment and
/// summary answers borrow or own the kernel's result: [`Serialize`] writes
/// them straight from it, and [`Reply::into_response`] is the one place
/// their DTOs are still built.
enum Reply<'a> {
    Response(Response),
    Segment { graph: &'a ProvGraph, segment: SegmentGraph, stats: Stats },
    Session { id: SessionId, session: &'a PgSegSession, stats: Stats },
    Summary { psg: Psg, stats: Stats },
}

impl Reply<'_> {
    fn stats_mut(&mut self) -> Option<&mut Stats> {
        match self {
            Reply::Response(r) => r.stats_mut(),
            Reply::Segment { stats, .. }
            | Reply::Session { stats, .. }
            | Reply::Summary { stats, .. } => Some(stats),
        }
    }

    /// The typed [`Response`], DTOs built.
    fn into_response(self) -> Response {
        match self {
            Reply::Response(r) => r,
            Reply::Segment { graph, segment, stats } => Response::Segment(SegmentResponse {
                segment: SegmentDto::from_segment(graph, &segment),
                stats,
            }),
            Reply::Session { id, session, stats } => Response::Session(SessionResponse {
                session: id,
                segment: SegmentDto::from_segment(session.graph(), session.segment()),
                stats,
            }),
            Reply::Summary { psg, stats } => {
                Response::Summary(SummaryResponse { summary: PsgDto::from_psg(&psg), stats })
            }
        }
    }
}

/// The bytes of [`Reply::into_response`]'s answer, written without it.
impl Serialize for Reply<'_> {
    fn write_json(&self, out: &mut JsonWriter) -> Result<(), serde::Error> {
        match self {
            Reply::Response(r) => r.write_json(out),
            Reply::Segment { graph, segment, stats } => {
                let view = SegmentView { graph, segment };
                write_tagged(out, "\"Segment\":", &[("\"segment\":", &view), ("\"stats\":", stats)])
            }
            Reply::Session { id, session, stats } => {
                let view = SegmentView { graph: session.graph(), segment: session.segment() };
                let fields: [(&str, &dyn Serialize); 3] =
                    [("\"session\":", id), ("\"segment\":", &view), ("\"stats\":", stats)];
                write_tagged(out, "\"Session\":", &fields)
            }
            Reply::Summary { psg, stats } => {
                let fields: [(&str, &dyn Serialize); 2] =
                    [("\"summary\":", &PsgView(psg)), ("\"stats\":", stats)];
                write_tagged(out, "\"Summary\":", &fields)
            }
        }
    }
}

/// `{tag: {key: value, ...}}`, the externally tagged form of a
/// [`Response`] variant; tag and keys are quoted, then `:`.
fn write_tagged(
    out: &mut JsonWriter,
    tag: &str,
    fields: &[(&str, &dyn Serialize)],
) -> Result<(), serde::Error> {
    out.begin_map();
    out.quoted_key(tag);
    out.begin_map();
    for (key, value) in fields {
        out.quoted_key(key);
        value.write_json(out)?;
    }
    out.end_map();
    out.end_map();
    Ok(())
}

/// `value` as wire JSON; what has no JSON form becomes an error response.
fn encode(value: &impl Serialize) -> String {
    serde_json::to_string(value).unwrap_or_else(|e| {
        // A non-finite float stored through the Rust API (the wire
        // parser refuses them); the error envelope is a code and a
        // string, which always serialize.
        let refused = StoreError::Import(format!("response has no JSON form: {e}")).into();
        serde_json::to_string(&error_response(&refused)).expect("error responses serialize")
    })
}

/// The provenance service: database + held-state registry + clock.
pub struct ProvService {
    db: ProvDb,
    /// Sessions and held walk answers, under one budget.
    held: Held,
    /// Cumulative count of query-cursor resumptions served (stamped into
    /// [`crate::QueryActivity`] on every query response).
    resumptions: u64,
    clock: Box<dyn Clock>,
}

impl Default for ProvService {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for ProvService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProvService")
            .field("vertices", &self.db.graph().vertex_count())
            .field("sessions", &self.held.session_count())
            .finish()
    }
}

impl ProvService {
    /// Empty service on the wall clock.
    pub fn new() -> Self {
        Self::with_clock(Box::new(SystemClock::default()))
    }

    /// Empty service on an injected clock.
    pub fn with_clock(clock: Box<dyn Clock>) -> Self {
        ProvService {
            db: ProvDb::new(),
            held: Held::with_budget(HELD_BUDGET_BYTES),
            resumptions: 0,
            clock,
        }
    }

    /// Empty service whose registry holds at most `budget` bytes (unit
    /// tests of the budget rules).
    #[cfg(test)]
    pub(crate) fn with_budget(budget: usize) -> Self {
        ProvService { held: Held::with_budget(budget), ..Self::new() }
    }

    /// The registry, for unit tests that check what it holds.
    #[cfg(test)]
    pub(crate) fn held(&self) -> &Held {
        &self.held
    }

    /// Wrap an existing database.
    pub fn from_db(db: ProvDb) -> Self {
        ProvService { db, ..Self::new() }
    }

    /// The wrapped database (read-only).
    pub fn db(&self) -> &ProvDb {
        &self.db
    }

    /// Inert: every request runs on the caller's thread. Kept only because
    /// `benchmark/src/harness.rs:224` calls `set_parallelism(1)`; ROADMAP
    /// items 6(d)/7(c) delete it with that crate's next change.
    pub fn set_parallelism(&mut self, _threads: usize) {}

    /// Number of live sessions.
    pub fn session_count(&self) -> usize {
        self.held.session_count()
    }

    /// Inspect a live session.
    pub fn session(&self, id: SessionId) -> Option<&PgSegSession> {
        self.held.session(id)
    }

    /// Serve one request; errors become [`Response::Error`], successes carry
    /// a [`Stats`] envelope timed by the injected clock and stamped with the
    /// database's snapshot reuse/refresh/rebuild counters — the serving
    /// loop's health, observable per response.
    pub fn handle(&mut self, request: &Request) -> Response {
        self.serve(request).into_response()
    }

    /// Byte-level entry: parse a JSON request, serve it, serialize the
    /// response — the bytes `handle` would give, written straight from the
    /// kernel's result. Parse failures come back as a serialized error
    /// response.
    pub fn handle_json(&mut self, request: &str) -> String {
        match serde_json::from_str::<Request>(request) {
            Ok(req) => encode(&self.serve(&req)),
            Err(e) => encode(&error_response(&ApiError::Malformed(e.to_string()))),
        }
    }

    /// Dispatch, then stamp the stats: the one place for both entries.
    fn serve(&mut self, request: &Request) -> Reply<'_> {
        let start = self.clock.now_micros();
        let answer = self.dispatch(request);
        let elapsed = self.clock.now_micros().saturating_sub(start);
        let mut reply = match answer.and_then(|a| self.reply(a)) {
            Ok(r) => r,
            Err(e) => Reply::Response(error_response(&e)),
        };
        if let Some(stats) = reply.stats_mut() {
            stats.elapsed_micros = elapsed;
            stats.snapshot = self.db.snapshot_counters();
            stats.durability = self.db.durability_counters().unwrap_or_default();
        }
        reply
    }

    /// Borrow what an answer names; size its stats.
    fn reply(&self, answer: Answer) -> ApiResult<Reply<'_>> {
        Ok(match answer {
            Answer::Response(r) => Reply::Response(r),
            Answer::Segment(segment) => {
                let stats = Stats::sized(segment.vertex_count(), segment.edge_count());
                Reply::Segment { graph: self.db.graph(), segment, stats }
            }
            Answer::Session(id) => {
                let session = self.held.session(id).ok_or(ApiError::UnknownSession(id))?;
                let segment = session.segment();
                let stats = Stats::sized(segment.vertex_count(), segment.edge_count());
                Reply::Session { id, session, stats }
            }
            Answer::Summary(psg) => {
                let stats = Stats::sized(psg.vertex_count(), psg.edge_count());
                Reply::Summary { psg, stats }
            }
        })
    }

    fn dispatch(&mut self, request: &Request) -> ApiResult<Answer> {
        Ok(match request {
            Request::AddAgent(r) => Answer::Response(self.add_agent(r)?),
            Request::AddArtifact(r) => Answer::Response(self.add_artifact(r)?),
            Request::RecordActivity(r) => Answer::Response(self.record_activity(r)?),
            Request::Segment(r) => Answer::Segment(self.segment(r)?),
            Request::OpenSession(r) => Answer::Session(self.open_session(r)?),
            Request::Expand(r) => Answer::Session(self.expand(r)?),
            Request::Restrict(r) => Answer::Session(self.restrict(r)?),
            Request::CloseSession(r) => Answer::Response(self.close_session(r)?),
            Request::Summarize(r) => Answer::Summary(self.summarize(r)?),
            Request::Lineage(r) => Answer::Response(self.lineage(r)?),
            Request::Query(r) => Answer::Response(self.query(r)?),
            Request::Export(_) => Answer::Response(self.export()?),
            Request::Import(r) => Answer::Response(self.import(r)?),
        })
    }

    // ------------------------------------------------------------------
    // Ingestion
    // ------------------------------------------------------------------

    fn add_agent(&mut self, r: &AddAgentRequest) -> ApiResult<Response> {
        let id = self.db.add_agent(&r.name)?;
        Ok(self.vertex_response(id))
    }

    fn add_artifact(&mut self, r: &AddArtifactRequest) -> ApiResult<Response> {
        let attributed_to = match &r.attributed_to {
            Some(a) => Some(a.resolve(self.db.graph())?),
            None => None,
        };
        let id = self.db.add_artifact_version(&r.artifact, attributed_to)?;
        Ok(self.vertex_response(id))
    }

    fn record_activity(&mut self, r: &RecordActivityRequest) -> ApiResult<Response> {
        let graph = self.db.graph();
        let agent = match &r.agent {
            Some(a) => Some(a.resolve(graph)?),
            None => None,
        };
        let inputs = EntityRef::resolve_all(&r.inputs, graph)?;
        let record = ActivityRecord {
            command: r.command.clone(),
            agent,
            inputs,
            outputs: r
                .outputs
                .iter()
                .map(|o| OutputSpec { artifact: o.artifact.clone(), props: o.props.clone() })
                .collect(),
            props: r.props.clone(),
        };
        let outcome = self.db.record_activity(record)?;
        Ok(Response::Activity(ActivityResponse {
            activity: outcome.activity,
            outputs: outcome.outputs,
            stats: Stats::of_graph(self.db.graph()),
        }))
    }

    fn vertex_response(&self, id: prov_model::VertexId) -> Response {
        Response::Vertex(VertexResponse {
            id,
            name: self.db.graph().vertex_name(id).map(str::to_string),
            stats: Stats::of_graph(self.db.graph()),
        })
    }

    // ------------------------------------------------------------------
    // Segmentation
    // ------------------------------------------------------------------

    fn build_query(
        &self,
        src: &[EntityRef],
        dst: &[EntityRef],
        boundary: &crate::spec::BoundarySpec,
    ) -> ApiResult<PgSegQuery> {
        let graph = self.db.graph();
        let vsrc = EntityRef::resolve_all(src, graph)?;
        let vdst = EntityRef::resolve_all(dst, graph)?;
        Ok(PgSegQuery::between(vsrc, vdst).with_boundary(boundary.resolve(graph)?))
    }

    fn segment(&mut self, r: &SegmentRequest) -> ApiResult<SegmentGraph> {
        let query = self.build_query(&r.src, &r.dst, &r.boundary)?;
        Ok(self.db.segment(query, &r.options.to_options())?)
    }

    fn open_session(&mut self, r: &OpenSessionRequest) -> ApiResult<SessionId> {
        let query = self.build_query(&r.src, &r.dst, &r.boundary)?;
        let session = self.db.segment_session(query, &r.options.to_options())?;
        self.held.open_session(session)
    }

    fn expand(&mut self, r: &ExpandRequest) -> ApiResult<SessionId> {
        self.held.adjust_session(r.session, |session| {
            // Resolve against the session's pinned snapshot, not the live
            // store: the expansion must land on vertices the session can
            // actually see.
            let roots = EntityRef::resolve_all(&r.roots, session.graph())?;
            session.expand(&roots, r.k);
            Ok(())
        })?;
        Ok(r.session)
    }

    fn restrict(&mut self, r: &RestrictRequest) -> ApiResult<SessionId> {
        if r.boundary.has_expansions() {
            return Err(ApiError::invalid_query(
                "restrict boundaries carry exclusions only; send Expand for bx(Vx, k)",
            ));
        }
        self.held.adjust_session(r.session, |session| {
            let boundary = r.boundary.resolve(session.graph())?;
            session.restrict(&boundary);
            Ok(())
        })?;
        Ok(r.session)
    }

    fn close_session(&mut self, r: &CloseSessionRequest) -> ApiResult<Response> {
        let session = self.held.close_session(r.session)?;
        let stats = Stats::sized(session.segment().vertex_count(), session.segment().edge_count());
        Ok(Response::Closed(ClosedResponse { session: r.session, stats }))
    }

    // ------------------------------------------------------------------
    // Summarization / lineage / interchange
    // ------------------------------------------------------------------

    fn summarize(&mut self, r: &SummarizeRequest) -> ApiResult<Psg> {
        if r.sessions.is_empty() {
            return Err(ApiError::invalid_query("Summarize needs at least one session"));
        }
        let mut listed = r.sessions.clone();
        listed.sort_unstable();
        if let Some(pair) = listed.windows(2).find(|pair| pair[0] == pair[1]) {
            return Err(ApiError::invalid_query(format!(
                "Summarize lists session {} more than once",
                pair[0]
            )));
        }
        let mut segments = Vec::with_capacity(r.sessions.len());
        let mut graph: Option<&Arc<_>> = None;
        for &id in &r.sessions {
            let session = self.held.session(id).ok_or(ApiError::UnknownSession(id))?;
            match graph {
                None => graph = Some(session.graph_shared()),
                Some(g) if Arc::ptr_eq(g, session.graph_shared()) => {}
                Some(_) => {
                    return Err(ApiError::invalid_query(
                        "Summarize sessions must pin the same graph snapshot",
                    ))
                }
            }
            segments.push(SegmentRef::from(session.segment()));
        }
        let graph = graph.expect("at least one session");
        // Each key list defaults independently (entities: `filename`,
        // activities: `command` — the Fig. 2(e) aggregation).
        let entity_keys: Vec<&str> = if r.entity_keys.is_empty() {
            vec!["filename"]
        } else {
            r.entity_keys.iter().map(String::as_str).collect()
        };
        let activity_keys: Vec<&str> = if r.activity_keys.is_empty() {
            vec!["command"]
        } else {
            r.activity_keys.iter().map(String::as_str).collect()
        };
        let aggregation = PropertyAggregation::ignore_all()
            .with_keys(prov_model::VertexKind::Entity, &entity_keys)
            .with_keys(prov_model::VertexKind::Activity, &activity_keys);
        let query = PgSumQuery::new(aggregation, r.k.unwrap_or(1));
        Ok(prov_summary::pgsum(graph, &segments, &query))
    }

    fn lineage(&mut self, r: &LineageRequest) -> ApiResult<Response> {
        let entity = r.entity.resolve(self.db.graph())?;
        let direction = match r.direction {
            LineageDir::Ancestors => LineageDirection::Ancestors,
            LineageDir::Descendants => LineageDirection::Descendants,
        };
        let vertices = match r.max_hops {
            Some(hops) => self.db.lineage_within(entity, direction, hops),
            None => self.db.lineage(entity, direction),
        };
        let stats = Stats::sized(vertices.len(), 0);
        Ok(Response::Lineage(LineageResponse { entity, vertices, stats }))
    }

    /// Serve one composable query: compile it onto the query IR (pipelines
    /// as-is; patterns through [`prov_store::lower_pattern`], which refuses
    /// what the IR cannot answer exactly), evaluate over the pinned session
    /// snapshot or the live store, and paginate with the stable-cursor
    /// machinery.
    ///
    /// A resumed walk's answer is a pure value of `(source, compiled plan,
    /// watermark)` (bounded replay is deterministic), so the first
    /// resumption holds it and later pages are slices of it until the page
    /// that issues no next cursor drops it. The first page holds nothing:
    /// nothing shows the client will come back. Plans with a property
    /// filter read the live store and are never held.
    fn query(&mut self, r: &QueryRequest) -> ApiResult<Response> {
        // An empty page would answer no rows and no cursor: the walk would
        // end with rows left.
        if r.page_size == Some(0) {
            return Err(ApiError::invalid_query(
                "page_size must be at least 1; unset means all rows",
            ));
        }
        if r.cursor.is_some() {
            self.resumptions += 1;
        }
        let resumptions = self.resumptions;
        // Snapshot source: a session pins both graph and index, so paginated
        // walks against it are byte-stable even for property-filtered
        // pipelines; the live store relies on the cursor's rank watermark
        // for structural stability.
        let source = match r.session {
            Some(id) if self.held.session(id).is_none() => {
                return Err(ApiError::UnknownSession(id))
            }
            Some(id) => Source::Session(id),
            None => Source::Live,
        };
        let pipeline = match &r.query {
            QuerySpec::Pipeline(p) => p.clone(),
            QuerySpec::Pattern(p) => prov_store::lower_pattern(p)?,
        };
        let plan = prov_store::Plan::compile(pipeline)?;

        let walk = r.cursor.and_then(|c| WalkKey::of(source, c.watermark(), &plan));
        if let (Some(walk), Some(cursor)) = (&walk, &r.cursor) {
            if let Some(held) = self.held.walk(walk) {
                let page =
                    prov_store::paginate(&held.rows, cursor.watermark(), Some(cursor), r.page_size);
                let count = held.count;
                if page.next.is_none() {
                    self.held.drop_walk(walk);
                }
                // No step ran: the work counters are zero.
                let activity = QueryActivity { resumptions, ..QueryActivity::default() };
                return Ok(query_response(page, count, activity));
            }
        }

        // Resumptions replay the pipeline at the cursor's snapshot watermark
        // (a watermark beyond the snapshot's log is rejected inside the
        // evaluator as a stale cursor).
        let live;
        let (graph, index) = match source {
            Source::Session(id) => {
                let session = self.held.session(id).ok_or(ApiError::UnknownSession(id))?;
                (session.graph(), session.index())
            }
            Source::Live => {
                live = self.db.snapshot();
                (self.db.graph(), &*live)
            }
        };
        let watermark = r.cursor.map_or(index.cursor(), |c| c.watermark());
        let output = prov_store::evaluate_at(graph, index, &plan, watermark, 1)?;
        let page = prov_store::paginate(&output.rows, watermark, r.cursor.as_ref(), r.page_size);
        let count = output.count;
        let activity = QueryActivity::from_stats(output.stats, resumptions);
        if let (Some(walk), Some(_)) = (walk, page.next) {
            self.held.hold_walk(walk, output);
        }
        Ok(query_response(page, count, activity))
    }

    fn export(&mut self) -> ApiResult<Response> {
        let json = self.db.export_json()?;
        let stats = Stats::of_graph(self.db.graph());
        Ok(Response::Document(DocumentResponse { json, stats }))
    }

    fn import(&mut self, r: &ImportRequest) -> ApiResult<Response> {
        // Live sessions keep the snapshot they pinned; only the store is
        // replaced, and with it every answer held over it.
        self.db = ProvDb::import_json(&r.json)?;
        self.held.clear_walks();
        Ok(Response::Imported(ImportedResponse { stats: Stats::of_graph(self.db.graph()) }))
    }
}
