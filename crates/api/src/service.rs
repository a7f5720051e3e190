//! `ProvService`: the owned session registry behind the envelope.
//!
//! The service wraps a [`ProvDb`] and a [`SessionId`]-keyed registry of live
//! [`PgSegSession`]s. Because sessions are `'static` (they pin the
//! graph/index snapshot they were opened against), any number of them can be
//! held concurrently and adjusted independently — the paper's interactive
//! "induce once, adjust repeatedly" loop (Sec. III-B) lifted to a
//! multi-tenant surface.
//!
//! [`ProvService::handle`] maps one [`Request`] to one [`Response`] and
//! never panics on bad input: every failure funnels through
//! [`crate::ApiError`] into [`Response::Error`]. [`ProvService::handle_json`]
//! is the byte-level entry a transport would bind.

use crate::clock::{Clock, SystemClock};
use crate::envelope::*;
use crate::error::{ApiError, ApiResult};
use prov_core::{ActivityRecord, LineageDirection, OutputSpec, ProvDb};
use prov_segment::{PgSegQuery, PgSegSession};
use prov_store::StoreError;
use prov_summary::{PgSumQuery, PropertyAggregation, SegmentRef};
use std::collections::BTreeMap;
use std::sync::Arc;

fn error_response(e: &ApiError) -> Response {
    Response::Error(ErrorResponse { code: e.code(), message: e.to_string() })
}

/// The provenance service: database + live session registry + clock.
pub struct ProvService {
    db: ProvDb,
    sessions: BTreeMap<SessionId, PgSegSession>,
    next_session: u64,
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
            .field("sessions", &self.sessions.len())
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
            sessions: BTreeMap::new(),
            next_session: 0,
            resumptions: 0,
            clock,
        }
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
        self.sessions.len()
    }

    /// Inspect a live session.
    pub fn session(&self, id: SessionId) -> Option<&PgSegSession> {
        self.sessions.get(&id)
    }

    /// Serve one request; errors become [`Response::Error`], successes carry
    /// a [`Stats`] envelope timed by the injected clock and stamped with the
    /// database's snapshot reuse/refresh/rebuild counters — the serving
    /// loop's health, observable per response.
    pub fn handle(&mut self, request: &Request) -> Response {
        let start = self.clock.now_micros();
        let mut response = match self.dispatch(request) {
            Ok(r) => r,
            Err(e) => error_response(&e),
        };
        let elapsed = self.clock.now_micros().saturating_sub(start);
        if let Some(stats) = response.stats_mut() {
            stats.elapsed_micros = elapsed;
            stats.snapshot = self.db.snapshot_counters();
            stats.durability = self.db.durability_counters().unwrap_or_default();
        }
        response
    }

    /// Byte-level entry: parse a JSON request, serve it, serialize the
    /// response. Parse failures come back as a serialized error response.
    pub fn handle_json(&mut self, request: &str) -> String {
        let response = match serde_json::from_str::<Request>(request) {
            Ok(req) => self.handle(&req),
            Err(e) => error_response(&ApiError::Malformed(e.to_string())),
        };
        serde_json::to_string(&response).unwrap_or_else(|e| {
            // A non-finite float stored through the Rust API (the wire
            // parser refuses them); the error envelope is a code and a
            // string, which always serialize.
            let refused = StoreError::Import(format!("response has no JSON form: {e}")).into();
            serde_json::to_string(&error_response(&refused)).expect("error responses serialize")
        })
    }

    fn dispatch(&mut self, request: &Request) -> ApiResult<Response> {
        match request {
            Request::AddAgent(r) => self.add_agent(r),
            Request::AddArtifact(r) => self.add_artifact(r),
            Request::RecordActivity(r) => self.record_activity(r),
            Request::Segment(r) => self.segment(r),
            Request::OpenSession(r) => self.open_session(r),
            Request::Expand(r) => self.expand(r),
            Request::Restrict(r) => self.restrict(r),
            Request::CloseSession(r) => self.close_session(r),
            Request::Summarize(r) => self.summarize(r),
            Request::Lineage(r) => self.lineage(r),
            Request::Query(r) => self.query(r),
            Request::Export(_) => self.export(),
            Request::Import(r) => self.import(r),
        }
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

    fn segment(&mut self, r: &SegmentRequest) -> ApiResult<Response> {
        let query = self.build_query(&r.src, &r.dst, &r.boundary)?;
        let seg = self.db.segment(query, &r.options.to_options())?;
        let segment = SegmentDto::from_segment(self.db.graph(), &seg);
        let stats = Stats::sized(segment.vertices.len(), segment.edges.len());
        Ok(Response::Segment(SegmentResponse { segment, stats }))
    }

    fn open_session(&mut self, r: &OpenSessionRequest) -> ApiResult<Response> {
        let query = self.build_query(&r.src, &r.dst, &r.boundary)?;
        let session = self.db.segment_session(query, &r.options.to_options())?;
        let id = SessionId::new(self.next_session);
        self.next_session += 1;
        self.sessions.insert(id, session);
        Ok(self.session_response(id))
    }

    fn session_mut(&mut self, id: SessionId) -> ApiResult<&mut PgSegSession> {
        self.sessions.get_mut(&id).ok_or(ApiError::UnknownSession(id))
    }

    fn session_response(&self, id: SessionId) -> Response {
        let session = &self.sessions[&id];
        let segment = SegmentDto::from_segment(session.graph(), session.segment());
        let stats = Stats::sized(segment.vertices.len(), segment.edges.len());
        Response::Session(SessionResponse { session: id, segment, stats })
    }

    fn expand(&mut self, r: &ExpandRequest) -> ApiResult<Response> {
        let session = self.session_mut(r.session)?;
        // Resolve against the session's pinned snapshot, not the live store:
        // the expansion must land on vertices the session can actually see.
        let roots = EntityRef::resolve_all(&r.roots, session.graph())?;
        session.expand(&roots, r.k);
        Ok(self.session_response(r.session))
    }

    fn restrict(&mut self, r: &RestrictRequest) -> ApiResult<Response> {
        if r.boundary.has_expansions() {
            return Err(ApiError::invalid_query(
                "restrict boundaries carry exclusions only; send Expand for bx(Vx, k)",
            ));
        }
        let session = self.session_mut(r.session)?;
        let boundary = r.boundary.resolve(session.graph())?;
        session.restrict(&boundary);
        Ok(self.session_response(r.session))
    }

    fn close_session(&mut self, r: &CloseSessionRequest) -> ApiResult<Response> {
        let session =
            self.sessions.remove(&r.session).ok_or(ApiError::UnknownSession(r.session))?;
        let stats = Stats::sized(session.segment().vertex_count(), session.segment().edge_count());
        Ok(Response::Closed(ClosedResponse { session: r.session, stats }))
    }

    // ------------------------------------------------------------------
    // Summarization / lineage / interchange
    // ------------------------------------------------------------------

    fn summarize(&mut self, r: &SummarizeRequest) -> ApiResult<Response> {
        if r.sessions.is_empty() {
            return Err(ApiError::invalid_query("Summarize needs at least one session"));
        }
        let mut segments = Vec::with_capacity(r.sessions.len());
        let mut graph: Option<&Arc<_>> = None;
        for &id in &r.sessions {
            let session = self.sessions.get(&id).ok_or(ApiError::UnknownSession(id))?;
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
        let psg = prov_summary::pgsum(graph, &segments, &query);
        let summary = PsgDto::from_psg(&psg);
        let stats = Stats::sized(summary.vertices.len(), summary.edges.len());
        Ok(Response::Summary(SummaryResponse { summary, stats }))
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

    /// Serve one composable query: lower it onto the query IR when possible
    /// (IR pipelines as-is; patterns through [`prov_store::lower_pattern`]),
    /// evaluate over the pinned session snapshot or the live store, and
    /// paginate with the stable-cursor machinery. Non-lowerable patterns
    /// fall back to the materializing pattern engine and surface budget
    /// truncation as `is_complete = false` — never silently.
    fn query(&mut self, r: &QueryRequest) -> ApiResult<Response> {
        if r.cursor.is_some() {
            self.resumptions += 1;
        }
        let resumptions = self.resumptions;
        let lowered = match &r.query {
            QuerySpec::Pipeline(p) => Some(p.clone()),
            QuerySpec::Pattern(p) => prov_store::lower_pattern(p),
        };

        // Snapshot source: a session pins both graph and index, so paginated
        // walks against it are byte-stable even for property-filtered
        // pipelines; the live store relies on the cursor's rank watermark
        // for structural stability.
        let live_index;
        let (graph, index): (&prov_store::ProvGraph, &prov_store::ProvIndex) = match r.session {
            Some(id) => {
                let session = self.sessions.get(&id).ok_or(ApiError::UnknownSession(id))?;
                (session.graph(), session.index())
            }
            None => {
                live_index = self.db.snapshot();
                (self.db.graph(), &live_index)
            }
        };

        let response = match lowered {
            Some(pipeline) => {
                let plan = prov_store::Plan::compile(pipeline)?;
                // Resumptions replay the pipeline at the cursor's snapshot
                // watermark (a watermark beyond the snapshot's log is
                // rejected inside the evaluator as a stale cursor).
                let watermark = match &r.cursor {
                    Some(c) => c.watermark(),
                    None => index.cursor(),
                };
                let output = prov_store::evaluate_at(graph, index, &plan, watermark, 1)?;
                let page =
                    prov_store::paginate(&output.rows, watermark, r.cursor.as_ref(), r.page_size);
                let mut stats = Stats::sized(page.rows.len(), 0);
                stats.query = QueryActivity::from_stats(output.stats, resumptions);
                QueryResponse {
                    rows: page.rows,
                    count: output.count,
                    is_complete: true,
                    cursor: page.next,
                    stats,
                }
            }
            None => {
                // Outside the lowerable family: materialize paths and return
                // the distinct endpoint set (what the lowering would have
                // produced), sorted ascending like every IR answer.
                let QuerySpec::Pattern(pattern) = &r.query else {
                    unreachable!("pipelines always lower to themselves")
                };
                // `match_paths` enumerates the snapshot as it is now and
                // cannot replay an earlier watermark, so a resumed page is
                // only cut from the first page's row set when the snapshot
                // has not moved (always true under a pinned session).
                let snap = index.cursor();
                if let Some(c) = r.cursor.filter(|c| c.watermark() != snap) {
                    return Err(prov_store::StoreError::InvalidQuery(format!(
                        "stale cursor: watermark ({}v/{}e) is not the snapshot ({}v/{}e) and the \
                         pattern engine cannot replay it; restart the walk or pin it to a session",
                        c.vertices, c.edges, snap.vertices, snap.edges
                    ))
                    .into());
                }
                // The wire may lower the budget, never raise it.
                let cap = prov_store::Budget::default();
                let budget = prov_store::Budget {
                    max_expansions: r
                        .max_expansions
                        .map_or(cap.max_expansions, |n| n.min(cap.max_expansions)),
                    max_paths: r.max_paths.map_or(cap.max_paths, |n| n.min(cap.max_paths)),
                };
                let outcome = prov_store::pattern::match_paths(graph, pattern, budget);
                let is_complete = outcome.is_complete();
                let mut rows: Vec<prov_model::VertexId> = outcome
                    .paths()
                    .iter()
                    .map(|p| *p.vertices.last().expect("paths hold at least the start"))
                    .collect();
                rows.sort_unstable();
                rows.dedup();
                let count = rows.len() as u64;
                let page = prov_store::paginate(&rows, snap, r.cursor.as_ref(), r.page_size);
                let mut stats = Stats::sized(page.rows.len(), 0);
                stats.query = QueryActivity { resumptions, ..QueryActivity::default() };
                QueryResponse { rows: page.rows, count, is_complete, cursor: page.next, stats }
            }
        };
        Ok(Response::Query(response))
    }

    fn export(&mut self) -> ApiResult<Response> {
        let json = self.db.export_json()?;
        let stats = Stats::of_graph(self.db.graph());
        Ok(Response::Document(DocumentResponse { json, stats }))
    }

    fn import(&mut self, r: &ImportRequest) -> ApiResult<Response> {
        // Live sessions keep the snapshot they pinned; only the store is
        // replaced.
        self.db = ProvDb::import_json(&r.json)?;
        Ok(Response::Imported(ImportedResponse { stats: Stats::of_graph(self.db.graph()) }))
    }
}
