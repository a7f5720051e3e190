//! `Held`: everything a client can make the server hold, under one byte
//! budget.
//!
//! Two kinds of client-created state live here, in one store:
//!
//! * **sessions** — live [`PgSegSession`]s, opened by `OpenSession` and
//!   kept until `CloseSession`;
//! * **walks** — the answer of a paginated `Query`, held from its first
//!   resumption to its last page. Bounded replay is deterministic (DESIGN.md
//!   §9.2), so the answer at `(source, compiled plan, watermark)` is a pure
//!   value: later pages are slices of it instead of re-evaluations.
//!
//! One charge function prices both (`Held::charge`), one budget bounds the
//! sum ([`HELD_BUDGET_BYTES`]), and one rule decides what happens when an
//! insert does not fit: walks are evicted least-recently-used first; a walk
//! that still does not fit is not held (its pages are served by replay, the
//! wire cannot tell); a session that still does not fit is refused with
//! [`ErrorCode::HeldBudgetExceeded`](crate::ErrorCode) and consumes no
//! session id. Sessions are never evicted — a client holds their ids.

use crate::envelope::SessionId;
use crate::error::{ApiError, ApiResult};
use prov_model::{EdgeId, VertexId};
use prov_segment::PgSegSession;
use prov_store::{DeltaCursor, Plan, QueryOutput, Step};
use std::collections::BTreeMap;
use std::mem::size_of;
use std::sync::Arc;

/// Bytes of client-created state the service holds at most. A constant, not
/// a knob.
pub const HELD_BUDGET_BYTES: usize = 64 << 20;

/// Fixed charge of one session on top of its segment's ids: the session's
/// own bookkeeping (query, mask, evaluator outcome), priced flat.
const SESSION_BASE_BYTES: usize = 1 << 10;

/// The snapshot a walk was evaluated over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Source {
    /// The live store.
    Live,
    /// A session's pinned snapshot.
    Session(SessionId),
}

/// Identity of a held walk answer: `(source, compiled plan, watermark)`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct WalkKey {
    source: Source,
    watermark: (u32, u32),
    /// The compiled (normalized) pipeline's JSON form.
    plan: Arc<str>,
}

impl WalkKey {
    /// The key of `plan` replayed over `source` at `watermark`, or `None`
    /// when the answer is not a pure value of the three: a property
    /// `Filter` reads the live store, which property writes change without
    /// moving the watermark (DESIGN.md §9.3).
    pub(crate) fn of(source: Source, watermark: DeltaCursor, plan: &Plan) -> Option<WalkKey> {
        let reads_props = plan
            .pipeline()
            .steps
            .iter()
            .any(|step| matches!(step, Step::Filter(f) if !f.props.is_empty()));
        if reads_props {
            return None;
        }
        let plan = serde_json::to_string(plan.pipeline()).ok()?;
        Some(WalkKey {
            source,
            watermark: (watermark.vertices, watermark.edges),
            plan: plan.into(),
        })
    }

    /// The smallest key among `source`'s walks (a range start).
    fn first_of(source: Source) -> WalkKey {
        WalkKey { source, watermark: (0, 0), plan: Arc::from("") }
    }
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Key {
    Session(SessionId),
    Walk(WalkKey),
}

#[derive(Debug)]
enum Entry {
    Session(Box<PgSegSession>),
    Walk(QueryOutput),
}

#[derive(Debug)]
struct Slot {
    entry: Entry,
    /// What this entry counts against the budget.
    charge: usize,
    /// Last-use tick of a walk (its key in `Held::lru`); 0 for sessions.
    used_at: u64,
}

/// The registry (see the module docs).
#[derive(Debug)]
pub(crate) struct Held {
    entries: BTreeMap<Key, Slot>,
    /// Held walks by last use, oldest first: the eviction order.
    lru: BTreeMap<u64, WalkKey>,
    /// Sum of every entry's charge.
    used: usize,
    budget: usize,
    tick: u64,
    next_session: u64,
}

impl Held {
    /// An empty registry holding at most `budget` bytes. The service always
    /// passes [`HELD_BUDGET_BYTES`]; unit tests pass a small one.
    pub(crate) fn with_budget(budget: usize) -> Held {
        Held {
            entries: BTreeMap::new(),
            lru: BTreeMap::new(),
            used: 0,
            budget,
            tick: 0,
            next_session: 0,
        }
    }

    /// The one charge function: an entry costs its key's plan text plus its
    /// payload. A walk's payload is its rows' bytes; a session's is its
    /// segment's vertex and edge ids plus a fixed per-session constant. The
    /// snapshots a session pins (`Arc` graph and index) are shared with the
    /// database and with every other session on the same epoch, so they are
    /// not charged.
    fn charge(key: &Key, entry: &Entry) -> usize {
        let key_bytes = match key {
            Key::Walk(walk) => walk.plan.len(),
            Key::Session(_) => 0,
        };
        key_bytes
            + match entry {
                Entry::Walk(output) => output.rows.len() * size_of::<VertexId>(),
                Entry::Session(session) => {
                    let seg = session.segment();
                    Self::ids_bytes(seg.vertex_count(), seg.edge_count())
                }
            }
    }

    fn ids_bytes(vertices: usize, edges: usize) -> usize {
        vertices * size_of::<VertexId>() + edges * size_of::<EdgeId>() + SESSION_BASE_BYTES
    }

    /// Evict the least recently used walk; false when no walk is held.
    fn evict_oldest(&mut self) -> bool {
        let Some((_, walk)) = self.lru.pop_first() else {
            return false;
        };
        if let Some(slot) = self.entries.remove(&Key::Walk(walk)) {
            self.used -= slot.charge;
        }
        true
    }

    /// Evict walks, least recently used first, until `extra` more bytes fit;
    /// false when they do not fit even with every walk gone.
    fn make_room(&mut self, extra: usize) -> bool {
        while self.used + extra > self.budget {
            if !self.evict_oldest() {
                return false;
            }
        }
        true
    }

    fn refused(&self, needed: usize) -> ApiError {
        ApiError::HeldBudgetExceeded { needed, held: self.used, budget: self.budget }
    }

    // --------------------------------------------------------------------
    // Sessions
    // --------------------------------------------------------------------

    /// Number of live sessions.
    pub(crate) fn session_count(&self) -> usize {
        self.entries.keys().take_while(|k| matches!(k, Key::Session(_))).count()
    }

    /// A live session.
    pub(crate) fn session(&self, id: SessionId) -> Option<&PgSegSession> {
        match self.entries.get(&Key::Session(id)).map(|slot| &slot.entry) {
            Some(Entry::Session(session)) => Some(session),
            _ => None,
        }
    }

    /// Register a session under the next id, evicting walks to make room.
    /// Refused — with no id consumed — when it does not fit even then.
    pub(crate) fn open_session(&mut self, session: PgSegSession) -> ApiResult<SessionId> {
        let key = Key::Session(SessionId::new(self.next_session));
        let entry = Entry::Session(Box::new(session));
        let charge = Self::charge(&key, &entry);
        if !self.make_room(charge) {
            return Err(self.refused(charge));
        }
        self.next_session += 1;
        self.used += charge;
        self.entries.insert(key, Slot { entry, charge, used_at: 0 });
        Ok(SessionId::new(self.next_session - 1))
    }

    /// Adjust a live session in place and re-charge it. Growth past the
    /// budget evicts walks; growth that still does not fit is undone and
    /// refused. `adjust` must fail before it mutates, or not at all.
    pub(crate) fn adjust_session(
        &mut self,
        id: SessionId,
        adjust: impl FnOnce(&mut PgSegSession) -> ApiResult<()>,
    ) -> ApiResult<&PgSegSession> {
        let key = Key::Session(id);
        let slot = self.entries.get_mut(&key).ok_or(ApiError::UnknownSession(id))?;
        let Entry::Session(session) = &mut slot.entry else {
            return Err(ApiError::UnknownSession(id));
        };
        // A segment never outgrows its pinned graph, so an undo copy is
        // needed only when a session that large would not fit.
        let others = self.used - slot.charge;
        let graph = session.graph();
        let ceiling = Self::ids_bytes(graph.vertex_count(), graph.edge_count());
        let undo = (others + ceiling > self.budget).then(|| session.clone());
        adjust(session)?;
        let charge = Self::charge(&key, &slot.entry);
        let old = std::mem::replace(&mut slot.charge, charge);
        self.used = others;
        if let Some(undo) = undo {
            if !self.make_room(charge) {
                if let Some(slot) = self.entries.get_mut(&key) {
                    slot.entry = Entry::Session(undo);
                    slot.charge = old;
                }
                self.used += old;
                return Err(self.refused(charge));
            }
        }
        self.used += charge;
        self.session(id).ok_or(ApiError::UnknownSession(id))
    }

    /// Unregister a session and drop every walk held over its snapshot.
    pub(crate) fn close_session(&mut self, id: SessionId) -> ApiResult<PgSegSession> {
        let slot = self.entries.remove(&Key::Session(id)).ok_or(ApiError::UnknownSession(id))?;
        self.used -= slot.charge;
        let source = Source::Session(id);
        let walks: Vec<WalkKey> = self
            .entries
            .range(Key::Walk(WalkKey::first_of(source))..)
            .map_while(|(key, _)| match key {
                Key::Walk(walk) if walk.source == source => Some(walk.clone()),
                _ => None,
            })
            .collect();
        for walk in &walks {
            self.drop_walk(walk);
        }
        match slot.entry {
            Entry::Session(session) => Ok(*session),
            Entry::Walk(_) => Err(ApiError::UnknownSession(id)),
        }
    }

    // --------------------------------------------------------------------
    // Walks
    // --------------------------------------------------------------------

    /// The held answer of a walk, marked as just used.
    pub(crate) fn walk(&mut self, walk: &WalkKey) -> Option<&QueryOutput> {
        let slot = self.entries.get_mut(&Key::Walk(walk.clone()))?;
        self.tick += 1;
        self.lru.remove(&slot.used_at);
        self.lru.insert(self.tick, walk.clone());
        slot.used_at = self.tick;
        match &slot.entry {
            Entry::Walk(output) => Some(output),
            Entry::Session(_) => None,
        }
    }

    /// Hold a walk's answer, evicting older walks to make room; a walk that
    /// does not fit even then is not held.
    pub(crate) fn hold_walk(&mut self, walk: WalkKey, output: QueryOutput) {
        self.drop_walk(&walk);
        let key = Key::Walk(walk.clone());
        let entry = Entry::Walk(output);
        let charge = Self::charge(&key, &entry);
        if charge > self.budget || !self.make_room(charge) {
            return;
        }
        self.tick += 1;
        self.lru.insert(self.tick, walk);
        self.used += charge;
        self.entries.insert(key, Slot { entry, charge, used_at: self.tick });
    }

    /// Forget a held walk (its last page was served).
    pub(crate) fn drop_walk(&mut self, walk: &WalkKey) {
        if let Some(slot) = self.entries.remove(&Key::Walk(walk.clone())) {
            self.lru.remove(&slot.used_at);
            self.used -= slot.charge;
        }
    }

    /// Forget every held walk (the live store was replaced).
    pub(crate) fn clear_walks(&mut self) {
        while self.evict_oldest() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::*;
    use crate::{BoundarySpec, ErrorCode, ProvService};
    use prov_model::EdgeKind;
    use prov_store::{Direction, Pipeline, QueryCursor};

    /// `alice`, `data-v1`, then `steps` training runs, each using the
    /// dataset and the previous weights.
    fn trained(mut service: ProvService, steps: usize) -> ProvService {
        let mut send = |request: Request| {
            let response = service.handle(&request);
            assert!(!response.is_error(), "{response:?}");
        };
        send(Request::AddAgent(AddAgentRequest { name: "alice".into() }));
        send(Request::AddArtifact(AddArtifactRequest {
            artifact: "data".into(),
            attributed_to: Some("alice".into()),
        }));
        for i in 0..steps {
            let mut inputs: Vec<EntityRef> = vec!["data-v1".into()];
            if i > 0 {
                inputs.push(format!("weights-v{i}").as_str().into());
            }
            send(Request::RecordActivity(RecordActivityRequest {
                command: format!("train --step {i}"),
                agent: Some("alice".into()),
                inputs,
                outputs: vec![OutputSpecDto { artifact: "weights".into(), props: vec![] }],
                props: vec![],
            }));
        }
        service
    }

    /// Everything downstream of vertex `start`.
    fn downstream(start: u32) -> QuerySpec {
        QuerySpec::Pipeline(Pipeline::from_ids(vec![VertexId::new(start)]).traverse(
            &[(EdgeKind::Used, Direction::In), (EdgeKind::WasGeneratedBy, Direction::In)],
            1,
            u32::MAX,
        ))
    }

    fn page(
        service: &mut ProvService,
        spec: &QuerySpec,
        session: Option<SessionId>,
        cursor: Option<QueryCursor>,
    ) -> QueryResponse {
        let request = QueryRequest {
            query: spec.clone(),
            session,
            page_size: Some(1),
            cursor,
            max_expansions: None,
            max_paths: None,
        };
        match service.handle(&Request::Query(request)) {
            Response::Query(q) => q,
            other => panic!("expected a query page, got {other:?}"),
        }
    }

    /// What a client sees of a page: everything but the stats.
    fn wire(q: &QueryResponse) -> (Vec<VertexId>, u64, bool, Option<QueryCursor>) {
        (q.rows.clone(), q.count, q.is_complete, q.cursor)
    }

    fn open(service: &mut ProvService, dst: &str) -> Response {
        service.handle(&Request::OpenSession(OpenSessionRequest {
            src: vec!["data-v1".into()],
            dst: vec![dst.into()],
            boundary: BoundarySpec::none(),
            options: SegmentOptions::default(),
        }))
    }

    fn session_of(response: Response) -> SessionId {
        match response {
            Response::Session(s) => s.session,
            other => panic!("expected a session, got {other:?}"),
        }
    }

    /// Bytes held after walking `spec` to its second page on a fresh
    /// service (the walk's charge, plus `session`'s when pinned).
    fn walk_charge(steps: usize, spec: &QuerySpec) -> usize {
        let mut service = trained(ProvService::new(), steps);
        let first = page(&mut service, spec, None, None);
        page(&mut service, spec, None, first.cursor);
        service.held().used
    }

    #[test]
    fn lru_eviction_of_walks_is_invisible_on_the_wire() {
        let steps = 6;
        let (a, b) = (downstream(1), downstream(3));
        let (ca, cb) = (walk_charge(steps, &a), walk_charge(steps, &b));
        assert!(ca > 0 && cb > 0, "both walks are held on a roomy service");
        // Room for either walk, never both.
        let mut tight = trained(ProvService::with_budget(ca.max(cb) + ca.min(cb) / 2), steps);
        let mut roomy = trained(ProvService::new(), steps);

        let mut cursors = [None, None];
        let mut replayed_late = 0;
        for round in 0.. {
            let mut live = false;
            for (i, spec) in [&a, &b].into_iter().enumerate() {
                if round > 0 && cursors[i].is_none() {
                    continue;
                }
                live = true;
                let t = page(&mut tight, spec, None, cursors[i]);
                let r = page(&mut roomy, spec, None, cursors[i]);
                assert_eq!(wire(&t), wire(&r), "walk {i}, page {}", round + 1);
                assert!(tight.held().used <= tight.held().budget);
                if round >= 2 {
                    assert_eq!(r.stats.query.rows_scanned, 0, "roomy pages 3+ are held");
                    replayed_late += usize::from(t.stats.query.rows_scanned > 0);
                }
                cursors[i] = t.cursor;
            }
            if !live {
                break;
            }
        }
        assert!(replayed_late > 0, "the tight budget really evicted");
        assert_eq!(tight.held().used, 0, "finished walks hold nothing");
    }

    #[test]
    fn a_walk_larger_than_the_budget_is_replayed_not_held() {
        let spec = downstream(1);
        let mut tight = trained(ProvService::with_budget(walk_charge(6, &spec) - 1), 6);
        let mut roomy = trained(ProvService::new(), 6);
        let mut cursor = None;
        let mut pages = 0;
        loop {
            let t = page(&mut tight, &spec, None, cursor);
            let r = page(&mut roomy, &spec, None, cursor);
            assert_eq!(wire(&t), wire(&r));
            assert!(t.stats.query.rows_scanned > 0, "page {}: every page replays", pages + 1);
            assert_eq!(tight.held().used, 0);
            pages += 1;
            cursor = t.cursor;
            if cursor.is_none() {
                break;
            }
        }
        assert!(pages > 3);
    }

    #[test]
    fn a_session_is_refused_only_after_every_walk_is_evicted() {
        let spec = downstream(1);
        let cw = walk_charge(6, &spec);
        let mut probe = trained(ProvService::new(), 6);
        open(&mut probe, "weights-v6");
        let cs = probe.held().used;
        assert!(cs > cw, "a session outweighs this walk");

        // One session and the walk fit, two sessions and the walk do not.
        let mut service = trained(ProvService::with_budget(2 * cs + cw - 1), 6);
        assert_eq!(session_of(open(&mut service, "weights-v6")), SessionId::new(0));
        let first = page(&mut service, &spec, None, None);
        let second = page(&mut service, &spec, None, first.cursor);
        assert_eq!(service.held().used, cs + cw, "the walk is held");

        // The second session fits once the walk is evicted.
        assert_eq!(session_of(open(&mut service, "weights-v6")), SessionId::new(1));
        assert_eq!(service.held().used, 2 * cs);
        let third = page(&mut service, &spec, None, second.cursor);
        assert!(third.stats.query.rows_scanned > 0, "the evicted walk replays");

        // A third session does not fit with nothing left to evict.
        match open(&mut service, "weights-v6") {
            Response::Error(e) => {
                assert_eq!(e.code, ErrorCode::HeldBudgetExceeded);
                assert!(e.message.contains("close a session"), "{}", e.message);
            }
            other => panic!("expected a refusal, got {other:?}"),
        }
        assert_eq!(service.session_count(), 2);

        // The refused open consumed no id.
        let closed = service
            .handle(&Request::CloseSession(CloseSessionRequest { session: SessionId::new(0) }));
        assert!(!closed.is_error(), "{closed:?}");
        assert_eq!(session_of(open(&mut service, "weights-v6")), SessionId::new(2));
    }

    #[test]
    fn an_expansion_that_does_not_fit_is_undone_and_refused() {
        let expand = |service: &mut ProvService| {
            service.handle(&Request::Expand(ExpandRequest {
                session: SessionId::new(0),
                roots: vec!["weights-v6".into()],
                k: 4,
            }))
        };
        let mut roomy = trained(ProvService::new(), 6);
        open(&mut roomy, "weights-v1");
        let small = roomy.held().used;
        assert!(!expand(&mut roomy).is_error());
        assert!(roomy.held().used > small, "the expansion grows the segment");

        let mut tight = trained(ProvService::with_budget(small), 6);
        open(&mut tight, "weights-v1");
        let before = tight.session(SessionId::new(0)).unwrap().segment().vertices.clone();
        match expand(&mut tight) {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::HeldBudgetExceeded),
            other => panic!("expected a refusal, got {other:?}"),
        }
        assert_eq!(tight.session(SessionId::new(0)).unwrap().segment().vertices, before);
        assert_eq!(tight.held().used, small);
    }

    #[test]
    fn close_session_frees_its_charge_and_its_walks() {
        let spec = downstream(1);
        let mut service = trained(ProvService::new(), 6);
        let session = session_of(open(&mut service, "weights-v6"));
        let cs = service.held().used;

        // One walk pinned to the session, one over the live store.
        let pinned = page(&mut service, &spec, Some(session), None);
        page(&mut service, &spec, Some(session), pinned.cursor);
        let live = page(&mut service, &spec, None, None);
        page(&mut service, &spec, None, live.cursor);
        let held = service.held().used;
        assert!(held > cs);
        assert_eq!(service.held().lru.len(), 2);

        let closed = service.handle(&Request::CloseSession(CloseSessionRequest { session }));
        assert!(!closed.is_error(), "{closed:?}");
        assert_eq!(service.held().lru.len(), 1, "the live walk stays held");
        assert_eq!(service.held().entries.len(), 1);
        assert_eq!(service.held().used, (held - cs) / 2, "both walks charge the same");
    }
}
