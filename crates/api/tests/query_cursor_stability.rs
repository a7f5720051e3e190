//! Cursor stability under concurrent ingest: a paginated `Query` walk
//! interleaved with ingest batches must concatenate to exactly the one-shot
//! answer — structurally stable on the live store via the cursor's snapshot
//! watermark, byte-stable under a pinned session — and every page must be
//! byte-equal to the same cursor answered cold by a service that never saw
//! the walk (held answers are invisible on the wire). Path patterns compile
//! onto the same IR, so a pattern walk replays and is held like a pipeline
//! walk; a pattern the IR cannot answer exactly is refused.

use proptest::prelude::*;
use prov_api::*;
use prov_model::{EdgeKind, VertexId, VertexKind};
use prov_store::{Direction, NodeSpec, PathPattern, PatternDir, Pipeline, PropFilter, RelSpec};

/// Ingest a linear training pipeline through the envelope: `data-v1`, then
/// `steps` runs each using the dataset and the previous weights.
fn ingest_pipeline(service: &mut ProvService, steps: usize) {
    let r = service.handle(&Request::AddAgent(AddAgentRequest { name: "alice".into() }));
    assert!(!r.is_error(), "{r:?}");
    let r = service.handle(&Request::AddArtifact(AddArtifactRequest {
        artifact: "data".into(),
        attributed_to: Some("alice".into()),
    }));
    assert!(!r.is_error(), "{r:?}");
    for i in 0..steps {
        let mut inputs: Vec<EntityRef> = vec!["data-v1".into()];
        if i > 0 {
            inputs.push(format!("weights-v{i}").as_str().into());
        }
        let r = service.handle(&Request::RecordActivity(RecordActivityRequest {
            command: format!("train --step {i}"),
            agent: Some("alice".into()),
            inputs,
            outputs: vec![OutputSpecDto {
                artifact: "weights".into(),
                props: vec![("tag".into(), "keep".into())],
            }],
            props: vec![],
        }));
        assert!(!r.is_error(), "{r:?}");
    }
}

/// One ingest batch between pages: a new run consuming the dataset and
/// producing a fresh (`tag = keep`) artifact — new descendants for every
/// vertex the walk is paginating over.
fn ingest_batch(service: &mut ProvService, round: usize) {
    let r = service.handle(&Request::RecordActivity(RecordActivityRequest {
        command: format!("concurrent --round {round}"),
        agent: Some("alice".into()),
        inputs: vec!["data-v1".into()],
        outputs: vec![OutputSpecDto {
            artifact: format!("extra{round}"),
            props: vec![("tag".into(), "keep".into())],
        }],
        props: vec![],
    }));
    assert!(!r.is_error(), "{r:?}");
}

fn query(service: &mut ProvService, request: QueryRequest) -> QueryResponse {
    match service.handle(&Request::Query(request)) {
        Response::Query(q) => q,
        other => panic!("expected a query response, got {other:?}"),
    }
}

fn one_shot(
    service: &mut ProvService,
    spec: QuerySpec,
    session: Option<SessionId>,
) -> QueryResponse {
    query(
        service,
        QueryRequest {
            query: spec,
            session,
            page_size: None,
            cursor: None,
            max_expansions: None,
            max_paths: None,
        },
    )
}

fn export(service: &mut ProvService) -> String {
    match service.handle(&Request::Export(ExportRequest {})) {
        Response::Document(d) => d.json,
        other => panic!("expected a document, got {other:?}"),
    }
}

fn imported(doc: &str) -> ProvService {
    let mut service = ProvService::new();
    let r = service.handle(&Request::Import(ImportRequest { json: doc.to_string() }));
    assert!(!r.is_error(), "{r:?}");
    service
}

/// A document of `steps` training runs (what every walk here starts from).
fn pipeline_doc(steps: usize) -> String {
    let mut service = ProvService::new();
    ingest_pipeline(&mut service, steps);
    export(&mut service)
}

fn open_session(service: &mut ProvService, dst: &str) -> SessionId {
    match service.handle(&Request::OpenSession(OpenSessionRequest {
        src: vec!["data-v1".into()],
        dst: vec![dst.into()],
        boundary: BoundarySpec::none(),
        options: SegmentOptions::default(),
    })) {
        Response::Session(s) => s.session,
        other => panic!("expected session, got {other:?}"),
    }
}

/// A service over `doc` that has seen what the walking one had seen after
/// `rounds` ingest batches (and the session pinned to `pin`, opened first)
/// but never the walk itself, so it answers any cursor cold.
fn cold_service(doc: &str, pin: Option<&str>, rounds: usize) -> ProvService {
    let mut service = imported(doc);
    if let Some(dst) = pin {
        open_session(&mut service, dst);
    }
    for round in 1..=rounds {
        ingest_batch(&mut service, round);
    }
    service
}

/// What a client reads of a page, as bytes: rows, count, completeness and
/// the next cursor (the stats, which say what the service did, zeroed).
fn wire(page: &QueryResponse) -> String {
    let page = QueryResponse { stats: Stats::default(), ..page.clone() };
    serde_json::to_string(&Response::Query(page)).unwrap()
}

/// Walk all pages of `spec` over `service` (built from `doc`, with the
/// session pinned to `pin` if any), running `between(round)` — which must
/// ingest batch `round` — after every page. Every page is asked again of a
/// [`cold_service`] and must match it byte for byte. Returns the rows and
/// each page's `rows_scanned` on `service`.
fn walk_pages(
    service: &mut ProvService,
    doc: &str,
    pin: Option<&str>,
    spec: QuerySpec,
    page_size: usize,
    mut between: impl FnMut(&mut ProvService, usize),
) -> (Vec<VertexId>, Vec<u64>) {
    let session = pin.map(|_| SessionId::new(0));
    let mut rows = Vec::new();
    let mut scanned = Vec::new();
    let mut cursor = None;
    loop {
        let request = QueryRequest {
            query: spec.clone(),
            session,
            page_size: Some(page_size),
            cursor,
            max_expansions: None,
            max_paths: None,
        };
        let page = query(service, request.clone());
        let cold = query(&mut cold_service(doc, pin, scanned.len()), request);
        assert_eq!(wire(&page), wire(&cold), "page {} held vs cold", scanned.len() + 1);
        assert!(cold.stats.query.rows_scanned > 0, "the cold service evaluates");
        rows.extend_from_slice(&page.rows);
        scanned.push(page.stats.query.rows_scanned);
        assert!(scanned.len() <= 200, "walk must terminate");
        match page.cursor {
            Some(next) => cursor = Some(next),
            None => break,
        }
        between(service, scanned.len());
    }
    (rows, scanned)
}

fn descendants_spec() -> QuerySpec {
    QuerySpec::Pipeline(Pipeline::from_ids(vec![VertexId::new(1)]).traverse(
        &[(EdgeKind::Used, Direction::In), (EdgeKind::WasGeneratedBy, Direction::In)],
        1,
        u32::MAX,
    ))
}

fn filtered_spec() -> QuerySpec {
    QuerySpec::Pipeline(
        Pipeline::from_kind(VertexKind::Entity).filter(PropFilter::prop("tag", "keep")),
    )
}

/// A document whose vertex 1 (`data-v1`) has no descendants at all: every
/// run consumes another artifact. Larger than [`pipeline_doc`], so a cursor
/// from a walk over that one is still replayable here.
fn unrelated_doc(steps: usize) -> String {
    let mut service = ProvService::new();
    ingest_pipeline(&mut service, 0);
    let r = service.handle(&Request::AddArtifact(AddArtifactRequest {
        artifact: "other".into(),
        attributed_to: Some("alice".into()),
    }));
    assert!(!r.is_error(), "{r:?}");
    for i in 0..3 * steps + 8 {
        let r = service.handle(&Request::RecordActivity(RecordActivityRequest {
            command: format!("unrelated --step {i}"),
            agent: Some("alice".into()),
            inputs: vec!["other-v1".into()],
            outputs: vec![OutputSpecDto { artifact: "weights".into(), props: vec![] }],
            props: vec![],
        }));
        assert!(!r.is_error(), "{r:?}");
    }
    export(&mut service)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Live store: pages of a structural (unfiltered) pipeline concatenated
    /// across interleaved ingest equal the one-shot answer taken before any
    /// of the ingest happened — the snapshot watermark freezes the walk.
    /// Each page equals the same cursor answered cold; pages 1–2 evaluate,
    /// later ones are slices of the answer the first resumption held.
    #[test]
    fn paginated_walk_survives_concurrent_ingest(
        steps in 2usize..7,
        page_size in 1usize..6,
    ) {
        let doc = pipeline_doc(steps);
        let mut service = imported(&doc);
        let reference = one_shot(&mut service, descendants_spec(), None);
        prop_assert!(!reference.rows.is_empty());

        let (rows, scanned) =
            walk_pages(&mut service, &doc, None, descendants_spec(), page_size, ingest_batch);
        prop_assert_eq!(&rows, &reference.rows, "pages must concatenate to the one-shot answer");
        prop_assert_eq!(scanned.len(), reference.rows.len().div_ceil(page_size));
        for (i, &n) in scanned.iter().enumerate() {
            if i < 2 {
                prop_assert!(n > 0, "page {} evaluates", i + 1);
            } else {
                prop_assert_eq!(n, 0, "page {} is served from the held answer", i + 1);
            }
        }

        // Sanity: the ingest really changed the live answer (the walk was
        // genuinely racing something), unless it finished in one page.
        if scanned.len() > 1 {
            let after = one_shot(&mut service, descendants_spec(), None);
            prop_assert!(after.rows.len() > reference.rows.len());
        }

        // An `Import` mid-walk drops every held answer: the next resumption
        // matches a cold service over the imported document, not the walk
        // the held answer came from.
        if scanned.len() >= 3 {
            let mut service = imported(&doc);
            let page_request = |cursor| QueryRequest {
                query: descendants_spec(),
                session: None,
                page_size: Some(page_size),
                cursor,
                max_expansions: None,
                max_paths: None,
            };
            let first = query(&mut service, page_request(None));
            let second = query(&mut service, page_request(first.cursor));
            prop_assert!(second.cursor.is_some());
            let other = unrelated_doc(steps);
            let r = service.handle(&Request::Import(ImportRequest { json: other.clone() }));
            prop_assert!(!r.is_error(), "{:?}", r);
            let after = query(&mut service, page_request(second.cursor));
            let cold = query(&mut imported(&other), page_request(second.cursor));
            prop_assert_eq!(wire(&after), wire(&cold));
            prop_assert_eq!(after.count, 0, "the imported document has no such descendants");
        }
    }

    /// Pinned session: property-filtered pipelines are byte-stable across
    /// pages too, because the session freezes the graph the filters read.
    /// They are never held (a property filter is the one live input), so
    /// every page evaluates; each equals the same cursor answered cold.
    /// An unfiltered walk pinned to the session is held like a live one.
    #[test]
    fn pinned_session_walk_is_byte_stable(
        steps in 2usize..7,
        page_size in 1usize..6,
    ) {
        let doc = pipeline_doc(steps);
        let dst = format!("weights-v{steps}");
        let mut service = imported(&doc);
        let session = open_session(&mut service, &dst);
        prop_assert_eq!(session, SessionId::new(0));
        let reference = one_shot(&mut service, filtered_spec(), Some(session));
        prop_assert_eq!(reference.rows.len(), steps, "one keep-tagged artifact per run");

        let (rows, scanned) = walk_pages(
            &mut service,
            &doc,
            Some(&dst),
            filtered_spec(),
            page_size,
            |service, round| {
                ingest_batch(service, round);
                // New keep-tagged entities land in the live store…
                let live = one_shot(service, filtered_spec(), None);
                assert!(live.rows.len() > steps);
            },
        );
        // …but never leak into the pinned walk.
        prop_assert_eq!(&rows, &reference.rows);
        prop_assert!(scanned.iter().all(|&n| n > 0), "filtered walks are never held: {:?}", scanned);

        let mut service = imported(&doc);
        open_session(&mut service, &dst);
        let reference = one_shot(&mut service, descendants_spec(), Some(session));
        let (rows, scanned) =
            walk_pages(&mut service, &doc, Some(&dst), descendants_spec(), page_size, ingest_batch);
        prop_assert_eq!(&rows, &reference.rows);
        prop_assert!(scanned.iter().skip(2).all(|&n| n == 0), "{:?}", scanned);
    }
}

#[test]
fn stale_cursors_are_rejected_as_invalid_query() {
    let mut service = ProvService::new();
    ingest_pipeline(&mut service, 3);
    let response = service.handle(&Request::Query(QueryRequest {
        query: descendants_spec(),
        session: None,
        page_size: Some(2),
        // A watermark from "the future" (another database): must be refused,
        // not silently clamped.
        cursor: Some(prov_store::QueryCursor { vertices: 10_000, edges: 10_000, after: 0 }),
        max_expansions: None,
        max_paths: None,
    }));
    match response {
        Response::Error(e) => {
            assert_eq!(e.code, ErrorCode::InvalidQuery);
            assert!(e.message.contains("stale cursor"), "{}", e.message);
        }
        other => panic!("expected an error, got {other:?}"),
    }
}

/// A bounded star: `min_hops = 0`, so it lowers to `Traverse{0..4}`.
fn bounded_star() -> PathPattern {
    PathPattern::node(NodeSpec::of_kind(VertexKind::Entity)).then(
        RelSpec::star(&[EdgeKind::Used, EdgeKind::WasGeneratedBy], PatternDir::Forward, 0, 4),
        NodeSpec::any(),
    )
}

/// Regression: a bounded star used to run on a second, materializing
/// engine that could not replay an old watermark, so an unpinned resume
/// across ingest was refused as a stale cursor. It now compiles onto the
/// IR: the walk replays at its watermark, concatenates to the one-shot
/// answer taken before the ingest, matches a cold service page for page,
/// and is held from its first resumption like any pipeline walk.
#[test]
fn unpinned_pattern_walk_across_ingest_replays_at_its_watermark() {
    let doc = pipeline_doc(6);
    let mut service = imported(&doc);
    let spec = QuerySpec::Pattern(bounded_star());
    let reference = one_shot(&mut service, spec.clone(), None);
    assert!(reference.rows.len() > 6, "needs at least three pages");

    let (rows, scanned) = walk_pages(&mut service, &doc, None, spec, 3, ingest_batch);
    assert_eq!(rows, reference.rows, "pages must concatenate to the one-shot answer");
    assert!(scanned.len() >= 3 && scanned.iter().skip(2).all(|&n| n == 0), "{scanned:?}");
}

/// A pattern the IR cannot answer exactly is refused, not approximated:
/// Cypher's relationship uniqueness spans a pattern's steps, which
/// set-at-a-time evaluation cannot see. Nothing is truncated any more, so
/// there is no incomplete answer to report.
#[test]
fn two_step_pattern_is_refused_as_invalid_query() {
    let mut service = ProvService::new();
    ingest_pipeline(&mut service, 3);
    let pattern = PathPattern::node(NodeSpec::of_kind(VertexKind::Entity))
        .then(RelSpec::one(&[EdgeKind::WasGeneratedBy], PatternDir::Forward), NodeSpec::any())
        .then(RelSpec::one(&[EdgeKind::Used], PatternDir::Forward), NodeSpec::any());
    let response = service.handle(&Request::Query(QueryRequest {
        query: QuerySpec::Pattern(pattern),
        session: None,
        page_size: None,
        cursor: None,
        max_expansions: None,
        max_paths: None,
    }));
    match response {
        Response::Error(e) => {
            assert_eq!(e.code, ErrorCode::InvalidQuery);
            assert!(e.message.contains("at most one step"), "{}", e.message);
        }
        other => panic!("expected a refusal, got {other:?}"),
    }
}
