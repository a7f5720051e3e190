//! Cursor stability under concurrent ingest (ISSUE 8 satellite): a
//! paginated `Query` walk interleaved with ingest batches must concatenate
//! to exactly the one-shot answer — structurally stable on the live store
//! via the cursor's snapshot watermark, byte-stable under a pinned session
//! — plus the regression test that pattern-engine budget exhaustion is
//! surfaced (`is_complete = false`) instead of silently truncating.

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

/// Walk all pages of `spec`, running `between(round)` after every page.
fn walk_pages(
    service: &mut ProvService,
    spec: QuerySpec,
    session: Option<SessionId>,
    page_size: usize,
    mut between: impl FnMut(&mut ProvService, usize),
) -> (Vec<VertexId>, usize) {
    let mut rows = Vec::new();
    let mut cursor = None;
    let mut pages = 0;
    loop {
        let page = query(
            service,
            QueryRequest {
                query: spec.clone(),
                session,
                page_size: Some(page_size),
                cursor,
                max_expansions: None,
                max_paths: None,
            },
        );
        assert!(page.is_complete);
        rows.extend_from_slice(&page.rows);
        pages += 1;
        assert!(pages <= 200, "walk must terminate");
        match page.cursor {
            Some(next) => cursor = Some(next),
            None => break,
        }
        between(service, pages);
    }
    (rows, pages)
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Live store: pages of a structural (unfiltered) pipeline concatenated
    /// across interleaved ingest equal the one-shot answer taken before any
    /// of the ingest happened — the snapshot watermark freezes the walk.
    #[test]
    fn paginated_walk_survives_concurrent_ingest(
        steps in 2usize..7,
        page_size in 1usize..6,
    ) {
        let mut service = ProvService::new();
        ingest_pipeline(&mut service, steps);
        let reference = one_shot(&mut service, descendants_spec(), None);
        prop_assert!(!reference.rows.is_empty());

        let (rows, pages) =
            walk_pages(&mut service, descendants_spec(), None, page_size, ingest_batch);
        prop_assert_eq!(&rows, &reference.rows, "pages must concatenate to the one-shot answer");
        prop_assert_eq!(pages, reference.rows.len().div_ceil(page_size));

        // Sanity: the ingest really changed the live answer (the walk was
        // genuinely racing something), unless it finished in one page.
        if pages > 1 {
            let after = one_shot(&mut service, descendants_spec(), None);
            prop_assert!(after.rows.len() > reference.rows.len());
        }
    }

    /// Pinned session: property-filtered pipelines are byte-stable across
    /// pages too, because the session freezes the graph the filters read.
    #[test]
    fn pinned_session_walk_is_byte_stable(
        steps in 2usize..7,
        page_size in 1usize..6,
    ) {
        let mut service = ProvService::new();
        ingest_pipeline(&mut service, steps);
        let session = match service.handle(&Request::OpenSession(OpenSessionRequest {
            src: vec!["data-v1".into()],
            dst: vec![format!("weights-v{steps}").as_str().into()],
            boundary: BoundarySpec::none(),
            options: SegmentOptions::default(),
        })) {
            Response::Session(s) => s.session,
            other => panic!("expected session, got {other:?}"),
        };
        let reference = one_shot(&mut service, filtered_spec(), Some(session));
        prop_assert_eq!(reference.rows.len(), steps, "one keep-tagged artifact per run");

        let (rows, _) = walk_pages(
            &mut service,
            filtered_spec(),
            Some(session),
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

/// Bounded star => outside the lowerable family => materializing engine.
fn bounded_star() -> PathPattern {
    PathPattern::node(NodeSpec::of_kind(VertexKind::Entity)).then(
        RelSpec::star(&[EdgeKind::Used, EdgeKind::WasGeneratedBy], PatternDir::Forward, 0, 4),
        NodeSpec::any(),
    )
}

/// Regression (ISSUE 16 satellite): the pattern-fallback arm re-enumerated
/// the *live* graph on every page and re-stamped the cursor, so ingest
/// between two pages could skip or duplicate rows. The pattern engine cannot
/// replay at an old watermark, so an unpinned resume across ingest is
/// refused as stale; a session-pinned walk continues exactly.
#[test]
fn pattern_fallback_refuses_a_resume_cursor_the_snapshot_has_moved_past() {
    let mut service = ProvService::new();
    ingest_pipeline(&mut service, 6);
    let session = match service.handle(&Request::OpenSession(OpenSessionRequest {
        src: vec!["data-v1".into()],
        dst: vec!["weights-v6".into()],
        boundary: BoundarySpec::none(),
        options: SegmentOptions::default(),
    })) {
        Response::Session(s) => s.session,
        other => panic!("expected session, got {other:?}"),
    };
    let page = |service: &mut ProvService, session, cursor| {
        service.handle(&Request::Query(QueryRequest {
            query: QuerySpec::Pattern(bounded_star()),
            session,
            page_size: Some(3),
            cursor,
            max_expansions: None,
            max_paths: None,
        }))
    };
    let reference = one_shot(&mut service, QuerySpec::Pattern(bounded_star()), None);
    assert!(reference.rows.len() > 6, "needs at least three pages");

    let Response::Query(live1) = page(&mut service, None, None) else { panic!("page 1") };
    let Response::Query(pinned1) = page(&mut service, Some(session), None) else {
        panic!("pinned page 1")
    };
    assert_eq!(live1.rows, reference.rows[..3]);
    assert_eq!(pinned1.rows, reference.rows[..3]);
    // Resuming before any ingest works unpinned too: the snapshot is still
    // the one page 1 was cut from.
    let Response::Query(live2) = page(&mut service, None, live1.cursor) else { panic!("page 2") };
    assert_eq!(live2.rows, reference.rows[3..6]);

    ingest_batch(&mut service, 0);

    match page(&mut service, None, live2.cursor) {
        Response::Error(e) => {
            assert_eq!(e.code, ErrorCode::InvalidQuery);
            assert!(e.message.contains("stale cursor"), "{}", e.message);
        }
        other => panic!("expected a stale-cursor error, got {other:?}"),
    }
    // Pinned: the session's snapshot never moves, so the walk continues
    // exactly where page 1 stopped and concatenates to the pre-ingest answer.
    let mut rows = pinned1.rows;
    let mut cursor = pinned1.cursor;
    while cursor.is_some() {
        let Response::Query(next) = page(&mut service, Some(session), cursor) else {
            panic!("pinned resume")
        };
        if let (Some(a), Some(b)) = (cursor, next.cursor) {
            assert_eq!(a.watermark(), b.watermark(), "the pinned watermark rides along unchanged");
        }
        rows.extend_from_slice(&next.rows);
        cursor = next.cursor;
    }
    assert_eq!(rows, reference.rows);
}

/// Regression (ISSUE 8 satellite): pattern-engine budget exhaustion used to
/// be observable only by calling `MatchOutcome::is_complete` in-process; on
/// the wire a truncated answer was indistinguishable from a complete one.
/// The query envelope must say so.
#[test]
fn pattern_budget_exhaustion_is_surfaced_not_silent() {
    let mut service = ProvService::new();
    ingest_pipeline(&mut service, 6);
    let pattern = bounded_star();
    let complete = query(
        &mut service,
        QueryRequest {
            query: QuerySpec::Pattern(pattern.clone()),
            session: None,
            page_size: None,
            cursor: None,
            max_expansions: None,
            max_paths: None,
        },
    );
    assert!(complete.is_complete, "default budget finishes this graph");
    assert!(!complete.rows.is_empty());

    let truncated = query(
        &mut service,
        QueryRequest {
            query: QuerySpec::Pattern(pattern),
            session: None,
            page_size: None,
            cursor: None,
            max_expansions: Some(3),
            max_paths: None,
        },
    );
    assert!(!truncated.is_complete, "a 3-expansion budget cannot finish");
    assert!(
        truncated.rows.len() < complete.rows.len(),
        "truncation must actually have dropped rows for this regression test to bite"
    );
}
