//! Serde round-trip coverage for the wire envelope: every [`Request`] and
//! [`Response`] variant must survive `to_string` → `from_str` losslessly,
//! and the wire shape must be externally tagged so transports can route on
//! the variant name.

use prov_api::*;
use prov_model::{EdgeId, EdgeKind, VertexId, VertexKind};

fn roundtrip_request(req: Request) -> Request {
    let json = serde_json::to_string(&req).unwrap();
    let back: Request = serde_json::from_str(&json).unwrap();
    assert_eq!(back, req, "lossy request round trip through {json}");
    back
}

fn roundtrip_response(resp: Response) -> Response {
    let json = serde_json::to_string(&resp).unwrap();
    let back: Response = serde_json::from_str(&json).unwrap();
    assert_eq!(back, resp, "lossy response round trip through {json}");
    back
}

fn full_boundary() -> BoundarySpec {
    BoundarySpec::none()
        .with_vertex(VertexPredSpec::BirthIn(BirthWindow { from: 2, to: 9 }))
        .with_vertex(VertexPredSpec::PropEq(PropMatch {
            key: "command".into(),
            value: "train".into(),
        }))
        .with_vertex(VertexPredSpec::NamePrefix("model".into()))
        .with_vertex(VertexPredSpec::ExcludeKind(VertexKind::Agent))
        .with_edge(EdgePredSpec::ExcludeKind(EdgeKind::WasAttributedTo))
        .with_edge(EdgePredSpec::PropEq(PropMatch { key: "step".into(), value: 3i64.into() }))
        .with_expansion(vec![EntityRef::Id(VertexId::new(4)), "dataset-v1".into()], 2)
}

fn stats() -> Stats {
    Stats {
        elapsed_micros: 120,
        vertices: 7,
        edges: 9,
        snapshot: prov_core::SnapshotCounters { reuses: 40, refreshes: 2, rebuilds: 1 },
        query: QueryActivity { steps: 3, rows_scanned: 250, frontier_peak: 17, resumptions: 2 },
        durability: prov_core::DurabilityCounters {
            wal_appends: 31,
            fsyncs: 33,
            recoveries: 1,
            truncated_tail_bytes: 11,
            snapshots_written: 2,
            batches_replayed: 5,
            group_flushes: 12,
            group_flushed_batches: 31,
            lazy_segments_deferred: 2,
            lazy_deferred_bytes: 4096,
            lazy_segment_loads: 2,
            lazy_bytes_loaded: 4096,
            runs_merged: 1,
        },
    }
}

#[test]
fn every_request_variant_round_trips() {
    roundtrip_request(Request::AddAgent(AddAgentRequest { name: "alice".into() }));
    roundtrip_request(Request::AddArtifact(AddArtifactRequest {
        artifact: "dataset".into(),
        attributed_to: Some("alice".into()),
    }));
    roundtrip_request(Request::RecordActivity(RecordActivityRequest {
        command: "train -gpu".into(),
        agent: Some(EntityRef::Id(VertexId::new(0))),
        inputs: vec!["dataset-v1".into(), EntityRef::Id(VertexId::new(3))],
        outputs: vec![OutputSpecDto {
            artifact: "weights".into(),
            props: vec![("acc".into(), 0.75.into()), ("gpu".into(), true.into())],
        }],
        props: vec![("lr".into(), 0.1.into()), ("epochs".into(), 20i64.into())],
    }));
    roundtrip_request(Request::Segment(SegmentRequest {
        src: vec!["dataset-v1".into()],
        dst: vec!["weights-v2".into()],
        boundary: full_boundary(),
        options: SegmentOptions {
            evaluator: Some(EvaluatorSpec::AlgCompressed),
            early_stop: Some(false),
            symmetric_prune: Some(true),
        },
    }));
    roundtrip_request(Request::OpenSession(OpenSessionRequest {
        src: vec![EntityRef::Id(VertexId::new(1))],
        dst: vec![EntityRef::Id(VertexId::new(8))],
        boundary: BoundarySpec::none(),
        options: SegmentOptions::default(),
    }));
    roundtrip_request(Request::Expand(ExpandRequest {
        session: SessionId::new(3),
        roots: vec!["model-v2".into()],
        k: 2,
    }));
    roundtrip_request(Request::Restrict(RestrictRequest {
        session: SessionId::new(3),
        boundary: BoundarySpec::none().with_vertex(VertexPredSpec::ExcludeKind(VertexKind::Agent)),
    }));
    roundtrip_request(Request::CloseSession(CloseSessionRequest { session: SessionId::new(3) }));
    roundtrip_request(Request::Summarize(SummarizeRequest {
        sessions: vec![SessionId::new(0), SessionId::new(1)],
        k: Some(2),
        entity_keys: vec!["filename".into()],
        activity_keys: vec!["command".into()],
    }));
    roundtrip_request(Request::Lineage(LineageRequest {
        entity: "weights-v3".into(),
        direction: LineageDir::Ancestors,
        max_hops: None,
    }));
    roundtrip_request(Request::Lineage(LineageRequest {
        entity: EntityRef::Id(VertexId::new(3)),
        direction: LineageDir::Descendants,
        max_hops: Some(4),
    }));
    roundtrip_request(Request::Query(QueryRequest {
        query: QuerySpec::Pipeline(
            prov_store::Pipeline::from_ids(vec![VertexId::new(4)])
                .traverse(
                    &[
                        (EdgeKind::WasGeneratedBy, prov_store::Direction::Out),
                        (EdgeKind::Used, prov_store::Direction::Out),
                    ],
                    1,
                    prov_store::Traverse::UNBOUNDED,
                )
                .filter(prov_store::PropFilter::of_kind(VertexKind::Entity))
                .limit(100),
        ),
        session: Some(SessionId::new(2)),
        page_size: Some(25),
        cursor: Some(prov_store::QueryCursor { vertices: 40, edges: 55, after: 12 }),
        max_expansions: None,
        max_paths: None,
    }));
    roundtrip_request(Request::Query(QueryRequest {
        query: QuerySpec::Pattern(
            prov_store::PathPattern::node(
                prov_store::NodeSpec::of_kind(VertexKind::Entity).with_ids(vec![VertexId::new(7)]),
            )
            .then(
                prov_store::RelSpec::star(
                    &[EdgeKind::Used, EdgeKind::WasGeneratedBy],
                    prov_store::PatternDir::Forward,
                    0,
                    3,
                ),
                prov_store::NodeSpec::any().with_prop("acc", 0.7),
            ),
        ),
        session: None,
        page_size: None,
        cursor: None,
        max_expansions: Some(10_000),
        max_paths: Some(500),
    }));
    roundtrip_request(Request::Export(ExportRequest {}));
    roundtrip_request(Request::Import(ImportRequest { json: "{\"entity\":{}}".into() }));
}

#[test]
fn every_response_variant_round_trips() {
    roundtrip_response(Response::Error(ErrorResponse {
        code: ErrorCode::UnknownSession,
        message: "unknown session s9".into(),
    }));
    roundtrip_response(Response::Vertex(VertexResponse {
        id: VertexId::new(5),
        name: Some("dataset-v1".into()),
        stats: stats(),
    }));
    roundtrip_response(Response::Activity(ActivityResponse {
        activity: VertexId::new(6),
        outputs: vec![VertexId::new(7), VertexId::new(8)],
        stats: stats(),
    }));
    let segment = SegmentDto {
        vsrc: vec![VertexId::new(0)],
        vdst: vec![VertexId::new(4)],
        vertices: vec![
            SegmentVertexDto {
                id: VertexId::new(0),
                name: Some("dataset-v1".into()),
                kind: VertexKind::Entity,
                tags: "src|vc1".into(),
            },
            SegmentVertexDto {
                id: VertexId::new(2),
                name: None,
                kind: VertexKind::Activity,
                tags: "vc1".into(),
            },
        ],
        edges: vec![SegmentEdgeDto {
            id: EdgeId::new(0),
            src: VertexId::new(2),
            dst: VertexId::new(0),
            kind: EdgeKind::Used,
        }],
    };
    roundtrip_response(Response::Segment(SegmentResponse {
        segment: segment.clone(),
        stats: stats(),
    }));
    roundtrip_response(Response::Session(SessionResponse {
        session: SessionId::new(1),
        segment,
        stats: stats(),
    }));
    roundtrip_response(Response::Closed(ClosedResponse {
        session: SessionId::new(1),
        stats: stats(),
    }));
    roundtrip_response(Response::Summary(SummaryResponse {
        summary: PsgDto {
            vertices: vec![PsgVertexDto {
                label: "dataset [E:2]".into(),
                kind: VertexKind::Entity,
                members: vec![(0, VertexId::new(0)), (1, VertexId::new(9))],
            }],
            edges: vec![PsgEdgeDto {
                src: 0,
                dst: 0,
                kind: EdgeKind::WasDerivedFrom,
                frequency: 0.5,
            }],
            segment_count: 2,
            input_vertex_count: 11,
            compaction_ratio: 0.27,
        },
        stats: stats(),
    }));
    roundtrip_response(Response::Lineage(LineageResponse {
        entity: VertexId::new(4),
        vertices: vec![VertexId::new(0), VertexId::new(2)],
        stats: stats(),
    }));
    roundtrip_response(Response::Query(QueryResponse {
        rows: vec![VertexId::new(1), VertexId::new(5)],
        count: 9,
        is_complete: false,
        cursor: Some(prov_store::QueryCursor { vertices: 12, edges: 20, after: 5 }),
        stats: stats(),
    }));
    roundtrip_response(Response::Document(DocumentResponse {
        json: "{\"entity\":{}}".into(),
        stats: stats(),
    }));
    roundtrip_response(Response::Imported(ImportedResponse { stats: stats() }));
}

#[test]
fn wire_shape_is_externally_tagged() {
    let json = serde_json::to_string(&Request::AddAgent(AddAgentRequest { name: "alice".into() }))
        .unwrap();
    assert!(json.starts_with("{\"AddAgent\":"), "got {json}");
    let json = serde_json::to_string(&Response::Closed(ClosedResponse {
        session: SessionId::new(2),
        stats: Stats::default(),
    }))
    .unwrap();
    assert!(json.starts_with("{\"Closed\":"), "got {json}");
    // SessionId is transparent and EntityRef untagged: ids are numbers,
    // names are strings.
    let json = serde_json::to_string(&Request::Expand(ExpandRequest {
        session: SessionId::new(7),
        roots: vec![EntityRef::Id(VertexId::new(3)), "model-v2".into()],
        k: 1,
    }))
    .unwrap();
    assert!(json.contains("\"session\":7"), "got {json}");
    assert!(json.contains("[3,\"model-v2\"]"), "got {json}");
}

#[test]
fn optional_request_fields_may_be_omitted() {
    // Hand-written client JSON: defaults fill boundary/options/props.
    let req: Request =
        serde_json::from_str(r#"{"Segment": {"src": ["dataset-v1"], "dst": [4]}}"#).unwrap();
    match &req {
        Request::Segment(r) => {
            assert!(r.boundary.is_empty());
            assert_eq!(r.options, SegmentOptions::default());
            assert_eq!(r.src, vec![EntityRef::Name("dataset-v1".into())]);
            assert_eq!(r.dst, vec![EntityRef::Id(VertexId::new(4))]);
        }
        other => panic!("parsed wrong variant: {other:?}"),
    }
    let req: Request = serde_json::from_str(r#"{"RecordActivity": {"command": "train"}}"#).unwrap();
    match &req {
        Request::RecordActivity(r) => {
            assert!(r.agent.is_none() && r.inputs.is_empty() && r.outputs.is_empty());
        }
        other => panic!("parsed wrong variant: {other:?}"),
    }
}

#[test]
fn unknown_variant_is_rejected_not_misrouted() {
    let err = serde_json::from_str::<Request>(r#"{"DropTables": {}}"#).unwrap_err();
    assert!(err.to_string().contains("DropTables"), "got {err}");
}

#[test]
fn storage_error_codes_round_trip() {
    for code in [ErrorCode::StorageUnavailable, ErrorCode::CorruptLog] {
        let resp = Response::Error(ErrorResponse { code, message: "disk on fire".into() });
        let json = serde_json::to_string(&resp).unwrap();
        assert!(json.contains(&format!("{code:?}")), "got {json}");
        let back: Response = serde_json::from_str(&json).unwrap();
        assert_eq!(back, resp);
    }
}

#[test]
fn held_budget_error_code_round_trips() {
    let code = ErrorCode::HeldBudgetExceeded;
    let resp = Response::Error(ErrorResponse { code, message: "close a session first".into() });
    let json = serde_json::to_string(&resp).unwrap();
    assert!(json.contains(r#""code":"HeldBudgetExceeded""#), "got {json}");
    let back: Response = serde_json::from_str(&json).unwrap();
    assert_eq!(back, resp);
}

#[test]
fn stats_without_durability_field_deserialize_to_zero() {
    // An old-wire Stats (pre-durability) must still parse, with all-zero
    // durability counters.
    let json = r#"{"elapsed_micros": 5, "vertices": 1, "edges": 2}"#;
    let stats: Stats = serde_json::from_str(json).unwrap();
    assert_eq!(stats.durability, prov_core::DurabilityCounters::default());
    assert_eq!(stats.vertices, 1);
}
