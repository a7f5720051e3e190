//! Byte pin of the wire: one fixed conversation with [`ProvService`] under a
//! [`ManualClock`], every response compared byte for byte with the committed
//! transcript `wire_pin.transcript`.
//!
//! The conversation sends every [`Request`] variant and provokes each error
//! it can answer with. Its names need escaping (a quote, a backslash,
//! `\u0001`, non-ASCII); its segments carry every category tag, `bx`
//! included; one segment is empty; and its summaries have edge frequencies
//! of 1/2, 1/3 and 1.
//!
//! Two services receive the same requests: one through
//! [`ProvService::handle_json`], the other through [`ProvService::handle`]
//! with the [`Response`] serialized afterwards. Their bytes must agree on
//! every request, so the byte entry and the typed entry cannot drift apart.
//!
//! To re-capture the transcript after a deliberate wire change, run
//! `cargo test -q -p prov-api --test wire_pin -- --ignored --nocapture print_transcript`
//! and replace the file with the printed lines that start with `>` or `<`.

use prov_api::*;
use prov_model::{EdgeKind, VertexId, VertexKind};
use prov_store::{Direction, NodeSpec, PathPattern, PatternDir, Pipeline, RelSpec, Traverse};

const GOLDEN: &str = include_str!("wire_pin.transcript");

/// Two services fed the same requests, and the transcript of the byte one.
struct Conversation {
    wire: ProvService,
    typed: ProvService,
    transcript: String,
}

impl Conversation {
    fn new() -> Self {
        Conversation {
            wire: ProvService::with_clock(Box::new(ManualClock::ticking(7))),
            typed: ProvService::with_clock(Box::new(ManualClock::ticking(7))),
            transcript: String::new(),
        }
    }

    /// Send one request to both entries; return the parsed answer.
    fn send(&mut self, request: Request) -> Response {
        let text = serde_json::to_string(&request).unwrap();
        let wire = self.wire.handle_json(&text);
        let typed = serde_json::to_string(&self.typed.handle(&request)).unwrap();
        assert_eq!(wire, typed, "handle_json and handle disagree on {text}");
        self.record(&text, &wire)
    }

    /// Send bytes that are not a request to both services' byte entry.
    fn send_text(&mut self, text: &str) -> Response {
        let wire = self.wire.handle_json(text);
        assert_eq!(wire, self.typed.handle_json(text));
        self.record(text, &wire)
    }

    fn record(&mut self, request: &str, response: &str) -> Response {
        self.transcript.push_str(&format!("> {request}\n< {response}\n"));
        serde_json::from_str(response).unwrap()
    }

    fn expect_error(&mut self, request: Request, code: ErrorCode) {
        match self.send(request) {
            Response::Error(e) => assert_eq!(e.code, code, "{}", e.message),
            other => panic!("expected {code:?}, got {other:?}"),
        }
    }

    fn open(&mut self, src: &str, dst: &str) -> SessionId {
        match self.send(open_request(src, dst, BoundarySpec::none())) {
            Response::Session(s) => s.session,
            other => panic!("expected a session, got {other:?}"),
        }
    }
}

fn open_request(src: &str, dst: &str, boundary: BoundarySpec) -> Request {
    Request::OpenSession(OpenSessionRequest {
        src: vec![src.into()],
        dst: vec![dst.into()],
        boundary,
        options: SegmentOptions::default(),
    })
}

fn segment_request(src: &str, dst: &str, boundary: BoundarySpec) -> Request {
    Request::Segment(SegmentRequest {
        src: vec![src.into()],
        dst: vec![dst.into()],
        boundary,
        options: SegmentOptions::default(),
    })
}

fn summarize(sessions: Vec<SessionId>) -> Request {
    Request::Summarize(SummarizeRequest {
        sessions,
        k: Some(1),
        entity_keys: vec![],
        activity_keys: vec![],
    })
}

fn query(
    query: QuerySpec,
    page_size: Option<usize>,
    cursor: Option<prov_store::QueryCursor>,
) -> Request {
    Request::Query(QueryRequest {
        query,
        session: None,
        page_size,
        cursor,
        max_expansions: None,
        max_paths: None,
    })
}

/// The agents' names: a quote, a backslash, a control character, non-ASCII.
const AGENTS: [&str; 3] = ["al\"ice", "bo\\b", "zo\u{1}ë"];
/// The dataset's base name, escaped the same ways.
const DATA: &str = "da\"ta\\set\u{1}é";

fn converse() -> String {
    let mut c = Conversation::new();

    // Ingestion, with its errors.
    for name in AGENTS {
        c.send(Request::AddAgent(AddAgentRequest { name: name.into() }));
    }
    c.send(Request::AddArtifact(AddArtifactRequest {
        artifact: DATA.into(),
        attributed_to: Some(AGENTS[0].into()),
    }));
    c.expect_error(
        Request::AddArtifact(AddArtifactRequest {
            artifact: "orphan".into(),
            attributed_to: Some("nobody".into()),
        }),
        ErrorCode::UnknownEntity,
    );
    c.expect_error(
        Request::AddArtifact(AddArtifactRequest {
            artifact: "orphan".into(),
            attributed_to: Some(EntityRef::Id(VertexId::new(9_999))),
        }),
        ErrorCode::UnknownVertex,
    );
    let data = format!("{DATA}-v1");
    for step in 0..4usize {
        let mut inputs: Vec<EntityRef> = vec![data.as_str().into()];
        if step > 0 {
            inputs.push(format!("weights-v{step}").as_str().into());
        }
        c.send(Request::RecordActivity(RecordActivityRequest {
            command: format!("train --step {step}"),
            agent: Some(AGENTS[step % AGENTS.len()].into()),
            inputs,
            outputs: vec![
                OutputSpecDto {
                    artifact: "weights".into(),
                    props: vec![("acc".into(), (0.5 + step as f64 / 8.0).into())],
                },
                OutputSpecDto { artifact: "log".into(), props: vec![] },
            ],
            props: vec![("step".into(), (step as i64).into())],
        }));
    }
    let activity = |agent: &str, inputs: Vec<EntityRef>| {
        Request::RecordActivity(RecordActivityRequest {
            command: "eval".into(),
            agent: Some(agent.into()),
            inputs,
            outputs: vec![OutputSpecDto { artifact: "report".into(), props: vec![] }],
            props: vec![],
        })
    };
    c.expect_error(activity(&data, vec![]), ErrorCode::InvalidEdge);
    c.expect_error(activity(AGENTS[1], vec!["weights-v9".into()]), ErrorCode::UnknownEntity);

    // One-shot segments: every category but `bx`, an empty segment, errors.
    c.send(segment_request(&data, "weights-v4", BoundarySpec::none()));
    let before_everything =
        BoundarySpec::none().with_vertex(VertexPredSpec::BirthIn(BirthWindow { from: 0, to: 0 }));
    c.send(segment_request(&data, "weights-v4", before_everything));
    c.expect_error(
        segment_request(AGENTS[0], "weights-v4", BoundarySpec::none()),
        ErrorCode::InvalidQuery,
    );
    c.expect_error(
        segment_request(&data, "weights-v9", BoundarySpec::none()),
        ErrorCode::UnknownEntity,
    );

    // Sessions: open, expand (`bx`), restrict, close, and their errors.
    let s1 = c.open(&data, "weights-v2");
    let s2 = c.open(&data, "weights-v4");
    let s3 = c.open("weights-v1", "weights-v3");
    c.expect_error(
        open_request(
            &data,
            "weights-v4",
            BoundarySpec::none().with_expansion(vec!["nope".into()], 1),
        ),
        ErrorCode::UnknownEntity,
    );
    c.send(Request::Expand(ExpandRequest { session: s1, roots: vec!["weights-v3".into()], k: 1 }));
    c.expect_error(
        Request::Expand(ExpandRequest { session: SessionId::new(99), roots: vec![], k: 1 }),
        ErrorCode::UnknownSession,
    );
    c.expect_error(
        Request::Expand(ExpandRequest { session: s1, roots: vec!["nope".into()], k: 1 }),
        ErrorCode::UnknownEntity,
    );
    c.send(Request::Restrict(RestrictRequest {
        session: s2,
        boundary: BoundarySpec::none()
            .with_edge(EdgePredSpec::ExcludeKind(EdgeKind::WasAttributedTo)),
    }));
    c.expect_error(
        Request::Restrict(RestrictRequest {
            session: s2,
            boundary: BoundarySpec::none().with_expansion(vec![data.as_str().into()], 1),
        }),
        ErrorCode::InvalidQuery,
    );
    c.expect_error(
        Request::Restrict(RestrictRequest {
            session: SessionId::new(99),
            boundary: BoundarySpec::none(),
        }),
        ErrorCode::UnknownSession,
    );

    // Summaries: frequencies 1/2 and 1 over two segments, 1/3 over three;
    // then each refusal.
    c.send(summarize(vec![s1, s2]));
    c.send(summarize(vec![s1, s2, s3]));
    c.send(Request::Summarize(SummarizeRequest {
        sessions: vec![s3],
        k: Some(2),
        entity_keys: vec!["filename".into(), "acc".into()],
        activity_keys: vec!["step".into()],
    }));
    c.expect_error(summarize(vec![]), ErrorCode::InvalidQuery);
    c.expect_error(summarize(vec![s1, s1]), ErrorCode::InvalidQuery);
    c.expect_error(summarize(vec![s1, SessionId::new(99)]), ErrorCode::UnknownSession);

    // Lineage both ways, bounded and not, and an unknown start.
    for (entity, direction, max_hops) in [
        ("weights-v3", LineageDir::Ancestors, None),
        ("weights-v1", LineageDir::Descendants, Some(2)),
    ] {
        c.send(Request::Lineage(LineageRequest { entity: entity.into(), direction, max_hops }));
    }
    c.expect_error(
        Request::Lineage(LineageRequest {
            entity: "nope".into(),
            direction: LineageDir::Ancestors,
            max_hops: None,
        }),
        ErrorCode::UnknownEntity,
    );

    // Queries: a pipeline walked page by page (the third page is held), a
    // pattern, one pinned to a session, and the refusals.
    let entities = QuerySpec::Pipeline(
        Pipeline::from_all().filter(prov_store::PropFilter::of_kind(VertexKind::Entity)),
    );
    let mut cursor = None;
    for _ in 0..4 {
        let Response::Query(page) = c.send(query(entities.clone(), Some(3), cursor)) else {
            panic!("expected a page")
        };
        cursor = page.cursor;
    }
    let upstream = Pipeline::from_ids(vec![VertexId::new(12)]).traverse(
        &[(EdgeKind::WasGeneratedBy, Direction::Out), (EdgeKind::Used, Direction::Out)],
        1,
        Traverse::UNBOUNDED,
    );
    c.send(query(QuerySpec::Pipeline(upstream.clone()), None, None));
    c.send(Request::Query(QueryRequest {
        query: QuerySpec::Pipeline(upstream),
        session: Some(s3),
        page_size: Some(2),
        cursor: None,
        max_expansions: None,
        max_paths: None,
    }));
    let star = |dir| {
        PathPattern::node(NodeSpec::any().with_ids(vec![VertexId::new(12)])).then(
            RelSpec::star(&[EdgeKind::Used, EdgeKind::WasGeneratedBy], dir, 1, RelSpec::UNBOUNDED),
            NodeSpec::any(),
        )
    };
    c.send(query(QuerySpec::Pattern(star(PatternDir::Forward)), None, None));
    c.expect_error(
        query(QuerySpec::Pattern(star(PatternDir::Either)), None, None),
        ErrorCode::InvalidQuery,
    );
    c.expect_error(query(entities.clone(), Some(0), None), ErrorCode::InvalidQuery);
    c.expect_error(
        Request::Query(QueryRequest {
            query: entities,
            session: Some(SessionId::new(99)),
            page_size: None,
            cursor: None,
            max_expansions: None,
            max_paths: None,
        }),
        ErrorCode::UnknownSession,
    );

    // Close, and close again.
    c.send(Request::CloseSession(CloseSessionRequest { session: s3 }));
    c.expect_error(
        Request::CloseSession(CloseSessionRequest { session: s3 }),
        ErrorCode::UnknownSession,
    );

    // Interchange: export, a refused import, a good one.
    let Response::Document(doc) = c.send(Request::Export(ExportRequest {})) else {
        panic!("expected a document")
    };
    c.expect_error(
        Request::Import(ImportRequest { json: "{\"vertices\":[".into() }),
        ErrorCode::Import,
    );
    c.send(Request::Import(ImportRequest { json: doc.json }));
    // The sessions kept their snapshot.
    c.send(Request::Expand(ExpandRequest { session: s2, roots: vec!["weights-v1".into()], k: 2 }));

    // Bytes that are not a request.
    c.send_text("{\"Expand\": ");
    c.send_text("{\"Nope\":{}}");
    c.send_text("{\"CloseSession\":{}}");
    c.transcript
}

#[test]
fn transcript_matches_the_committed_bytes() {
    let transcript = converse();
    for (i, (got, want)) in transcript.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(got, want, "transcript line {} differs", i + 1);
    }
    assert_eq!(transcript.lines().count(), GOLDEN.lines().count(), "transcript length differs");
}

/// Prints the transcript, to re-capture `wire_pin.transcript`.
#[test]
#[ignore]
fn print_transcript() {
    print!("{}", converse());
}
