//! End-to-end service behaviour: the session registry (the acceptance
//! criterion — ≥ 2 concurrent sessions adjusted independently), the unified
//! error surface, the injected clock, and a property test that the
//! interactive `expand`+`restrict` path through [`ProvService`] matches the
//! equivalent one-shot `pgseg` with a combined boundary.

use proptest::prelude::*;
use prov_api::*;
use prov_model::{EdgeKind, VertexKind};
use prov_segment::{Boundary, PgSegOptions, PgSegQuery, VertexPred};

/// Ingest a training pipeline through the envelope: `data-v1`, then `steps`
/// train runs, each using the dataset and the previous weights, producing
/// `weights-vN` + `log-vN`, with alice/bob alternating.
fn ingest_pipeline(service: &mut ProvService, steps: usize) {
    for name in ["alice", "bob"] {
        let r = service.handle(&Request::AddAgent(AddAgentRequest { name: name.into() }));
        assert!(!r.is_error(), "{r:?}");
    }
    let r = service.handle(&Request::AddArtifact(AddArtifactRequest {
        artifact: "data".into(),
        attributed_to: Some("alice".into()),
    }));
    assert!(!r.is_error(), "{r:?}");
    for i in 0..steps {
        let agent = if i % 2 == 0 { "alice" } else { "bob" };
        let mut inputs: Vec<EntityRef> = vec!["data-v1".into()];
        if i > 0 {
            inputs.push(format!("weights-v{i}").as_str().into());
        }
        let r = service.handle(&Request::RecordActivity(RecordActivityRequest {
            command: format!("train --step {i}"),
            agent: Some(agent.into()),
            inputs,
            outputs: vec![
                OutputSpecDto {
                    artifact: "weights".into(),
                    props: vec![("acc".into(), (0.5 + i as f64 / 100.0).into())],
                },
                OutputSpecDto { artifact: "log".into(), props: vec![] },
            ],
            props: vec![("step".into(), (i as i64).into())],
        }));
        assert!(!r.is_error(), "{r:?}");
    }
}

fn open_session(service: &mut ProvService, src: &str, dst: &str) -> (SessionId, SegmentDto) {
    let r = service.handle(&Request::OpenSession(OpenSessionRequest {
        src: vec![src.into()],
        dst: vec![dst.into()],
        boundary: BoundarySpec::none(),
        options: SegmentOptions::default(),
    }));
    match r {
        Response::Session(s) => (s.session, s.segment),
        other => panic!("expected session, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `OpenSession` + `Expand` + `Restrict` through the service equals the
    /// one-shot `pgseg` whose boundary combines the same expansion and
    /// exclusions (agent / non-ancestry edge kinds — the adjust-safe subset).
    #[test]
    fn session_adjustment_matches_oneshot_with_combined_boundary(
        steps in 2usize..6,
        k in 0u32..3,
        root_step in 1usize..5,
        exclude_agents in (0..2i32).prop_map(|x| x == 1),
        edge_mask in 0u8..8,
    ) {
        let mut service = ProvService::new();
        ingest_pipeline(&mut service, steps);
        let dst = format!("weights-v{steps}");
        let root = format!("weights-v{}", (root_step % steps).max(1));

        // Interactive path: open plain, expand, then restrict.
        let (id, _) = open_session(&mut service, "data-v1", &dst);
        let r = service.handle(&Request::Expand(ExpandRequest {
            session: id,
            roots: vec![root.as_str().into()],
            k,
        }));
        prop_assert!(!r.is_error(), "{r:?}");
        let mut restrict = BoundarySpec::none();
        if exclude_agents {
            restrict = restrict.with_vertex(VertexPredSpec::ExcludeKind(VertexKind::Agent));
        }
        let excluded_edges: Vec<EdgeKind> = [
            EdgeKind::WasAssociatedWith,
            EdgeKind::WasAttributedTo,
            EdgeKind::WasDerivedFrom,
        ]
        .into_iter()
        .enumerate()
        .filter(|(i, _)| edge_mask & (1 << i) != 0)
        .map(|(_, k)| k)
        .collect();
        for &kind in &excluded_edges {
            restrict = restrict.with_edge(EdgePredSpec::ExcludeKind(kind));
        }
        let r = service.handle(&Request::Restrict(RestrictRequest {
            session: id,
            boundary: restrict,
        }));
        let adjusted = match r {
            Response::Session(s) => s.segment,
            other => panic!("expected session, got {other:?}"),
        };

        // One-shot path with the combined boundary.
        let graph = service.db().graph();
        let vsrc = vec![graph.vertex_by_name("data-v1").unwrap()];
        let vdst = vec![graph.vertex_by_name(&dst).unwrap()];
        let roots = vec![graph.vertex_by_name(&root).unwrap()];
        let mut boundary = Boundary::none().expand(roots, k).without_edge_kinds(&excluded_edges);
        if exclude_agents {
            boundary = boundary.with_vertex_pred(VertexPred::ExcludeKind(VertexKind::Agent));
        }
        let oneshot = service
            .db()
            .segment(
                PgSegQuery::between(vsrc, vdst).with_boundary(boundary),
                &PgSegOptions::default(),
            )
            .unwrap();

        prop_assert_eq!(adjusted.vertex_ids(), oneshot.vertices.clone());
        let adjusted_edges: Vec<_> = adjusted.edges.iter().map(|e| e.id).collect();
        prop_assert_eq!(adjusted_edges, oneshot.edges.clone());
    }
}

#[test]
fn two_sessions_adjust_independently() {
    let mut service = ProvService::new();
    ingest_pipeline(&mut service, 3);

    // Two concurrent sessions over different query windows.
    let (s1, seg1) = open_session(&mut service, "data-v1", "weights-v3");
    let (s2, seg2) = open_session(&mut service, "weights-v1", "weights-v2");
    assert_ne!(s1, s2);
    assert_eq!(service.session_count(), 2);
    let graph = service.db().graph();
    let alice = graph.vertex_by_name("alice").unwrap();
    let bob = graph.vertex_by_name("bob").unwrap();
    assert!(seg1.contains(alice) && seg1.contains(bob));
    assert!(seg2.contains(alice));

    // Restrict only session 1: session 2 must be untouched.
    let r = service.handle(&Request::Restrict(RestrictRequest {
        session: s1,
        boundary: BoundarySpec::none().with_vertex(VertexPredSpec::ExcludeKind(VertexKind::Agent)),
    }));
    let seg1b = match r {
        Response::Session(s) => s.segment,
        other => panic!("{other:?}"),
    };
    assert!(!seg1b.contains(alice) && !seg1b.contains(bob));
    let s2_now = SegmentDto::from_segment(
        service.session(s2).unwrap().graph(),
        service.session(s2).unwrap().segment(),
    );
    assert_eq!(s2_now, seg2, "adjusting s1 leaked into s2");

    // Expand only session 2: session 1 must be untouched.
    let r = service.handle(&Request::Expand(ExpandRequest {
        session: s2,
        roots: vec!["weights-v1".into()],
        k: 1,
    }));
    let seg2b = match r {
        Response::Session(s) => s.segment,
        other => panic!("{other:?}"),
    };
    let data = service.db().graph().vertex_by_name("data-v1").unwrap();
    assert!(seg2b.contains(data), "expansion should pull the dataset in");
    let s1_now = SegmentDto::from_segment(
        service.session(s1).unwrap().graph(),
        service.session(s1).unwrap().segment(),
    );
    assert_eq!(s1_now, seg1b, "adjusting s2 leaked into s1");

    // Closing one session leaves the other live.
    let r = service.handle(&Request::CloseSession(CloseSessionRequest { session: s1 }));
    assert!(matches!(r, Response::Closed(_)));
    assert_eq!(service.session_count(), 1);
    assert!(service.session(s2).is_some());
}

/// Pins a dead wire knob (ISSUE 16): `SegmentOptions.evaluator` and
/// `symmetric_prune` never reach a kernel — `Segment` and `OpenSession`
/// always induce with SimProvTst — so every value returns the same segment.
/// If this starts failing, a knob became live: update the `EvaluatorSpec`
/// rustdoc (and `benchmark`'s `explore` variants) instead of this test.
#[test]
fn every_evaluator_spec_returns_the_tst_segment() {
    let mut service = ProvService::new();
    ingest_pipeline(&mut service, 4);
    let mut segment = |options: SegmentOptions| {
        let oneshot = match service.handle(&Request::Segment(SegmentRequest {
            src: vec!["data-v1".into()],
            dst: vec!["weights-v4".into()],
            boundary: BoundarySpec::none(),
            options,
        })) {
            Response::Segment(s) => s.segment,
            other => panic!("expected segment, got {other:?}"),
        };
        let session = match service.handle(&Request::OpenSession(OpenSessionRequest {
            src: vec!["data-v1".into()],
            dst: vec!["weights-v4".into()],
            boundary: BoundarySpec::none(),
            options,
        })) {
            Response::Session(s) => s.segment,
            other => panic!("expected session, got {other:?}"),
        };
        assert_eq!(oneshot, session, "{options:?}");
        oneshot
    };
    let reference = segment(SegmentOptions::default());
    assert!(!reference.vertices.is_empty());
    for evaluator in [
        EvaluatorSpec::Naive,
        EvaluatorSpec::CflrBitset,
        EvaluatorSpec::CflrCompressed,
        EvaluatorSpec::AlgBitset,
        EvaluatorSpec::AlgCompressed,
        EvaluatorSpec::Tst,
    ] {
        for symmetric_prune in [None, Some(false), Some(true)] {
            let options =
                SegmentOptions { evaluator: Some(evaluator), early_stop: None, symmetric_prune };
            assert_eq!(segment(options), reference, "{options:?}");
        }
    }
}

#[test]
fn sessions_survive_later_ingest() {
    let mut service = ProvService::new();
    ingest_pipeline(&mut service, 2);
    let (id, seg) = open_session(&mut service, "data-v1", "weights-v2");
    // Mutate the store after the session opened: the session pins its
    // snapshot, so its segment is unchanged and still adjustable.
    ingest_pipeline(&mut service, 1);
    let r = service.handle(&Request::Expand(ExpandRequest {
        session: id,
        roots: vec!["weights-v1".into()],
        k: 0,
    }));
    let after = match r {
        Response::Session(s) => s.segment,
        other => panic!("{other:?}"),
    };
    assert_eq!(after, seg);
}

#[test]
fn summarize_over_session_segments() {
    let mut service = ProvService::new();
    ingest_pipeline(&mut service, 4);
    let (s1, _) = open_session(&mut service, "data-v1", "weights-v2");
    let (s2, _) = open_session(&mut service, "data-v1", "weights-v4");
    let r = service.handle(&Request::Summarize(SummarizeRequest {
        sessions: vec![s1, s2],
        k: Some(1),
        entity_keys: vec![],
        activity_keys: vec![],
    }));
    let summary = match r {
        Response::Summary(s) => s.summary,
        other => panic!("{other:?}"),
    };
    assert_eq!(summary.segment_count, 2);
    assert!(!summary.vertices.is_empty());
    assert!(summary.compaction_ratio <= 1.0);
    assert!(summary.vertices.len() <= summary.input_vertex_count);
}

#[test]
fn unified_errors_reach_the_wire_with_codes() {
    let mut service = ProvService::new();
    ingest_pipeline(&mut service, 2);

    // Unknown session.
    let r = service.handle(&Request::Expand(ExpandRequest {
        session: SessionId::new(99),
        roots: vec!["data-v1".into()],
        k: 1,
    }));
    let Response::Error(e) = r else { panic!("expected error") };
    assert_eq!(e.code, ErrorCode::UnknownSession);

    // Unknown entity name.
    let r = service.handle(&Request::Lineage(LineageRequest {
        entity: "nothing-v9".into(),
        direction: LineageDir::Ancestors,
        max_hops: None,
    }));
    let Response::Error(e) = r else { panic!("expected error") };
    assert_eq!(e.code, ErrorCode::UnknownEntity);
    assert!(e.message.contains("nothing-v9"));

    // Non-entity PgSeg query vertices → the new InvalidQuery store variant.
    let r = service.handle(&Request::Segment(SegmentRequest {
        src: vec!["alice".into()],
        dst: vec!["weights-v2".into()],
        boundary: BoundarySpec::none(),
        options: SegmentOptions::default(),
    }));
    let Response::Error(e) = r else { panic!("expected error") };
    assert_eq!(e.code, ErrorCode::InvalidQuery);

    // Expansions are rejected inside Restrict.
    let (id, _) = open_session(&mut service, "data-v1", "weights-v2");
    let r = service.handle(&Request::Restrict(RestrictRequest {
        session: id,
        boundary: BoundarySpec::none().with_expansion(vec!["data-v1".into()], 1),
    }));
    let Response::Error(e) = r else { panic!("expected error") };
    assert_eq!(e.code, ErrorCode::InvalidQuery);

    // Summarize across different snapshots is refused.
    let (s1, _) = open_session(&mut service, "data-v1", "weights-v2");
    ingest_pipeline(&mut service, 1); // new snapshot
    let (s2, _) = open_session(&mut service, "data-v1", "weights-v2");
    let r = service.handle(&Request::Summarize(SummarizeRequest {
        sessions: vec![s1, s2],
        k: None,
        entity_keys: vec![],
        activity_keys: vec![],
    }));
    let Response::Error(e) = r else { panic!("expected error") };
    assert_eq!(e.code, ErrorCode::InvalidQuery);

    // A kind-invalid ingest is rejected atomically: the store is untouched.
    let before = (service.db().graph().vertex_count(), service.db().graph().edge_count());
    let r = service.handle(&Request::RecordActivity(RecordActivityRequest {
        command: "train".into(),
        agent: Some("data-v1".into()), // an entity, not an agent
        inputs: vec![],
        outputs: vec![OutputSpecDto { artifact: "model".into(), props: vec![] }],
        props: vec![],
    }));
    let Response::Error(e) = r else { panic!("expected error") };
    assert_eq!(e.code, ErrorCode::InvalidEdge);
    let after = (service.db().graph().vertex_count(), service.db().graph().edge_count());
    assert_eq!(after, before, "failed ingest must mutate nothing");

    // Malformed JSON on the byte entry.
    let wire = service.handle_json("{\"Expand\": ");
    assert!(wire.contains("\"MalformedRequest\""), "got {wire}");
}

#[test]
fn hostile_wire_input_is_refused_not_fatal() {
    let mut service = ProvService::new();
    ingest_pipeline(&mut service, 1);
    let before = (service.db().graph().vertex_count(), service.db().graph().edge_count());

    // A request-sized run of openers used to recurse the parser off the
    // stack and abort the process.
    for opener in ["[", "{\"a\":"] {
        let wire = service.handle_json(&opener.repeat(200_000));
        assert!(wire.contains("\"MalformedRequest\""), "got {wire}");
        assert!(wire.contains("recursion limit"), "got {wire}");
    }

    // `1e999` reads as infinity, which no later response could print: it is
    // refused before it reaches the store.
    let wire = service.handle_json(
        r#"{"RecordActivity":{"command":"train","inputs":["data-v1"],
            "outputs":[{"artifact":"weights","props":[["acc",1e999]]}],"props":[["lr",-1e999]]}}"#,
    );
    assert!(wire.contains("\"MalformedRequest\""), "got {wire}");
    assert!(wire.contains("number out of range"), "got {wire}");
    let after = (service.db().graph().vertex_count(), service.db().graph().edge_count());
    assert_eq!(after, before, "a refused request must mutate nothing");

    // The typed entry still takes a non-finite float; `Export` then reports
    // it as an error instead of panicking.
    let r = service.handle(&Request::RecordActivity(RecordActivityRequest {
        command: "train".into(),
        agent: None,
        inputs: vec!["data-v1".into()],
        outputs: vec![],
        props: vec![("acc".into(), f64::INFINITY.into())],
    }));
    assert!(!r.is_error(), "{r:?}");
    let wire = service.handle_json(r#"{"Export":{}}"#);
    let Response::Error(e) = serde_json::from_str(&wire).unwrap() else { panic!("got {wire}") };
    assert_eq!(e.code, ErrorCode::Import);
    assert!(e.message.contains("non-finite"), "{}", e.message);
}

/// Wrap an interchange document in an `Import` request, as wire bytes.
fn import_request(document: &str) -> String {
    serde_json::to_string(&Request::Import(ImportRequest { json: document.into() })).unwrap()
}

#[test]
fn cyclic_import_is_refused_not_fatal() {
    // Every edge is well typed, so the loader accepts them one by one:
    // e0 -G-> a1 -U-> e2 -G-> a3 -U-> e0. `Segment` on this graph used to
    // allocate until the process died.
    let cyclic = r#"{"vertices":[
        {"id":0,"kind":"prov:Entity","name":"e0"},{"id":1,"kind":"prov:Activity","name":"a1"},
        {"id":2,"kind":"prov:Entity","name":"e2"},{"id":3,"kind":"prov:Activity","name":"a3"}],
      "edges":[
        {"kind":"prov:wasGeneratedBy","src":0,"dst":1},{"kind":"prov:used","src":1,"dst":2},
        {"kind":"prov:wasGeneratedBy","src":2,"dst":3},{"kind":"prov:used","src":3,"dst":0}]}"#;
    let mut service = ProvService::new();
    ingest_pipeline(&mut service, 1);
    let before = (service.db().graph().vertex_count(), service.db().graph().edge_count());

    let wire = service.handle_json(&import_request(cyclic));
    let Response::Error(e) = serde_json::from_str(&wire).unwrap() else { panic!("got {wire}") };
    assert_eq!(e.code, ErrorCode::Cycle, "{}", e.message);
    let after = (service.db().graph().vertex_count(), service.db().graph().edge_count());
    assert_eq!(after, before, "a refused import must replace nothing");

    // The request that followed it in the reproduction is an ordinary miss.
    let wire = service.handle_json(r#"{"Segment":{"src":["e0"],"dst":["e2"]}}"#);
    let Response::Error(e) = serde_json::from_str(&wire).unwrap() else { panic!("got {wire}") };
    assert_eq!(e.code, ErrorCode::UnknownEntity, "{}", e.message);
}

#[test]
fn segment_does_not_trust_the_id_order_of_an_imported_document() {
    // A legal document numbered newest-first: w(0) -G-> t(1) -U-> d(2) and
    // t -U-> c(3). `c` is used alongside `d`, so it is on a similar path.
    // The early stop used to compare births (= ids here), stop at `t`, and
    // return {w, t, d} with no `vc2` tag at all.
    let newest_first = r#"{"vertices":[
        {"id":0,"kind":"prov:Entity","name":"w"},{"id":1,"kind":"prov:Activity","name":"t"},
        {"id":2,"kind":"prov:Entity","name":"d"},{"id":3,"kind":"prov:Entity","name":"c"}],
      "edges":[
        {"kind":"prov:wasGeneratedBy","src":0,"dst":1},{"kind":"prov:used","src":1,"dst":2},
        {"kind":"prov:used","src":1,"dst":3}]}"#;
    let mut service = ProvService::new();
    let wire = service.handle_json(&import_request(newest_first));
    assert!(wire.contains("\"Imported\""), "got {wire}");

    let mut segment = |request: &str| match serde_json::from_str(&service.handle_json(request)) {
        Ok(Response::Segment(s)) => s.segment,
        other => panic!("expected segment, got {other:?}"),
    };
    let default = segment(r#"{"Segment":{"src":["d"],"dst":["w"]}}"#);
    let tags: Vec<(&str, &str)> = default
        .vertices
        .iter()
        .map(|v| (v.name.as_deref().unwrap_or(""), v.tags.as_str()))
        .collect();
    assert_eq!(
        tags,
        [("w", "dst|vc1|vc2"), ("t", "vc1|vc2"), ("d", "src|vc1|vc2"), ("c", "vc2")],
        "`c` is on a similar path"
    );
    let full = segment(r#"{"Segment":{"src":["d"],"dst":["w"],"options":{"early_stop":false}}}"#);
    assert_eq!(default, full, "early_stop only bounds work");
}

#[test]
fn unprintable_response_becomes_a_typed_error() {
    use std::sync::atomic::{AtomicBool, Ordering};
    /// Reads 0, then `u64::MAX`: an elapsed time the wire's `i64` numbers
    /// cannot carry.
    struct Jump(AtomicBool);
    impl Clock for Jump {
        fn now_micros(&self) -> u64 {
            if self.0.swap(true, Ordering::SeqCst) {
                u64::MAX
            } else {
                0
            }
        }
    }
    let mut service = ProvService::with_clock(Box::new(Jump(AtomicBool::new(false))));
    let wire = service.handle_json(r#"{"AddAgent":{"name":"alice"}}"#);
    let Response::Error(e) = serde_json::from_str(&wire).unwrap() else { panic!("got {wire}") };
    assert_eq!(e.code, ErrorCode::Import);
    assert!(e.message.contains("response has no JSON form"), "{}", e.message);
}

#[test]
fn duplicate_names_resolve_to_latest_and_keep_history() {
    let mut service = ProvService::new();
    ingest_pipeline(&mut service, 3);
    let graph = service.db().graph();

    // Each train step ran the distinctly-named command "train --step i", but
    // the versioned artifacts all share the "weights-vN" naming: no
    // duplicates yet, every versioned name addresses exactly one vertex.
    assert_eq!(graph.versions_of("weights-v1").len(), 1);

    // Now create true duplicates: two agents registered under one name.
    let r = service.handle(&Request::AddAgent(AddAgentRequest { name: "carol".into() }));
    let first_carol = match r {
        Response::Vertex(v) => v.id,
        other => panic!("{other:?}"),
    };
    let r = service.handle(&Request::AddAgent(AddAgentRequest { name: "carol".into() }));
    let second_carol = match r {
        Response::Vertex(v) => v.id,
        other => panic!("{other:?}"),
    };
    assert_ne!(first_carol, second_carol);

    // The seed silently clobbered `by_name`, losing first_carol. Now:
    // latest wins for EntityRef::Name resolution…
    let graph = service.db().graph();
    assert_eq!(graph.vertex_by_name("carol"), Some(second_carol));
    // …and the full version history stays addressable.
    assert_eq!(graph.versions_of("carol"), &[first_carol, second_carol]);

    // A name-addressed ingest binds to the latest duplicate.
    let r = service.handle(&Request::RecordActivity(RecordActivityRequest {
        command: "evaluate".into(),
        agent: Some("carol".into()),
        inputs: vec!["weights-v3".into()],
        outputs: vec![OutputSpecDto { artifact: "report".into(), props: vec![] }],
        props: vec![],
    }));
    assert!(!r.is_error(), "{r:?}");
    let graph = service.db().graph();
    let eval = graph.vertex_by_name("evaluate").unwrap();
    let agents: Vec<_> = graph
        .out_edges(eval)
        .filter(|(_, e)| e.kind == EdgeKind::WasAssociatedWith)
        .map(|(_, e)| e.dst)
        .collect();
    assert_eq!(agents, vec![second_carol], "name resolution bound the latest carol");
}

#[test]
fn injected_clock_stamps_latency() {
    // A ticking clock advances 1000µs per reading; handle() reads twice, so
    // every successful response reports exactly one tick of latency.
    let mut service = ProvService::with_clock(Box::new(ManualClock::ticking(1000)));
    let r = service.handle(&Request::AddAgent(AddAgentRequest { name: "alice".into() }));
    match r {
        Response::Vertex(v) => {
            assert_eq!(v.stats.elapsed_micros, 1000);
            assert_eq!(v.stats.vertices, 1);
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn export_import_round_trips_through_the_envelope() {
    let mut service = ProvService::new();
    ingest_pipeline(&mut service, 2);
    let before = service.db().graph().vertex_count();
    let r = service.handle(&Request::Export(ExportRequest {}));
    let doc = match r {
        Response::Document(d) => d,
        other => panic!("{other:?}"),
    };
    assert_eq!(doc.stats.vertices, before);

    let mut restored = ProvService::new();
    let r = restored.handle(&Request::Import(ImportRequest { json: doc.json }));
    match r {
        Response::Imported(i) => assert_eq!(i.stats.vertices, before),
        other => panic!("{other:?}"),
    }
    // The restored service answers the same queries.
    let (_, seg) = open_session(&mut restored, "data-v1", "weights-v2");
    assert!(seg.vertices.len() >= 4);
}

#[test]
fn lineage_is_sorted_bounded_and_counter_stamped() {
    let mut service = ProvService::new();
    ingest_pipeline(&mut service, 4);

    // Unbounded closure: the documented wire contract is ascending-id order.
    let r = service.handle(&Request::Lineage(LineageRequest {
        entity: "weights-v4".into(),
        direction: LineageDir::Ancestors,
        max_hops: None,
    }));
    let full = match r {
        Response::Lineage(l) => l,
        other => panic!("{other:?}"),
    };
    assert!(full.vertices.windows(2).all(|w| w[0] < w[1]), "not sorted: {:?}", full.vertices);
    assert!(!full.vertices.contains(&full.entity), "start vertex must be excluded");
    assert_eq!(full.stats.vertices, full.vertices.len());

    // Bounded: 2 hops = one activity away — a strict, consistent prefix.
    let r = service.handle(&Request::Lineage(LineageRequest {
        entity: "weights-v4".into(),
        direction: LineageDir::Ancestors,
        max_hops: Some(2),
    }));
    let near = match r {
        Response::Lineage(l) => l,
        other => panic!("{other:?}"),
    };
    assert!(near.vertices.len() < full.vertices.len());
    assert!(near.vertices.iter().all(|v| full.vertices.contains(v)));

    // The serving loop's health is on the wire: every successful response
    // carries cumulative reuse/refresh/rebuild counters, and an
    // ingest→query→ingest loop moves them.
    let after_queries = near.stats.snapshot;
    assert!(after_queries.rebuilds >= 1, "{after_queries:?}");
    assert!(after_queries.reuses >= 1, "{after_queries:?}");
    let r = service.handle(&Request::RecordActivity(RecordActivityRequest {
        command: "postprocess".into(),
        agent: None,
        inputs: vec!["weights-v4".into()],
        outputs: vec![OutputSpecDto { artifact: "final".into(), props: vec![] }],
        props: vec![],
    }));
    assert!(!r.is_error(), "{r:?}");
    let r = service.handle(&Request::Lineage(LineageRequest {
        entity: "final-v1".into(),
        direction: LineageDir::Ancestors,
        max_hops: None,
    }));
    let post_ingest = match r {
        Response::Lineage(l) => l.stats.snapshot,
        other => panic!("{other:?}"),
    };
    assert!(
        post_ingest.refreshes > after_queries.refreshes,
        "a small post-snapshot ingest must refresh, not rebuild: \
         {after_queries:?} -> {post_ingest:?}"
    );
    assert_eq!(post_ingest.rebuilds, after_queries.rebuilds);
}

#[test]
fn durability_counters_balance_on_the_wire() {
    use prov_core::{DurabilityPolicy, ProvDb};
    use prov_store::storage::MemIo;

    // In-memory services report all-zero durability (no storage attached).
    let mut plain = ProvService::new();
    let r = plain.handle(&Request::AddAgent(AddAgentRequest { name: "alice".into() }));
    let stats = r.stats().expect("vertex responses carry stats");
    assert_eq!(stats.durability, prov_core::DurabilityCounters::default());

    // A durable service stamps balanced counters on every response.
    let disk = MemIo::new();
    let db =
        ProvDb::open_with_io(Box::new(disk.clone()), DurabilityPolicy::never_compact()).unwrap();
    let mut service = ProvService::from_db(db);
    ingest_pipeline(&mut service, 3);
    // 2 agents + 1 artifact + 3 activities = 6 successful mutating requests,
    // each committing exactly one WAL batch with one fsync.
    let r = service.handle(&Request::Lineage(LineageRequest {
        entity: "weights-v3".into(),
        direction: LineageDir::Ancestors,
        max_hops: None,
    }));
    let d = r.stats().expect("lineage responses carry stats").durability;
    assert_eq!(d.wal_appends, 6, "one batch per mutating request: {d:?}");
    assert_eq!(d.fsyncs, d.wal_appends, "fsync-on-commit: one fsync per batch");
    assert_eq!(d.recoveries, 1, "opening the database is one recovery");
    assert_eq!((d.truncated_tail_bytes, d.snapshots_written, d.batches_replayed), (0, 0, 0));

    // A rejected mutation commits nothing: counters are unchanged.
    let r = service.handle(&Request::RecordActivity(RecordActivityRequest {
        command: "x".into(),
        agent: Some("weights-v1".into()), // an entity, not an agent
        inputs: vec![],
        outputs: vec![],
        props: vec![],
    }));
    assert!(r.is_error());
    let r = service.handle(&Request::Export(ExportRequest {}));
    assert_eq!(r.stats().unwrap().durability.wal_appends, 6);

    // Reboot the service from the same disk: the replayed counters balance
    // against what was committed, and the graph is intact on the wire.
    let db2 =
        ProvDb::open_with_io(Box::new(disk.clone()), DurabilityPolicy::never_compact()).unwrap();
    let mut service2 = ProvService::from_db(db2);
    let r = service2.handle(&Request::Lineage(LineageRequest {
        entity: "weights-v3".into(),
        direction: LineageDir::Ancestors,
        max_hops: None,
    }));
    let (stats, n_ancestors) = match &r {
        Response::Lineage(l) => (l.stats, l.vertices.len()),
        other => panic!("expected lineage, got {other:?}"),
    };
    assert!(n_ancestors >= 4, "recovered lineage too small: {n_ancestors}");
    let d2 = stats.durability;
    assert_eq!(d2.batches_replayed, 6, "every committed batch replays on reopen");
    assert_eq!(d2.recoveries, 1);
    assert_eq!(d2.wal_appends, 0, "no new commits since reopen");
}

#[test]
fn stats_snapshot_field_is_optional_on_the_wire() {
    // Old clients omit `snapshot` (and `max_hops`): both default.
    let stats: Stats =
        serde_json::from_str(r#"{"elapsed_micros":5,"vertices":1,"edges":2}"#).unwrap();
    assert_eq!(stats.snapshot, prov_core::SnapshotCounters::default());
    let req: Request = serde_json::from_str(
        r#"{"Lineage":{"entity":"weights-v1","direction":{"Ancestors":null}}}"#,
    )
    .unwrap_or_else(|_| {
        serde_json::from_str(r#"{"Lineage":{"entity":"weights-v1","direction":"Ancestors"}}"#)
            .unwrap()
    });
    match req {
        Request::Lineage(l) => assert_eq!(l.max_hops, None),
        other => panic!("{other:?}"),
    }
}
