//! A tour of the `ProvDb` facade: ingest a small project the way the paper's
//! CLI toolkit would, then exercise every query facility — lineage,
//! segmentation with boundaries, interactive adjustment, the JSON
//! interchange round trip, and a Cypher-style path pattern served through
//! `ProvService`.
//!
//! ```sh
//! cargo run --release --example provdb_tour
//! ```

use prov_api::{ProvService, QueryRequest, QuerySpec, Request, Response};
use prov_core::{ActivityRecord, OutputSpec, ProvDb};
use prov_model::{EdgeKind, VertexKind};
use prov_segment::{Boundary, PgSegOptions, PgSegQuery, VertexPred};
use prov_store::{NodeSpec, PathPattern, PatternDir, RelSpec};

fn main() {
    let mut db = ProvDb::new();
    let alice = db.add_agent("alice").unwrap();
    let bob = db.add_agent("bob").unwrap();

    // Alice bootstraps the project.
    let raw = db.add_artifact_version("raw-data", Some(alice)).unwrap();
    let clean = db
        .record_activity(ActivityRecord {
            command: "clean".into(),
            agent: Some(alice),
            inputs: vec![raw],
            outputs: vec![OutputSpec::named("dataset")],
            props: vec![("dropna".into(), true.into())],
        })
        .unwrap();
    let dataset = clean.outputs[0];

    // Three training iterations with rising accuracy; Bob takes over late.
    let mut latest_weights = None;
    for (i, (agent, acc)) in [(alice, 0.61), (alice, 0.68), (bob, 0.74)].iter().enumerate() {
        let run = db
            .record_activity(ActivityRecord {
                command: "train".into(),
                agent: Some(*agent),
                inputs: vec![dataset],
                outputs: vec![
                    OutputSpec::named("weights").with("acc", *acc),
                    OutputSpec::named("log").with("epoch", 10 * (i as i64 + 1)),
                ],
                props: vec![("lr".into(), prov_model::PropValue::from(0.1 / (i as f64 + 1.0)))],
            })
            .unwrap();
        latest_weights = Some(run.outputs[0]);
    }
    let weights3 = latest_weights.unwrap();
    println!("ingested project: {}", db.graph().stats());

    // ---- Lineage -------------------------------------------------------
    // Order contract: lineage answers are sorted ascending by vertex id
    // (never traversal-discovery order), with the start vertex excluded.
    let ancestors = db.ancestors_of(weights3);
    println!(
        "\nancestors of {}: {}",
        db.graph().display_name(weights3),
        ancestors.iter().map(|&v| db.graph().display_name(v)).collect::<Vec<_>>().join(", ")
    );
    assert!(ancestors.contains(&raw));
    assert!(ancestors.windows(2).all(|w| w[0] < w[1]));
    // Depth-bounded lineage: 2 hops = one activity away, so the raw dataset
    // (several generations up) is out of reach, its direct inputs are not.
    let near = db.lineage_within(weights3, prov_core::LineageDirection::Ancestors, 2);
    assert!(!near.contains(&raw));
    assert!(near.iter().all(|v| ancestors.contains(v)));

    // ---- Segmentation with a boundary ----------------------------------
    // "How does the final model come from the raw data — but only show me
    // Bob's part of the story."
    let seg = db
        .segment(PgSegQuery::between(vec![dataset], vec![weights3]), &PgSegOptions::default())
        .unwrap();
    println!("\nfull segment: {} vertices, {} edges", seg.vertex_count(), seg.edge_count());

    let mut session = db
        .segment_session(
            PgSegQuery::between(vec![dataset], vec![weights3]),
            &PgSegOptions::default(),
        )
        .unwrap();
    session.restrict(&Boundary::none().with_vertex_pred(VertexPred::Custom(std::sync::Arc::new(
        move |g, v| {
            // Keep everything except Alice herself.
            g.vertex_name(v) != Some("alice")
        },
    ))));
    println!("after restricting out alice: {} vertices", session.segment().vertex_count());
    assert!(!session.segment().contains(alice));

    // Interactive expansion: pull the cleaning step back in.
    session.expand(&[dataset], 1);
    assert!(session.segment().contains(clean.activity));
    println!("after bx(dataset, 1): {} vertices", session.segment().vertex_count());
    drop(session);

    // ---- JSON round trip -------------------------------------------------
    let json = db.export_json().unwrap();
    let restored = ProvDb::import_json(&json).unwrap();
    assert_eq!(restored.graph().vertex_count(), db.graph().vertex_count());
    let again = restored.ancestors_of(weights3);
    assert_eq!(again, ancestors);
    println!("\nJSON round trip OK ({} bytes)", json.len());

    // ---- Cypher-style pattern, over the wire -----------------------------
    // (a:Activity {command: train})<-[:G*0..1]-(e:Entity): every artifact a
    // train run generated. `G` points from the artifact to the run, so the
    // step walks it backward. The pattern compiles onto the query IR; one
    // the IR cannot answer exactly would be refused with `InvalidQuery`.
    let mut service = ProvService::from_db(db);
    let pattern =
        PathPattern::node(NodeSpec::of_kind(VertexKind::Activity).with_prop("command", "train"))
            .then(
                RelSpec::star(&[EdgeKind::WasGeneratedBy], PatternDir::Backward, 0, 1),
                NodeSpec::of_kind(VertexKind::Entity),
            );
    let response = service.handle(&Request::Query(QueryRequest {
        query: QuerySpec::Pattern(pattern),
        session: None,
        page_size: None,
        cursor: None,
        max_expansions: None,
        max_paths: None,
    }));
    let Response::Query(answer) = response else { panic!("pattern refused: {response:?}") };
    let graph = service.db().graph();
    println!(
        "\npattern `(a {{command: train}})<-[:G*0..1]-(e:Entity)` matched {}: {}",
        answer.count,
        answer.rows.iter().map(|&v| graph.display_name(v)).collect::<Vec<_>>().join(", ")
    );
    assert_eq!(answer.rows.len(), 6, "3 runs × (weights + log)");
}
