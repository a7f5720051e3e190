//! A tour of the `ProvDb` facade: ingest a small project the way the paper's
//! CLI toolkit would, then exercise every query facility — lineage,
//! segmentation with boundaries, interactive adjustment, Cypher-style pattern
//! matching, and the JSON interchange round trip.
//!
//! ```sh
//! cargo run --release --example provdb_tour
//! ```

use prov_core::{ActivityRecord, OutputSpec, ProvDb};
use prov_model::{EdgeKind, VertexKind};
use prov_segment::{Boundary, PgSegOptions, PgSegQuery, VertexPred};
use prov_store::{Budget, NodeSpec, PathPattern, PatternDir, RelSpec};

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

    // ---- Cypher-style pattern matching ---------------------------------
    // match (w:Entity)<-[:G]-? … all weights generated by a train run:
    // (a:Activity {command: train})<-[:G]-(w:Entity) in our orientation is
    // w -G-> a, i.e. forward from w.
    let pattern = PathPattern::node(NodeSpec::of_kind(VertexKind::Entity)).then(
        RelSpec::one(&[EdgeKind::WasGeneratedBy], PatternDir::Forward),
        NodeSpec::of_kind(VertexKind::Activity).with_prop("command", "train"),
    );
    let matches = prov_store::pattern::match_paths(db.graph(), &pattern, Budget::default());
    println!(
        "\npattern `(e)-[:G]->(a {{command: train}})` matched {} paths",
        matches.paths().len()
    );
    assert_eq!(matches.paths().len(), 6, "3 runs × (weights + log)");

    // ---- JSON round trip -------------------------------------------------
    let json = db.export_json().unwrap();
    let restored = ProvDb::import_json(&json).unwrap();
    assert_eq!(restored.graph().vertex_count(), db.graph().vertex_count());
    let again = restored.ancestors_of(weights3);
    assert_eq!(again, ancestors);
    println!("\nJSON round trip OK ({} bytes)", json.len());
}
