//! Quickstart: the paper's running example end to end.
//!
//! Builds the Fig. 2 lifecycle (Alice & Bob's classification project), runs
//! the two segmentation queries of Fig. 2(d) and the summarization query of
//! Fig. 2(e), and prints the results.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use prov_core::fig2;
use prov_model::EdgeKind;
use prov_segment::{Boundary, Categories, PgSegOptions, PgSegQuery, SegmentGraph};
use prov_store::{ProvGraph, ProvIndex};
use prov_summary::{PgSumQuery, SegmentRef};

fn print_segment(title: &str, graph: &ProvGraph, seg: &SegmentGraph) {
    println!("\n=== {title} ===");
    println!("vertices ({}):", seg.vertex_count());
    for (&v, cat) in seg.vertices.iter().zip(seg.categories.iter()) {
        println!("  {:<12} [{cat}]", graph.display_name(v));
    }
    println!("induced edges: {}", seg.edge_count());
}

fn main() {
    let ex = fig2::build();
    let graph = ex.graph.clone();
    let index = ProvIndex::build(&graph);

    // ------------------------------------------------------------------
    // Query 1 (Fig. 2(d)): how is Alice's weight-v2 connected to the
    // dataset? Bob does not know what Alice touched; he only names the two
    // entities, excludes attribution/derivation edges and extends two
    // activities away from the weights.
    // ------------------------------------------------------------------
    let q1 = PgSegQuery::between(vec![ex.v("dataset-v1")], vec![ex.v("weight-v2")]).with_boundary(
        Boundary::none()
            .without_edge_kinds(&[EdgeKind::WasAttributedTo, EdgeKind::WasDerivedFrom])
            .expand(vec![ex.v("weight-v2")], 2),
    );
    let seg1 = prov_segment::pgseg(&graph, &index, q1, &PgSegOptions::default()).unwrap();
    print_segment("Query 1: {dataset-v1} -> {weight-v2}", &graph, &seg1);
    println!(
        "-> Bob learns Alice updated the model: update-v2 in segment = {}",
        seg1.contains(ex.v("update-v2"))
    );

    // ------------------------------------------------------------------
    // Query 2 (Fig. 2(d)): how did Bob get accuracy 0.75? Alice queries from
    // the dataset to Bob's log-v3.
    // ------------------------------------------------------------------
    let q2 = PgSegQuery::between(vec![ex.v("dataset-v1")], vec![ex.v("log-v3")]).with_boundary(
        Boundary::none()
            .without_edge_kinds(&[EdgeKind::WasAttributedTo, EdgeKind::WasDerivedFrom])
            .expand(vec![ex.v("log-v3")], 2),
    );
    let seg2 = prov_segment::pgseg(&graph, &index, q2, &PgSegOptions::default()).unwrap();
    print_segment("Query 2: {dataset-v1} -> {log-v3}", &graph, &seg2);
    println!(
        "-> Bob only updated the solver (update-v3 in segment = {}), and did NOT \
         use Alice's model-v2 (in segment = {})",
        seg2.contains(ex.v("update-v3")),
        seg2.contains(ex.v("model-v2")),
    );

    // ------------------------------------------------------------------
    // Query 3 (Fig. 2(e)): an outsider summarizes both segments, aggregating
    // activities by command, entities by filename, agents anonymously, with
    // 1-hop provenance types.
    // ------------------------------------------------------------------
    let segments = vec![SegmentRef::from(&seg1), SegmentRef::from(&seg2)];
    let psg = prov_summary::pgsum(&graph, &segments, &PgSumQuery::fig2e());
    println!("\n=== Query 3: summarize Q1 + Q2 (K = filename/command, k = 1) ===");
    println!(
        "|input instances| = {}, |M| = {} (compaction ratio {:.2})",
        psg.input_vertex_count,
        psg.vertex_count(),
        psg.compaction_ratio()
    );
    for (i, v) in psg.vertices.iter().enumerate() {
        println!("  m{i}: {:<18} members={}", v.label, v.members.len());
    }
    println!("edges (with appearance frequency):");
    for e in &psg.edges {
        println!("  m{} -{}-> m{}   {:>3.0}%", e.src, e.kind.letter(), e.dst, e.frequency * 100.0);
    }
    println!("\nGraphviz DOT of the summary:\n{}", psg.to_dot());

    // Sanity: sources/destinations should be in their own segments.
    assert!(seg1.category(ex.v("dataset-v1")).unwrap().contains(Categories::SRC));
    assert!(seg2.category(ex.v("log-v3")).unwrap().contains(Categories::DST));
}
