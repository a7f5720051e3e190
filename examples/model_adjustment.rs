//! Similar-path induction on the Fig. 3 repetitive model-adjustment loop.
//!
//! The user asks how the final comparison plot `p4` relates to the model
//! version `m3`. The direct path covers only round 2 (`m3 → train-2 → l3 →
//! plot-2 → p3 → compare → p4`), but PgSeg's `L(SimProv)` heuristic also
//! induces round 1's vertices — they contribute to `p4` *in the same way*
//! (same path shape), which is exactly what the analyst wants to see for a
//! back-and-forth adjustment workflow.
//!
//! ```sh
//! cargo run --release --example model_adjustment
//! ```

use prov_core::fig3;
use prov_segment::{Categories, PgSegOptions, PgSegQuery};
use prov_store::ProvIndex;

fn main() {
    let ex = fig3::build();
    let index = ProvIndex::build(&ex.graph);

    let query = PgSegQuery::between(vec![ex.v("m3")], vec![ex.v("p4")]);
    let seg = prov_segment::pgseg(&ex.graph, &index, query, &PgSegOptions::default()).unwrap();

    println!("PgSeg(Vsrc = {{m3}}, Vdst = {{p4}}) over the Fig. 3 adjustment loop\n");
    println!("{:<12} {:<14} on similar path?", "vertex", "categories");
    for (&v, cat) in seg.vertices.iter().zip(seg.categories.iter()) {
        println!(
            "{:<12} {:<14} {}",
            ex.graph.display_name(v),
            cat.to_string(),
            if cat.contains(Categories::SIMILAR) { "yes" } else { "" }
        );
    }

    // Round 2 is on the direct path.
    for name in ["m3", "train-2", "l3", "plot-2", "p3", "compare", "p4"] {
        assert!(
            seg.category(ex.v(name)).unwrap().contains(Categories::DIRECT)
                || seg.category(ex.v(name)).unwrap().contains(Categories::SRC)
                || seg.category(ex.v(name)).unwrap().contains(Categories::DST),
            "{name} should be on the direct path"
        );
    }
    // Round 1 mirrors it: induced as similar-path vertices although the user
    // never mentioned them.
    for name in ["m2", "train-1", "l2", "plot-1", "p2"] {
        assert!(
            seg.category(ex.v(name)).map(|c| c.contains(Categories::SIMILAR)).unwrap_or(false),
            "{name} should be induced on a similar path"
        );
    }
    // Sibling outputs of on-path activities (the weights) come in via VC3.
    assert!(seg.category(ex.v("w3")).unwrap().contains(Categories::SIBLING));

    println!("\nround 1 (m2/train-1/l2/plot-1/p2) induced as similar paths ✓");
    println!("sibling weights picked up via VC3 ✓");
    println!("\nDOT:\n{}", seg.to_dot(&ex.graph));
}
