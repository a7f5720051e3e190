//! The repository's own source tree must satisfy every prov-check rule.
//!
//! This is the same walk `cargo run -p prov-check` performs, wired into
//! `cargo test` so the lint gate cannot drift from CI: a new `HashMap`,
//! unexplained narrowing cast, ad-hoc CSR walk or raw `std::fs` call in a
//! checked scope fails this test unless it carries a
//! `// lint-ok(<rule>): <reason>` justification.

use std::path::Path;

#[test]
fn repository_tree_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let findings = prov_check::check_workspace(&root).expect("walk repository tree");
    assert!(
        findings.is_empty(),
        "prov-check found {} violation(s):\n{}",
        findings.len(),
        findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
    );
}
