//! A waiver must waive something: `prov-check` reports a well-formed
//! `lint-ok` marker whose rule does not fire on the line it sits on or the
//! next one, so markers cannot outlive the code (or the scope) they excused.

use prov_check::{check_source, STALE_WAIVER};
use std::path::Path;

/// A well-formed marker comment for `rule`.
fn marker(rule: &str) -> String {
    format!("// lint-ok({rule}): some reason")
}

fn stale_lines(rel: &str, source: &str) -> Vec<usize> {
    let findings = check_source(Path::new(rel), source);
    assert!(findings.iter().all(|f| f.rule == STALE_WAIVER), "{findings:?}");
    findings.iter().map(|f| f.line).collect()
}

#[test]
fn a_marker_outside_its_rules_scope_is_stale() {
    // The case that rotted: raw-io never fires inside the storage engine's
    // own directory, so these markers excused nothing.
    let src = format!("{}\nlet f = std::fs::read(p)?;\n", marker("raw-io"));
    assert_eq!(stale_lines("crates/store/src/storage/io.rs", &src), [1]);
    // The same two lines anywhere else are a live waiver.
    assert!(stale_lines("crates/core/src/provdb.rs", &src).is_empty());
}

#[test]
fn a_marker_over_code_that_no_longer_trips_the_rule_is_stale() {
    // The cast moved into a helper; the marker stayed behind.
    let src = format!("{}\nlet id = rank_u32(self.len());\n", marker("narrowing-cast"));
    assert_eq!(stale_lines("crates/store/src/graph.rs", &src), [1]);
    // Two lines down is out of a marker's reach, so it is stale there too —
    // and the uncovered cast is reported under its own rule.
    let src = format!("{}\nlet n = 0;\nlet id = n as u32;\n", marker("narrowing-cast"));
    let findings = check_source(Path::new("crates/store/src/graph.rs"), &src);
    let rules: Vec<_> = findings.iter().map(|f| (f.line, f.rule)).collect();
    assert_eq!(rules, [(1, STALE_WAIVER), (3, "narrowing-cast")]);
    // An unknown rule id waives nothing anywhere.
    let src = format!("{}\nlet id = n as u32;\n", marker("narowing-cast"));
    let findings = check_source(Path::new("crates/store/src/graph.rs"), &src);
    assert_eq!(findings.len(), 2, "{findings:?}");
}

#[test]
fn live_trailing_and_quoted_markers_are_not_stale() {
    let above = format!("{}\nlet id = n as u32;\n", marker("narrowing-cast"));
    assert!(stale_lines("crates/store/src/graph.rs", &above).is_empty());
    let trailing = format!("let id = n as u32; {}\n", marker("narrowing-cast"));
    assert!(stale_lines("crates/store/src/graph.rs", &trailing).is_empty());
    // Prose about markers — a doc example, a test fixture string — is not a
    // waiver, so it is never judged.
    let doc = format!("//! {}\n/// {}\nfn f() {{}}\n", marker("raw-io"), marker("raw-io"));
    assert!(stale_lines("crates/store/src/graph.rs", &doc).is_empty());
    let quoted = format!("let fixture = \"{}\";\n", marker("thread-spawn"));
    assert!(stale_lines("crates/store/src/graph.rs", &quoted).is_empty());
}
