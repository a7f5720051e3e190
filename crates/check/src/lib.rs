//! Repo-specific lint rules rustc and clippy cannot express (ISSUE 7).
//!
//! Five textual rules over the workspace sources, each encoding a decision
//! the codebase already made and a regression that would silently undo it:
//!
//! * [`STD_COLLECTIONS`] — hash containers must come through
//!   `prov_store::hash::FxHashMap`/`FxHashSet` (deterministic iteration
//!   seeds, faster hashing on small keys), not `std::collections`. The std
//!   types' randomized hasher makes any iteration-order-dependent output
//!   nondeterministic across runs — exactly what the reproduction's
//!   byte-identical snapshot/summary guarantees forbid.
//! * [`NARROWING_CAST`] — no unchecked `as u8`/`as u16`/`as u32` narrowing
//!   in the `prov-store`/`prov-segment` hot paths; the seed silently wrapped
//!   ids past `u32::MAX`. In-range casts stay allowed with a justification
//!   marker naming *why* the value fits.
//! * [`CSR_TRAVERSAL`] — no direct CSR adjacency walks (`.csr(...)`,
//!   `.neighbors(...)`) outside the query engine
//!   (`crates/store/src/query/eval.rs`) and the snapshot structure itself:
//!   since ISSUE 8 every read path compiles into the query IR, and an
//!   ad-hoc traversal would bypass the watermark/cursor semantics the wire
//!   layer guarantees. The kernels' own read surfaces (the PgSeg masked
//!   view, the CFL terminal enumeration) carry justification markers.
//! * [`RAW_IO`] — no direct `std::fs`/`File`/`OpenOptions` use outside
//!   `crates/store/src/storage/` (ISSUE 9): every durable byte goes through
//!   the `Io` trait so failpoints can intercept it and the kill-point
//!   harness can prove recovery. A raw `std::fs` call is invisible to fault
//!   injection and unordered with respect to the WAL's fsync protocol.
//!   Non-durable tooling (the linter's own walker, the bench report writer)
//!   carries justification markers.
//! * [`SNAPSHOT_SLURP`] — no whole-file snapshot reads outside the column
//!   codec and the `Io` backends: lazy decode range-reads snapshot columns,
//!   so a cold start costs what it touches, not the whole image.
//!
//! Detection runs on a *masked* copy of each file — comments and string
//! literal contents blanked — so a rule name appearing in prose or a test
//! fixture string never trips the gate. A genuine, justified exception is
//! suppressed by a marker comment on the same or the preceding line:
//!
//! ```text
//! // lint-ok(narrowing-cast): dense ids are < u32::MAX by check_capacity
//! ```
//!
//! The reason after the colon is mandatory: a bare marker suppresses
//! nothing. A marker that suppresses nothing because its rule does not fire
//! on the two lines it covers — the code moved, the rule's scope excludes the
//! file, the rule id is unknown — is itself reported ([`STALE_WAIVER`]), so
//! waivers cannot outlive what they waived. `cargo run -p prov-check` (or
//! `just lint-strict`) walks the workspace and exits non-zero on any finding.

use std::fmt;
use std::path::{Path, PathBuf};

/// One rule violation at a specific source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (what a `lint-ok(...)` marker must name).
    pub rule: &'static str,
    /// The offending source line, trimmed.
    pub excerpt: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file.display(), self.line, self.rule, self.excerpt)
    }
}

/// Where a rule applies, expressed over workspace-relative paths.
#[derive(Debug, Clone, Copy)]
enum Scope {
    /// Every workspace `.rs` file (vendor/ excluded by the walker).
    Workspace,
    /// Library sources of the id-dense hot-path crates.
    HotPaths,
    /// Every workspace file except the query engine and the CSR structure —
    /// the only two files allowed to walk adjacency lists directly.
    CsrConsumers,
    /// Every workspace file except the storage engine's own directory — the
    /// only place allowed to touch the filesystem directly.
    StorageConsumers,
    /// Every workspace file except the column codec and the Io backends —
    /// the only places allowed to slurp whole snapshot files into memory.
    SnapshotReaders,
}

/// A lint rule: an identifier, a scope, and a line predicate over masked code.
pub struct Rule {
    /// Identifier used in findings and `lint-ok(...)` markers.
    pub id: &'static str,
    /// One-line rationale, shown in `--list`.
    pub description: &'static str,
    scope: Scope,
    matches: fn(&str) -> bool,
}

/// Ban `std::collections::HashMap`/`HashSet` outside vendor/.
pub const STD_COLLECTIONS: Rule = Rule {
    id: "std-collections",
    description: "use prov_store::hash::FxHashMap/FxHashSet, not std::collections \
                  (randomized hashers break run-to-run determinism)",
    scope: Scope::Workspace,
    matches: |code| {
        code.contains("std::collections::HashMap") || code.contains("std::collections::HashSet")
    },
};

/// Ban unchecked narrowing casts in the store/segment hot paths.
pub const NARROWING_CAST: Rule = Rule {
    id: "narrowing-cast",
    description: "no unchecked `as u8`/`as u16`/`as u32` in prov-store/prov-segment src \
                  (the seed wrapped ids past u32::MAX); justify in-range casts with a marker",
    scope: Scope::HotPaths,
    matches: |code| ["u8", "u16", "u32"].iter().any(|ty| has_cast_to(code, ty)),
};

/// Ban direct CSR adjacency walks outside the query engine.
pub const CSR_TRAVERSAL: Rule = Rule {
    id: "csr-traversal",
    description: "no direct .csr()/.neighbors() walks outside crates/store/src/query/eval.rs; \
                  read paths go through the query IR (watermark/cursor semantics); justify \
                  frozen differential references with a marker",
    scope: Scope::CsrConsumers,
    matches: |code| code.contains(".csr(") || code.contains(".neighbors("),
};

/// Ban direct filesystem access outside the storage engine.
pub const RAW_IO: Rule = Rule {
    id: "raw-io",
    description: "no direct std::fs/File/OpenOptions outside crates/store/src/storage/; \
                  durable bytes go through the Io trait (failpoint-interceptable, \
                  fsync-ordered); justify non-durable tooling with a marker",
    scope: Scope::StorageConsumers,
    matches: |code| {
        code.contains("std::fs")
            || code.contains("OpenOptions::new(")
            || code.contains("File::open(")
            || code.contains("File::create(")
    },
};

/// Ban whole-file snapshot reads outside the column codec and Io backends.
pub const SNAPSHOT_SLURP: Rule = Rule {
    id: "snapshot-slurp",
    description: "no whole-file snapshot reads (read(&snapshot_file_name…), read_to_end) outside \
                  crates/store/src/storage/{column,io}.rs; snapshot bytes are range-read through \
                  ColumnSource so lazy decode stays O(touched columns), not O(image)",
    scope: Scope::SnapshotReaders,
    matches: |code| {
        code.contains("read(&snapshot_file_name")
            || code.contains("read(&snapshot_tmp")
            || code.contains("read_to_end(")
    },
};

/// Every rule the gate enforces.
pub const RULES: [&Rule; 5] =
    [&STD_COLLECTIONS, &NARROWING_CAST, &CSR_TRAVERSAL, &RAW_IO, &SNAPSHOT_SLURP];

/// Finding id for a `lint-ok(<rule>): <reason>` marker whose rule does not
/// fire on the line it sits on or the next one. Not a [`Rule`]: it reads
/// comments, not code, and cannot itself be waived.
pub const STALE_WAIVER: &str = "stale-waiver";

/// Does `code` contain a cast `as <ty>` as whole tokens (`has u32` or
/// `alias u32x4` must not match)?
fn has_cast_to(code: &str, ty: &str) -> bool {
    let mut rest = code;
    let mut consumed = 0usize;
    while let Some(pos) = rest.find("as ") {
        let abs = consumed + pos;
        let before_ok = abs == 0
            || !code[..abs].chars().next_back().is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = rest[pos + 3..].trim_start();
        if before_ok && after.starts_with(ty) {
            let tail = after[ty.len()..].chars().next();
            if !tail.is_some_and(|c| c.is_alphanumeric() || c == '_') {
                return true;
            }
        }
        consumed += pos + 3;
        rest = &rest[pos + 3..];
    }
    false
}

/// Does the rule's scope cover this workspace-relative path?
fn in_scope(scope: Scope, path: &Path) -> bool {
    let p = path.to_string_lossy();
    match scope {
        Scope::Workspace => !p.starts_with("vendor/"),
        Scope::HotPaths => {
            p.starts_with("crates/store/src/") || p.starts_with("crates/segment/src/")
        }
        Scope::CsrConsumers => {
            !p.starts_with("vendor/")
                && p != "crates/store/src/query/eval.rs"
                && p != "crates/store/src/snapshot.rs"
        }
        Scope::StorageConsumers => {
            !p.starts_with("vendor/") && !p.starts_with("crates/store/src/storage/")
        }
        Scope::SnapshotReaders => {
            !p.starts_with("vendor/")
                && p != "crates/store/src/storage/column.rs"
                && p != "crates/store/src/storage/io.rs"
        }
    }
}

/// Extract a justification marker from a raw source line: `lint-ok(<id>):`
/// followed by a non-empty reason suppresses findings of rule `<id>` on this
/// and the next line.
fn marker_justifies(raw: &str, rule_id: &str) -> bool {
    let needle = format!("lint-ok({rule_id}):");
    raw.find(&needle).is_some_and(|pos| !raw[pos + needle.len()..].trim().is_empty())
}

/// The rule ids of every well-formed marker (`lint-ok(<id>):` plus a
/// non-empty reason) on a raw source line, with the byte offset of each.
fn markers(raw: &str) -> Vec<(usize, &str)> {
    const OPEN: &str = "lint-ok(";
    let mut found = Vec::new();
    let mut from = 0usize;
    while let Some(pos) = raw[from..].find(OPEN).map(|p| p + from) {
        from = pos + OPEN.len();
        let Some(close) = raw[from..].find(')') else { break };
        let id = &raw[from..from + close];
        let is_id = !id.is_empty() && id.bytes().all(|b| b.is_ascii_lowercase() || b == b'-');
        if is_id && marker_justifies(&raw[pos..], id) {
            found.push((pos, id));
        }
    }
    found
}

/// Blank out comments and string/char literal *contents* of `source`,
/// preserving line structure and every other byte, so rules match code only.
///
/// Handles line and (nested) block comments, plain and raw strings
/// (`r"…"`/`r#"…"#`), escapes, char literals, and leaves lifetimes (`'a`)
/// alone. Heuristic, not a full lexer — good enough for substring rules.
pub fn mask_source(source: &str) -> String {
    mask(source).0
}

/// [`mask_source`] plus, per source byte, whether it sits in a plain
/// (non-doc) comment — where waiver markers live; a marker quoted in a
/// string literal or a doc example waives nothing and is not judged stale.
fn mask(source: &str) -> (String, Vec<bool>) {
    let bytes = source.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut plain = vec![false; bytes.len()];
    let mut i = 0usize;
    let blank = |b: u8| if b == b'\n' { b'\n' } else { b' ' };
    while i < bytes.len() {
        match bytes[i] {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let doc = matches!(bytes.get(i + 2), Some(b'/' | b'!'));
                let start = i;
                while i < bytes.len() && bytes[i] != b'\n' {
                    out.push(b' ');
                    i += 1;
                }
                plain[start..i].fill(!doc);
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let start = i;
                let mut depth = 1usize;
                out.extend_from_slice(b"  ");
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else {
                        out.push(blank(bytes[i]));
                        i += 1;
                    }
                }
                plain[start..i].fill(true);
            }
            b'r' if matches!(bytes.get(i + 1), Some(&b'"') | Some(&b'#')) => {
                // Raw string candidate: r"…" or r#…#"…"#…#.
                let mut j = i + 1;
                let mut hashes = 0usize;
                while bytes.get(j) == Some(&b'#') {
                    hashes += 1;
                    j += 1;
                }
                if bytes.get(j) == Some(&b'"') {
                    // Emit the opener verbatim, blank to the matching closer.
                    out.extend_from_slice(&bytes[i..=j]);
                    i = j + 1;
                    let closer: Vec<u8> =
                        std::iter::once(b'"').chain(std::iter::repeat_n(b'#', hashes)).collect();
                    while i < bytes.len() {
                        if bytes[i..].starts_with(&closer) {
                            out.extend_from_slice(&closer);
                            i += closer.len();
                            break;
                        }
                        out.push(blank(bytes[i]));
                        i += 1;
                    }
                } else {
                    out.push(bytes[i]);
                    i += 1;
                }
            }
            b'"' => {
                out.push(b'"');
                i += 1;
                while i < bytes.len() {
                    if bytes[i] == b'\\' && i + 1 < bytes.len() {
                        // Blank escape pairs byte-for-byte: a `\<newline>`
                        // continuation must keep its newline or every later
                        // line number drifts.
                        out.push(b' ');
                        out.push(blank(bytes[i + 1]));
                        i += 2;
                    } else if bytes[i] == b'"' {
                        out.push(b'"');
                        i += 1;
                        break;
                    } else {
                        out.push(blank(bytes[i]));
                        i += 1;
                    }
                }
            }
            b'\'' => {
                // Char literal or lifetime. A lifetime is `'` + ident not
                // closed by another `'` right after.
                let is_char = matches!(
                    (bytes.get(i + 1), bytes.get(i + 2)),
                    (Some(&b'\\'), _) | (Some(_), Some(&b'\''))
                );
                if is_char {
                    out.push(b'\'');
                    i += 1;
                    if bytes.get(i) == Some(&b'\\') {
                        // Escaped char: blank until the closing quote.
                        while i < bytes.len() && bytes[i] != b'\'' {
                            out.push(blank(bytes[i]));
                            i += 1;
                        }
                    } else {
                        out.push(b' ');
                        i += 1;
                    }
                    if bytes.get(i) == Some(&b'\'') {
                        out.push(b'\'');
                        i += 1;
                    }
                } else {
                    out.push(b'\'');
                    i += 1;
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    (String::from_utf8(out).expect("masking only replaces ASCII bytes with spaces"), plain)
}

/// Lint one file's source against every in-scope rule. `rel` is the
/// workspace-relative path (drives rule scoping and appears in findings).
pub fn check_source(rel: &Path, source: &str) -> Vec<Finding> {
    let rules: Vec<&Rule> = RULES.into_iter().filter(|r| in_scope(r.scope, rel)).collect();
    if rules.is_empty() {
        return Vec::new();
    }
    let (masked, plain) = mask(source);
    let masked_lines: Vec<&str> = masked.lines().collect();
    let raw_lines: Vec<&str> = source.lines().collect();
    // Masking is byte-for-byte, so raw line offsets index `plain` directly.
    let line_starts: Vec<usize> =
        std::iter::once(0).chain(source.match_indices('\n').map(|(at, _)| at + 1)).collect();
    let mut findings = Vec::new();
    for (no, code) in masked_lines.iter().enumerate() {
        let here = raw_lines.get(no).copied().unwrap_or("");
        // A marker covers its own line and the next; one whose rule fires on
        // neither (or is out of scope here, or unknown) waives nothing.
        for (pos, id) in markers(here) {
            let fires = rules.iter().filter(|r| r.id == id).any(|r| {
                (r.matches)(code) || masked_lines.get(no + 1).is_some_and(|next| (r.matches)(next))
            });
            if plain[line_starts[no] + pos] && !fires {
                findings.push(Finding {
                    file: rel.to_path_buf(),
                    line: no + 1,
                    rule: STALE_WAIVER,
                    excerpt: here.trim().to_string(),
                });
            }
        }
        for rule in &rules {
            if !(rule.matches)(code) {
                continue;
            }
            let above = no.checked_sub(1).and_then(|p| raw_lines.get(p).copied()).unwrap_or("");
            if marker_justifies(here, rule.id) || marker_justifies(above, rule.id) {
                continue;
            }
            findings.push(Finding {
                file: rel.to_path_buf(),
                line: no + 1,
                rule: rule.id,
                excerpt: here.trim().to_string(),
            });
        }
    }
    findings
}

/// Recursively collect the workspace `.rs` files the gate lints: everything
/// under `root` except `target/`, `.git/`, and `vendor/`.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        // lint-ok(raw-io): the linter's own source walker, nothing durable.
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            let rel = path.strip_prefix(root).unwrap_or(&path);
            let rel_str = rel.to_string_lossy();
            if path.is_dir() {
                let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
                let name = name.as_deref().unwrap_or("");
                if name == "target" || name == ".git" || rel_str == "vendor" {
                    continue;
                }
                stack.push(path);
            } else if rel_str.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Lint the whole workspace rooted at `root`; findings are sorted by path.
pub fn check_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for path in workspace_files(root)? {
        let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
        // lint-ok(raw-io): the linter reads sources, it stores nothing.
        let source = std::fs::read_to_string(&path)?;
        findings.extend(check_source(&rel, &source));
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(rel: &str, source: &str) -> Vec<Finding> {
        check_source(Path::new(rel), source)
    }

    // ---- std-collections ----------------------------------------------

    #[test]
    fn std_collections_violation_is_flagged() {
        let hits = at("crates/x/src/lib.rs", "use std::collections::HashMap;\n");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "std-collections");
        assert_eq!(hits[0].line, 1);
        // HashSet and fully qualified uses too.
        assert_eq!(at("tests/t.rs", "let s: std::collections::HashSet<u32> = x;\n").len(), 1);
    }

    #[test]
    fn std_collections_conforming_sources_pass() {
        assert!(at("crates/x/src/lib.rs", "use prov_store::hash::FxHashMap;\n").is_empty());
        // Other std::collections types stay allowed.
        assert!(at("crates/x/src/lib.rs", "use std::collections::VecDeque;\n").is_empty());
        // Vendor shims are out of scope.
        assert!(at("vendor/serde/src/lib.rs", "use std::collections::HashMap;\n").is_empty());
    }

    #[test]
    fn std_collections_marker_and_prose_are_ignored() {
        // In a comment or a string literal: not code, no finding.
        assert!(at("src/a.rs", "// std::collections::HashMap is banned\n").is_empty());
        assert!(at("src/a.rs", "let m = \"std::collections::HashMap\";\n").is_empty());
        // Justified exception on the preceding line.
        let src = "// lint-ok(std-collections): FxHashMap's definition site\n\
                   pub use std::collections::HashMap;\n";
        assert!(at("crates/store/src/hash.rs", src).is_empty());
        // A bare marker without a reason suppresses nothing.
        let src = "use std::collections::HashMap; // lint-ok(std-collections):\n";
        assert_eq!(at("src/a.rs", src).len(), 1);
    }

    // ---- narrowing-cast -----------------------------------------------

    #[test]
    fn narrowing_cast_violation_is_flagged() {
        let hits = at("crates/store/src/graph.rs", "let id = self.vertices.len() as u32;\n");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "narrowing-cast");
        assert_eq!(at("crates/segment/src/alg.rs", "let r = rank as u16;\n").len(), 1);
        assert_eq!(at("crates/store/src/interner.rs", "x as u8\n").len(), 1);
    }

    #[test]
    fn narrowing_cast_scope_and_tokens() {
        // Outside the hot-path crates the rule does not apply.
        assert!(at("crates/summary/src/merge.rs", "let id = n as u32;\n").is_empty());
        assert!(at("crates/store/tests/t.rs", "let id = n as u32;\n").is_empty());
        // Widening casts and lookalike tokens pass.
        assert!(at("crates/store/src/graph.rs", "let n = raw as usize;\n").is_empty());
        assert!(at("crates/store/src/graph.rs", "let w = x as u64;\n").is_empty());
        assert!(at("crates/store/src/graph.rs", "let alias = has_u32(y);\n").is_empty());
        // Justified in-range cast passes.
        let src = "// lint-ok(narrowing-cast): check_capacity keeps len below u32::MAX\n\
                   let id = VertexId::new(self.vertices.len() as u32);\n";
        assert!(at("crates/store/src/graph.rs", src).is_empty());
    }

    // ---- csr-traversal ------------------------------------------------

    #[test]
    fn csr_traversal_violation_is_flagged() {
        let hits = at("crates/x/src/lib.rs", "let adj = index.csr(kind, Direction::Out);\n");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "csr-traversal");
        assert_eq!(at("crates/api/src/service.rs", "for v in csr.neighbors(u) {}\n").len(), 1);
        // Tests are covered too: an ad-hoc walk there still bypasses the IR.
        assert_eq!(at("crates/core/tests/t.rs", "idx.csr(k, d).neighbors(v);\n").len(), 1);
    }

    #[test]
    fn csr_traversal_engine_and_markers_pass() {
        // The single evaluation engine and the CSR structure itself.
        let src = "let adj = index.csr(kind, dir);\nfor w in adj.neighbors(v) {}\n";
        assert!(at("crates/store/src/query/eval.rs", src).is_empty());
        assert!(at("crates/store/src/snapshot.rs", src).is_empty());
        // Vendor stays out of scope; lookalike names don't trip the rule.
        assert!(at("vendor/serde/src/lib.rs", src).is_empty());
        assert!(at("crates/x/src/lib.rs", "let x = sparse_csr(a, b);\n").is_empty());
        // Frozen differential references justify themselves with a marker.
        let src = "// lint-ok(csr-traversal): frozen seed reference the IR is diffed against\n\
                   let first = index.csr(EdgeKind::Used, Direction::Out);\n";
        assert!(at("crates/core/src/lineage.rs", src).is_empty());
    }

    // ---- raw-io -------------------------------------------------------

    #[test]
    fn raw_io_violation_is_flagged() {
        let hits = at("crates/core/src/provdb.rs", "let data = std::fs::read(path)?;\n");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "raw-io");
        // `use` statements, File, and OpenOptions are all ingress points.
        assert_eq!(at("crates/api/src/service.rs", "use std::fs;\n").len(), 1);
        assert_eq!(at("crates/bench/src/harness.rs", "let f = File::open(p)?;\n").len(), 1);
        assert_eq!(at("src/x.rs", "OpenOptions::new().append(true).open(p)?;\n").len(), 1);
        // Tests are covered too: a test writing files directly dodges the
        // failpoint harness just as much as product code would.
        assert_eq!(at("crates/core/tests/t.rs", "std::fs::write(p, b)?;\n").len(), 1);
    }

    #[test]
    fn raw_io_storage_engine_and_markers_pass() {
        // The storage directory IS the filesystem boundary.
        assert!(at("crates/store/src/storage/io.rs", "std::fs::read(p)?;\n").is_empty());
        assert!(at("crates/store/src/storage/wal.rs", "File::open(p)?;\n").is_empty());
        // But the rest of prov-store is not exempt.
        assert_eq!(at("crates/store/src/graph.rs", "std::fs::read(p)?;\n").len(), 1);
        // Vendor shims and lookalike tokens stay out.
        assert!(at("vendor/serde/src/lib.rs", "std::fs::read(p)?;\n").is_empty());
        assert!(at("src/x.rs", "let profile = Profile::open(p);\n").is_empty());
        // Justified non-durable tooling passes.
        let src = "// lint-ok(raw-io): bench report writer, nothing durable flows here\n\
                   std::fs::write(path, report.to_json())?;\n";
        assert!(at("crates/bench/src/bin/figure.rs", src).is_empty());
        // The group-commit pipeline and the column codec live inside the
        // boundary: raw-io does not fire on them.
        assert!(at("crates/store/src/storage/pipeline.rs", "std::fs::read(p)?;\n").is_empty());
        assert!(at("crates/store/src/storage/column.rs", "File::open(p)?;\n").is_empty());
    }

    #[test]
    fn snapshot_slurp_guards_lazy_decode() {
        // Whole-file snapshot reads outside the column codec / Io backends
        // defeat lazy decode's O(touched-columns) cold start.
        let slurp = "let bytes = self.io.read(&snapshot_file_name(g))?;\n";
        let hits = at("crates/store/src/storage/mod.rs", slurp);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "snapshot-slurp");
        assert_eq!(at("crates/core/src/provdb.rs", "f.read_to_end(&mut buf)?;\n").len(), 1);
        // The codec and the backends ARE the slurp boundary.
        assert!(at("crates/store/src/storage/column.rs", slurp).is_empty());
        assert!(at("crates/store/src/storage/io.rs", "f.read_to_end(&mut buf)?;\n").is_empty());
        // WAL reads are whole-file by design; the rule keys on snapshot names.
        assert!(at("crates/store/src/storage/mod.rs", "self.io.read(&wal_name)?;\n").is_empty());
    }

    // ---- masking / engine mechanics -----------------------------------

    #[test]
    fn masking_preserves_lines_and_blanks_literals() {
        let src = "let a = \"std::collections::HashMap\"; // thread::spawn(\nlet b = 1;\n";
        let masked = mask_source(src);
        assert_eq!(masked.lines().count(), src.lines().count());
        assert!(!masked.contains("HashMap"));
        assert!(!masked.contains("thread::spawn"));
        assert!(masked.contains("let b = 1;"));
    }

    #[test]
    fn masking_handles_raw_strings_block_comments_and_chars() {
        let src = "let r = r#\"Ordering::Relaxed\"#;\n\
                   /* std::collections::HashMap\n   spanning lines */\n\
                   let c = '\\'';\n\
                   fn life<'a>(x: &'a str) -> &'a str { x }\n";
        let masked = mask_source(src);
        assert!(!masked.contains("Relaxed"));
        assert!(!masked.contains("HashMap"));
        assert!(masked.contains("fn life<'a>"), "lifetimes survive masking:\n{masked}");
        assert_eq!(masked.lines().count(), src.lines().count());
    }

    #[test]
    fn masking_keeps_line_numbers_across_string_continuations() {
        // A `\<newline>` continuation inside a string must not swallow the
        // newline, or every finding below it reports the wrong line.
        let src = "let m = \"spans \\\n lines\";\nuse std::collections::HashMap;\n";
        let masked = mask_source(src);
        assert_eq!(masked.lines().count(), src.lines().count());
        let hits = at("src/a.rs", src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].line, 3);
    }

    #[test]
    fn findings_render_with_location_and_rule() {
        let hits = at("src/x.rs", "let _ = 0;\nuse std::collections::HashMap;\n");
        assert_eq!(hits.len(), 1);
        let shown = hits[0].to_string();
        assert!(shown.contains("src/x.rs:2"), "{shown}");
        assert!(shown.contains("[std-collections]"), "{shown}");
    }
}
