//! `prov-check` — the workspace lint gate (`just lint-strict`).
//!
//! Walks every workspace `.rs` file (`vendor/` excluded), applies the rules
//! in [`prov_check`], and exits non-zero when any unjustified finding remains. `--list` prints the
//! rule catalog instead.

use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let first = args.next();
    if first.as_deref() == Some("--list") {
        for rule in prov_check::RULES {
            println!("{:16} {}", rule.id, rule.description);
        }
        return ExitCode::SUCCESS;
    }
    let root = first.unwrap_or_else(|| ".".to_string());
    let findings = match prov_check::check_workspace(Path::new(&root)) {
        Ok(findings) => findings,
        Err(e) => {
            eprintln!("prov-check: cannot walk {root}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if findings.is_empty() {
        println!("prov-check: clean");
        return ExitCode::SUCCESS;
    }
    for finding in &findings {
        println!("{finding}");
    }
    println!(
        "prov-check: {} finding(s); justify genuine exceptions with \
         `// lint-ok(<rule>): <reason>` on the same or preceding line",
        findings.len()
    );
    ExitCode::FAILURE
}
