//! Regenerate the paper's evaluation figures — as text tables or as the
//! machine-readable `BENCH_fig5.json` / `BENCH_fig6.json` trajectories.
//!
//! ```sh
//! # Text tables (any subset of 5a..5h, wl, 6a..6c, 8a, 10b, or `all`):
//! cargo run -p prov-bench --release --bin figure -- all          # full scale
//! cargo run -p prov-bench --release --bin figure -- 5a --quick   # smoke run
//!
//! # Benchmark mode: run the Fig. 5(a)-(d) sweeps + the worklist ablation,
//! # write the JSON trajectory, and (optionally) gate against a baseline:
//! cargo run -p prov-bench --release -- --quick --json BENCH_fig5.json
//! cargo run -p prov-bench --release -- --quick --json BENCH_fig5.new.json \
//!     --baseline BENCH_fig5.json
//!
//! # The summarization trajectory (`fig6` shorthand for 6a 6b 6c):
//! cargo run -p prov-bench --release -- --quick fig6 --json BENCH_fig6.json
//!
//! # The query-depth trajectory (`fig8` shorthand for 8a):
//! cargo run -p prov-bench --release -- --quick fig8 --json BENCH_fig8.json
//!
//! # The lazy-decode trajectory (`fig10` shorthand for 10b):
//! cargo run -p prov-bench --release -- --quick fig10 --json BENCH_fig10.json
//! ```
//!
//! With `--baseline`, the process exits non-zero when any matched series
//! point regressed more than [`prov_bench::REGRESSION_FACTOR`]× — the CI
//! perf gate. Bench mode always prints the compact trajectory summary table
//! (largest point per series, speedup vs the figure's reference series and
//! vs the committed baseline) so the CI job log is readable on its own.

use prov_bench::{
    run_figure, BenchReport, FigureResult, PdCache, Scale, SdCache, ALL_FIGURES, BENCH_FIGURES,
    FIG10_FIGURES, FIG6_FIGURES, FIG8_FIGURES,
};

struct Cli {
    quick: bool,
    json: Option<String>,
    baseline: Option<String>,
    ids: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli { quick: false, json: None, baseline: None, ids: Vec::new() };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => cli.quick = true,
            "--json" => {
                cli.json = Some(it.next().ok_or("--json needs a path")?.clone());
            }
            "--baseline" => {
                cli.baseline = Some(it.next().ok_or("--baseline needs a path")?.clone());
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag:?}")),
            id => cli.ids.push(id.to_string()),
        }
    }
    Ok(cli)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let scale = if cli.quick { Scale::Quick } else { Scale::Full };
    let bench_mode = cli.json.is_some() || cli.baseline.is_some();
    let ids: Vec<String> = if cli.ids.is_empty() {
        let defaults: &[&str] = if bench_mode { &BENCH_FIGURES } else { &ALL_FIGURES };
        defaults.iter().map(|s| s.to_string()).collect()
    } else if cli.ids.iter().any(|i| i == "all") {
        ALL_FIGURES.iter().map(|s| s.to_string()).collect()
    } else {
        // `fig6`/`fig8`/`fig10` expand to their trajectory subsets.
        cli.ids
            .iter()
            .flat_map(|id| match id.as_str() {
                "fig6" => FIG6_FIGURES.iter().map(|s| s.to_string()).collect(),
                "fig8" => FIG8_FIGURES.iter().map(|s| s.to_string()).collect(),
                "fig10" => FIG10_FIGURES.iter().map(|s| s.to_string()).collect(),
                _ => vec![id.clone()],
            })
            .collect()
    };

    // One instance cache per workload family across every requested figure:
    // each Pd graph / Sd segment set is generated and frozen exactly once
    // per invocation.
    let mut pd_cache = PdCache::new();
    let mut sd_cache = SdCache::new();
    let mut figures: Vec<FigureResult> = Vec::new();
    for id in &ids {
        match run_figure(id, scale, &mut pd_cache, &mut sd_cache) {
            Some(fig) => {
                println!("{}", fig.render());
                figures.push(fig);
            }
            None => {
                eprintln!(
                    "unknown figure id {id:?}; valid: {ALL_FIGURES:?}, `fig6`, `fig8`, \
                     `fig10`, or `all`"
                );
                std::process::exit(2);
            }
        }
    }

    if !bench_mode {
        return;
    }
    // Record the exact invocation that regenerates the chosen target.
    let command = {
        let mut parts = vec!["cargo run -p prov-bench --release --".to_string()];
        if cli.quick {
            parts.push("--quick".into());
        }
        parts.extend(ids.iter().cloned());
        parts.push(format!("--json {}", cli.json.as_deref().unwrap_or("BENCH.json")));
        parts.join(" ")
    };
    let report = BenchReport::from_figures(scale, &figures, command);
    if let Some(path) = &cli.json {
        // lint-ok(raw-io): bench report artifact, nothing durable flows here.
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        }
        println!("wrote {path} ({} figures)", report.figures.len());
    }
    let baseline = cli.baseline.as_ref().map(|path| {
        // lint-ok(raw-io): reads a committed baseline report, not engine state.
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read baseline {path}: {e}");
                std::process::exit(2);
            }
        };
        match BenchReport::from_json(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
    });
    // The compact per-figure trajectory summary: always printed in bench
    // mode so a CI job log carries the perf story without artifacts.
    let summary = report.summary_table(baseline.as_ref());
    print!("{summary}");
    // Mirror it into the GitHub job summary when CI provides one (append:
    // the fig5/fig6/fig8/fig10 invocations of one job share the file).
    if let Ok(path) = std::env::var("GITHUB_STEP_SUMMARY") {
        use std::io::Write;
        let md = format!(
            "### prov-bench trajectory ({} figures, host_threads={})\n\n```text\n{summary}```\n\n",
            report.figures.len(),
            report.host_threads
        );
        // lint-ok(raw-io): CI job-summary sink owned by the runner, not us.
        let appended = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(&path)
            .and_then(|mut f| f.write_all(md.as_bytes()));
        if let Err(e) = appended {
            eprintln!("cannot append to GITHUB_STEP_SUMMARY ({path}): {e}");
        }
    }
    if let Some(baseline) = &baseline {
        let path = cli.baseline.as_deref().unwrap_or_default();
        let regressions = report.regressions_against(baseline);
        if regressions.is_empty() {
            println!("perf gate: OK (no series regressed beyond the committed baseline)");
        } else {
            eprintln!("perf gate: {} regression(s) against {path}:", regressions.len());
            for r in &regressions {
                eprintln!("  {r}");
            }
            std::process::exit(1);
        }
    }
}
