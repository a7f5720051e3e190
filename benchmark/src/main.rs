//! Command-line front end of the benchmark.
//!
//! ```text
//! prov-benchmark --workload W --seed N --seconds S --trace 0|1 [--out FILE]
//!     one workload (how the driver calls it); the last line of standard
//!     output is the result as one JSON object
//! prov-benchmark [--seed N] [--seconds S] [--out FILE]
//!     every workload, untraced then traced, each in a child process of its
//!     own; prints every metric and writes the result file
//! prov-benchmark --smoke
//!     every workload at a few hundred requests, in-process
//! prov-benchmark --compare A.json B.json
//!     judge B against A with each metric's bound and floor
//! ```

use prov_benchmark::harness::{run, RunConfig};
use prov_benchmark::program::{Scale, Workload};
use prov_benchmark::report::{compare, driver_line, render, summarize, Report, WorkloadResult};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Default time budget of one run's measured phases (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;

#[derive(Debug, Clone)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    smoke: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        smoke: false,
        compare: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload =
                    Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--smoke" => parsed.smoke = true,
            "--compare" => {
                parsed.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?)))
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

/// `benchmark/out` from the repository root, `out` from inside `benchmark/`.
fn out_dir() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").is_file() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

fn write_report(path: &Path, report: &Report) -> Result<(), String> {
    let text = serde_json::to_string_pretty(report).map_err(|e| e.to_string())?;
    // lint-ok(raw-io): the result file is a report for people and `--compare`, nothing durable.
    std::fs::write(path, text + "\n").map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn read_report(path: &Path) -> Result<Report, String> {
    // lint-ok(raw-io): reads a result file written by an earlier run.
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_one(args: &Args, workload: Workload, scale: Scale) -> Result<WorkloadResult, String> {
    let config = RunConfig {
        workload,
        seed: args.seed,
        scale,
        seconds: args.seconds,
        trace: args.trace,
        out_dir: out_dir(),
    };
    Ok(summarize(&run(&config)?))
}

/// One workload in this process: what the driver runs.
fn single(args: &Args, workload: Workload) -> Result<bool, String> {
    let result = run_one(args, workload, Scale::FULL)?;
    print!("{}", render(&result));
    if let Some(path) = &args.out {
        let mut report = Report::new(args.seconds);
        report.merge(result.clone());
        write_report(path, &report)?;
    }
    println!("{}", serde_json::to_string(&driver_line(&result)).map_err(|e| e.to_string())?);
    // A run whose checks failed has said so in its result line (`correct:
    // false`); the process itself ended normally.
    Ok(true)
}

/// Every workload, each run in a child process so that `VmHWM` is the
/// workload's own.
fn all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = out_dir();
    let mut report = Report::new(args.seconds);
    for workload in Workload::ALL {
        for trace in ["0", "1"] {
            let part = dir.join(format!("part-{}-{trace}.json", workload.name()));
            let status = std::process::Command::new(&exe)
                .args(["--workload", workload.name(), "--trace", trace])
                .args(["--seed", &args.seed.to_string(), "--seconds", &args.seconds.to_string()])
                .arg("--out")
                .arg(&part)
                .stdout(std::process::Stdio::null())
                .status()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            if !status.success() && !part.is_file() {
                return Err(format!("{} --trace {trace} ended with {status}", workload.name()));
            }
            for result in read_report(&part)?.workloads {
                report.merge(result);
            }
        }
        let merged = report.workloads.last().expect("just merged");
        print!("{}", render(merged));
    }
    let path = args.out.clone().unwrap_or_else(|| dir.join("result.json"));
    write_report(&path, &report)?;
    println!("result written to {}", path.display());
    Ok(report.workloads.iter().all(|w| w.correct))
}

/// Every workload at smoke scale, untraced then traced, in this process.
fn smoke(args: &Args) -> Result<bool, String> {
    let mut correct = true;
    for workload in Workload::ALL {
        for trace in [false, true] {
            let args = Args { seconds: 0.0, trace, ..args.clone() };
            let result = run_one(&args, workload, Scale::SMOKE)?;
            print!("{}", render(&result));
            correct &= result.correct;
        }
    }
    Ok(correct)
}

fn dispatch(args: &Args) -> Result<bool, String> {
    if let Some((before, after)) = &args.compare {
        let (table, regressed) = compare(&read_report(before)?, &read_report(after)?);
        print!("{table}");
        return Ok(!regressed);
    }
    if args.smoke {
        return smoke(args);
    }
    match args.workload {
        Some(workload) => single(args, workload),
        None => all(args),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&raw).and_then(|args| dispatch(&args));
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("prov-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
