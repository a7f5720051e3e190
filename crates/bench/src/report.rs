//! `BENCH_fig5.json` / `BENCH_fig6.json` / `BENCH_fig8.json` /
//! `BENCH_fig10.json`: the machine-readable benchmark trajectories.
//!
//! Every PR regenerates these reports — the quick-scale Fig. 5(a)–(d)
//! sweeps plus the worklist comparison (`wl`) in `BENCH_fig5.json`, the
//! summarization sweeps (`6a`–`6c`: pSum vs seed PgSum vs the rewritten
//! PgSum) in `BENCH_fig6.json`, query depth (`8a`) in `BENCH_fig8.json` and
//! lazy decode (`10b`) in `BENCH_fig10.json` — giving the repo perf
//! trajectories the CI can gate on: a fresh run is compared point-by-point
//! against the committed baseline and any series that regresses beyond the
//! configured factor fails the build. [`BenchReport::summary_table`] renders
//! the same data as a compact per-figure table for the job log.

use crate::harness::{FigureResult, Scale};
use serde::{Deserialize, Serialize};

/// Schema version of the report layout (bump on breaking changes).
pub const BENCH_SCHEMA: u32 = 1;

/// Regression gate: a point fails when its slowdown against the baseline
/// exceeds `REGRESSION_FACTOR ×` the run's median slowdown (the median
/// calibrates away machine-speed differences between the committing machine
/// and the CI runner — see [`BenchReport::regressions_against`]).
pub const REGRESSION_FACTOR: f64 = 2.0;

/// Points whose baseline wall-clock is below this floor are exempt from the
/// gate — sub-5ms timings on shared CI runners are dominated by noise.
pub const REGRESSION_FLOOR_SECS: f64 = 0.005;

/// One measured point of one series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PointJson {
    /// Sweep coordinate (graph size, skew, percentile, …).
    pub x: f64,
    /// Wall-clock seconds; absent = DNF.
    pub secs: Option<f64>,
    /// Evaluator work units (derived facts / word operations); absent when the
    /// quantity is not a runtime measurement (e.g. compaction ratios).
    pub work: Option<u64>,
}

/// One plotted series of one figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeriesJson {
    /// Legend name (matches the paper's).
    pub name: String,
    /// Measured points in sweep order.
    pub points: Vec<PointJson>,
}

/// One reproduced subplot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FigureJson {
    /// Figure id (`5a`…`5d`, `wl`).
    pub id: String,
    /// Caption.
    pub title: String,
    /// x-axis label.
    pub x_label: String,
    /// y-axis label.
    pub y_label: String,
    /// All series.
    pub series: Vec<SeriesJson>,
}

/// The whole benchmark report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Layout version ([`BENCH_SCHEMA`]).
    pub schema: u32,
    /// `quick` or `full`.
    pub scale: String,
    /// The command that regenerates this file.
    pub command: String,
    /// Hardware parallelism of the measuring machine (0 in reports written
    /// before the field existed).
    #[serde(default)]
    pub host_threads: usize,
    /// Measured figures.
    pub figures: Vec<FigureJson>,
}

impl BenchReport {
    /// Assemble a report from harness results; `command` is the exact CLI
    /// invocation that regenerates the file (recorded for reproducibility —
    /// fig5 and fig6 trajectories differ only in the ids and target path).
    pub fn from_figures(scale: Scale, figures: &[FigureResult], command: String) -> BenchReport {
        BenchReport {
            schema: BENCH_SCHEMA,
            scale: match scale {
                Scale::Quick => "quick".into(),
                Scale::Full => "full".into(),
            },
            command,
            host_threads: std::thread::available_parallelism().map_or(0, |n| n.get()),
            figures: figures
                .iter()
                .map(|f| FigureJson {
                    id: f.id.to_string(),
                    title: f.title.clone(),
                    x_label: f.x_label.clone(),
                    y_label: f.y_label.clone(),
                    series: f
                        .series
                        .iter()
                        .map(|s| SeriesJson {
                            name: s.name.clone(),
                            points: s
                                .points
                                .iter()
                                .map(|p| PointJson { x: p.x, secs: p.y, work: p.work })
                                .collect(),
                        })
                        .collect(),
                })
                .collect(),
        }
    }

    /// Serialize (pretty, stable field order).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// Parse a committed report.
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        serde_json::from_str(text).map_err(|e| format!("unparsable benchmark report: {e}"))
    }

    /// Every `(now, then, label)` wall-clock pair matched by figure id,
    /// series name, and x coordinate, with `then` above the noise floor.
    fn matched_points(&self, baseline: &BenchReport) -> Vec<(f64, f64, String)> {
        let mut out = Vec::new();
        for fig in &self.figures {
            let Some(base_fig) = baseline.figures.iter().find(|f| f.id == fig.id) else {
                continue;
            };
            for series in &fig.series {
                let Some(base_series) = base_fig.series.iter().find(|s| s.name == series.name)
                else {
                    continue;
                };
                for point in &series.points {
                    let base_point =
                        base_series.points.iter().find(|p| (p.x - point.x).abs() < 1e-9);
                    let (Some(now), Some(then)) = (point.secs, base_point.and_then(|p| p.secs))
                    else {
                        continue;
                    };
                    if then >= REGRESSION_FLOOR_SECS {
                        out.push((
                            now,
                            then,
                            format!("fig {} / {} @ x={}", fig.id, series.name, point.x),
                        ));
                    }
                }
            }
        }
        out
    }

    /// Compact per-figure trajectory summary: for every series, its
    /// largest-x measured point, the speedup against the figure's *first*
    /// series at that x (the reference/baseline method of the figure — e.g.
    /// `EagerDecode` in 10b, `SeedLoop` in `wl`, `pSum` in fig6), and, when a
    /// committed `baseline` report is supplied, the speedup against the same
    /// point of that baseline. Printed into the CI job log so the perf
    /// history reads without downloading artifacts.
    pub fn summary_table(&self, baseline: Option<&BenchReport>) -> String {
        fn fmt_secs(secs: f64) -> String {
            if secs < 0.001 {
                format!("{:.1}us", secs * 1e6)
            } else if secs < 1.0 {
                format!("{:.2}ms", secs * 1e3)
            } else {
                format!("{secs:.2}s")
            }
        }
        fn fmt_ratio(r: Option<f64>) -> String {
            match r {
                Some(r) => format!("{r:.2}x"),
                None => "-".into(),
            }
        }
        let mut out = String::from("trajectory summary (largest measured point per series):\n");
        out.push_str(&format!(
            "{:<5}{:<20}{:>10}{:>12}{:>10}{:>14}\n",
            "fig", "series", "x", "secs", "vs-ref", "vs-baseline"
        ));
        for fig in &self.figures {
            // The figure's reference series: its first series' secs by x.
            let reference = fig.series.first();
            for series in &fig.series {
                // Largest x with a measured (non-DNF) timing.
                let Some(point) = series
                    .points
                    .iter()
                    .filter(|p| p.secs.is_some())
                    .max_by(|a, b| a.x.total_cmp(&b.x))
                else {
                    continue;
                };
                let secs = point.secs.expect("filtered on measured");
                let at_x = |s: &SeriesJson| {
                    s.points.iter().find(|p| (p.x - point.x).abs() < 1e-9).and_then(|p| p.secs)
                };
                let vs_ref = reference.and_then(at_x).map(|r| r / secs);
                let vs_baseline = baseline
                    .and_then(|b| b.figures.iter().find(|f| f.id == fig.id))
                    .and_then(|f| f.series.iter().find(|s| s.name == series.name))
                    .and_then(at_x)
                    .map(|then| then / secs);
                out.push_str(&format!(
                    "{:<5}{:<20}{:>10}{:>12}{:>10}{:>14}\n",
                    fig.id,
                    series.name,
                    point.x,
                    fmt_secs(secs),
                    fmt_ratio(vs_ref),
                    fmt_ratio(vs_baseline)
                ));
            }
        }
        out
    }

    /// Compare this (fresh) report against a committed baseline. Returns one
    /// message per regressed point; empty means the gate passes.
    ///
    /// The committed baseline was measured on whatever machine last
    /// regenerated it, while CI runs on shared runners of unknown speed, so
    /// raw wall-clock ratios gate on hardware, not code. The gate therefore
    /// calibrates: each point's slowdown `now / then` is divided by the
    /// run's median slowdown (lower median, so a lone regressed point can
    /// never raise its own allowance), and only a point slower than
    /// [`REGRESSION_FACTOR`]× *beyond that shared shift* fails. A uniformly
    /// slower runner passes; one series blowing up relative to the rest
    /// fails.
    ///
    /// Series or points present on only one side are ignored — adding a new
    /// sweep must not fail the gate, and DNF entries carry no timing.
    pub fn regressions_against(&self, baseline: &BenchReport) -> Vec<String> {
        if self.scale != baseline.scale {
            // Quick and full sweeps measure different workloads; comparing
            // them point-by-point would silently gate on the wrong data.
            return vec![format!(
                "scale mismatch: fresh run is `{}` but baseline is `{}` — regenerate the \
                 baseline at the same scale",
                self.scale, baseline.scale
            )];
        }
        let matched = self.matched_points(baseline);
        let mut ratios: Vec<f64> = matched.iter().map(|(now, then, _)| now / then).collect();
        ratios.sort_unstable_by(|a, b| a.total_cmp(b));
        let calibration = match ratios.as_slice() {
            [] => return Vec::new(),
            // Lower median, clamped to 1.0: calibration only ever *loosens*
            // the gate for slower runners — a run full of improvements must
            // not tighten the threshold and flag untouched series.
            rs => rs[(rs.len() - 1) / 2].max(1.0),
        };
        matched
            .into_iter()
            .filter(|(now, then, _)| now / then > REGRESSION_FACTOR * calibration)
            .map(|(now, then, label)| {
                format!(
                    "{label}: {now:.4}s vs baseline {then:.4}s \
                     (>{REGRESSION_FACTOR}x beyond the run's median slowdown {calibration:.2}x)"
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three series (one per secs value) plus a DNF point.
    fn report(secs: &[f64]) -> BenchReport {
        BenchReport {
            schema: BENCH_SCHEMA,
            scale: "quick".into(),
            command: "x".into(),
            host_threads: 1,
            figures: vec![FigureJson {
                id: "5a".into(),
                title: "t".into(),
                x_label: "N".into(),
                y_label: "runtime (s)".into(),
                series: secs
                    .iter()
                    .enumerate()
                    .map(|(i, &s)| SeriesJson {
                        name: format!("series{i}"),
                        points: vec![
                            PointJson { x: 1000.0, secs: Some(s), work: Some(42) },
                            PointJson { x: 5000.0, secs: None, work: None }, // DNF
                        ],
                    })
                    .collect(),
            }],
        }
    }

    #[test]
    fn json_round_trips() {
        let r = report(&[0.25, 0.1]);
        let parsed = BenchReport::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn reports_without_host_threads_still_parse() {
        // Committed baselines predate the field; serde must default it to 0
        // rather than reject the file (which would break the CI perf gate on
        // the first PR that adds the field).
        let json = report(&[0.1]).to_json();
        let line = "\"host_threads\": 1,";
        assert!(json.contains(line), "{json}");
        let stripped: String =
            json.lines().filter(|l| !l.contains(line)).collect::<Vec<_>>().join("\n");
        let parsed = BenchReport::from_json(&stripped).unwrap();
        assert_eq!(parsed.host_threads, 0);
    }

    #[test]
    fn regression_gate_fires_only_past_factor_and_floor() {
        let baseline = report(&[0.1, 0.1, 0.1]);
        // 1.5x on one series (median slowdown 1.0) is within the factor.
        assert!(report(&[0.15, 0.1, 0.1]).regressions_against(&baseline).is_empty());
        // 2.5x on one series while the others hold fails exactly that series.
        let msgs = report(&[0.25, 0.1, 0.1]).regressions_against(&baseline);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("fig 5a / series0"), "{msgs:?}");
        // Sub-floor baselines never gate.
        let noisy_base = report(&[0.0001, 0.0001, 0.0001]);
        assert!(report(&[0.001, 0.001, 0.001]).regressions_against(&noisy_base).is_empty());
        // Unmatched series/figures are ignored.
        let mut renamed = report(&[9.0, 0.1, 0.1]);
        renamed.figures[0].series[0].name = "other".into();
        assert!(renamed.regressions_against(&baseline).is_empty());
    }

    #[test]
    fn summary_table_reports_largest_point_and_speedups() {
        // series0 = 0.2s (the reference), series1 = 0.05s at the largest
        // measured x (the 5000-point is DNF, so 1000 is the largest).
        let fresh = report(&[0.2, 0.05]);
        let table = fresh.summary_table(None);
        assert!(table.contains("trajectory summary"), "{table}");
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 2 + 2, "header + one row per series: {table}");
        let s0 = lines[2];
        let s1 = lines[3];
        assert!(s0.contains("series0") && s0.contains("1.00x"), "{s0}");
        // 0.2 / 0.05 = 4x faster than the reference series.
        assert!(s1.contains("series1") && s1.contains("4.00x"), "{s1}");
        assert!(s1.contains("50.00ms"), "{s1}");
        // vs-baseline column: dash without a baseline...
        assert!(s0.trim_end().ends_with('-'), "{s0}");
        // ...and then/now with one (baseline 0.1 vs now 0.2 → 0.50x).
        let with_base = fresh.summary_table(Some(&report(&[0.1, 0.1])));
        let lines: Vec<&str> = with_base.lines().collect();
        assert!(lines[2].contains("0.50x"), "{}", lines[2]);
        assert!(lines[3].contains("2.00x"), "{}", lines[3]);
    }

    #[test]
    fn regression_gate_calibrates_for_machine_speed() {
        let baseline = report(&[0.1, 0.1, 0.1]);
        // A uniformly 3x slower runner is a hardware shift, not a regression.
        assert!(report(&[0.3, 0.3, 0.3]).regressions_against(&baseline).is_empty());
        // On that slower runner, one series an *additional* >2x beyond the
        // shared shift still fails.
        let msgs = report(&[0.7, 0.3, 0.3]).regressions_against(&baseline);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("series0"), "{msgs:?}");
        // A uniformly faster runner does not flag parity points.
        assert!(report(&[0.05, 0.05, 0.05]).regressions_against(&baseline).is_empty());
        // Calibration never tightens: a run where most series improved 3x
        // must not flag the series that merely held steady (e.g. the frozen
        // SeedLoop reference).
        assert!(report(&[0.03, 0.03, 0.1]).regressions_against(&baseline).is_empty());
        // Quick-vs-full comparisons are refused outright.
        let mut full = report(&[0.1, 0.1, 0.1]);
        full.scale = "full".into();
        let msgs = full.regressions_against(&baseline);
        assert_eq!(msgs.len(), 1);
        assert!(msgs[0].contains("scale mismatch"), "{msgs:?}");
    }
}
