//! Benchmark harness for the Fig. 5 reproduction and the summarization
//! sweeps (see `DESIGN.md` §4).
//!
//! * [`harness`] — one function per subplot, printable as text tables, plus
//!   the worklist ablation (`wl`), the summarization runtime sweeps
//!   (`6a`–`6c`: pSum vs seed PgSum vs the counting/quotient-incremental
//!   rewrite), and the shared [`PdCache`] / [`SdCache`] so a batch run
//!   freezes each workload once;
//! * [`fig7`] — the serving-loop sweeps (`7a`–`7c`: ingest/query
//!   interleaving, seed vs query-IR lineage latency, session-open latency)
//!   driven over a live `ProvDb`, committed as `BENCH_fig7.json`;
//! * [`fig8`] — the query-layer sweeps (`8a`/`8b`: IR pipeline latency by
//!   depth, paginated cursor walk vs one-shot), committed as
//!   `BENCH_fig8.json`;
//! * [`coldstart`] — the cold-start recovery sweep (`cs`: snapshot+tail
//!   recovery vs full WAL replay vs in-memory re-ingest), committed as
//!   `BENCH_coldstart.json`;
//! * [`report`] — the `BENCH_fig5.json` / `BENCH_fig6.json` /
//!   `BENCH_fig7.json` / `BENCH_fig8.json` document model, the >2×
//!   regression gate CI applies against the committed baselines, and the
//!   per-figure trajectory summary table printed into the CI job log;
//! * `src/bin/figure.rs` — CLI that regenerates any figure
//!   (`cargo run -p prov-bench --release --bin figure -- 5a`) and the JSON
//!   bench mode (`cargo run -p prov-bench --release -- --quick --json
//!   BENCH_fig5.json`).

pub mod coldstart;
pub mod fig10;
pub mod fig7;
pub mod fig8;
pub mod harness;
pub mod report;

pub use harness::{
    run_figure, FigureResult, PdCache, PdInstance, Point, Scale, SdCache, Series, ALL_FIGURES,
    BENCH_FIGURES, COLDSTART_FIGURES, FIG10_FIGURES, FIG6_FIGURES, FIG7_FIGURES, FIG8_FIGURES,
};
pub use report::{BenchReport, REGRESSION_FACTOR, REGRESSION_FLOOR_SECS};
