//! Benchmark harness for the Fig. 5 reproduction and the summarization
//! sweeps (see `DESIGN.md` §4).
//!
//! * [`harness`] — one function per subplot, printable as text tables, plus
//!   the worklist ablation (`wl`), the summarization runtime sweeps
//!   (`6a`–`6c`: pSum vs seed PgSum vs the counting/quotient-incremental
//!   rewrite), and the shared [`PdCache`] / [`SdCache`] so a batch run
//!   freezes each workload once;
//! * [`fig8`] — IR pipeline latency by depth (`8a`), committed as
//!   `BENCH_fig8.json`;
//! * [`fig10`] — eager vs lazy snapshot decode on a cold start (`10b`),
//!   committed as `BENCH_fig10.json`;
//! * [`report`] — the `BENCH_*.json` document model, the >2× regression gate
//!   CI applies against the committed baselines, and the per-figure
//!   trajectory summary table printed into the CI job log;
//! * `src/bin/figure.rs` — CLI that regenerates any figure
//!   (`cargo run -p prov-bench --release --bin figure -- 5a`) and the JSON
//!   bench mode (`cargo run -p prov-bench --release -- --quick --json
//!   BENCH_fig5.json`).
//!
//! The serving loop, paginated walks, durable ingest and recovery are
//! measured end to end by the wire benchmark under `benchmark/`, not here.

pub mod fig10;
pub mod fig8;
pub mod harness;
pub mod report;

pub use harness::{
    run_figure, FigureResult, PdCache, PdInstance, Point, Scale, SdCache, Series, ALL_FIGURES,
    BENCH_FIGURES, FIG10_FIGURES, FIG6_FIGURES, FIG8_FIGURES,
};
pub use report::{BenchReport, REGRESSION_FACTOR, REGRESSION_FLOOR_SECS};
