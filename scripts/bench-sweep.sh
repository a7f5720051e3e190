#!/usr/bin/env bash
# Regenerate every committed benchmark trajectory.
#
# Runs the exact quick-scale invocations CI gates against, overwriting the
# committed BENCH_*.json in place — run this when a PR intentionally moves a
# perf point (the gate compares fresh runs against these files). Every
# request runs on one thread; `host_threads` in each JSON records the
# measuring machine's hardware parallelism for reference only.
#
# Usage: scripts/bench-sweep.sh [--full]
#   --full   drop --quick and run the paper-scale sweeps (much slower)

set -euo pipefail
cd "$(dirname "$0")/.."

scale="--quick"
if [[ "${1:-}" == "--full" ]]; then
    scale=""
fi

run() {
    echo "==> cargo run -q -p prov-bench --release --bin figure -- $*" >&2
    cargo run -q -p prov-bench --release --bin figure -- "$@"
}

# shellcheck disable=SC2086  # $scale is intentionally word-split (may be empty)
run $scale --json BENCH_fig5.json
# shellcheck disable=SC2086
run $scale fig6 --json BENCH_fig6.json
# shellcheck disable=SC2086
run $scale fig8 --json BENCH_fig8.json
# shellcheck disable=SC2086
run $scale fig10 --json BENCH_fig10.json

echo "regenerated BENCH_fig5.json BENCH_fig6.json BENCH_fig8.json BENCH_fig10.json" >&2
