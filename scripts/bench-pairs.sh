#!/usr/bin/env bash
# Alternating pairs of the end-to-end benchmark between two revisions.
#
# Builds `benchmark/` of each revision from `git archive <rev>` in a
# directory of its own under $TMPDIR, so neither the checkout nor its
# `benchmark/Cargo.lock` is touched; a revision already built there is
# reused. Then runs PAIRS pairs of `--workload W --seed S --seconds T
# --trace 0`, alternating which side runs first, and keeps every run's
# result line (the last line of its output) as `base-<i>.json` /
# `change-<i>.json` in a results directory under $TMPDIR. For each
# end-to-end metric of BENCHMARK.json it prints median [q1, q3] per side
# and in how many pairs the change was better, "better" as BENCHMARK.json
# declares it. Exits 1 if any run reports `correct: false`.
#
# Usage: scripts/bench-pairs.sh BASE_REV CHANGE_REV WORKLOAD [SEED] [SECONDS] [PAIRS]
#   SEED 1, SECONDS 20 (BENCHMARK.json's run_seconds), PAIRS 10 by default.
#   To measure uncommitted work, pass `$(git stash create)` as CHANGE_REV.

set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD

if [[ $# -lt 3 ]]; then
    sed -n '2,/^$/s/^# \{0,1\}//p' "$0" >&2
    exit 2
fi
base_rev=$1
change_rev=$2
workload=$3
seed=${4:-1}
seconds=${5:-20}
pairs=${6:-10}
tmp=${TMPDIR:-/tmp}

# Extract and build one revision; prints the tree's directory.
build() {
    local sha dir
    sha=$(git rev-parse --verify "$1^{commit}")
    dir="$tmp/bench-pairs-$sha"
    if [[ ! -x "$dir/benchmark/target/release/prov-benchmark" ]]; then
        rm -rf "$dir"
        mkdir -p "$dir"
        git archive "$sha" | tar -x -C "$dir"
        echo "==> building $1 ($sha) in $dir" >&2
        cargo build --release --quiet --offline --manifest-path "$dir/benchmark/Cargo.toml" >&2
    fi
    echo "$dir"
}

base_dir=$(build "$base_rev")
change_dir=$(build "$change_rev")
results=$(mktemp -d "$tmp/bench-pairs-$workload-s$seed-XXXX")
echo "==> $pairs pairs of $workload, seed $seed, ${seconds} s; result lines in $results" >&2

# One run of a side; its last output line goes to the results directory.
run() {
    local side=$1 dir=$2 i=$3
    (cd "$dir" && benchmark/target/release/prov-benchmark --workload "$workload" \
        --seed "$seed" --seconds "$seconds" --trace 0) | tail -n 1 >"$results/$side-$i.json"
}

for ((i = 1; i <= pairs; i++)); do
    if ((i % 2 == 1)); then
        run base "$base_dir" "$i"
        run change "$change_dir" "$i"
    else
        run change "$change_dir" "$i"
        run base "$base_dir" "$i"
    fi
    echo "    pair $i/$pairs done" >&2
done

python3 - "$root/BENCHMARK.json" "$results" "$pairs" <<'EOF'
import json
import statistics
import sys

bench_path, results, pairs = sys.argv[1], sys.argv[2], int(sys.argv[3])
spec = json.load(open(bench_path))["end_to_end"]
runs = {
    side: [json.load(open(f"{results}/{side}-{i}.json")) for i in range(1, pairs + 1)]
    for side in ("base", "change")
}

def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q1, q3

print(f"{'metric':<20} {'base median [q1, q3]':>34} {'change median [q1, q3]':>34} {'wins':>7}")
for metric in spec:
    name = metric["name"]
    base = [r["metrics"][name]["value"] for r in runs["base"] if name in r["metrics"]]
    change = [r["metrics"][name]["value"] for r in runs["change"] if name in r["metrics"]]
    if not base or not change:
        continue
    lower = metric["better"] == "lower"
    wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
    cells = []
    for values in (base, change):
        med, q1, q3 = spread(values)
        cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}]")
    print(f"{name:<20} {cells[0]:>34} {cells[1]:>34} {wins:>4}/{len(base)}")

bad = [f"{side}-{i + 1}" for side, rs in runs.items() for i, r in enumerate(rs) if not r["correct"]]
if bad:
    print("correct: false in " + ", ".join(bad), file=sys.stderr)
    sys.exit(1)
EOF
