# Common dev loops. `just --list` shows this menu.

# Tier-1 verify: exactly what CI's build-and-test job runs first.
verify:
    cargo build --release && cargo test -q

# Everything: workspace suites + the serde shims' own tests (they sit
# outside the workspace).
test:
    cargo test --workspace -q
    cd vendor/serde_json && cargo test -q

# Lints exactly as CI runs them.
lint:
    cargo clippy --workspace --all-targets -- -D warnings
    cargo fmt --check
    cargo run -q -p prov-check

# The repo's own lint gate alone (std collections, unexplained narrowing
# casts, ad-hoc CSR walks, raw filesystem access, whole-file run reads).
# Justify real exceptions with `// lint-ok(<rule>): <reason>`.
lint-strict:
    cargo run -q -p prov-check

# Re-validate every structural invariant after each mutation while running
# the store/bitset/core suites (CI's build-and-test job runs this too),
# plus the query and service suites whose crates have no paranoid feature of
# their own (sessions and held query walks share one registry).
paranoid-test:
    cargo test -q -p prov-store -p prov-bitset -p prov-core \
        --features prov-store/paranoid,prov-bitset/paranoid,prov-core/paranoid
    cargo test -q -p prov-api --test query_cursor_stability \
        --features prov-store/paranoid,prov-core/paranoid
    cargo test -q -p prov-api --test service_flow \
        --features prov-store/paranoid,prov-core/paranoid
    cargo test -q -p prov --test cypher_query1 \
        --features prov-store/paranoid,prov-core/paranoid

# The query-IR differential suites alone: IR evaluation pinned byte-identical
# to every frozen read path (lineage, find_by_prop, patterns, Cypher
# Query-1), plus wire-level cursor stability under concurrent ingest.
query-test:
    cargo test -q -p prov-store --test query_ir_differential
    cargo test -q -p prov-core --test lineage_differential
    cargo test -q -p prov-api --test query_cursor_stability
    cargo test -q -p prov --test cypher_query1

# The SimProv differential suites alone, optimized: every evaluator against
# path enumeration on small DAGs, the constrained and worklist variants, and
# SimProvTst against its level-set definition on Pd graphs up to 2,000
# vertices, deep DAGs around word boundaries, masks and the two memory bounds.
# `--release` because that last oracle is the quadratic one.
segment-test:
    cargo test -q --release -p prov-segment --test differential --test constrained \
        --test worklist_equivalence --test tst_scale

# The durability suites alone: the kill-point sweep (recovery at every WAL
# byte offset lands on a committed-batch prefix, group appends and a merged
# run list included), the random ingest/crash/restart/query proptest
# (fsync/group/lazy/compaction-threshold policy sweep, so runs seal and
# merge), the lazy-vs-eager ColumnSource differential over multi-run stores,
# and the storage engine's own failpoint/torn-tail tests, every crash window
# of a compaction and of a merge, the run/manifest codecs, plus the
# group-buffer cases of its one commit path (grouped bytes == ungrouped).
recovery-test:
    cargo test -q -p prov-store storage::
    cargo test -q -p prov-store --test column_source_differential
    cargo test -q -p prov-core --test recovery_killpoints --test durability_proptest

# Regenerate just the serving-loop trajectory (fig7: refresh vs rebuild per
# ingest round, lineage latency, snapshot acquisition after a write).
fig7:
    cargo run -q -p prov-bench --release --bin figure -- --quick fig7 \
        --json BENCH_fig7.json

# Regenerate just the durable-ingest/lazy-decode trajectory (fig10).
fig10:
    cargo run -q -p prov-bench --release --bin figure -- --quick fig10 \
        --json BENCH_fig10.json

# The end-to-end wire benchmark's own unit + smoke tests (benchmark/ is a
# separate workspace; its seed-1 response digests are pinned there).
bench-smoke:
    cd benchmark && cargo test -q

# Public docs with rustdoc warnings denied.
doc:
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Regenerate all committed BENCH_*.json trajectories; pass "--full" for
# paper scale.
bench-sweep *args:
    scripts/bench-sweep.sh {{args}}

# Gate fresh quick runs against the committed baselines, like CI.
bench-gate:
    cargo run -q -p prov-bench --release --bin figure -- --quick \
        --json BENCH_fig5.new.json --baseline BENCH_fig5.json
    cargo run -q -p prov-bench --release --bin figure -- --quick fig6 \
        --json BENCH_fig6.new.json --baseline BENCH_fig6.json
    cargo run -q -p prov-bench --release --bin figure -- --quick fig7 \
        --json BENCH_fig7.new.json --baseline BENCH_fig7.json
    cargo run -q -p prov-bench --release --bin figure -- --quick fig8 \
        --json BENCH_fig8.new.json --baseline BENCH_fig8.json
    cargo run -q -p prov-bench --release --bin figure -- --quick coldstart \
        --json BENCH_coldstart.new.json --baseline BENCH_coldstart.json
    cargo run -q -p prov-bench --release --bin figure -- --quick fig10 \
        --json BENCH_fig10.new.json --baseline BENCH_fig10.json
