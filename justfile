# Common dev loops. `just --list` shows this menu.

# Tier-1 verify: exactly what CI's build-and-test job runs first.
verify:
    cargo build --release && cargo test -q

# Everything: workspace suites + the serde shims' own tests (they sit
# outside the workspace).
test:
    cargo test --workspace -q
    cd vendor/serde_json && cargo test -q

# Lints exactly as CI runs them. clippy.toml holds the repo's own rules
# (std collections, raw filesystem access, ad-hoc CSR walks, whole-file run
# reads); justify a real exception with `#[expect(…, reason = "…")]`.
lint:
    cargo clippy --workspace --all-targets --all-features -- -D warnings
    cargo clippy --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings -A clippy::disallowed_methods
    cargo fmt --check

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

# The PgSum suites alone, optimized: the simulation sweep against the naive
# pair fixpoint (segment-built and raw, mostly cyclic G0s), the merge phase
# against a recompute-every-round oracle, and the summary invariants.
summary-test:
    cargo test -q --release -p prov-summary

# The wire's byte pins alone: every envelope variant round-trips, the
# golden transcript of every request (handle_json's bytes = handle's
# Response serialized), and the serde shim's golden bytes.
wire-test:
    cargo test -q -p prov-api --test envelope_roundtrip --test wire_pin
    cd vendor/serde_json && cargo test -q --test golden

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

# Regenerate just the lazy-decode trajectory (fig10).
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

# Alternating end-to-end benchmark pairs between two revisions, each built
# from `git archive` under $TMPDIR: median [q1, q3] per side and the
# change's win count for every end-to-end metric.
#   just bench-pairs HEAD~1 HEAD mixed 1 20 10
bench-pairs base change workload seed="1" seconds="20" pairs="10":
    scripts/bench-pairs.sh {{base}} {{change}} {{workload}} {{seed}} {{seconds}} {{pairs}}

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
    cargo run -q -p prov-bench --release --bin figure -- --quick fig8 \
        --json BENCH_fig8.new.json --baseline BENCH_fig8.json
    cargo run -q -p prov-bench --release --bin figure -- --quick fig10 \
        --json BENCH_fig10.new.json --baseline BENCH_fig10.json
