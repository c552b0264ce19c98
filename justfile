# Local CI entry points. `just ci` is the gate a PR must pass.

# Tier-1: the seed suite must build in release and every test must pass,
# with tests running in parallel (shared process state between tests
# shows up here, not with one test thread).
tier1:
    cargo build --release
    cargo test -q -- --test-threads=4

# Lints: warnings are errors, formatting is canonical.
lint:
    cargo clippy --workspace --all-targets -- -D warnings
    cargo fmt --all --check

# Static analysis + model checking: the custom lint pass over every
# crate (all seven lints workspace-blocking), the audit crate's own
# fixture/explorer tests, and the strict-invariants runtime layer.
audit:
    cargo run -q -p sapla-audit
    cargo test -q -p sapla-audit
    cargo test -q -p sapla-core --features strict-invariants
    cargo test -q -p sapla-distance --features strict-invariants
    cargo test -q -p sapla-index --features strict-invariants

# Condvar-aware model check of the sapla-serve admission queue:
# exhaustive enumeration with pinned schedule counts, the lost-wakeup
# and if-wait canaries, and the seeded randomized long-run (tune with
# SAPLA_AUDIT_RANDOM_RUNS / SAPLA_AUDIT_SEED without recompiling).
audit-model-serve:
    cargo test -q -p sapla-audit --test model_serve

# Observability: the instrumented feature matrix must stay green, the
# uninstrumented state must too (the CLI is excluded from the second run:
# its default build turns `obs` on for the whole graph), and the CLI
# profile surface must emit valid JSON (checked by a Rust test, no jq).
obs:
    cargo test -q -p sapla-obs --features obs
    cargo test -q -p sapla-core --features obs
    cargo test -q -p sapla-distance --features obs
    cargo test -q -p sapla-parallel --features obs
    cargo test -q -p sapla-baselines --features obs
    cargo test -q -p sapla-index --features obs
    cargo test -q -p sapla-bench --lib --features obs
    cargo test -q -p sapla-obs -p sapla-core -p sapla-distance -p sapla-parallel -p sapla-baselines -p sapla-index -p sapla-integration
    cargo test -q -p sapla-cli --test cli profile_json

# Daemon smoke: the wire/loopback suite of sapla-serve in every feature
# state (stock, instrumented, strict), plus the end-to-end `sapla serve`
# subprocess test. The obs run is what checks the `stats` wire command
# reports non-zero batching and pruning counters.
serve-smoke:
    cargo test -q -p sapla-serve
    cargo test -q -p sapla-serve --features obs
    cargo test -q -p sapla-serve --features strict-invariants
    cargo test -q -p sapla-cli --test cli serve

# Request tracing & metrics exposition: the OP_METRICS / flight
# recorder / slow-log loopback tests under the instrumented build, the
# `sapla stats --metrics` subprocess round-trip, and the perf report's
# obs_overhead section (validated by a Rust test, no jq).
metrics:
    cargo test -q -p sapla-serve --features obs metrics
    cargo test -q -p sapla-serve --features obs traces_decompose
    cargo test -q -p sapla-serve --features obs slow_query_log
    cargo test -q -p sapla-cli --test cli stats_subcommand
    cargo test -q -p sapla-bench --lib --features obs quick_grid_runs_and_serialises

# Zero-copy snapshot persistence: the sapla-store container fuzz suite
# (truncation / bit-flip / misalignment — every failure an Err, never a
# panic), then the engine snapshot round-trip tests and the
# bit-identity / quantization-bound property tests, stock and under
# strict-invariants (which re-proves `Dist_LB ≤ exact + slack` inside
# every refinement the snapshot-loaded trees perform), then the daemon's
# wire snapshot/reload tests, which carry the same snapshot image. The
# corrupt-image suites run in release too: the daemon ships in release,
# where overflow checks are off and an unchecked product wraps silently.
persist:
    cargo test -q -p sapla-store
    cargo test -q -p sapla-index --lib snapshot
    cargo test -q -p sapla-index --test snapshot_props
    cargo test -q --release -p sapla-index --lib snapshot
    cargo test -q --release -p sapla-index --test snapshot_props
    cargo test -q -p sapla-index --features strict-invariants --lib snapshot
    cargo test -q -p sapla-index --features strict-invariants --test snapshot_props
    cargo test -q -p sapla-serve --test loopback reload
    cargo test -q -p sapla-serve --test loopback quantized_lineage

# SIMD dispatch safety net: the whole suite pinned to the scalar
# kernels through the env override (the bit-identity contract means no
# result may change), then the quick perf grid with dispatch disabled.
simd-off:
    SAPLA_SIMD=off cargo test -q
    cargo bench -p sapla-bench --bench perf_json -- --quick --no-simd

# Perf-report smoke: the quick grid with every section written to JSON,
# then Rust validators (no jq) for the profile JSON, the obs_overhead
# section and the cold_start section. The bench runs in its package
# directory, so the report path is anchored at the workspace root.
bench-smoke:
    cargo bench -p sapla-bench --bench perf_json -- --quick --json {{justfile_directory()}}/perf-smoke.json
    cargo test -q -p sapla-cli --test cli profile_json
    grep -q '"obs_overhead"' perf-smoke.json
    cargo test -q -p sapla-bench --lib --features obs quick_grid_runs_and_serialises
    grep -q '"cold_start"' perf-smoke.json

# The repo benchmark builds against the workspace crates by path from a
# workspace of its own, so nothing else compiles it: its unit tests,
# with the lockfile pinned, catch a public-API change that breaks it and
# a dependency change that would rewrite `perfbench/Cargo.lock`.
perfbench:
    cargo test --offline --locked --manifest-path perfbench/Cargo.toml

# The full pre-merge gate.
ci: tier1 lint audit audit-model-serve obs serve-smoke metrics persist simd-off bench-smoke perfbench

# Regenerate every paper table/figure (slow; see EXPERIMENTS.md).
bench:
    cargo bench -p sapla-bench

# Quick thread-sweep of the parallel engine on the catalogue profile.
sweep:
    cargo bench -p sapla-bench --bench catalogue_profile

# Fast perf smoke: the reduced reduce/ingest/knn grid, JSON to stdout.
# (`--json <path>` writes a machine-readable report; BENCH_PR2.json holds
# the committed baseline-vs-optimised pair.)
bench-quick:
    cargo bench -p sapla-bench --bench perf_json -- --quick
