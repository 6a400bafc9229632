#!/usr/bin/env bash
# The repo's tier-1 verification: build, test, lint. Run from the repo
# root. Works fully offline — all dependencies are in-repo.
set -euo pipefail
cd "$(dirname "$0")/.."

# The static gates first: they take seconds, so a violation fails fast.
# Clippy, every target. The root clippy.toml refuses host clocks,
# unscoped threads and hash containers (the determinism policy), and an
# `#[expect]` that suppresses nothing fails as
# unfulfilled_lint_expectations.
cargo clippy --workspace --all-targets -- -D warnings
# The panic policy: library and binary code never unwraps, expects,
# panics or indexes unchecked except under an item-level
# `#[expect(clippy::…, reason = "…")]`. Tests, examples and the
# proptest shim (whose panics are its failure reports) are out of scope.
cargo clippy --workspace --exclude proptest --lib --bins -- \
    -D clippy::unwrap_used -D clippy::expect_used -D clippy::panic \
    -D clippy::indexing_slicing
# Formatting gate: every workspace crate matches rustfmt's output.
cargo fmt --all -- --check
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

cargo build --release
# Every suite runs once: the workspace run includes the root package's
# suites, among them three CLI end-to-end tests on the real binary:
# - trace_jsonl: the trace verb runs, its JSONL parses, the taxonomy
#   holds, every row of the stdout telemetry table equals a count or sum
#   over the run's events, and an export to /dev/full exits 1;
# - profile_jsonl: the layer profiler runs and prints one nine-row
#   layer table within the run's wall time, and the decision tick's p99
#   stays within 200 µs;
# - fleet_e2e: worker-count byte identity, kill+resume byte identity,
#   replay, and trace taxonomy.
cargo test -q --workspace
# Two examples run end to end: the reading session's per-second savings
# quantiles and the design-knob ablation tables.
cargo run --release -q --example reading_session > target/reading_session.txt
cargo run --release -q --example paper_report -- ablations > target/ablations.txt
# The benchmark packages' own tests. They build apart from the
# workspace and drive the layers through public calls (buffer_mut,
# fill_rect, set_naive_compose, framebuffer().generation(), the meter
# counters), so breaking one of those calls fails here.
cargo test --release --manifest-path benchmark/e2e/Cargo.toml
cargo test --release --manifest-path benchmark/traced/Cargo.toml
# Fleet smoke: the acceptance scenario end-to-end on the release
# binary — run a small campaign, kill a second run at its first
# checkpoint, resume it under a different worker count, and require the
# final statistics documents to be byte-identical.
cargo run --release -q --bin ccdem -- fleet --devices 96 --duration 1 --seed 17 \
    --batch 8 --jobs 4 --out target/fleet_full.json -q
cargo run --release -q --bin ccdem -- fleet --devices 96 --duration 1 --seed 17 \
    --batch 8 --jobs 2 --checkpoint target/fleet_ckpt.json --checkpoint-every 4 \
    --stop-after 1 -q
cargo run --release -q --bin ccdem -- fleet --resume target/fleet_ckpt.json \
    --jobs 3 --out target/fleet_resumed.json -q
cmp target/fleet_full.json target/fleet_resumed.json
# Report and sweep determinism: the paper's figures, Table 1 and the
# telemetry tables on stdout carry no host timing, so they must be
# byte-identical across worker counts (timing goes to stderr).
cargo run --release -q --bin ccdem -- report --duration 3 --jobs 1 > target/report_j1.txt
cargo run --release -q --bin ccdem -- report --duration 3 --jobs 4 > target/report_j4.txt
cmp target/report_j1.txt target/report_j4.txt
cargo run --release -q --bin ccdem -- sweep --duration 3 --obs summary --jobs 1 > target/sweep_j1.txt
cargo run --release -q --bin ccdem -- sweep --duration 3 --obs summary --jobs 4 > target/sweep_j4.txt
cmp target/sweep_j1.txt target/sweep_j4.txt
# Run-to-run determinism of the single-run verbs: the same seed prints
# the same stdout twice.
for run in 1 2; do
    cargo run --release -q --bin ccdem -- trace --duration 6 --seed 5 \
        --out target/trace_$run.jsonl > target/trace_$run.txt
    cargo run --release -q --bin ccdem -- simulate --app Facebook --duration 20 \
        > target/simulate_$run.txt
done
cmp target/trace_1.txt target/trace_2.txt
cmp target/simulate_1.txt target/simulate_2.txt
# Workspace static analysis (hard gate): the alloc-hot-path,
# arith-cast, atomics-ordering and obs-taxonomy invariants — see
# DESIGN.md §10. `--stats` prints machine-parseable lines we gate on
# below.
cargo run --release -q --bin ccdem -- lint --json --stats | tee target/lint_stats.txt
# The analyzer must stay interactive: whole-workspace call graph plus
# all families in under 5 s wall.
lint_wall_ms=$(awk '/^stats wall_ms /{print $3}' target/lint_stats.txt)
test -n "$lint_wall_ms"
test "$lint_wall_ms" -lt 5000 || {
    echo "ci: lint took ${lint_wall_ms} ms (budget 5000 ms)" >&2
    exit 1
}
# Mutation checks: every oracle test named in scripts/mutants.tsv must
# still catch its mutant, on an export of HEAD outside the repo (about
# 30 s on a 2-vCPU guest).
scripts/mutants.sh
