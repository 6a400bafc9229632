#!/usr/bin/env bash
# The repo's tier-1 verification: build, test, lint. Run from the repo
# root. Works fully offline — all dependencies are in-repo.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
# Every suite runs once: the workspace run includes the root package's
# suites, among them three CLI end-to-end tests on the real binary:
# - trace_jsonl: the trace verb runs, its JSONL parses, the taxonomy
#   holds, and the stdout content-rate sketch matches the tick events;
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
# Report determinism: the paper's figures, Table 1 and the telemetry
# tables on stdout carry no host timing, so they must be byte-identical
# across worker counts (timing goes to stderr).
cargo run --release -q --bin ccdem -- report --duration 3 --jobs 1 > target/report_j1.txt
cargo run --release -q --bin ccdem -- report --duration 3 --jobs 4 > target/report_j4.txt
cmp target/report_j1.txt target/report_j4.txt
# Workspace static analysis (hard gate): determinism, panic-policy,
# alloc-hot-path, arith-cast, atomics-ordering and obs-taxonomy
# invariants — see DESIGN.md §10. `--stats` prints machine-parseable
# lines we gate on below.
cargo run --release -q --bin ccdem -- lint --json --stats | tee target/lint_stats.txt
# The analyzer must stay interactive: whole-workspace call graph plus
# all families in under 5 s wall.
lint_wall_ms=$(awk '/^stats wall_ms /{print $3}' target/lint_stats.txt)
test -n "$lint_wall_ms"
test "$lint_wall_ms" -lt 5000 || {
    echo "ci: lint took ${lint_wall_ms} ms (budget 5000 ms)" >&2
    exit 1
}
# The lint.allow ratchet only turns one way: the committed budget total
# must never grow relative to the baseline at HEAD.
lint_budget=$(awk '/^stats baseline_total /{print $3}' target/lint_stats.txt)
head_budget=$(git show HEAD:lint.allow 2>/dev/null \
    | awk '!/^#/ && NF == 3 {sum += $3} END {print sum + 0}')
if [ -n "$lint_budget" ] && [ "$lint_budget" -gt "$head_budget" ] \
    && [ "$head_budget" -gt 0 ]; then
    echo "ci: lint.allow budget grew ${head_budget} -> ${lint_budget}" >&2
    exit 1
fi
# Mutation checks: every oracle test named in scripts/mutants.tsv must
# still catch its mutant, on an export of HEAD outside the repo (about
# 30 s on a 2-vCPU guest).
scripts/mutants.sh
cargo clippy --workspace --all-targets -- -D warnings
# Formatting gate: every workspace crate matches rustfmt's output.
cargo fmt --all -- --check
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q
