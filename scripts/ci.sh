#!/usr/bin/env bash
# The repo's tier-1 verification: build, test, lint. Run from the repo
# root. Works fully offline — all dependencies are in-repo.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
cargo test -q --workspace
# The benchmark packages' own tests. They build apart from the
# workspace and drive the layers through public calls (buffer_mut,
# fill_rect, set_naive_compose, framebuffer().generation(), the meter
# counters), so breaking one of those calls fails here.
cargo test --release --manifest-path benchmark/e2e/Cargo.toml
cargo test --release --manifest-path benchmark/traced/Cargo.toml
# The trace CLI end-to-end: binary runs, JSONL parses, taxonomy holds.
cargo test -q --test trace_jsonl
# Profile smoke: the decision-path profiler end-to-end — binary runs,
# every JSONL line parses, exactly one self-time table prints.
cargo test -q --test profile_jsonl
# Bench smoke: the fast-path benchmark runs, its JSON parses, the
# redundant-frame pixel-read reduction holds, and the freshly measured
# decision-tick p99 fits the budget (ccdem bench --check fails on
# malformed or regressed output).
cargo run --release -q --bin ccdem -- bench --quick --out target/bench_smoke.json
cargo run --release -q --bin ccdem -- bench --check target/bench_smoke.json
# Fleet CLI end-to-end: worker-count byte identity, kill+resume byte
# identity, replay, and trace taxonomy through the real binary.
cargo test -q --test fleet_e2e
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
# Regression gates on the *committed* reports (deterministic: no fresh
# measurement involved): each report must validate on its own (the
# PR 7+ reports' decision-tick p99 must fit its budget) and must not
# regress redundant, small_damage or full_change against its
# predecessor.
cargo run --release -q --bin ccdem -- bench --check BENCH_PR5.json --baseline BENCH_PR3.json
cargo run --release -q --bin ccdem -- bench --check BENCH_PR6.json --baseline BENCH_PR5.json
cargo run --release -q --bin ccdem -- bench --check BENCH_PR7.json --baseline BENCH_PR6.json
cargo run --release -q --bin ccdem -- bench --check BENCH_PR8.json --baseline BENCH_PR7.json
# Compare-table smoke via the shell wrapper (exercises --compare, the
# decision-tick delta line, and the fleet devices/sec table).
scripts/bench.sh --compare BENCH_PR3.json BENCH_PR5.json
scripts/bench.sh --compare BENCH_PR6.json BENCH_PR7.json
scripts/bench.sh --compare BENCH_PR7.json BENCH_PR8.json
# Workspace static analysis (hard gate): determinism, panic-policy,
# alloc-hot-path, arith-cast, atomics-ordering, obs-taxonomy, and
# section-table invariants — see DESIGN.md §10. `--stats` prints
# machine-parseable lines we gate on below.
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
cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q
