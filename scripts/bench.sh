#!/usr/bin/env bash
# Regenerates BENCH_PR8.json — the tracked performance report for the
# fleet-scheduler generation (tile-signature metering engine, the
# decision-tick latency budget, and the fleet dispatch throughput) — or
# compares two existing reports. Run from the repo root.
#
#   scripts/bench.sh           full run: 200 timed frames per case, the
#                              30 s end-to-end sweep wall clock, a 30 s
#                              profiled decision-tick measurement, and
#                              the 32 768-device fleet throughput (median
#                              of five timed runs); checked against the
#                              committed BENCH_PR7.json baseline by the
#                              regression gate before exiting
#   scripts/bench.sh --quick   CI smoke: 10 frames, no sweep, short tick
#                              scenario, 256-device fleet; the exact
#                              points-read columns are identical, only
#                              the timings get noisier (no baseline
#                              check — quick timings are too coarse)
#   scripts/bench.sh --compare A.json B.json
#                              print the per-(budget, case) delta table
#                              — plus decision-tick p50/p99 deltas and
#                              the fleet devices/sec table when both
#                              reports embed them — between two reports
#                              (A = baseline, B = new) without
#                              measuring anything
#
# Other arguments are passed through to `ccdem bench` (e.g.
# `--out somewhere-else.json`, `--iterations 500`).
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--compare" ]]; then
    if [[ $# -ne 3 ]]; then
        echo "usage: scripts/bench.sh --compare <baseline.json> <new.json>" >&2
        exit 1
    fi
    cargo build --release -q
    cargo run --release -q --bin ccdem -- bench --compare "$3" --baseline "$2"
    exit 0
fi

out=BENCH_PR8.json
baseline=BENCH_PR7.json
cargo build --release -q
cargo run --release -q --bin ccdem -- bench --out "$out" "$@"
if [[ " $* " == *" --quick "* ]]; then
    cargo run --release -q --bin ccdem -- bench --check "$out"
else
    cargo run --release -q --bin ccdem -- bench --check "$out" --baseline "$baseline"
fi
