#!/usr/bin/env bash
# Local CI gate: build, tests, lints, and smoke runs of the
# performance-regression benches. Everything runs offline against the
# vendored dependency stubs.
set -euo pipefail
cd "$(dirname "$0")"

echo "== fmt =="
cargo fmt --check

echo "== build (release) =="
cargo build --workspace --release --offline

echo "== tests =="
# Includes the CLI metrics-key, wide-collection and serve SIGTERM-drain
# checks (crates/cli/tests/cli.rs).
cargo test -q --workspace --offline

echo "== doc-tests =="
cargo test -q --workspace --offline --doc

echo "== panic-free library gate =="
bash scripts/no_panic_gate.sh

echo "== API-surface gate =="
bash scripts/api_surface.sh --check

echo "== clippy (crates touched by the perf and refactor work) =="
cargo clippy --offline -p xtrace-ir -p xtrace-cache -p xtrace-tracer \
    -p xtrace-extrap -p xtrace-machine -p xtrace-psins -p xtrace-core \
    -p xtrace-bench -p xtrace-cli -p xtrace-spmd -p xtrace-apps \
    -p xtrace-obs -p xtrace-serve --all-targets -- -D warnings

echo "== bench smoke (quick configs) =="
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
XTRACE_BENCH_QUICK=1 cargo run -q --release --offline -p xtrace-bench \
    --bin bench_collect -- --threads 4 --out "$tmp/BENCH_collect.json"
XTRACE_BENCH_QUICK=1 cargo run -q --release --offline -p xtrace-bench \
    --bin bench_extrap -- --threads 4 --out "$tmp/BENCH_extrap.json"
# bench_convolve's quick mode asserts correctness, not wall-clock: all
# replay legs bit-identical, ConvolveCache warm hits, golden-pipeline
# prediction rel err exactly 0.
XTRACE_BENCH_QUICK=1 cargo run -q --release --offline -p xtrace-bench \
    --bin bench_convolve -- --threads 4 --out "$tmp/BENCH_convolve.json"
# bench_obs's quick mode asserts the prediction is bit-identical with and
# without a recorder attached (the <2% overhead gate runs in full mode).
XTRACE_BENCH_QUICK=1 cargo run -q --release --offline -p xtrace-bench \
    --bin bench_obs -- --out "$tmp/BENCH_obs.json"
# bench_sweep's quick mode asserts the sweep write counts (one prefix set
# + one tail per target) and lane/standalone bit-identity (the <10%
# marginal-target gate runs in full mode).
XTRACE_BENCH_QUICK=1 cargo run -q --release --offline -p xtrace-bench \
    --bin bench_sweep -- --out "$tmp/BENCH_sweep.json"
# bench_serve's quick mode asserts coalescing (one cold pipeline for two
# concurrent identical requests), bit-identical served predictions, and a
# live admission queue (the sustained-load numbers run in full mode).
XTRACE_BENCH_QUICK=1 cargo run -q --release --offline -p xtrace-bench \
    --bin bench_serve -- --out "$tmp/BENCH_serve.json"
for f in BENCH_collect.json BENCH_extrap.json BENCH_convolve.json \
    BENCH_obs.json BENCH_sweep.json BENCH_serve.json; do
    test -s "$tmp/$f" || { echo "missing bench report $f" >&2; exit 1; }
done

echo "== bench history verdict (robust z-score against the history) =="
# Gates the fresh quick-mode legs against the committed append-only
# history via the Rust-native anomaly detector (robust z-score over the
# post-changepoint regime; `xtrace bench-verdict`). The committed
# BENCH_history.jsonl itself is never mutated here (promote new results
# with `bench_history.py append`, a thin wrapper over the same binary).
# The noise floor is 1s: on the 1-core CI hosts, scheduler jitter on
# sub-second quick legs dwarfs any real signal, so only legs long
# enough to average the jitter out are hard-gated — shorter legs are
# still printed for eyeballing, and the full-mode runs promoted into
# the history carry the real regression signal.
target/release/xtrace bench-verdict "$tmp"/BENCH_*.json \
    --history BENCH_history.jsonl --min-seconds 1.0

echo "== concurrent-engine smoke (two sessions, one process, golden diff) =="
# Two pipeline sessions running concurrently in one process must each
# stay bit-identical to the single-session goldens (prediction and
# masked metrics) — scoped observability contexts, no counter bleed.
cargo run -q --release --offline --example concurrent_smoke

echo "== ci.sh: all green =="
