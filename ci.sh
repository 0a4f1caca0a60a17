#!/usr/bin/env bash
# Local CI gate: build, tests, lints, the benchmark's own tests and brief
# correctness runs of its workloads. Everything runs offline against the
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

echo "== clippy (every workspace package, tests and examples included) =="
cargo clippy --offline -p xtrace -p xtrace-ir -p xtrace-cache -p xtrace-tracer \
    -p xtrace-extrap -p xtrace-machine -p xtrace-psins -p xtrace-core \
    -p xtrace-bench -p xtrace-cli -p xtrace-spmd -p xtrace-apps \
    -p xtrace-obs -p xtrace-serve --all-targets -- -D warnings

echo "== perfbench tests =="
cargo test -q --offline --manifest-path perfbench/Cargo.toml

echo "== perfbench correctness (brief runs of every workload) =="
# A correctness gate, not a timing one: each workload must exit 0 with
# every prediction bit-identical to its reference (`"correct": true`).
# Timing verdicts belong to promotion time
# (`xtrace bench-verdict <saved outputs> --append`), on a quiet host.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
for w in paper-cold serve-warm sweep-extend; do
    python3 perfbench/run.py --workload "$w" --seed 1 --seconds 2 --trace 0 \
        > "$tmp/$w.out"
    tail -n 1 "$tmp/$w.out" | grep -q '^{"correct": true,' \
        || { echo "perfbench $w: not correct" >&2; exit 1; }
done

echo "== ci.sh: all green =="
