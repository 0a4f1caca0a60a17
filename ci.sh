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
# Includes the CLI metrics-key and wide-collection checks
# (crates/cli/tests/cli.rs).
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

echo "== serve smoke (daemon endpoints, coalescing, 429, SIGTERM drain) =="
# Start the daemon on an ephemeral port, hit all four endpoints, check
# that two concurrent identical predicts coalesce onto one cold pipeline
# run with byte-identical predictions equal to the committed golden,
# force a 429 with a one-worker/one-slot instance, then shut both down
# with SIGTERM and require a clean exit.
target/release/xtrace serve --addr 127.0.0.1:0 --workers 2 \
    --store "$tmp/serve-store" >"$tmp/serve.out" 2>"$tmp/serve.err" &
serve_pid=$!
target/release/xtrace serve --addr 127.0.0.1:0 --workers 1 --max-queue 1 \
    --store "$tmp/serve-tiny-store" >"$tmp/serve-tiny.out" 2>/dev/null &
serve_tiny_pid=$!
trap 'kill "$serve_pid" "$serve_tiny_pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT
for _ in $(seq 100); do
    grep -q '^listening on ' "$tmp/serve.out" 2>/dev/null \
        && grep -q '^listening on ' "$tmp/serve-tiny.out" 2>/dev/null && break
    sleep 0.1
done
python3 - "$tmp/serve.out" "$tmp/serve-tiny.out" <<'PY'
import http.client, json, sys, threading
def addr(path):
    with open(path) as fh:
        for line in fh:
            if line.startswith("listening on "):
                host, port = line.split()[-1].rsplit(":", 1)
                return host, int(port)
    sys.exit(f"{path}: no 'listening on' line")
BODY = json.dumps({"app": "specfem3d", "machine": "cray-xt5",
                   "training": [6, 24, 96], "target": 384, "scale": "tiny",
                   "fast_tracer": True, "validate": False})
def request(hostport, method, path, body=None):
    conn = http.client.HTTPConnection(*hostport, timeout=300)
    conn.request(method, path, body=body,
                 headers={"Content-Type": "application/json"} if body else {})
    resp = conn.getresponse()
    text = resp.read().decode()
    status, headers = resp.status, dict(resp.getheaders())
    conn.close()
    return status, headers, text

main = addr(sys.argv[1])
status, _, body = request(main, "GET", "/v1/healthz")
assert (status, body) == (200, '{"api_version":1,"status":"ok"}'), (status, body)

# Two concurrent identical predicts: one cold pipeline, same bits.
results = [None, None]
def predict(i):
    results[i] = request(main, "POST", "/v1/predict", BODY)
threads = [threading.Thread(target=predict, args=(i,)) for i in range(2)]
for t in threads: t.start()
for t in threads: t.join()
responses = []
for status, _, text in results:
    assert status == 200, (status, text[:200])
    responses.append(json.loads(text))
assert sum(r["coalesced"] for r in responses) == 1, \
    f"expected exactly one coalesced follower: {[r['coalesced'] for r in responses]}"
preds = [json.dumps(r["prediction"], sort_keys=True) for r in responses]
assert preds[0] == preds[1], "concurrent predictions diverged"
golden = json.load(open("tests/golden/specfem_tiny_prediction.json"))
assert preds[0] == json.dumps(golden, sort_keys=True), \
    "served prediction diverged from tests/golden/specfem_tiny_prediction.json"

status, _, text = request(main, "POST", "/v1/sweep", json.dumps(
    {"app": "specfem3d", "machine": "cray-xt5", "training": [6, 24, 96],
     "target": 384, "targets": [192, 384], "scale": "tiny",
     "fast_tracer": True, "validate": False}))
assert status == 200, (status, text[:200])
sweep = json.loads(text)
assert [r["target"] for r in sweep["rows"]] == [192, 384]

status, _, text = request(main, "GET", "/v1/metrics")
snap = json.loads(text)
assert snap["counters"]["serve.accepted"] >= 5, snap["counters"].get("serve.accepted")
assert "serve.requests.predict" in snap["counters"]

# 429 under a full queue: occupy the one-worker instance with a cold
# request, then burst — the queue holds one, the rest must bounce.
tiny = addr(sys.argv[2])
occupier = threading.Thread(target=lambda: request(tiny, "POST", "/v1/predict", BODY))
occupier.start()
import time; time.sleep(0.5)
codes = [None] * 6
def probe(i):
    codes[i] = request(tiny, "POST", "/v1/predict", BODY)[0]
threads = [threading.Thread(target=probe, args=(i,)) for i in range(len(codes))]
for t in threads: t.start()
for t in threads: t.join()
occupier.join()
assert 429 in codes, f"no 429 from the saturated instance: {codes}"
assert all(c in (200, 429) for c in codes), codes
print(f"serve smoke: golden prediction served twice (one coalesced), "
      f"sweep + metrics ok, burst codes {sorted(codes)}")
PY
kill -TERM "$serve_pid" "$serve_tiny_pid"
wait "$serve_pid"
wait "$serve_tiny_pid"
grep -q 'drained in-flight work' "$tmp/serve.err" \
    || { echo "serve daemon did not report a graceful drain" >&2; exit 1; }
echo "serve smoke: both daemons drained and exited 0 on SIGTERM"

echo "== ci.sh: all green =="
