#!/usr/bin/env python3
"""Build the xtrace benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <paper-cold|serve-warm|sweep-extend> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
builds against the repository's crates by path, into $CARGO_TARGET_DIR
(default .bench_build). Build output goes to stderr; stdout carries only
the benchmark's report, whose last line is the JSON result. The exit code
is the benchmark's: 0 when every output checked out, non-zero otherwise.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
# A run measures for at most a minute plus set-up; anything longer is hung.
RUN_TIMEOUT_S = 170


def source_digest():
    """SHA-256 over the sources the benchmark builds from, standing in for
    the commit when the checkout is not a git repository."""
    digest = hashlib.sha256()
    files = [ROOT / "Cargo.lock", HERE / "Cargo.toml"]
    for tree in (ROOT / "crates", HERE / "src"):
        files += sorted(p for p in tree.rglob("*") if p.suffix in (".rs", ".toml"))
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    rev = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    return rev.stdout.strip() if rev.returncode == 0 else "unknown"


def main():
    target_dir = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target_dir.is_absolute():
        target_dir = ROOT / target_dir
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = target_dir / "release" / "xtrace-perfbench"
    args = sys.argv[1:] + ["--commit", commit(), "--source", source_digest()]
    try:
        return subprocess.run([str(exe)] + args, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
