#!/usr/bin/env python3
"""Build and run the hpop benchmark (perfbench/).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run it from the root of a checkout. It builds the `hpop-perfbench`
binary in release mode into $CARGO_TARGET_DIR (default `.bench_build`),
runs one workload for about `--seconds` seconds, and prints:

  1. a host line: nproc, CPU model, rustc version, source revision, seed;
  2. the binary's detail line: every metric's median, quartiles and
     round count, and any output-check failures;
  3. last, the result object:
     {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
     with the end-to-end metrics of BENCHMARK.json (--trace 0) or its
     per-layer metrics (--trace 1).

It exits non-zero without a result when the build fails or the binary
fails or times out. The binary takes its metric names and units from
BENCHMARK.json; `cargo test --release --manifest-path perfbench/Cargo.toml`
checks that it prints them all.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# The binary must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def target_dir():
    return Path(os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build"))


def build(target):
    if not (ROOT / "crates").is_dir():
        fail(f"no crates/ next to {BENCH_DIR.name}/: run from a full checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH_DIR / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if done.returncode != 0:
        fail(f"build failed (exit {done.returncode})")
    return target / "release" / "hpop-perfbench"


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_revision():
    """The git revision, or, in a checkout that is not a git repository
    (an exported tree), a digest of the sources the binary is built from."""
    if (ROOT / ".git").exists():
        rev = command_output(["git", "rev-parse", "HEAD"])
        if rev:
            dirty = command_output(["git", "status", "--porcelain", "--untracked-files=no"])
            return rev + ("-dirty" if dirty else "")
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "vendor", BENCH_DIR.name):
        files += sorted(p for p in (ROOT / top).rglob("*")
                        if p.is_file() and p.suffix in (".rs", ".toml", ".lock", ".py"))
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return "tree-" + h.hexdigest()[:16]


def host_fingerprint():
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "rustc": command_output(["rustc", "--version"]),
        "revision": source_revision(),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="run the workload at a tiny size")
    args = ap.parse_args()

    target = target_dir()
    binary = build(target)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        spans = target / "perfbench-spans" / f"{args.workload}-seed{args.seed}.jsonl"
        cmd += ["--spans-out", str(spans)]
    started = time.monotonic()
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"{args.workload} exited with {done.returncode}")
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    if len(lines) < 2:
        fail("the binary printed no result")
    try:
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    except json.JSONDecodeError as e:
        fail(f"unparseable output: {e}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"the result line has keys {sorted(result)}")
    host = {"host": host_fingerprint(), "workload": args.workload, "seed": args.seed,
            "trace": args.trace, "wall_s": round(time.monotonic() - started, 3)}
    print(json.dumps(host))
    print(json.dumps(detail))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
