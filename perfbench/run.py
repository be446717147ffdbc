#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload tao_read --seed 1 --seconds 20 --trace 0

Builds perfbench/main.exe from the source tree around this directory
(dune, release profile, build directory .bench_build), runs the helper
self-tests, then runs one workload. Every metric line the benchmark prints
is passed through; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics, where metrics holds
exactly the end_to_end metrics of BENCHMARK.json (--trace 0) or its
per_layer metrics (--trace 1). The full result, with every metric, its
sample counts and the provenance stamp (seed, config digest, counter
fingerprint, git commit, source digest), is written to
perfbench/out/<workload>-seed<N>-trace<T>.json.

Exit codes: 0 success; 1 a correctness or determinism check failed, or
the result lacks a declared metric; 2 the source tree or toolchain is
missing or the build failed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = ".bench_build"
OUT_DIR = os.path.join(HERE, "out")
RUN_LIMIT_S = 160.0
BUILD_LIMIT_S = 850.0


def die(code, msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """sha256 over the program's sources, for checkouts without git."""
    h = hashlib.sha256()
    for top in ("dune-project", "dune", "lib", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f)
            for d, _, fs in os.walk(path)
            for f in fs
            if f.endswith((".ml", ".mli")) or f == "dune")
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def build():
    # no shared dune cache: the build reads and writes only this checkout
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
           "--cache=disabled", "./perfbench/main.exe", "./perfbench/test_helpers.exe"]
    try:
        res = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                             timeout=BUILD_LIMIT_S)
    except FileNotFoundError:
        die(2, "dune not found on PATH")
    except subprocess.TimeoutExpired:
        die(2, "build timed out")
    if res.returncode != 0:
        die(2, "build failed")
    return os.path.join(ROOT, BUILD_DIR, "default", "perfbench")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    t0 = time.monotonic()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
    except (OSError, ValueError) as e:
        die(2, f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        die(2, f"unknown workload {args.workload!r}")
    for need in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die(2, f"source tree incomplete: {need} missing next to perfbench/")

    exe_dir = build()
    tests = subprocess.run([os.path.join(exe_dir, "test_helpers.exe")], capture_output=True,
                           text=True, timeout=60)
    if tests.returncode != 0:
        sys.stderr.write(tests.stdout + tests.stderr)
        die(1, "helper self-tests failed")

    try:
        res = subprocess.run(
            [os.path.join(exe_dir, "main.exe"), "--workload", args.workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        die(1, "benchmark run timed out")
    sys.stderr.write(res.stderr)
    lines = res.stdout.rstrip("\n").split("\n")
    try:
        full = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(res.stdout)
        die(1, f"benchmark exited {res.returncode} without a result")
    for line in lines[:-1]:
        print(line)

    declared = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    metrics, missing = {}, []
    for m in declared:
        got = full["metrics"].get(m["name"])
        if got is None or got["value"] is None or got["unit"] != m["unit"]:
            missing.append(m["name"])
        else:
            metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}

    full["git_commit"] = git_commit()
    full["source_digest"] = source_digest()
    full["seconds"] = args.seconds
    full["wall_s"] = round(time.monotonic() - t0, 3)
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w") as fh:
        json.dump(full, fh, indent=1, sort_keys=True)
        fh.write("\n")

    correct = bool(full["correct"]) and res.returncode == 0 and not missing
    if missing:
        print(f"perfbench: declared metrics missing from the result: {', '.join(missing)}",
              file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": full["attempted"],
                      "failed": full["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
