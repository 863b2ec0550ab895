#!/usr/bin/env python3
"""End-to-end RFDump benchmark: build, run one workload, print its metrics.

Usage (from the repository root):

    python3 rfbench/run.py --workload paper-mix --seed 1 --seconds 10 --trace 0
    python3 rfbench/run.py --smoke     # every workload, tiny inputs, checks

The program is built from this checkout's sources into $CARGO_TARGET_DIR
(default .bench_build) with CMake; the first run compiles it. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports every end-to-end metric
of BENCHMARK.json, --trace 1 every per-layer metric. A run whose
correctness gate fails exits non-zero and prints no result.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "rfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "rfbench")


def git_describe():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(
            ["git", "-C", ROOT, "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_binary(binary, args):
    """Runs rfbench; returns (exit code, stdout lines)."""
    env = dict(os.environ, RFBENCH_GIT_DESCRIBE=git_describe())
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, env=env)
    return proc.returncode, proc.stdout.splitlines()


def check_result(line, expected):
    """Validates one result line against the expected {name: unit} map;
    returns a list of problems."""
    problems = []
    try:
        res = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(res)}")
    if res.get("correct") is not True:
        problems.append("correct is not true")
    if not isinstance(res.get("attempted"), int) or res["attempted"] < 1:
        problems.append("attempted < 1")
    if not isinstance(res.get("failed"), int) or res["failed"] < 0:
        problems.append("failed is not a count")
    metrics = res.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append("metric names differ: missing "
                        f"{sorted(set(expected) - set(metrics))}, extra "
                        f"{sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            problems.append(f"{name}: unit {m.get('unit')!r}, want {unit!r}")
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append(f"{name}: value {v!r} is not a finite number")
    return problems


def smoke(binary, seed):
    """Every workload at tiny size, untraced and traced: every named metric
    must appear with its unit, every gate must pass, and the same seed must
    give the same input digest in both runs."""
    spec = load_spec()
    modes = {"0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
             "1": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = 0
    for wl in spec["workloads"]:
        digests = set()
        for trace, expected in modes.items():
            code, lines = run_binary(binary, [
                "--workload", wl["name"], "--seed", str(seed),
                "--seconds", "1", "--trace", trace, "--smoke"])
            problems = [f"exit code {code}"] if code != 0 else []
            if len(lines) < 2:
                problems.append("no provenance + result lines")
            else:
                problems += check_result(lines[-1], expected)
                digests.add(json.loads(lines[-2])["provenance"]["input_digest"])
            if len(digests) > 1:
                problems.append("same seed gave different input digests")
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"smoke {wl['name']:16s} trace {trace}: {status}", flush=True)
            failures += bool(problems)
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at tiny size and check outputs")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload is required (or --smoke)")

    binary = build()
    if binary is None:
        return 1
    if args.smoke:
        return 1 if smoke(binary, args.seed) else 0

    code, lines = run_binary(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", args.trace])
    if code != 0 or not lines:
        log(f"rfbench exited with {code}; no result")
        return code or 1
    spec = load_spec()
    key = "per_layer" if args.trace == "1" else "end_to_end"
    problems = check_result(lines[-1], {m["name"]: m["unit"] for m in spec[key]})
    if problems:
        log("result does not match BENCHMARK.json: " + "; ".join(problems))
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
