#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The script

  1. builds perfbench/ (the library sources under src/ plus the benchmark
     binary) as a Release CMake tree under .bench_build/ (or under
     $CARGO_TARGET_DIR when set), reusing it on later runs;
  2. runs the benchmark binary for one workload, which sets up the workload,
     checks the program's outputs and measures for --seconds seconds;
  3. forwards the binary's human-readable report and prints, as the last
     stdout line, one JSON object
        {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
     holding exactly the end-to-end metrics BENCHMARK.json names (--trace 0)
     or its per-layer metrics (--trace 1). A per-layer metric of a layer the
     workload never calls reads 0.

--trace 1 also writes a Chrome trace to .bench_build/traces/. The script
exits non-zero without a result line when the sources are missing, the
build fails, or the benchmark binary fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Every run, the build included, must end well inside three minutes; the
# first run in a fresh checkout gets the longer build allowance.
RUN_LIMIT_S = 170.0
FIRST_BUILD_LIMIT_S = 880.0


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def revision():
    """The checkout's git revision, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown (not a git checkout)"
    with open(head) as f:
        ref = f.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(ref_file):
        with open(ref_file) as f:
            return f.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref[5:]:
                    return parts[0]
    return "unknown"


def run_quiet(cmd, timeout):
    """Runs a build step; its output is shown only when it fails."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-8000:])
        fail(f"build step failed: {' '.join(cmd)}", 1)


def build(build_dir, deadline):
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"], deadline - time.monotonic())
    run_quiet(["cmake", "--build", build_dir, "-j", jobs],
              deadline - time.monotonic())
    binary = os.path.join(build_dir, "perfbench")
    if not os.path.isfile(binary):
        fail("build produced no perfbench binary", 1)
    return binary


def main():
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found at the repository root")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload '{args.workload}'")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found: run from a full checkout")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    base = target if os.path.isabs(target) else os.path.join(ROOT, target)
    build_dir = os.path.join(base, "perfbench")
    first_build = not os.path.isfile(os.path.join(build_dir, "perfbench"))
    deadline = start + (FIRST_BUILD_LIMIT_S if first_build else RUN_LIMIT_S)
    binary = build(build_dir, deadline)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(base, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.trace.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=deadline - time.monotonic())
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out", 1)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail(f"benchmark binary exited with code {proc.returncode}", 1)
    measured = json.loads(lines[-1])

    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in spec[kind]:
        got = measured["metrics"].get(m["name"])
        if got is None:
            if kind == "end_to_end":
                fail(f"benchmark binary did not measure end-to-end metric {m['name']}", 1)
            got = {"value": 0, "unit": m["unit"]}  # layer not on this path
        if got["unit"] != m["unit"]:
            fail(f"unit of {m['name']}: binary says {got['unit']}, "
                 f"BENCHMARK.json says {m['unit']}", 1)
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    for line in lines[:-1]:
        print(line)
    print(f"   revision: {revision()}")
    print(f"   total wall (build + run): {time.monotonic() - start:.1f} s")
    print(json.dumps({"correct": measured["correct"],
                      "attempted": measured["attempted"],
                      "failed": measured["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
