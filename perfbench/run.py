#!/usr/bin/env python3
"""Runs one workload of the tsad benchmark and prints its result.

Run from the root of a checkout:

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 40 --trace 0

The first run configures and builds perfbench/ (the library from src/
plus the benchmark binary, Release) into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench. The binary measures the workload, checks its
outputs and prints one JSON record; this script keeps the full record in
.bench_out/ and prints a readable report, then the result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. A per-layer metric of a layer the workload
never calls is reported as 0. See perfbench/README.md for the workloads,
the metrics and which layer metric should move which end-to-end metric.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no tsad sources (src/CMakeLists.txt) next to perfbench/")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "tsad_perfbench")


def source_sha():
    """The git commit if this is a git checkout, else a hash of src/."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return "git:" + head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=0,
                        help="pool threads; default nproc (serve_fleet: 1)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, no golden checks (for tests)")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    binary = build()

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed % 2**64),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--threads", str(args.threads),
               "--golden", os.path.join(BENCH_DIR, "golden.txt"),
               "--out-dir", out_dir, "--source-sha", source_sha()]
    if args.smoke:
        command.append("--smoke")
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark binary exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("benchmark binary exited with code %d" % done.returncode)
    record = json.loads(lines[-1])
    name = "%s-seed%d-trace%d%s.json" % (args.workload, args.seed, args.trace,
                                         "-smoke" if args.smoke else "")
    with open(os.path.join(out_dir, name), "w") as f:
        json.dump(record, f, indent=1)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = record["metrics"]
    metrics, unused = {}, []
    for m in wanted:
        got = measured.get(m["name"])
        if got is None:
            if not args.trace:
                fail("benchmark binary did not report " + m["name"])
            unused.append(m["name"])
            got = {"value": 0.0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail("%s: unit %s, BENCHMARK.json says %s"
                 % (m["name"], got["unit"], m["unit"]))
        if not isinstance(got["value"], (int, float)) or not math.isfinite(got["value"]):
            fail("%s is not a finite number" % m["name"])
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    print("# workload %s, seed %d, trace %d%s" % (
        args.workload, args.seed, args.trace, ", smoke" if args.smoke else ""))
    print("# stamp " + json.dumps(record["stamp"]))
    for key, value in record["notes"].items():
        print("# %s: %s" % (key, value))
    print("# failed_frac %.6g = %d failed / %d attempted; base: %s" % (
        record["failed_frac"], record["failed"], record["attempted"],
        record["failed_base"]))
    for problem in record["problems"]:
        print("# INCORRECT: " + problem)
    for key, m in metrics.items():
        print("# %-40s %.6g %s" % (key, m["value"], m["unit"]))
    if unused:
        print("# layers not called by this workload (reported as 0): "
              + " ".join(unused))
    extra = sorted(set(measured) - set(metrics))
    if extra:
        print("# measured but not in BENCHMARK.json: " + " ".join(extra))
    print(json.dumps({"correct": bool(record["correct"]),
                      "attempted": int(record["attempted"]),
                      "failed": int(record["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
