#!/usr/bin/env python3
"""Smoke test of the tsad benchmark: every workload at its smoke size.

Run from the root of the repository:

    python3 perfbench/tests/smoke_test.py

For each workload in BENCHMARK.json, untraced and traced, it runs
perfbench/run.py with --smoke (tiny inputs, a couple of seconds each) and
checks that the result line has exactly the contract's keys, that the
outputs were judged correct, and that every end-to-end or per-layer
metric prints as a finite number with the unit BENCHMARK.json names.
It also checks that each per-layer metric is measured by at least one
workload (so none is only ever the 0 of an unexercised layer), and that
the benchmark refuses to run, without printing a result, in a directory
that holds only BENCHMARK.json and perfbench/.
Exits non-zero on the first failure.
"""

import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)


def check(condition, message):
    if not condition:
        print("FAIL: " + message)
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    measured_layers = set()
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            done = run(["--workload", workload, "--seed", "1", "--seconds", "1",
                        "--trace", str(trace), "--smoke"])
            label = "%s --trace %d" % (workload, trace)
            check(done.returncode == 0, label + " exited %d: %s"
                  % (done.returncode, done.stderr[-2000:]))
            result = json.loads(done.stdout.strip().splitlines()[-1])
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                  label + ": result keys " + str(sorted(result)))
            check(result["correct"] is True, label + ": outputs judged incorrect")
            check(result["attempted"] >= 1, label + ": nothing attempted")
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            check(sorted(result["metrics"]) == sorted(m["name"] for m in wanted),
                  label + ": metric names differ from BENCHMARK.json")
            for m in wanted:
                got = result["metrics"][m["name"]]
                check(got["unit"] == m["unit"], label + ": unit of " + m["name"])
                check(isinstance(got["value"], (int, float))
                      and math.isfinite(got["value"]),
                      label + ": value of " + m["name"])
            if trace:
                record = os.path.join(ROOT, ".bench_out",
                                      "%s-seed1-trace1-smoke.json" % workload)
                with open(record) as f:
                    measured_layers |= set(json.load(f)["metrics"])
            print("ok   " + label)
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in measured_layers]
    check(not missing, "per-layer metrics no workload measures: " + " ".join(missing))
    print("ok   every per-layer metric is measured by some workload")

    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    done = run(["--workload", spec["workloads"][0]["name"], "--seed", "1",
                "--seconds", "1", "--trace", "0"], cwd=bare)
    check(done.returncode != 0, "bare directory: exit code 0")
    check('"metrics"' not in done.stdout, "bare directory: printed a result")
    shutil.rmtree(bare)
    print("ok   refuses to run without the sources")


if __name__ == "__main__":
    main()
