#!/usr/bin/env python3
"""Builds and runs the LCRS end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload lenet_mixed --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload, both runs
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (the library sources plus
the harness) into .bench_build/. Every run prints the host, a table of
its metrics and, as its last line, one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics of BENCHMARK.json, --trace 1 its per-layer metrics; a per-layer
metric of a layer the workload never runs reads 0. See
perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "lcrs_bench"


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("the LCRS sources (src/) are missing next to perfbench/")
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target", "lcrs_bench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, env=env, timeout=840).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"], [w["name"] for w in spec["workloads"]]


def run_one(workload, seed, seconds, trace):
    declared, _ = declared_metrics(trace)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=seconds + 150)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("host "):
        fail("lcrs_bench exited with %d" % proc.returncode)
    host = json.loads(lines[-2][len("host "):])
    raw = json.loads(lines[-1])
    measured = raw["metrics"]
    names = [m["name"] for m in declared]
    extra = sorted(set(measured) - set(names))
    if extra:
        fail("metrics missing from BENCHMARK.json: " + ", ".join(extra))
    metrics = {}
    for m in declared:
        if m["name"] in measured:
            metrics[m["name"]] = measured[m["name"]]
        elif trace:
            metrics[m["name"]] = {"value": 0.0, "unit": m["unit"]}
        else:
            fail("end-to-end metric not measured: " + m["name"])
    result = {"correct": raw["correct"], "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}

    print("host: " + json.dumps(host))
    print("workload %s, seed %s, %s s, %s" % (workload, seed, seconds,
                                             "traced" if trace else "untraced"))
    for name, m in metrics.items():
        print("  %-34s %16.6g %s" % (name, m["value"], m["unit"]))
    print("  %-34s %16.6g frac (%d of %d attempted)" % (
        "failed_frac", raw["failed"] / raw["attempted"] if raw["attempted"] else 0.0,
        raw["failed"], raw["attempted"]))
    if not raw["correct"]:
        print("  INCORRECT: " + raw.get("why", "?"))
    print(json.dumps(result), flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    build()
    if args.self_test:
        sys.exit(subprocess.run([str(BINARY), "--self-test"], timeout=300).returncode)
    if not args.workload:
        parser.error("--workload is required")
    if args.workload == "all":
        for name in declared_metrics(False)[1]:
            for trace in (False, True):
                run_one(name, args.seed, args.seconds, trace)
    else:
        run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    main()
