#!/usr/bin/env python3
"""Build and run the outside-in campaign benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 45 --trace 0

It builds the Go package next to this script (a module of its own that
imports the repository through a replace directive), with every go
command cache kept under the build directory ($CARGO_TARGET_DIR, or
.bench_build). With --trace 0 it first measures set-up time: it spawns
the benchmark SETUP_SPAWNS times in set-up mode and reports the median
time from spawn to the first round as setup_s. It then runs the
workload and prints the benchmark's lines; the last line is one JSON
object with the keys correct, attempted, failed and metrics. With
--trace 1 the traced pass's spans are written to
<build dir>/spans-<workload>-<seed>.jsonl.

The exit status is 0 for a correct run and nonzero when the build
fails, the benchmark fails, or the campaign's output is wrong.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUP_SPAWNS = 7
SETUP_TIMEOUT_S = 30
RUN_TIMEOUT_S = 165


def build_env(build_dir):
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomodcache"),
                     ("GOPATH", "gopath"), ("GOTMPDIR", "tmp")):
        path = os.path.join(build_dir, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOENV="off", GOWORK="off", GOFLAGS="")
    return env


def build(build_dir):
    binary = os.path.join(build_dir, "perfbench")
    proc = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE,
                          env=build_env(build_dir), stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: build failed")
    return binary


def last_json(text, what):
    lines = text.strip().splitlines()
    if not lines:
        sys.exit("perfbench: %s printed nothing" % what)
    try:
        return lines[:-1], json.loads(lines[-1])
    except ValueError:
        sys.exit("perfbench: %s did not end with a JSON line: %r" % (what, lines[-1]))


def run_child(argv, timeout, what):
    try:
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        sys.exit("perfbench: %s exceeded %ds" % (what, timeout))
    return proc


def measure_setup(binary, args):
    samples = []
    for _ in range(SETUP_SPAWNS):
        spawn_ns = time.time_ns()
        proc = run_child([binary, "-workload", args.workload, "-seed", str(args.seed),
                          "-setup-spawn-ns", str(spawn_ns)], SETUP_TIMEOUT_S, "set-up run")
        if proc.returncode != 0:
            sys.exit("perfbench: set-up run exited %d" % proc.returncode)
        _, obj = last_json(proc.stdout, "set-up run")
        samples.append(float(obj["setup_s"]))
    return samples


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["campaign", "shrink"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)

    setup = None
    if args.trace == 0:
        setup = measure_setup(binary, args)

    argv = [binary, "-workload", args.workload, "-seed", str(args.seed),
            "-seconds", str(args.seconds), "-trace", str(args.trace)]
    if args.trace == 1:
        argv += ["-spans", os.path.join(build_dir, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    proc = run_child(argv, RUN_TIMEOUT_S, "benchmark run")
    lines, rep = last_json(proc.stdout, "benchmark run")
    for line in lines:
        print(line)
    if setup is not None:
        print("# setup_s = %.6g s  (median of %d spawns: %s)"
              % (statistics.median(setup), len(setup), " ".join("%.4f" % s for s in setup)))
        rep["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    print(json.dumps(rep, sort_keys=True))
    sys.stdout.flush()
    if proc.returncode != 0 or not rep.get("correct"):
        sys.exit(1)


if __name__ == "__main__":
    main()
