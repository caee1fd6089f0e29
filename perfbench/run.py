#!/usr/bin/env python3
"""Builds and runs the layered benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME [--seed N] --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] --seconds S [--trace 0|1]
    python3 perfbench/run.py --test

The first form configures and builds perfbench/ (the repository's libraries,
rvpredictd, and the perfbench program) under .bench_build/perfbench at the
root of the checkout, then runs one workload, on its default seed when
--seed is not given. The program's output is passed
through; its last line is the JSON result. The second form runs every
workload BENCHMARK.json declares, one after another. The third builds and
runs the benchmark's own tests, and checks that the metrics the program
prints are exactly the ones BENCHMARK.json declares.

Build output goes to stderr. Exit code 0 after a completed run; 1 when the
build fails or the program fails to produce a result.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: error: %s" % msg, file=sys.stderr)
    sys.exit(1)


def build(targets):
    """Configures (once) and builds; cmake's output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(ROOT, BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build step failed: %s" % " ".join(cmd))


def run_group(cmd, timeout, capture):
    """Runs cmd in its own process group. Whatever happens to cmd, every
    process left in the group (an rvpredictd it spawned) is killed and
    waited for before returning. Returns (returncode, stdout, stderr);
    returncode is None on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True, text=True,
                            stdout=subprocess.PIPE if capture else None,
                            stderr=subprocess.PIPE if capture else None)
    try:
        out, err = proc.communicate(timeout=timeout)
        rc = proc.returncode
    except subprocess.TimeoutExpired:
        out, err, rc = "", "", None
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    # Orphans of the group are not our children; poll until none is left.
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            break
        time.sleep(0.05)
    return rc, out or "", err or ""


def run_perfbench(args, workdir):
    """Runs perfbench; echoes its output; returns the parsed result line."""
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--daemon", os.path.join(BUILD, "tools", "rvpredictd"),
           "--workdir", workdir,
           "--spans", os.path.join(BUILD, "spans-%s.jsonl" % args.workload)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    rc, out, err = run_group(cmd, RUN_TIMEOUT_S, capture=True)
    sys.stderr.write(err)
    if rc is None:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = out.rstrip("\n").split("\n")
    if rc != 0:
        sys.stderr.write(out)
        fail("perfbench exited %d" % rc)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(out)
        fail("perfbench printed no result line")
    return lines, result


def run(args):
    build(["perfbench", "rvpredictd"])
    # A relative, per-process directory keeps the unix socket path short.
    workdir = os.path.join(BUILD, "run-%d" % os.getpid())
    os.makedirs(os.path.join(ROOT, workdir), exist_ok=True)
    try:
        lines, _ = run_perfbench(args, workdir)
    finally:
        shutil.rmtree(os.path.join(ROOT, workdir), ignore_errors=True)
    print("\n".join(lines))


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_declared_metrics():
    """The program's metric names and units equal BENCHMARK.json's."""
    problems = 0
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        args = argparse.Namespace(workload="race-highcop", seed=1, seconds=0,
                                  trace=trace)
        workdir = os.path.join(BUILD, "run-test")
        os.makedirs(os.path.join(ROOT, workdir), exist_ok=True)
        _, result = run_perfbench(args, workdir)
        shutil.rmtree(os.path.join(ROOT, workdir), ignore_errors=True)
        got = [(k, v["unit"]) for k, v in result["metrics"].items()]
        want = [(m["name"], m["unit"]) for m in declared()[key]]
        ok = got == want and result["correct"]
        print("%s --trace %d prints exactly BENCHMARK.json's %s metrics"
              % ("ok  " if ok else "FAIL", trace, key))
        problems += 0 if ok else 1
    return problems


def test():
    build(["perfbench", "perfbench_test", "rvpredictd"])
    workdir = os.path.join(BUILD, "run-test")
    os.makedirs(os.path.join(ROOT, workdir), exist_ok=True)
    rc, _, _ = run_group([os.path.join(BUILD, "perfbench_test"), "--daemon",
                          os.path.join(BUILD, "tools", "rvpredictd"),
                          "--workdir", workdir], RUN_TIMEOUT_S, capture=False)
    shutil.rmtree(os.path.join(ROOT, workdir), ignore_errors=True)
    problems = check_declared_metrics()
    sys.exit(0 if rc == 0 and problems == 0 else 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every declared workload in turn")
    ap.add_argument("--test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()
    if args.test:
        test()
    elif args.seconds is None:
        ap.error("--seconds is required")
    elif args.all:
        for workload in declared()["workloads"]:
            args.workload = workload["name"]
            run(args)
    elif args.workload is None:
        ap.error("--workload or --all is required")
    else:
        run(args)


if __name__ == "__main__":
    main()
