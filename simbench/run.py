#!/usr/bin/env python3
"""Builds and runs the simulator benchmark (see simbench/README.md).

Usage, from the repository root:
  python3 simbench/run.py --workload pod_burst|pod_tiered|fleet_diurnal|all
                          [--seed N] [--seconds S] [--trace 0|1]
  python3 simbench/run.py --selftest

`--workload all` runs every workload in turn (at its default seed unless
--seed is given) and ends with a table of every metric and check status.

The first call builds the simulator library and the benchmark into
.bench_build/simbench and runs the benchmark's self-test once. Each run
prints progress lines and, as its last stdout line, one JSON object with
the keys correct, attempted, failed and metrics. A run's output
fingerprint is stored per workload and seed, and every later run of the
same workload and seed must reproduce it.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "simbench")
DEFAULT_SEEDS = {"pod_burst": 1, "pod_tiered": 41, "fleet_diurnal": 1}
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds (incrementally after the first call);
    returns False on any failure."""
    os.makedirs(BUILD, exist_ok=True)
    steps = [["cmake", "-S", HERE, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD, "-j", "4"]]
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=800)
        except (OSError, subprocess.TimeoutExpired) as e:
            log("simbench: build step failed: %s" % e)
            return False
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("simbench: build failed: %s" % " ".join(cmd))
            return False
    return True


def selftest():
    """Runs the self-test binary; True when every check passes."""
    try:
        proc = subprocess.run([os.path.join(BUILD, "simbench_selftest")],
                              cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log("simbench: self-test did not run: %s" % e)
        return False
    log(proc.stdout.rstrip())
    return proc.returncode == 0


def selftest_once():
    stamp = os.path.join(BUILD, "selftest.passed")
    if os.path.exists(stamp):
        return True
    if not selftest():
        return False
    with open(stamp, "w") as f:
        f.write("ok\n")
    return True


def check_fingerprint(workload, seed, fingerprint, store):
    """Compares against the stored fingerprint of (workload, seed), or
    stores this one when none is stored yet and `store` is set (the run
    passed its own checks). Returns an error string or None."""
    d = os.path.join(BUILD, "fingerprints")
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, "%s-seed%d.txt" % (workload, seed))
    if os.path.exists(path):
        with open(path) as f:
            first = f.read().strip()
        if first != fingerprint:
            return "fingerprint [%s] differs from the first run's [%s]" % (
                fingerprint, first)
        return None
    if store:
        with open(path, "w") as f:
            f.write(fingerprint + "\n")
    return None


def run(workload, seed, seconds, trace):
    """Runs one workload in its own process; returns the result dict or
    None when the benchmark could not run."""
    cmd = [os.path.join(BUILD, "simbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds),
           "--trace", str(trace),
           "--scenario", os.path.join(HERE, "fleet_diurnal.json")]
    if trace:
        spans_dir = os.path.join(BUILD, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, "%s-seed%d.json" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log("simbench: run failed: %s" % e)
        return None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        log(proc.stdout)
        log("simbench: benchmark exited with %d" % proc.returncode)
        return None
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    mismatch = check_fingerprint(workload, seed, result["fingerprint"],
                                 store=result["correct"])
    if mismatch:
        log("CHECK FAILED " + mismatch)
        result["correct"] = False
    if not result["correct"]:
        result["failed"] = result["attempted"]
    print("fingerprint: " + result["fingerprint"])
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(DEFAULT_SEEDS) + ["all"])
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's self-test only")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if args.seed is not None and args.seed < 0:
        ap.error("--seed must be a non-negative integer")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if not build():
        return 1
    if args.selftest:
        return 0 if selftest() else 1
    if not selftest_once():
        log("simbench: self-test failed; not running the benchmark")
        return 1

    workloads = (sorted(DEFAULT_SEEDS) if args.workload == "all"
                 else [args.workload])
    results = []
    for w in workloads:
        seed = DEFAULT_SEEDS[w] if args.seed is None else args.seed
        result = run(w, seed, args.seconds, args.trace)
        if result is None:
            return 1
        results.append((w, seed, result))

    if args.workload == "all":
        print("%-14s %5s %-28s %18s %-6s %s" % (
            "workload", "seed", "metric", "value", "unit", "check"))
        for w, seed, r in results:
            for name, m in sorted(r["metrics"].items()):
                print("%-14s %5d %-28s %18.6g %-6s %s" % (
                    w, seed, name, m["value"], m["unit"],
                    "ok" if r["correct"] else "FAILED"))
        return 0 if all(r["correct"] for _, _, r in results) else 1

    r = results[0][2]
    print(json.dumps({"correct": r["correct"], "attempted": r["attempted"],
                      "failed": r["failed"], "metrics": r["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
