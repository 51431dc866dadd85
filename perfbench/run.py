#!/usr/bin/env python3
"""Repo benchmark entry point.

    python3 perfbench/run.py --workload fanout64 --seed 1 --seconds 10 --trace 0

Builds perfbench/ (and through it the twiddc library) from source into
$CARGO_TARGET_DIR (default .bench_build) on first use, then runs one
measured window of the named workload. With --trace 0 the result's metrics
are the end-to-end metrics; set-up time is the median of seven cold set-ups,
each in a fresh process. With --trace 1 they are the per-layer metrics, and
the traced half's spans are written under <build dir>/spans/.

The last line of stdout is the result object; build output goes to stderr.
Exits non-zero without a result when the build or the run fails, or when
an environment variable would change the program being measured.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fanout64", "mixed_arch")
REFUSED_ENV = ("TWIDDC_TRACE", "TWIDDC_FIR_LOWERING", "TWIDDC_WORKERS")
SETUP_SAMPLES = 7
RUN_TIMEOUT_S = 170


def build(build_dir):
    def step(cmd):
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))

    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        step(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    step(["cmake", "--build", build_dir, "-j4", "--target", "perfbench_ddc"])
    return os.path.join(build_dir, "perfbench_ddc")


def run(cmd):
    """Runs the driver; returns (stdout lines, last line as JSON)."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out: " + " ".join(cmd))
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        sys.exit("perfbench: run failed (exit %d): %s" % (done.returncode, " ".join(cmd)))
    return lines, json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    refused = [v for v in REFUSED_ENV if v in os.environ]
    if refused:
        sys.exit("perfbench: refusing to run with %s set" % ", ".join(refused))

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    driver = build(build_dir)
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    if args.trace:
        lines, result = run([driver] + common + [
            "--seconds", str(args.seconds), "--trace", "1",
            "--spans-dir", os.path.join(build_dir, "spans")])
    else:
        setups = [run([driver, "--setup-only"] + common)[1]["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        lines, result = run([driver] + common + ["--seconds", str(args.seconds),
                                                 "--trace", "0"])
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        lines.insert(-1, "setup_s samples (cold, one process each): " +
                     ", ".join("%.6f" % s for s in setups))
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
