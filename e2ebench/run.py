#!/usr/bin/env python3
"""End-to-end PI2M benchmark: builds e2ebench and runs one workload.

    python3 e2ebench/run.py --workload abdominal128_delaunay --seed 1 \
        --seconds 20 --trace 0

Run from the root of a PI2M source tree. The e2ebench package is built with
CMake (RelWithDebInfo) under .bench_build/ (or $CARGO_TARGET_DIR when set,
relative to the tree root), and everything the benchmark writes stays there.
The report goes to stdout; its last line is the result object
{"correct", "attempted", "failed", "metrics"}. Build output goes to stderr.
`--selftest` builds and runs the benchmark's own self-tests instead.
"""

import argparse
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "e2ebench")
WORKLOADS = ("abdominal128_delaunay", "ellipsoid96_hybrid", "serve_mixed")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return target


def build(targets):
    """Configures and builds `targets`; returns the build directory."""
    build_dir = os.path.join(build_root(), "e2ebench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    compile_ = ["cmake", "--build", build_dir, "-j", jobs, "--target"]
    compile_ += targets
    for cmd in (configure, compile_):
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            cwd=ROOT).returncode
        if rc != 0:
            print("e2ebench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            sys.exit(rc or 1)
    return build_dir


def check_result_line(line):
    """Validates the benchmark's result object; returns an error or None."""
    try:
        result = json.loads(line)
    except ValueError as e:
        return "last line is not JSON: %s" % e
    if set(result) != RESULT_KEYS:
        return "result keys %s != %s" % (sorted(result), sorted(RESULT_KEYS))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        return "failed must be a whole number >= 0"
    for name, m in result["metrics"].items():
        if not NAME_RE.match(name):
            return "bad metric name %r" % name
        if set(m) != {"value", "unit"} or not UNIT_RE.match(m["unit"]):
            return "bad metric entry %r: %r" % (name, m)
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        build_dir = build(["e2ebench_selftest"])
        return subprocess.run(
            [os.path.join(build_dir, "e2ebench_selftest")], cwd=ROOT,
            stdout=sys.stdout, stderr=sys.stderr).returncode
    if args.workload is None:
        ap.error("--workload is required")

    build_dir = build(["e2ebench"])
    cmd = [os.path.join(build_dir, "e2ebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(build_root(), "e2ebench_out")]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=sys.stderr, universal_newlines=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1]:
        sys.stdout.write(proc.stdout)
        print("e2ebench: benchmark exited with %d" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 1
    error = check_result_line(lines[-1])
    if error is not None:
        # Print the report but never a malformed result line as the last.
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print("e2ebench: " + error, file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
