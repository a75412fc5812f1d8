#!/usr/bin/env python3
"""Builds and runs the repo benchmark.

Usage, from the repository root:

    python3 rdfbench/run.py --workload lubm-analyst --seed 1 --seconds 20 --trace 0

Builds the library and the benchmark binary (Release) into $CARGO_TARGET_DIR/rdfbench
(default .bench_build/rdfbench), runs one workload and forwards the binary's
output. The last stdout line is the result object:
{"correct", "attempted", "failed", "metrics"}. Exits non-zero without a
result when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lubm-analyst", "sp2b-serve", "sp2b-churn")
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(os.getcwd(), base)
    return os.path.join(base, "rdfbench")


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    cmd = ["cmake", "--build", out, "--target", "rdfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    binary = os.path.join(out, "rdfbench")
    return binary if os.path.exists(binary) else None


def source_rev():
    """The git revision, or a hash of the sources when there is no git."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "rdfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test knobs (see rdfbench/tests/selftest.py).
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--corrupt-digest", type=int)
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)
    if binary is None:
        log("rdfbench: build failed")
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--rev", source_rev(),
           "--spans", os.path.join(out, "spans-%s-%d.csv" %
                                   (args.workload, args.seed))]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt_digest is not None:
        cmd += ["--corrupt-digest", str(args.corrupt_digest)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("rdfbench: run timed out")
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1] if lines else []) + "\n")
        log("rdfbench: benchmark binary exited with %d" % run.returncode)
        return 1
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, IndexError):
        ok = False
    if not ok:
        log("rdfbench: benchmark binary printed no result line")
        return 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
