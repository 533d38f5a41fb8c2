#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: kv-ycsb, explore, certify, certify-warm (see BENCHMARK.json).
The program is built with dune into the directory named by
CARGO_TARGET_DIR (default .bench_build); traced runs write their
per-layer table and spans under .bench_out.  The last line of standard
output is the JSON result.  Extra flags for the self-test: --tiny (small
sizes) and --corrupt-answer (every known answer shifted by one).
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

WORKLOADS = ("kv-ycsb", "explore", "certify", "certify-warm")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
OUT_DIR = ".bench_out"
SOURCE_DIRS = ("lib", "bin", "perfbench")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--corrupt-answer", action="store_true")
    return p.parse_args(argv)


def source_stamp():
    """The commit when the checkout is a git repository, else a digest of
    the sources the program is built from."""
    if os.path.isdir(".git") and shutil.which("git"):
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    files = ["dune-project"]
    for d in SOURCE_DIRS:
        for base, dirs, names in os.walk(d):
            dirs.sort()
            files += [os.path.join(base, n) for n in sorted(names)]
    for f in files:
        h.update(f.encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return "src-" + h.hexdigest()[:16]


def build(build_dir):
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", build_dir,
           "--profile", "release", "./perfbench/main.exe"]
    try:
        r = subprocess.run(cmd, env=env, capture_output=True, text=True,
                           timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0:
        sys.stderr.write(r.stdout + r.stderr)
        fail("build failed")
    return os.path.join(build_dir, "default", "perfbench", "main.exe")


def main():
    args = parse_args(sys.argv[1:])
    # The program is built from the repository's own libraries: without
    # them there is nothing to measure.
    for need in ("dune-project", "lib"):
        if not os.path.exists(need):
            fail("%s not found: run from the root of a full checkout" % need)
    if shutil.which("dune") is None:
        fail("dune is not on PATH")
    exe = build(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR, "--commit", source_stamp()]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt_answer:
        cmd.append("--corrupt-answer")
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s timed out" % args.workload)
    sys.stderr.write(r.stderr)
    lines = r.stdout.rstrip("\n").splitlines()
    if r.returncode != 0 or not lines or not lines[-1].startswith('{"correct"'):
        sys.stderr.write(r.stdout)
        fail("workload %s exited with code %d" % (args.workload, r.returncode), 1)
    sys.stdout.write(r.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
