#!/usr/bin/env python3
"""Builds and runs the mrmb benchmark for one workload.

    python3 mrmbbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The mrmbbench binary is built from source into
$CARGO_TARGET_DIR (default .bench_build) on first use. One run is:

  1. the oracle job in its own process (1 thread, in-process, codec none,
     RAM only), outside the timed region and outside set-up;
  2. with --trace 0, two extra set-up-only processes, so setup_s is a
     median of three set-ups;
  3. the measured process, which checks every job against the oracle
     fingerprint and prints the result JSON as its last line.

--expect HEX overrides the oracle fingerprint (the benchmark's own tests use
it to show a wrong fingerprint is counted as failed).
"""

import argparse
import hashlib
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 2
# A run must end within 180 s of its start (the first build excepted).
RUN_LIMIT_S = 170


def fail(message):
    print("mrmbbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "mrmbbench")


def build():
    bdir = build_dir()
    # Build output goes to stderr: stdout carries only the benchmark's report.
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        if subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                           "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                          stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", bdir, "-j", jobs, "--target",
                       "mrmbbench"], stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(bdir, "mrmbbench")


def source_identity(root):
    """Git commit when available, and a digest of the sources either way."""
    commit = "none"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10)
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and \
                os.path.samefile(lines[0], root):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for sub in ("src", "mrmbbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, sub)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith(".pyc"):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return commit, digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--expect", help="expected output fingerprint (hex)")
    args = parser.parse_args()

    binary = build()
    deadline = time.monotonic() + RUN_LIMIT_S

    def remaining():
        left = deadline - time.monotonic()
        if left <= 0:
            fail("out of time")
        return left

    out_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                           "results")
    os.makedirs(out_dir, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--out", out_dir]

    expect = args.expect
    if expect is None:
        oracle = subprocess.run([binary, "--mode", "oracle"] + common,
                                capture_output=True, text=True,
                                timeout=remaining())
        if oracle.returncode != 0:
            sys.stderr.write(oracle.stderr)
            fail("oracle job failed")
        expect = oracle.stdout.strip()

    setups = []
    if args.trace == 0:
        for _ in range(SETUP_PROBES):
            t0 = time.monotonic()
            probe = subprocess.run(
                [binary, "--mode", "setup", "--t0", repr(t0)] + common,
                capture_output=True, text=True, timeout=remaining())
            if probe.returncode != 0:
                sys.stderr.write(probe.stderr)
                fail("set-up probe failed")
            setups.append(probe.stdout.strip())

    commit, digest = source_identity(os.getcwd())
    cmd = [binary, "--mode", "run", "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--expect", expect,
           "--git-commit", commit, "--source-digest", digest] + common
    if setups:
        cmd += ["--setup-samples", ",".join(setups)]
    t0 = time.monotonic()
    run = subprocess.run(cmd + ["--t0", repr(t0)], timeout=remaining())
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
