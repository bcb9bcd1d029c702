#!/usr/bin/env python3
"""Build the pwx benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 20 --trace 0

The program is built into $CARGO_TARGET_DIR (default .bench_build) with
CMake, from perfbench/CMakeLists.txt, which builds the library from src/.
Build output goes to standard error; the benchmark's own output, whose last
line is the JSON result, goes to standard output. The exit code is the
benchmark's: 0 only when every output check passed.
"""

import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("reproduce", "retrain", "fleet")
RUN_TIMEOUT_S = 170


def source_digest(root):
    """SHA-256 over the library and benchmark sources, for the provenance
    header of checkouts that carry no git metadata."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return "none"
    return out.stdout.strip() or "none"


def build(root, build_dir):
    """Configure once, then build incrementally; returns the binary path."""
    # Keep the compiler's temporary files inside the checkout too.
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)

    def step(cmd):
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)

    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        step(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    step(["cmake", "--build", build_dir, "--target", "perfbench",
          "-j", str(min(4, os.cpu_count() or 1))])
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print(f"perfbench: no pwx sources under {root}/src", file=sys.stderr)
        return 2

    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir,
           "--commit", f"git:{git_commit(root)},src:{source_digest(root)}"]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.json")]
    # Pin the two OpenMP threads to cores: unpinned, a fleet tick that
    # migrates mid-flight refills its 2.5 MB group state and lands in the tail.
    env = dict(os.environ, OMP_PROC_BIND="close", OMP_PLACES="cores")
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, env=env).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
