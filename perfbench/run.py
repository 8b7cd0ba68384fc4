#!/usr/bin/env python3
"""Builds and runs the kgnet repository benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload read_mix --seed 1 --seconds 16 --trace 0

Run it from the repository root. The benchmark is compiled from source
(Release) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that variable is unset; build output goes to stderr so that the
last stdout line stays the benchmark's JSON result. The exit code is the
benchmark's: non-zero on a build failure, a failed run or a wrong answer.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "kgnet_perfbench"],
                   stdout=sys.stderr, check=True)


def git_sha():
    root = os.path.dirname(HERE)
    # A checkout that is not itself a repository must not report the sha
    # of some repository above it.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env=env)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    exe = os.path.join(build_dir, "kgnet_perfbench")
    sys.stdout.flush()
    return subprocess.run(
        [exe] + sys.argv[1:] + ["--git-sha", git_sha()]).returncode


if __name__ == "__main__":
    sys.exit(main())
