#!/usr/bin/env python3
"""Build the campaign benchmark from source, then run one workload.

Run from the root of a checkout:

    python3 campaign_bench/run.py --workload policy_sweep --seed 1 \
        --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) and scratch
stores and span files to .bench_out, both relative to the checkout
root. Extra flags (--tiny, --jobs N) pass through to the benchmark.
The last line of standard output is the benchmark's JSON result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configure once, then build incrementally; output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("campaign_bench: no library sources under %s\n"
                         % os.path.join(ROOT, "src"))
        return False
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    cmd = ["cmake", "--build", build_dir, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    if not build(build_dir):
        sys.stderr.write("campaign_bench: build failed\n")
        return 1
    binary = os.path.join(build_dir, "campaign_bench")
    cmd = [binary] + sys.argv[1:] + [
        "--root", ROOT, "--out", os.path.join(ROOT, ".bench_out")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
