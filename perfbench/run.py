#!/usr/bin/env python3
"""Build and run the SGFS benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload bulk-lan --seed 1 --seconds 30 --trace 0

Builds the `perfbench` package (release, offline) into $CARGO_TARGET_DIR,
default `.bench_build`, then runs it with the given arguments plus the
host name and, when the checkout is a git repository, the commit id.
The benchmark's stdout passes through unchanged; its last line is the
JSON result. The exit status is the benchmark's, or non-zero without a
result if the build fails or the run overstays its time limit.
"""

import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_LIMIT_S = 175


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    os.chdir(ROOT)
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")
    try:
        run = subprocess.run([exe, *sys.argv[1:], "--commit", commit(),
                              "--host", platform.node()],
                             timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_LIMIT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
