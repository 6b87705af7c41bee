#!/usr/bin/env python3
"""Builds and runs the S4 performance benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <postmark_nfs|history_reads|array_tcp> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
builds the repository's crates from source. Each invocation first runs
an offline release build into $CARGO_TARGET_DIR (default: .bench_build),
which is a no-op when nothing changed, then runs the benchmark binary
with the same arguments. Build output goes to standard error; the last
line of standard output is the benchmark's JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A run measures for at most a minute; set-up, checks and output take a
# few seconds more. Anything far beyond that is a hang.
RUN_TIMEOUT_S = 170


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    try:
        run = subprocess.run([binary] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
