#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload suite_lineup --seed 2026 \
        --seconds 20 --trace 0

Configures and builds perfbench/ (which compiles the simulator from
src/) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when
that variable is unset, then runs the benchmark binary with the given
arguments. Build output goes to stderr, so the last line of stdout is
the benchmark's JSON result. Reports and spans are written under the
build directory. Exits non-zero, printing no result, when the build
fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configure (once) and build the benchmark; return the binary."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench",
         "-j", "4"],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main(argv):
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(root, "perfbench"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    # Reports go to a fresh directory under TMPDIR; keep it inside the
    # build tree.
    tmp = os.path.join(build_dir, "tmp")
    spans = os.path.join(build_dir, "spans")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(spans, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)

    workload = "run"
    trace = "0"
    for flag, value in zip(argv, argv[1:]):
        if flag == "--workload":
            workload = value
        elif flag == "--trace":
            trace = value
    cmd = [binary, *argv,
           "--expected", os.path.join(HERE, "expected_digests.txt"),
           "--spans", os.path.join(spans, f"{workload}.trace{trace}.json")]
    sys.stdout.flush()
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
