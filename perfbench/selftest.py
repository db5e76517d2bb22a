#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Run from the repository root:

    python3 perfbench/selftest.py

At the small size (the paper benches' --quick inputs) and the default
seeds it checks that
  - suite_lineup prints the same "Overall geomean" line as
    bench_tab08_suitesparse --quick;
  - random_fullline prints the same per-baseline geomean lines as
    bench_fig16_random --quick;
  - dlmc_device's latencies equal estimateInferenceLatency()'s
    (the benchmark's own --parity check).
At full size it checks that the committed expected digest is met and
that a wrong expected digest makes the benchmark exit non-zero.
Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import run  # noqa: E402  (perfbench/run.py: the build step)


def execute(cmd, env):
    done = subprocess.run(cmd, env=env, capture_output=True, text=True)
    return done.returncode, done.stdout


def matching(text, prefix):
    return [line for line in text.splitlines() if line.startswith(prefix)]


def main():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(root, "perfbench"))
    binary = run.build(build_dir)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target",
         "bench_tab08_suitesparse", "bench_fig16_random", "-j", "4"],
        stdout=sys.stderr, check=True)
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    failures = []

    def check(label, ok, detail=""):
        print(f"{'ok  ' if ok else 'FAIL'} {label}{detail}")
        if not ok:
            failures.append(label)

    def small(workload, *extra):
        return execute([binary, "--workload", workload, "--size", "small",
                        "--seconds", "0", *extra], env)

    parity = [
        ("suite_lineup", "bench_tab08_suitesparse", "Overall geomean"),
        ("random_fullline", "bench_fig16_random", "  vs "),
    ]
    for workload, bench, prefix in parity:
        rc, ours = small(workload)
        check(f"{workload} small run succeeds", rc == 0)
        brc, theirs = execute(
            [os.path.join(build_dir, bench), "--quick"], env)
        check(f"{bench} --quick succeeds", brc == 0)
        mine, ref = matching(ours, prefix), matching(theirs, prefix)
        check(f"{workload} geomeans equal {bench}'s",
              bool(ref) and mine == ref, f": {mine} vs {ref}")

    rc, _ = small("dlmc_device", "--parity")
    check("dlmc_device equals estimateInferenceLatency()", rc == 0)

    expected = os.path.join(HERE, "expected_digests.txt")
    wrong = os.path.join(tmp, "wrong_digests.txt")
    with open(wrong, "w") as f:
        f.write("random_fullline 616 0000000000000000\n")
    for path, want_ok in ((expected, True), (wrong, False)):
        rc, out = execute([binary, "--workload", "random_fullline",
                           "--seconds", "0", "--expected", path], env)
        result = json.loads(out.splitlines()[-1])
        check(f"expected digest from {os.path.basename(path)} "
              f"{'accepted' if want_ok else 'rejected'}",
              (rc == 0) == want_ok and result["correct"] == want_ok)
    os.remove(wrong)

    print("selftest:", "FAILED " + ", ".join(failures) if failures
          else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
