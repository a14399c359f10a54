#!/usr/bin/env python3
"""Builds the lidi end-to-end benchmark from this checkout and runs it.

    python3 lidibench/run.py --workload serving --seed 1 --seconds 10 --trace 0
    python3 lidibench/run.py --self-test

The program is compiled from ../src with lidibench/CMakeLists.txt (Release,
lock-order registry off) into $CARGO_TARGET_DIR, or .bench_build when that is
unset. Build output goes to stderr; the benchmark's report goes to stdout and
ends with one JSON line. Run data lives under .bench_data/ and is removed by
the benchmark; traced runs write their spans to .bench_out/.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    configured = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return configured if os.path.isabs(configured) else os.path.join(ROOT, configured)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("lidibench: no program sources at %s; run from a full "
                         "checkout\n" % os.path.join(ROOT, "src"))
        return None
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target,
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            sys.stderr.write("lidibench: build step failed: %s\n" % " ".join(step))
            return None
    return os.path.join(out, target)


def main(argv):
    target = "lidibench_checks_test" if argv == ["--self-test"] else "lidibench"
    binary = build(target)
    if binary is None:
        return 2
    command = [binary]
    if target == "lidibench":
        command += argv + ["--data-dir", os.path.join(ROOT, ".bench_data"),
                           "--out-dir", os.path.join(ROOT, ".bench_out")]
    try:
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("lidibench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
