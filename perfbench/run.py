#!/usr/bin/env python3
"""Build and run the repository's end-to-end benchmark.

    python3 perfbench/run.py --workload <sim_paper|serve_hot|serve_churn|all>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
program's libraries and the benchmark (Release) into $CARGO_TARGET_DIR, or
.bench_build when it is unset; later runs rebuild incrementally. The last
line of standard output is the benchmark's JSON result; build output and the
human-readable report go to standard error.
"""

import argparse
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "Release"
# The program's own option defaults (root CMakeLists.txt), stated explicitly
# so the recorded configuration is the measured one.
CMAKE_OPTIONS = [
    "-DULC_ENABLE_CHECKS=ON",
    "-DULC_ENABLE_OBS=ON",
    "-DULC_FORCE_SCALAR_GROUPS=OFF",
]
JOBS = "4"


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd):
    """Runs a build step with its output on stderr; fails the run if it fails."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail("build step failed: " + " ".join(cmd))


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("program sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE] + CMAKE_OPTIONS)
    run_quiet(["cmake", "--build", build_dir, "--target", "ulc_perfbench", "-j", JOBS])
    binary = os.path.join(build_dir, "ulc_perfbench")
    if not os.path.isfile(binary):
        fail("benchmark binary missing after build: " + binary)
    return binary


def host_line():
    try:
        cxx = subprocess.run(["c++", "--version"], capture_output=True, text=True)
        compiler = cxx.stdout.splitlines()[0] if cxx.stdout else "unknown"
    except OSError:
        compiler = "unknown"
    return "host: nproc {} | {} | {} | build {} {}".format(
        os.cpu_count(), platform.platform(), compiler, BUILD_TYPE, " ".join(CMAKE_OPTIONS))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    out_dir = os.path.join(build_dir, "traces")
    os.makedirs(out_dir, exist_ok=True)

    print(host_line(), file=sys.stderr)
    print("repro: python3 perfbench/run.py --workload {} --seed {} --seconds {} --trace {}"
          .format(args.workload, args.seed, args.seconds, args.trace), file=sys.stderr)
    env = dict(os.environ, PERFBENCH_OUT=out_dir)
    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", args.seed,
         "--seconds", args.seconds, "--trace", args.trace],
        stdout=subprocess.PIPE, stderr=sys.stderr, env=env, text=True)
    if proc.returncode != 0:
        fail("benchmark exited with code {}".format(proc.returncode))
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
