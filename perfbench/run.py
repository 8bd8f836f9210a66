#!/usr/bin/env python3
"""Build and run the repository benchmark (README.md in this directory).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. --workload all runs every workload
BENCHMARK.json lists, one after another. The first call configures and
builds perfbench/CMakeLists.txt (the simulator library from src/ plus
the benchmark program, dsm_bench.cc) into .bench_build/; later calls
rebuild only what changed. dsm_bench runs with every CENJU_* variable
removed from its environment, and its output is passed through, so the
last line of standard output is its JSON result. When the build fails
the script exits nonzero without a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "dsm_bench")
RUN_TIMEOUT_S = 170


def configured_source():
    """The source directory an existing build tree was configured for."""
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build():
    """Configure (once) and build dsm_bench. Returns True on success."""
    steps = []
    if configured_source() != HERE:
        shutil.rmtree(BUILD, ignore_errors=True)
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if res.returncode != 0:
            sys.stderr.write(res.stdout)
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def clean_env():
    """The environment without the CENJU_* overrides of simulator defaults."""
    return {k: v for k, v in os.environ.items() if not k.startswith("CENJU_")}


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args(argv)

    if not build():
        return 1
    names = [args.workload]
    if args.workload == "all":
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            names = [w["name"] for w in json.load(f)["workloads"]]
    status = 0
    for name in names:
        cmd = [BINARY, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
        try:
            res = subprocess.run(cmd, cwd=ROOT, env=clean_env(),
                                 timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            sys.stderr.write("perfbench: %s exceeded %d s\n" %
                             (name, RUN_TIMEOUT_S))
            return 1
        status = status or res.returncode
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
