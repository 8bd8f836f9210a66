#!/usr/bin/env python3
"""Smoke-scale self-test of the benchmark (README.md in this directory).

    python3 perfbench/self_test.py

Builds dsm_bench like run.py, then runs every workload at smoke scale
(a few nodes, tiny problems) and checks three things:

  1. every metric BENCHMARK.json lists prints with its unit, both as a
     "metric NAME VALUE UNIT" line and in the JSON result, for
     --trace 0 (end-to-end) and --trace 1 (per-layer), and failed_ops
     prints too;
  2. the last line of output parses as the result object, with exactly
     the keys correct, attempted, failed and metrics;
  3. a wrong reference value makes failed_ops nonzero and dsm_bench
     exit nonzero.

Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

import run

WORKLOADS = ["cg128_multicast", "bt64_private", "bt64_writeback",
             "storm1024"]


def load_spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def drive(workload, trace, *extra):
    cmd = [run.BINARY, "--workload", workload, "--seed", "7",
           "--seconds", "0", "--trace", str(trace), "--smoke", *extra]
    res = subprocess.run(cmd, cwd=run.ROOT, env=run.clean_env(),
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, timeout=run.RUN_TIMEOUT_S)
    lines = res.stdout.strip().splitlines()
    return res.returncode, lines, json.loads(lines[-1])


def printed(lines, name):
    """The (value, unit) of a "metric NAME VALUE UNIT ..." line."""
    for line in lines:
        parts = line.split()
        if len(parts) >= 4 and parts[0] == "metric" and parts[1] == name:
            return float(parts[2]), parts[3]
    return None


def check_run(failures, workload, trace, metrics):
    rc, lines, result = drive(workload, trace)
    where = "%s --trace %d" % (workload, trace)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        failures.append("%s: result keys %s" % (where, sorted(result)))
        return
    if (rc != 0 or result["correct"] is not True or result["failed"] != 0
            or not isinstance(result["attempted"], int)
            or result["attempted"] < 1):
        failures.append("%s: rc %d, result %s" % (
            where, rc, {k: result[k] for k in ("correct", "attempted",
                                               "failed")}))
    if set(result["metrics"]) != {m["name"] for m in metrics}:
        failures.append("%s: JSON metrics differ from BENCHMARK.json" % where)
    for m in metrics:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(
                got.get("value"), (int, float)):
            failures.append("%s: JSON %s is %s" % (where, m["name"], got))
        line = printed(lines, m["name"])
        if line is None or line[1] != m["unit"]:
            failures.append("%s: printed %s is %s" % (where, m["name"], line))
    if printed(lines, "failed_ops") != (0.0, "share"):
        failures.append("%s: failed_ops line %s" % (
            where, printed(lines, "failed_ops")))


def main():
    if not run.build():
        return 1
    spec = load_spec()
    failures = []
    for workload in WORKLOADS:
        check_run(failures, workload, 0, spec["end_to_end"])
        check_run(failures, workload, 1, spec["per_layer"])
        rc, lines, result = drive(workload, 0, "--wrong-reference")
        failed_ops = printed(lines, "failed_ops")
        if rc == 0 or result["failed"] < 1 or not failed_ops \
                or failed_ops[0] <= 0:
            failures.append("%s: a wrong reference went unnoticed "
                            "(rc %d, failed_ops %s)" % (workload, rc,
                                                        failed_ops))
        print("%s: checked" % workload, flush=True)
    for f in failures:
        print("FAIL " + f)
    print("self-test %s" % ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
