#!/usr/bin/env python3
"""Self-test of the wall-clock benchmark: every workload at a tiny size.

    python3 perfbench/selftest.py

For each workload and both modes it runs `perfbench/run.py ... --size
tiny` and asserts that the run exits 0, stamps a host fingerprint, passes
its output checks with no failed operation, and prints exactly the metric
names and units BENCHMARK.json declares (end-to-end with --trace 0,
per-layer with --trace 1). Exits non-zero on the first mismatch.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.2", "--trace", str(trace),
         "--size", "tiny"],
        stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0, "%s: exit %d" % (workload, proc.returncode)
    assert len(lines) >= 2, "%s: no fingerprint line" % workload
    stamp = json.loads(lines[-2])["perfbench"]
    assert stamp["seed"] == 7 and stamp["host"]["nproc"] >= 1, stamp
    return json.loads(lines[-1])


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            result = run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, result.keys()
            assert result["correct"] is True, (workload, trace)
            assert result["failed"] == 0 and result["attempted"] >= 1, result
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            assert printed == declared[trace], (
                workload, trace,
                set(printed.items()) ^ set(declared[trace].items()))
            print("ok  %-18s trace=%d  %d metrics, %d operations"
                  % (workload, trace, len(printed), result["attempted"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
