#!/usr/bin/env python3
"""Run each workload on several seeds and report run-to-run spread.

    python3 perfbench/spread.py [--seeds 10] [--same-seed] [--trace 0] \
        [workload ...]

Seeds run from 1 to --seeds; --same-seed repeats seed 1 instead, which
shows the machine's own noise. For every end-to-end metric (or per-layer
metric with --trace 1) it prints the median of the per-run values, the
first and third quartiles (statistics.quantiles(values, n=4)) and the
spread (Q3 - Q1) / median. With --trace 0 the spread is compared against
a third of the metric's bound in BENCHMARK.json. Exits non-zero if any
run fails its output checks or exits non-zero.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--same-seed", action="store_true",
                        help="repeat seed 1 instead (machine noise)")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = str(bench["run_seconds"])

    ok = True
    for workload in workloads:
        values = {}
        for i in range(args.seeds):
            seed = 1 if args.same_seed else 1 + i
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", seconds, "--trace", args.trace],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                print("%s seed %d: FAILED (exit %d)" % (workload, seed,
                                                       proc.returncode))
                ok = False
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print("== %s (%d seeds)" % (workload, args.seeds))
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            flag = ""
            if args.trace == "0" and name in bounds and name != "setup_s":
                flag = "ok" if spread < bounds[name] / 3 else "WIDE"
            print("  %-36s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f %s"
                  % (name, med, q1, q3, spread, flag))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
