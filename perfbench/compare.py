#!/usr/bin/env python3
"""Compares two sets of perfbench results, metric by metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the report files run.py writes to <build>/results/
(untraced runs of any seeds). For every workload present in both sets it
prints each end-to-end metric's median on both sides and the change, and
flags a change worse than the metric's bound in BENCHMARK.json. Result sets
whose kernel ISA, build type or nproc differ are not comparable: the script
refuses them (exit 2). Exit 1 when some metric is worse beyond its bound.
"""
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def environment(report):
    env = report["env"]
    manifest = env["manifest"]
    return (manifest.get("kernel_isa", ""), manifest["build_type"],
            env["nproc"])


def load(directory):
    reports = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        if path.endswith(".spans.json"):
            continue
        with open(path) as f:
            report = json.load(f)
        if not report["trace"] and not report["smoke"]:
            reports.append(report)
    return reports


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    if not base or not new:
        sys.exit("compare: each directory needs untraced result files")
    envs = {environment(r) for r in base + new}
    if len(envs) != 1:
        print("refusing to compare: results come from different "
              "environments (kernel_isa, build_type, nproc): " +
              ", ".join(map(str, sorted(envs))))
        sys.exit(2)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}

    worse = False
    print(f"environment {envs.pop()}")
    workloads = {r["workload"] for r in base} & {r["workload"] for r in new}
    for workload in sorted(workloads):
        sides = []
        for reports in (base, new):
            runs = [r for r in reports if r["workload"] == workload]
            values = {}
            for r in runs:
                for m in r["metrics"]:
                    values.setdefault(m["name"], []).append(m["value"])
            sides.append((len(runs), values))
        print(f"{workload}: {sides[0][0]} base runs, {sides[1][0]} new runs")
        for name, metric in spec.items():
            b = statistics.median(sides[0][1][name])
            n = statistics.median(sides[1][1][name])
            change = (n - b) / b
            loss = change if metric["better"] == "lower" else -change
            verdict = "WORSE" if loss > metric["bound"] else "ok"
            worse |= verdict == "WORSE"
            print(f"  {name:16s} {b:12.5g} -> {n:12.5g} {metric['unit']:7s} "
                  f"{change:+8.2%}  bound {metric['bound']:.0%}  {verdict}")
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
