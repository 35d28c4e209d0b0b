#!/usr/bin/env python3
"""Builds and runs one MOCHA benchmark workload; see perfbench/README.md.

    python3 perfbench/run.py --workload dse|exec|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root. Every call configures and incrementally
builds the libraries and the mocha_perfbench binary under the build
directory ($CARGO_TARGET_DIR when set, else .bench_build). The binary's
full report, stamped with the run environment, is written to
<build>/results/; the last line of stdout is the result summary:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dse", "exec", "serve")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT,
                        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures and builds the binary (incrementally); returns its path."""
    cmake_dir = os.path.join(build_dir(), "cmake")
    steps = [["cmake", "-S", HERE, "-B", cmake_dir,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", cmake_dir, "--target", "mocha_perfbench",
              "-j", str(os.cpu_count() or 1)]]
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the results.
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return os.path.join(cmake_dir, "mocha_perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in metrics}


def run_binary(binary, workload, seed, seconds, trace, smoke):
    os.makedirs(os.path.join(build_dir(), "results"), exist_ok=True)
    stem = f"{workload}-s{seed}-t{int(trace)}" + ("-smoke" if smoke else "")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(int(trace))]
    if trace:
        cmd += ["--spans",
                os.path.join(build_dir(), "results", stem + ".spans.json")]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"perfbench: {workload} exited with {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(build_dir(), "results", stem + ".json"), "w") as f:
        json.dump(report, f, indent=1)
    return report


def summarize(report, trace):
    """The summary line's result; raises ValueError if a metric is missing,
    has the wrong unit, or is not a finite number (positive for the
    end-to-end metrics)."""
    expected = expected_metrics(trace)
    got = {m["name"]: m for m in report["metrics"]}
    if set(got) != set(expected):
        raise ValueError(f"metric names differ: missing "
                         f"{sorted(set(expected) - set(got))}, unexpected "
                         f"{sorted(set(got) - set(expected))}")
    metrics = {}
    for name, unit in expected.items():
        value = got[name]["value"]
        if got[name]["unit"] != unit:
            raise ValueError(f"{name}: unit {got[name]['unit']} != {unit}")
        if not math.isfinite(value) or (not trace and value <= 0):
            raise ValueError(f"{name}: bad value {value}")
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": bool(report["correct"]) and report["failed"] == 0,
            "attempted": int(report["attempted"]),
            "failed": int(report["failed"]), "metrics": metrics}


def smoke(binary):
    """Runs every workload tiny, traced and untraced; checks that every
    metric BENCHMARK.json names is printed with its unit and that every
    output check passes."""
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            report = run_binary(binary, workload, 1, 1.0, trace, smoke=True)
            try:
                result = summarize(report, trace)
                problem = ("" if result["correct"]
                           else f"failures {report['failures']}")
            except ValueError as e:
                problem = str(e)
            ok &= not problem
            print(f"smoke {workload} trace={int(trace)}: "
                  f"{'ok' if not problem else 'FAILED: ' + problem}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-long self-check of every workload")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if args.smoke:
        sys.exit(0 if smoke(binary) else 1)

    report = run_binary(binary, args.workload, args.seed, args.seconds,
                        bool(args.trace), smoke=False)
    try:
        result = summarize(report, bool(args.trace))
    except ValueError as e:
        sys.exit(f"perfbench: {args.workload}: {e}")
    for problem in report["failures"]:
        log(f"check failed: {problem}")
    print("env: " + json.dumps(report["env"], sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
