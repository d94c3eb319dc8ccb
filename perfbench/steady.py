#!/usr/bin/env python3
"""Run-to-run steadiness of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json, for its run_seconds, once per seed
on each workload, and then the same seeds again: two sets of runs of the
same code. Prints, per metric, each set's median, the change of the
second median against the first, and each set's quartile spread
((Q3 - Q1) / median, quartiles from statistics.quantiles(n=4)) of the
calibrated values (stdout) beside that of the raw ones (the `raw:`
stderr line).

    python3 perfbench/steady.py [--seeds 10] [--first-seed 1] [WORKLOAD ...]

Run it from the repository root. Without workloads it runs them all.
"""

import argparse
import json
import statistics
import subprocess
import sys


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def run(cmd, workload, seed, seconds):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    raw_line = [l for l in p.stderr.splitlines() if l.startswith("raw: ")][-1]
    raw = json.loads(raw_line[len("raw: "):])
    return result, raw


def one_set(cmd, workload, seeds, seconds):
    """Calibrated and raw values per metric over one run per seed."""
    cal, raw = {}, {}
    for seed in seeds:
        result, raw_values = run(cmd, workload, seed, seconds)
        assert result["correct"] and result["failed"] == 0, (workload, seed, result)
        for name, m in result["metrics"].items():
            cal.setdefault(name, []).append(m["value"])
            raw.setdefault(name, []).append(raw_values[name])
    return cal, raw


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    print("| workload | metric | bound | median 1 | median 2 | change "
          "| cal. spread 1 | cal. spread 2 | raw spread 1 | raw spread 2 |")
    print("|---|---|---:|---:|---:|---:|---:|---:|---:|---:|")
    for w in workloads:
        (cal1, raw1), (cal2, raw2) = (
            one_set(bench["command"], w, seeds, bench["run_seconds"]) for _ in range(2))
        for name in cal1:
            m1, m2 = statistics.median(cal1[name]), statistics.median(cal2[name])
            print(f"| {w} | {name} | {bounds[name]} | {m1:.4g} | {m2:.4g} | "
                  f"{m2 / m1 - 1:+.3f} | {spread(cal1[name]):.3f} | "
                  f"{spread(cal2[name]):.3f} | {spread(raw1[name]):.3f} | "
                  f"{spread(raw2[name]):.3f} |", flush=True)


if __name__ == "__main__":
    main()
