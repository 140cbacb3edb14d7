#!/usr/bin/env python3
"""Measures how steady the benchmark is, from the repository root:

    python3 perfbench/steadiness.py --runs 10 --out perfbench/STEADINESS.md

Runs BENCHMARK.json's command --runs times per workload, each run with
another seed, and reports for every end-to-end metric the median, the
quartiles (statistics.quantiles(values, n=4)) and the spread: the distance
between the quartiles as a share of the median, next to the metric's bound.
"""
import argparse
import json
import platform
import os
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(args)} failed ({proc.returncode}):\n{proc.stdout}\n{proc.stderr}")
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{' '.join(args)} reported failures:\n{proc.stdout}")
    return {k: v["value"] for k, v in res["metrics"].items()}


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--out", help="write the report (markdown) here too")
    a = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = [f"Steadiness: {a.runs} runs per workload, seeds {a.first_seed}..{a.first_seed + a.runs - 1}, "
           f"{a.seconds} s each; {os.cpu_count()} CPUs, {platform.machine()}, "
           f"{time.strftime('%Y-%m-%d')}.", ""]
    worst = 0.0
    for w in a.workloads:
        runs = [run_once(bench["command"], w, a.first_seed + i, a.seconds) for i in range(a.runs)]
        out += [f"## {w}", "",
                "| metric | median | q1 | q3 | spread | bound | spread/bound |",
                "|---|---|---|---|---|---|---|"]
        for name, bound in bounds.items():
            vals = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            worst = max(worst, spread / bound)
            out.append(f"| {name} | {med:.5g} | {q1:.5g} | {q3:.5g} | {spread:.3f} | {bound} | {spread / bound:.2f} |")
        out += ["", "values: " + json.dumps({n: [round(r[n], 6) for r in runs] for n in bounds}), ""]
        print("\n".join(out[-(len(bounds) + 6):]), flush=True)
    out.append(f"Largest spread/bound, setup_s included: {worst:.2f} (steady when below 0.33).")
    print(out[-1])
    if a.out:
        with open(a.out, "w") as f:
            f.write("\n".join(out) + "\n")


if __name__ == "__main__":
    main()
