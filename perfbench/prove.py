"""Steadiness check: several seeds per workload, spread of every metric.

    python3 perfbench/prove.py --label set1 [--first-seed 1]
        [--workloads witt-arith,tables]

Runs perfbench/run.py once per (workload, seed) on ten seeds, one run at a
time, from the current directory (a checkout root), each run as long as
``run_seconds`` in BENCHMARK.json.  For each end-to-end metric it prints
the median, the quartiles and the quartile spread as a share of the median,
for the reported (reference-normalised) figures and for the raw wall-clock
figures the worker prints on stderr.  All results are written to
perfbench-results/<label>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("witt-arith", "hensel-digits", "tables", "cli-requests")
SEEDS = 10


def run_once(workload: str, seed: int, seconds: float):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=400)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    raw = {}
    for line in proc.stderr.splitlines():
        if line.startswith("raw: "):
            raw = json.loads(line[5:])
    return result, raw


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--label", required=True)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    args = ap.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    out_dir = os.path.join(os.getcwd(), "perfbench-results")
    os.makedirs(out_dir, exist_ok=True)
    report = {}
    for w in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + SEEDS):
            result, raw = run_once(w, seed, seconds)
            runs.append({"seed": seed, "result": result, "raw": raw})
            print(f"{w} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.4g}"
                             for k, v in result["metrics"].items()), flush=True)
        summary = {}
        for name in runs[0]["result"]["metrics"]:
            vals = [r["result"]["metrics"][name]["value"] for r in runs]
            summary[name] = spread(vals)
            for pre in ("raw_",):
                raw_vals = [r["raw"].get(f"{pre}{name}") for r in runs]
                if None not in raw_vals:
                    summary[f"{pre}{name}"] = spread(raw_vals)
        shares = {r["result"]["failed"] / r["result"]["attempted"] for r in runs}
        print(f"{w}: failed share {sorted(shares)}")
        for name, (med, q1, q3, rel) in summary.items():
            print(f"  {name:22} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}"
                  f"  spread {100 * rel:5.2f}%")
        report[w] = {"runs": runs, "summary": summary}
    with open(os.path.join(out_dir, f"{args.label}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
