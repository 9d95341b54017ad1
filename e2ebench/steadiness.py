#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end benchmark.

Runs each workload once per seed, the way a regression gate does, and
prints a Markdown table per workload: the median and quartiles of every
metric over the runs, and the quartile spread as a share of the median
(Python's statistics.quantiles(values, n=4)). Run from the repository root
after building the benchmark:

    python3 e2ebench/steadiness.py --seeds 101-110 --seconds 30 [lookup analytic ingest]
"""

import argparse
import json
import statistics
import subprocess
import sys

COMMAND = ["cargo", "run", "--release", "--offline", "-q",
           "--manifest-path", "e2ebench/Cargo.toml", "--"]
# Printed-only metrics worth tracking beside the gated ones.
PRINTED = ("ops_per_s", "lat_p90_us", "lat_p99_us", "suite_ms",
           "structjoin_ms", "valuejoin_ms", "ingest_mb_s")


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds):
    out = subprocess.run(
        COMMAND + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect result")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    for line in out.splitlines():
        fields = line.split()
        if len(fields) >= 4 and fields[0] == workload and fields[1] in PRINTED:
            values[fields[1]] = float(fields[2])
    return values


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="101-110")
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("workloads", nargs="*", default=["lookup", "analytic", "ingest"])
    args = ap.parse_args()
    for w in args.workloads:
        runs = [run(w, s, args.seconds) for s in seeds(args.seeds)]
        print(f"\n### `{w}`: {len(runs)} runs, seeds {args.seeds}, {args.seconds} s each\n")
        print("| Metric | Median | Q1 | Q3 | (Q3 − Q1) / median |")
        print("|---|---|---|---|---|")
        for name in runs[0]:
            vals = [r[name] for r in runs]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            print(f"| `{name}` | {med:.4g} | {q1:.4g} | {q3:.4g} | {(q3 - q1) / med:.3f} |")


if __name__ == "__main__":
    main()
