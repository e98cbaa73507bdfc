#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints, per end-to-end metric,
the median and the interquartile distance as a share of the median — the
run-to-run spread that BENCHMARK.json's bounds are judged against.

    python3 perfbench/spread.py --workload compare-scan --seeds 1-10
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="first-last")
    ap.add_argument("--seconds", type=int, default=None, help="default: BENCHMARK.json run_seconds")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lo, hi = (int(x) for x in args.seeds.split("-"))
    values = {}
    for seed in range(lo, hi + 1):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stdout}{out.stderr}")
        res = json.loads(out.stdout.strip().splitlines()[-1])
        row = {k: v["value"] for k, v in res["metrics"].items()}
        print(f"seed {seed}: " + " ".join(f"{k}={v:.4g}" for k, v in sorted(row.items())), flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)
    for k, vs in sorted(values.items()):
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4)
        spread = (q[2] - q[0]) / med
        print(f"{k:22s} median {med:12.4f}  spread {spread:6.3f}  bound {bounds.get(k, 0):.3f}"
              f"  {'ok' if spread < bounds.get(k, 0) / 3 else 'WIDE'}")


if __name__ == "__main__":
    main()
