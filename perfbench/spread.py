#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports each end-to-end metric's
median and spread: the distance between the first and third quartiles of
its values (`statistics.quantiles(values, n=4)`) as a share of their
median, next to the bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload churn-100k [--workload ...] [--seeds 1-10]

Run from the repository root. Each run is untraced and lasts BENCHMARK.json's
`run_seconds`. Exits non-zero when a run fails or a spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for w in args.workload:
        values = {name: [] for name in bounds}
        for s in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed",
                   str(s), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{w} seed {s}: run failed (exit {out.returncode})", file=sys.stderr)
                ok = False
                if not lines:
                    continue
            result = json.loads(lines[-1])
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
        print(f"== {w} ({len(args.seeds)} seeds)")
        for name, vs in values.items():
            if len(vs) < 2:
                continue
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / med if med else 0.0
            bound = bounds[name]
            flag = "ok" if spread <= bound / 3 else "WIDE" if spread <= bound else "OVER"
            ok = ok and flag != "OVER"
            print(f"  {name:<24} median {med:<14.6g} spread {spread:7.4f}  bound {bound}  {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
