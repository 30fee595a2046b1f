#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the repository root. For every workload in BENCHMARK.json it
runs the benchmark at smoke size, untraced and traced, twice each with the
same seed, and checks that:

- BENCHMARK.json keeps to the benchmark contract's shape and limits;
- every metric BENCHMARK.json names is printed, with its unit, and no other;
- the traced replay time outside every span, `bench.residual_share`, is
  between 0 and 10% of the traced wall;
- the deterministic counts and the final edge fingerprint repeat exactly.

Exits non-zero on the first failed check.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Per-layer metrics that are measured times, not deterministic counts.
TIMED_UNITS = {"s", "share"}
TIMED_NAMES = {"bench.trace_overhead"}


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "0", "--trace", str(trace), "--smoke"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0:
        sys.exit(f"FAIL {workload} trace={trace}: exit {out.returncode}\n" + "\n".join(lines[-5:]))
    fingerprint = next(l for l in lines if l.startswith("fingerprint:"))
    return json.loads(lines[-1]), fingerprint


def check(ok, what):
    if not ok:
        sys.exit(f"FAIL {what}")


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def check_contract(bench):
    check(set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          "BENCHMARK.json keys")
    check(1 <= len(bench["command"]) <= 32 and all(len(a) <= 200 for a in bench["command"]),
          "command length")
    check(1 <= len(bench["paths"]) <= 16
          and all(PATH.match(p) and not p.startswith("/") and ".." not in p.split("/")
                  for p in bench["paths"]), "paths")
    check(isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60, "run_seconds")
    check(2 <= len(bench["workloads"]) <= 8, "workload count")
    for w in bench["workloads"]:
        check(set(w) == {"name", "why"} and "\n" not in w["why"] and len(w["why"]) <= 200,
              f"workload {w.get('name')}")
    check(1 <= len(bench["end_to_end"]) <= 16 and 1 <= len(bench["per_layer"]) <= 128,
          "metric counts")
    for m in bench["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25,
              f"end-to-end metric {m.get('name')}")
    for m in bench["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, f"per-layer metric {m.get('name')}")
    names = [x["name"] for k in ("workloads", "end_to_end", "per_layer") for x in bench[k]]
    check(len(names) == len(set(names)) and all(NAME.match(n) for n in names), "names")
    for m in bench["end_to_end"] + bench["per_layer"]:
        check(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher"), f"{m['name']} unit")
    setup = next((m for m in bench["end_to_end"] if m["name"] == "setup_s"), None)
    check(setup is not None and setup["unit"] == "s" and setup["better"] == "lower"
          and setup["bound"] == max(m["bound"] for m in bench["end_to_end"]),
          "setup_s carries the largest bound")
    check(len(json.dumps(bench)) <= 64 * 1024, "BENCHMARK.json size")


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    check_contract(bench)
    print("ok BENCHMARK.json keeps to the contract")
    for w in (x["name"] for x in bench["workloads"]):
        for trace, table in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            (a, fa), (b, fb) = run(w, trace), run(w, trace)
            want = {m["name"]: m["unit"] for m in table}
            for r in (a, b):
                check(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1,
                      f"{w} trace={trace}: outputs not correct")
                got = {name: m["unit"] for name, m in r["metrics"].items()}
                check(got == want, f"{w} trace={trace}: printed metrics {sorted(got)} "
                      f"differ from BENCHMARK.json {sorted(want)}")
            check(fa == fb, f"{w}: fingerprints differ across repeats: {fa} / {fb}")
            if trace == 1:
                for r in (a, b):
                    residual = r["metrics"]["bench.residual_share"]["value"]
                    check(0 <= residual <= 0.10,
                          f"{w}: residual {residual} of the traced wall is outside [0, 0.10]")
                fixed = [n for n, u in want.items()
                         if u not in TIMED_UNITS and n not in TIMED_NAMES]
                for n in fixed:
                    check(a["metrics"][n]["value"] == b["metrics"][n]["value"],
                          f"{w}: {n} differs across repeats: "
                          f"{a['metrics'][n]['value']} / {b['metrics'][n]['value']}")
            print(f"ok {w} trace={trace}: {len(want)} metrics named with units"
                  + (", residual within 10%, counts repeat" if trace else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
