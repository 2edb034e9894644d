#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME [--seeds 1,2,3,...]
                                [--seconds S] [--trace 0|1]

For every metric: the values, the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median, next
to the metric's bound from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit("seed %d failed (exit %d)" % (seed, out.returncode))
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1,2,3,4,5")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = a.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    for seed in [int(s) for s in a.seeds.split(",")]:
        r = run(a.workload, seed, seconds, a.trace)
        print("seed %d: correct=%s attempted=%d failed=%d" %
              (seed, r["correct"], r["attempted"], r["failed"]), flush=True)
        for name, m in r["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print("%-32s median %12.6g  q1 %12.6g  q3 %12.6g  spread %6.3f  bound %s  values %s"
              % (name, med, q1, q3, spread, bound,
                 " ".join("%.4g" % v for v in vs)))


if __name__ == "__main__":
    main()
