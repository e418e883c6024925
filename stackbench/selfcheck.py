#!/usr/bin/env python3
"""Repeatability self-check of the benchmark described by BENCHMARK.json.

Runs the benchmark command twice over the same seeds (two sets of runs of
the same code) for every workload, then prints, per workload and
end-to-end metric, both sets' medians, their spreads (distance between the
first and third quartile as a share of the median) and the metric's bound.

    python3 stackbench/selfcheck.py [--runs 10] [--sets 2]
                                    [--workload NAME ...] [--seconds S]

Run it from the repository root. A metric passes when each set's spread is
within its bound (set-up time excepted) and the second median is not worse
than the first by more than the bound; the failed share must be identical
in every set. The exit code is 0 only if everything passes.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed, seconds):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    for workload in workloads:
        sets = []
        for s in range(args.sets):
            results = []
            for seed in range(1, args.runs + 1):
                r = run_once(spec, workload, seed, args.seconds)
                print(f"# {workload} set {s + 1} seed {seed}: " + json.dumps(r),
                      flush=True)
                results.append(r)
            sets.append(results)
        shares = {
            (sum(r["failed"] for r in rs), sum(r["attempted"] for r in rs))
            for rs in sets
        }
        correct = all(r["correct"] for rs in sets for r in rs)
        share_ok = len({f / a for f, a in shares}) == 1
        ok &= correct and share_ok
        print(f"{workload}: correct={correct} failed/attempted per set="
              f"{sorted(shares)} {'same share' if share_ok else 'SHARE DIFFERS'}")
        print(f"  {'metric':14} {'median1':>12} {'median2':>12} {'spread1':>8} "
              f"{'spread2':>8} {'bound':>6}  verdict")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            vals = [[r["metrics"][name]["value"] for r in rs] for rs in sets]
            meds = [statistics.median(v) for v in vals]
            spreads = [spread(v) for v in vals]
            sign = 1 if m["better"] == "lower" else -1
            drift = sign * (meds[-1] / meds[0] - 1)
            good = drift <= bound and (
                name == "setup_s" or all(s <= bound for s in spreads))
            ok &= good
            print(f"  {name:14} {meds[0]:12.4f} {meds[-1]:12.4f} "
                  f"{spreads[0]:8.4f} {spreads[-1]:8.4f} {bound:6.2f}  "
                  f"{'ok' if good else 'FAIL'}"
                  f"{'' if all(s <= bound / 3 for s in spreads) else ' (spread above a third of the bound)'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
