#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

Runs every workload once per seed, alternating the workloads' order from
one seed to the next, for one or two sets of runs over the same seeds.
For every (workload, end-to-end metric) pair it prints the median, the
quartiles and their spread as a share of the median against the metric's
bound. It fails when

  * a run is incorrect, or its digest differs from another run of the
    same workload and seed (within a run, every round's digest must
    already agree);
  * a spread reaches a third of its metric's bound (the benchmark is
    tuned until every spread is below that);
  * with two sets, a median of the second set is worse than the first's
    by more than the bound, or the share of failed operations differs.

Run it from the repository root:

    python3 perfbench/steady.py --runs 10 --sets 2
    python3 perfbench/steady.py --runs 5 --workloads plan
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

# A spread must stay below bound / MARGIN.
MARGIN = 3

def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    took = time.monotonic() - start
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    digest = None
    for line in lines:
        fields = line.split()
        if fields[:1] == ["workload"] and "digest" in fields:
            digest = fields[fields.index("digest") + 1]
    if proc.stderr.strip():
        print(proc.stderr.strip(), file=sys.stderr)
    return res, digest, took


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="seeds per set")
    ap.add_argument("--sets", type=int, default=1, choices=[1, 2])
    ap.add_argument("--seed", type=int, default=1, help="first seed")
    ap.add_argument("--workloads", default="", help="comma-separated subset")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in args.workloads.split(",") if n]
    metrics = bench["end_to_end"]
    seeds = [args.seed + i for i in range(args.runs)]

    # runs[set][workload] = list of (seed, result, digest)
    runs = [{n: [] for n in names} for _ in range(args.sets)]
    for s in range(args.sets):
        for i, seed in enumerate(seeds):
            order = names[i % len(names):] + names[:i % len(names)]
            for n in order:
                res, digest, took = run_once(bench["command"], n, seed,
                                             bench["run_seconds"], 0)
                runs[s][n].append((seed, res, digest))
                print(f"set {s} {n:<11} seed {seed:<4} {took:6.1f}s "
                      f"wall_s {res['metrics']['wall_s']['value']:7.3f} "
                      f"digest {digest} correct {res['correct']} "
                      f"failed {res['failed']}/{res['attempted']}",
                      flush=True)

    ok = True
    digests = {}
    for s in range(args.sets):
        for n in names:
            for seed, res, digest in runs[s][n]:
                if not res["correct"]:
                    print(f"FAIL {n} seed {seed}: incorrect")
                    ok = False
                prev = digests.setdefault((n, seed), digest)
                if prev != digest:
                    print(f"FAIL {n} seed {seed}: digest {digest} != {prev}")
                    ok = False

    print(f"\n{'workload':<11} {'metric':<17} {'set':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
    for n in names:
        for m in metrics:
            meds = []
            for s in range(args.sets):
                vals = [r["metrics"][m["name"]]["value"] for _, r, _ in runs[s][n]]
                med, q1, q3, sp = spread(vals)
                meds.append(med)
                verdict = ""
                if sp >= m["bound"] / MARGIN:
                    verdict = "  SPREAD"
                    ok = False
                print(f"{n:<11} {m['name']:<17} {s:>3} {med:12.6g} {q1:12.6g} "
                      f"{q3:12.6g} {sp:7.3f} {m['bound']:6.2f}{verdict}")
            if len(meds) == 2:
                worse = (meds[1] - meds[0]) / meds[0]
                if m["better"] == "higher":
                    worse = -worse
                if worse > m["bound"]:
                    print(f"FAIL {n} {m['name']}: second median worse by {worse:.3f}")
                    ok = False
        if args.sets == 2:
            shares = [sum(r["failed"] for _, r, _ in runs[s][n]) /
                      sum(r["attempted"] for _, r, _ in runs[s][n])
                      for s in range(2)]
            if shares[0] != shares[1]:
                print(f"FAIL {n}: failed share {shares[0]} vs {shares[1]}")
                ok = False
    print("\nSTEADY" if ok else "\nNOT STEADY")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
