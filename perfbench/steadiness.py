#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs the benchmark command from BENCHMARK.json once per seed on each
workload, then prints, for every end-to-end metric, the median of the
runs and the spread between the first and third quartile as a share of
that median (Python's statistics.quantiles(values, n=4)). A spread under
a third of the metric's bound is steady; setup_s is held to the same
rule as every other metric. Exits 1 if any spread is not steady or any
run is not correct.

With --compare it instead reads two records written by --json (two sets
of runs of the same code) and fails when, on any (workload, metric)
pair, either set's median is worse than the other's by more than the
metric's bound: the drift a later change would be blamed for.

    python3 perfbench/steadiness.py --json set-a.json             # seeds 1-10
    python3 perfbench/steadiness.py --first-seed 101 --json set-b.json
    python3 perfbench/steadiness.py --compare set-a.json set-b.json
    python3 perfbench/steadiness.py --seeds 5 --workloads soak-fire

Run it from the root of the repository.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def spread(values):
    """(median, (q3 - q1) / median) of a list of numbers."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


def worse_share(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    change = (second - first) / first
    return change if better == "lower" else -change


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(args, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def measure(bench, opts):
    workloads = opts.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = range(opts.first_seed, opts.first_seed + opts.seeds)

    # Build once so the first timed run does not pay for compilation.
    run_once(bench["command"], workloads[0], seeds[0], 1, 0)

    record = {}
    steady = True
    for w in workloads:
        values = {name: [] for name in bounds}
        started = time.time()
        for seed in seeds:
            result = run_once(bench["command"], w, seed, bench["run_seconds"], 0)
            if not result["correct"] or result["failed"]:
                print(f"{w} seed {seed}: run not correct: {result}", file=sys.stderr)
                steady = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{w}: {len(seeds)} runs in {time.time() - started:.0f} s")
        record[w] = {}
        for name, bound in bounds.items():
            med, share = spread(values[name])
            ok = share <= bound / 3
            steady &= ok
            print(f"  {name:<22} median {med:<14.6g} iqr/median {share:8.4f}"
                  f"  bound {bound:<5} {'ok' if ok else 'NOISY'}")
            record[w][name] = {"values": values[name], "median": med,
                               "iqr_share": share, "bound": bound}
    if opts.json:
        with open(opts.json, "w") as f:
            json.dump(record, f, indent=1)
    return steady


def compare(bench, path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    agree = True
    for w in sorted(set(a) & set(b)):
        print(w)
        for name, bound in ((m["name"], m["bound"]) for m in bench["end_to_end"]):
            ma, mb = a[w][name]["median"], b[w][name]["median"]
            drift = max(worse_share(ma, mb, better[name]),
                        worse_share(mb, ma, better[name]))
            ok = drift <= bound
            agree &= ok
            print(f"  {name:<22} {ma:<14.6g} {mb:<14.6g} worse by {drift:8.4f}"
                  f"  bound {bound:<5} {'ok' if ok else 'DRIFT'}")
    missing = set(a) ^ set(b)
    if missing:
        print(f"workloads in only one record: {sorted(missing)}", file=sys.stderr)
        agree = False
    return agree


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--json", help="also write every value and spread here")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                    help="compare the medians of two records instead of running")
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if opts.compare:
        ok = compare(bench, *opts.compare)
    else:
        ok = measure(bench, opts)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
