#!/usr/bin/env python3
"""Steadiness check: two sets of benchmark runs of one commit, side by side.

Run from the repository root:

    python3 e2ebench/steady.py --runs 10 --workloads wave-dsl-10k

Each of the two sets runs every listed workload --runs times at run_seconds
from BENCHMARK.json, seed i on run i (the same seeds in both sets),
interleaving the workloads so slow spells of the host spread over all of
them. For every end-to-end metric it prints each set's median and spread,
the spread being the distance between the first and third quartiles
(statistics.quantiles, n=4) as a share of the median, and how far the second
median is worse than the first. A metric is "steady" when both spreads are
below a third of its bound, "ok" when below the bound, and "FAIL" when a
spread or the shift reaches the bound.

The "host" column separates host noise from seed variance: run i of both
sets used the same seed, so the spread of the per-seed ratios set 2 / set 1
holds the host's noise alone. The machine fingerprints the runs reported
are printed too, and every result line is kept in <build dir>/steady.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SETS = 2


def run_once(config, workload, seed):
    command = list(config["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(config["run_seconds"]), "--trace", "0"]
    done = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d failed (exit %d)"
                           % (workload, seed, done.returncode))
    fingerprint = json.loads(lines[0]).get("fingerprint")
    return json.loads(lines[-1]), fingerprint


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first, second, better):
    """How much worse the second median is than the first, as a share."""
    if better == "lower":
        return second / first - 1.0
    return first / second - 1.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="",
                        help="comma-separated; default all in BENCHMARK.json")
    args = parser.parse_args()
    if args.runs < 4:
        parser.error("--runs must be >= 4 for quartiles")

    with open("BENCHMARK.json") as f:
        config = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in config["workloads"]])
    log_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    os.makedirs(log_dir, exist_ok=True)

    # results[set][workload][metric] -> values, run i at index i
    results = [{w: {} for w in workloads} for _ in range(SETS)]
    fingerprints = set()
    failures = 0
    with open(os.path.join(log_dir, "steady.jsonl"), "a") as log:
        for s in range(SETS):
            for seed in range(1, args.runs + 1):
                for w in workloads:
                    result, fingerprint = run_once(config, w, seed)
                    fingerprints.add(json.dumps(fingerprint, sort_keys=True))
                    failures += result["failed"] + (not result["correct"])
                    log.write(json.dumps({"set": s, "workload": w, "seed": seed,
                                          "result": result}) + "\n")
                    log.flush()
                    for name, m in result["metrics"].items():
                        results[s][w].setdefault(name, []).append(m["value"])
                    print("set %d seed %d %-14s %s" % (
                        s, seed, w, " ".join("%s=%.4g" % (k, v["value"])
                                             for k, v in result["metrics"].items())),
                          file=sys.stderr, flush=True)

    for fp in sorted(fingerprints):
        print("fingerprint", fp)
    print("%-14s %-18s %6s %10s %7s %10s %7s %7s %7s  %s" % (
        "workload", "metric", "bound", "median1", "spread1", "median2",
        "spread2", "worse", "host", "verdict"))
    bad = 0
    for w in workloads:
        for metric in config["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = [results[s][w][name] for s in range(SETS)]
            spreads = [spread(v) for v in sets]
            shift = worse_by(statistics.median(sets[0]),
                             statistics.median(sets[1]), metric["better"])
            host = spread([b / a for a, b in zip(*sets)])
            if max(spreads) >= bound or shift > bound:
                verdict = "FAIL"
            elif max(spreads) >= bound / 3:
                verdict = "ok"
            else:
                verdict = "steady"
            bad += verdict == "FAIL"
            print("%-14s %-18s %6.2f %10.4g %7.3f %10.4g %7.3f %7.3f %7.3f  %s" % (
                w, name, bound, statistics.median(sets[0]), spreads[0],
                statistics.median(sets[1]), spreads[1], shift, host, verdict))
    print("failed operations: %d" % failures)
    return 1 if bad or failures else 0


if __name__ == "__main__":
    sys.exit(main())
