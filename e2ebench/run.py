#!/usr/bin/env python3
"""End-to-end benchmark entry point: builds the driver, runs one workload.

Run from the repository root:

    python3 e2ebench/run.py --workload wave-dsl-10k --seed 1 --seconds 55 --trace 0

`--workload all` runs every workload in turn and ends with a table of every
metric by name, with its unit.

The driver (e2ebench/driver.cc) is built from ../src as a Release build in
$CARGO_TARGET_DIR (default .bench_build). The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Lines before it record the machine fingerprint, the report digest and the
raw per-replica timings behind each filtered number.

Each workload is a world pinned as scenario text under e2ebench/worlds/. A
run executes in-process replicas of it for --seconds, at least three; a slow
host does fewer replicas rather than a longer run.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# name -> driver arguments. `chunk` is the number of rounds per filter chunk
# (about 0.1 s of work); a sweep's axes make it a grid.
WORKLOADS = {
    "wave-dsl-10k": {"world": "wave-dsl-10k.scn", "chunk": 10},
    "fig1-sweep": {
        "world": "fig1-sweep.scn",
        "thresholds": "132,148,164,180", "quotas": "256,384",
    },
}

# Longest a driver run may take before it is stopped.
DRIVER_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the Release driver; returns its path."""
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "e2e_driver")


def driver_args(workload, seed, seconds, trace):
    spec = WORKLOADS[workload]
    args = [
        "--workload=" + workload,
        "--world=" + os.path.join(HERE, "worlds", spec["world"]),
        "--seed=%d" % seed,
        "--seconds=%g" % seconds,
    ]
    if "chunk" in spec:
        args.append("--chunk=%d" % spec["chunk"])
    if "thresholds" in spec:
        args += ["--thresholds=" + spec["thresholds"],
                 "--quotas=" + spec["quotas"],
                 "--threads=%d" % min(4, os.cpu_count() or 1)]
    if trace:
        args.append("--trace")
    return args


def run_all(driver, seed, seconds, trace):
    """Runs every workload, then tabulates their metrics; 0 when all pass."""
    rows, status = [], 0
    for workload in WORKLOADS:
        done = subprocess.run(
            [driver] + driver_args(workload, seed, seconds, trace),
            stdout=subprocess.PIPE, text=True, timeout=DRIVER_TIMEOUT_S)
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            status = 1
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        status |= not result["correct"]
        for name, m in result["metrics"].items():
            rows.append((workload, name, m["value"], m["unit"]))
    for row in rows:
        print("%-14s %-32s %16.6g %s" % row)
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        driver = build(os.path.abspath(build_dir))
    except (OSError, subprocess.CalledProcessError) as e:
        print("e2ebench: build failed: %s" % e, file=sys.stderr)
        return 1
    if args.workload == "all":
        return run_all(driver, args.seed, args.seconds, args.trace)
    command = [driver] + driver_args(args.workload, args.seed, args.seconds,
                                     args.trace)
    try:
        done = subprocess.run(command, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("e2ebench: driver exceeded %ds" % DRIVER_TIMEOUT_S, file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
