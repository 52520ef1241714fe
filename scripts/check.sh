#!/usr/bin/env bash
# Single CI entry point: tier-1 verify (configure + build + ctest) followed
# by a ~30-second smoke sweep exercising the parallel runner end to end.
# Set P2P_CHECK_SKIP_TIER1=1 to skip the tier-1 preamble when the caller
# (e.g. the CI workflow) has already configured, built, and run ctest.
set -euo pipefail

cd "$(dirname "$0")/.."

if [[ "${P2P_CHECK_SKIP_TIER1:-0}" != "1" ]]; then
  echo "== tier-1: configure + build + ctest =="
  cmake -B build -S .
  cmake --build build -j
  (cd build && ctest --output-on-failure -j"$(nproc)")
else
  echo "== tier-1 skipped (P2P_CHECK_SKIP_TIER1=1); using the existing build =="
fi

echo
echo "== lint: detlint (determinism/hot-path rules) + clang-tidy =="
# The same gate CI's lint job runs: the project linter is always available
# (python3), clang-tidy participates when installed and self-skips when not,
# so "clean" means the same thing locally and in CI.
python3 scripts/detlint.py
./scripts/run_clang_tidy.sh build

echo
echo "== smoke sweep: 2x2 grid, 2 replicates, 2 threads =="
./build/sweep_demo \
  --peers=150 --rounds=600 \
  --thresholds=140,156 --quotas=256,384 \
  --replicates=2 --threads=2 --format=aggregate

echo
echo "== metrics smoke: registry listing + a non-default metrics= sweep =="
# The metrics subcommand must list the registry (repair_bandwidth is the
# canary probe), and a --metrics selection must drive a sweep end to end.
./build/scenario_tool metrics --names | grep -q '^repair_bandwidth$'
./build/scenario_tool metrics > /dev/null
./build/sweep_demo \
  --scenario=tests/golden/sweep_small_world.scenario \
  --thresholds=20,26 --replicates=2 --threads=2 --format=csv \
  --metrics=repairs,losses,repair_bandwidth,time_to_repair_mean,time_to_repair_p99 \
  | head -1 | grep -q 'repair_bandwidth,time_to_repair_mean'

echo
echo "== scenario smoke: every registered scenario, invariant-checked =="
# 200 rounds at 500 peers per scenario; --check makes the run fail on any
# Validate() error or violated simulation invariant. --brief prints a
# one-line summary (peers, rounds, wall ms, headline metrics) so CI logs
# show what each smoke run actually did instead of discarding the output.
for scenario in $(./build/scenario_tool list); do
  echo "-- scenario: ${scenario}"
  ./build/scenario_tool run "${scenario}" --peers=500 --rounds=200 --check \
    --brief
done

echo
echo "== population smoke: every registered population, sampled =="
# Compiles each registry population and samples every lifetime law and
# session process it uses (1M lifetime draws per scenario).
for scenario in $(./build/scenario_tool list); do
  echo "-- population: ${scenario}"
  ./build/bench_tab_profiles --scenario="${scenario}" > /dev/null
done

echo
echo "== figure smoke: every figure and ablation program runs =="
# The programs behind the paper's figures and the ablation tables, at a tiny
# scale: a program that no longer runs to completion fails CI here. The list
# comes from the source tree, so a new figure or ablation joins the loop.
for src in bench/bench_fig*.cpp bench/bench_ablation_*.cpp; do
  bench="$(basename "${src}" .cpp)"
  echo "-- ${bench}"
  "./build/${bench}" --peers=300 --rounds=300 > /dev/null
done
./build/bench_tab_maintenance_cost > /dev/null

echo
echo "== transfer smoke: every registered scenario on the 2009 DSL link, invariant-checked =="
# The same scenario loop with the bandwidth-constrained transfer scheduler
# enabled: repairs queue and stretch over rounds instead of completing
# instantly, so this exercises the enqueue / fair-share tick / completion /
# cancel-on-departure paths (and their invariants) in every world.
for scenario in $(./build/scenario_tool list); do
  echo "-- scenario: ${scenario} (transfer=dsl-2009)"
  ./build/scenario_tool run "${scenario}" --peers=500 --rounds=200 --check \
    --transfer=dsl-2009 --brief
done

echo
echo "== strategy smoke: every registered policy, selection, and estimator, invariant-checked =="
# A registered strategy that cannot complete a short run (bad defaults, a
# FlagLevel that masks its own trigger, a crash in Choose or StabilityScore)
# fails CI here.
for policy in $(./build/scenario_tool policies --names); do
  echo "-- policy: ${policy}"
  ./build/scenario_tool run paper --peers=500 --rounds=200 --check \
    --policy="${policy}" --brief
done
for selection in $(./build/scenario_tool selections --names); do
  echo "-- selection: ${selection}"
  ./build/scenario_tool run paper --peers=500 --rounds=200 --check \
    --selection="${selection}" --brief
done
for estimator in $(./build/scenario_tool estimators --names); do
  echo "-- estimator: ${estimator}"
  ./build/scenario_tool run paper --peers=500 --rounds=200 --check \
    --estimator="${estimator}" --brief
done

echo
echo "== workload smoke: population events actually fire, invariant-checked =="
# The registry's workload events start at day 30-100 (rounds 720-2400), so
# the 200-round loop above never executes a join wave or exit. Run the three
# event scenarios long enough that every event fires at least once.
for scenario in flash-crowd mass-exit growing; do
  echo "-- scenario: ${scenario} (3000 rounds)"
  ./build/scenario_tool run "${scenario}" --peers=500 --rounds=3000 --check \
    --brief
done

echo
echo "== trace smoke: --trace produces a loadable Chrome trace =="
# A traced run must still succeed, write a non-empty trace_event document,
# and leave the simulation output intact (tracing may never perturb results).
./build/scenario_tool run paper --peers=500 --rounds=200 --check --brief \
  --trace=build/check_trace.json 2> /dev/null
head -c 64 build/check_trace.json | grep -q '"traceEvents"'
rm -f build/check_trace.json

echo
echo "check.sh: OK"
