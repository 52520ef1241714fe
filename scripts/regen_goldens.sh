#!/usr/bin/env bash
# One-command deterministic re-roll of every committed golden. Run this when
# a PR intentionally changes the simulation draw sequence (e.g. the PR-9
# eligible-candidate index re-rolled place_rng_) or a canonical emitter:
# the re-roll becomes a reviewable script invocation instead of hand edits.
#
#   scripts/regen_goldens.sh [build_dir]     # default: build
#
# Regenerated goldens:
#   tests/golden/sweep_default_cells.csv      sweep CSV emitter bytes
#   tests/golden/sweep_default_aggregate.csv  sweep aggregate emitter bytes
#   tests/golden/sweep_default.json           sweep JSON emitter bytes
#   tests/golden/peer_table_cells.csv         sweep CSV over the peer-table
#                                             world, every registered metric
#   tests/golden/transfer_small_cells.csv     the sweep golden world with the
#                                             transfer scheduler on dsl-2009
#                                             (timeout visibility), every
#                                             registered metric
#   tests/golden/transfer_peer_table_cells.csv  the peer-table world with the
#                                             transfer scheduler on dsl-2009
#                                             (instant visibility), every
#                                             registered metric
#   tests/golden/flash_crowd.scenario         canonical render of the
#                                             registry entry
#   tests/golden/parameterized_strategies.scenario  canonical render fixed
#                                             point of the committed file
#
# NOT regenerated (inputs, not outputs):
#   tests/golden/sweep_small_world.scenario   the sweep goldens' world; it
#       carries a hand-written header comment that the canonical renderer
#       would strip, and nothing about it depends on the draw sequence.
#   tests/golden/peer_table_world.scenario    the peer-table golden's world
#       (instant visibility, two observers, a departure grace period, a mass
#       exit and a flash crowd), kept for the same reasons.
#
# The sweep goldens are thread-count invariant by construction (the sweep
# tests verify 1-vs-8-thread byte identity), so this script runs the
# default thread count. Output is stable across runs: everything is seeded
# by the scenario file.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"

for tool in sweep_demo scenario_tool; do
  if [[ ! -x "$BUILD/$tool" ]]; then
    echo "error: $BUILD/$tool not found - build first:" >&2
    echo "  cmake -B $BUILD -S . && cmake --build $BUILD -j" >&2
    exit 1
  fi
done

GOLDEN=tests/golden
WORLD=$GOLDEN/sweep_small_world.scenario
SWEEP_ARGS=(--scenario="$WORLD" --thresholds=20,26 --replicates=2)

echo "== sweep emitter goldens (grid: $WORLD x thresholds {20,26} x 2 reps) =="
"$BUILD/sweep_demo" "${SWEEP_ARGS[@]}" --format=csv \
  > "$GOLDEN/sweep_default_cells.csv"
"$BUILD/sweep_demo" "${SWEEP_ARGS[@]}" --format=aggregate \
  > "$GOLDEN/sweep_default_aggregate.csv"
"$BUILD/sweep_demo" "${SWEEP_ARGS[@]}" --format=json \
  > "$GOLDEN/sweep_default.json"

# The 22 registered metrics, in registration order (sweep_test.cc carries
# the same list as kAllMetrics).
ALL_METRICS=repairs,losses,blocks_uploaded,departures,timeouts
ALL_METRICS+=,repairs_1k_day,losses_1k_day,repair_bandwidth
ALL_METRICS+=,time_to_repair_mean,time_to_repair_p99,partnership_lifetime_mean
ALL_METRICS+=,vulnerability_rounds,cum_repairs,cum_losses,mean_population
ALL_METRICS+=,final_population,time_to_backup_mean,time_to_backup_p99
ALL_METRICS+=,time_to_restore_mean,time_to_restore_p99,data_loss_window
ALL_METRICS+=,uplink_utilization
PEER_WORLD=$GOLDEN/peer_table_world.scenario
echo "== peer-table golden ($PEER_WORLD x thresholds {20,26} x quotas {40,128}) =="
"$BUILD/sweep_demo" --scenario="$PEER_WORLD" --thresholds=20,26 \
  --quotas=40,128 --metrics="$ALL_METRICS" --format=csv \
  > "$GOLDEN/peer_table_cells.csv"

echo "== transfer goldens (both worlds x thresholds {20,26} on dsl-2009) =="
"$BUILD/sweep_demo" --scenario="$WORLD" --thresholds=20,26 --links=dsl-2009 \
  --metrics="$ALL_METRICS" --format=csv > "$GOLDEN/transfer_small_cells.csv"
"$BUILD/sweep_demo" --scenario="$PEER_WORLD" --thresholds=20,26 \
  --links=dsl-2009 --metrics="$ALL_METRICS" --format=csv \
  > "$GOLDEN/transfer_peer_table_cells.csv"

echo "== canonical scenario-text goldens =="
"$BUILD/scenario_tool" show flash-crowd > "$GOLDEN/flash_crowd.scenario"
"$BUILD/scenario_tool" show "$GOLDEN/parameterized_strategies.scenario" \
  > "$GOLDEN/parameterized_strategies.scenario.tmp"
mv "$GOLDEN/parameterized_strategies.scenario.tmp" \
   "$GOLDEN/parameterized_strategies.scenario"

echo "== done; review with: git diff --stat tests/golden =="
git --no-pager diff --stat -- tests/golden || true
