// Shared pieces of the figure/table benches: the paper's observer set, the
// run banner, and the single-peer repair-ceiling drive. Each bench runs its
// scenario through scenario::RunScenario, or its grid through
// sweep::RunSweep.
//
// Default scales are laptop-sized (the shape of every curve is stable well
// below the paper's 25,000 peers); pass --paper to any figure bench for the
// full 25,000-peer / 50,000-round configuration, and --scenario=<name|file>
// to swap the simulated world (see README "Scenarios" and
// src/scenario/registry.h for the built-in names).

#ifndef P2P_BENCH_BENCH_COMMON_H_
#define P2P_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "net/bandwidth.h"
#include "scenario/registry.h"  // scenario::ScenarioFlags, every bench's flags
#include "scenario/scenario.h"
#include "sim/clock.h"
#include "util/flags.h"

namespace p2p {
namespace bench {

/// The five observers of the paper's figure 3.
std::vector<std::pair<std::string, sim::Round>> PaperObservers();

/// Renders the standard run header (scenario + runtime) to stdout.
void PrintRunBanner(const std::string& title,
                    const scenario::Scenario& scenario);

/// The paper's single-peer repair ceiling (section 2.2.4) on one link.
struct RepairCeiling {
  /// The closed form: a net::kArchiveBytes archive, k = m = 128.
  net::RepairCostModel model;
  /// Full repairs per day the round-quantized scheduler sustained.
  double measured_per_day = 0.0;
};

/// Drives a transfer::TransferScheduler directly through `jobs` back-to-back
/// worst-case repairs (d = k) of one owner fed by 128 always-online
/// dedicated sources - no contention - and measures the per-day ceiling.
RepairCeiling MeasureRepairCeiling(const net::LinkProfile& link, int64_t jobs);

}  // namespace bench
}  // namespace p2p

#endif  // P2P_BENCH_BENCH_COMMON_H_
