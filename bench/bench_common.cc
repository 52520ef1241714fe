#include "bench_common.h"

#include <cstdio>

#include "transfer/scheduler.h"

namespace p2p {
namespace bench {
namespace {

constexpr int kK = 128;
constexpr int kM = 128;

// An always-online world where owner 0 downloads from k dedicated sources.
class IdleSources : public transfer::PeerDirectory {
 public:
  bool Online(transfer::PeerId) const override { return true; }
  void AppendSources(transfer::PeerId,
                     std::vector<transfer::PeerId>* out) const override {
    for (transfer::PeerId src = 1; src <= kK; ++src) out->push_back(src);
  }
};

}  // namespace

std::vector<std::pair<std::string, sim::Round>> PaperObservers() {
  return {{"baby-1h", 1},
          {"teenager-1d", sim::kRoundsPerDay},
          {"adult-1w", sim::kRoundsPerWeek},
          {"senior-1m", sim::kRoundsPerMonth},
          {"elder-3m", 3 * sim::kRoundsPerMonth}};
}

void PrintRunBanner(const std::string& title,
                    const scenario::Scenario& scenario) {
  std::printf("# %s\n", title.c_str());
  std::printf(
      "# scenario=%s peers=%u rounds=%lld (%.0f days) seed=%llu k=%d m=%d "
      "quota=%d timeout=%lld market=%d events=%zu\n",
      scenario.name.c_str(), scenario.peers,
      static_cast<long long>(scenario.rounds),
      sim::RoundsToDays(scenario.rounds),
      static_cast<unsigned long long>(scenario.seed), scenario.options.k,
      scenario.options.m, scenario.options.quota_blocks,
      static_cast<long long>(scenario.options.partner_timeout),
      scenario.options.quota_market ? 1 : 0, scenario.workload.events.size());
}

RepairCeiling MeasureRepairCeiling(const net::LinkProfile& link,
                                   int64_t jobs) {
  // Ids: owner 0 and its sources 1..k.
  transfer::TransferScheduler sched(link, /*id_capacity=*/kK + 1,
                                    net::kArchiveBytes, kK, kM);
  const IdleSources directory;
  sim::Round now = 0;
  std::vector<transfer::TransferCompletion> done;
  for (int64_t job = 0; job < jobs; ++job) {
    sched.Enqueue(0, 1, /*initial=*/false, kK, now);
    while (sched.HasJob(0)) {
      done.clear();
      sched.Tick(++now, directory, &done);
    }
  }
  return {sched.model(), static_cast<double>(sim::kRoundsPerDay * jobs) /
                             static_cast<double>(now)};
}

}  // namespace bench
}  // namespace p2p
