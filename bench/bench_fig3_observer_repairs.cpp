// Figure 3: "Total number of repairs done by observers" - five measurement
// peers with frozen ages (1 hour, 1 day, 1 week, 1 month, 3 months) at
// repair threshold 148, cumulative repairs over the run (log scale in the
// paper).
//
// Expected shape: repair cost stratified by frozen age, the 3-month elder
// observer an order of magnitude (or more) below the young observers.
//
//   ./bench_fig3_observer_repairs [--paper] [--peers=N] [--rounds=R]

#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace p2p;

  scenario::Scenario scenario;
  scenario.peers = 2000;
  scenario.rounds = 24'000;  // 1000 days
  scenario.observers = bench::PaperObservers();
  scenario.options.repair_threshold = 148;

  util::FlagSet flags;
  scenario::ScenarioFlags scale;
  scale.Register(&flags);
  int threshold = 0;
  flags.Int32("threshold", &threshold,
              "repair threshold k' (0 = keep scenario value)");
  if (auto st = flags.Parse(argc, argv); !st.ok()) {
    std::cerr << st.ToString() << "\n" << flags.Usage(argv[0]);
    return 1;
  }
  if (auto st = scale.Apply(&scenario); !st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }
  if (threshold > 0) scenario.options.repair_threshold = threshold;

  bench::PrintRunBanner("Figure 3: cumulative repairs of the five observers",
                        scenario);

  const scenario::Outcome out = scenario::RunScenario(scenario);

  // Final totals (the paper quotes: elder/senior < 10, adult < 20,
  // teenager < 100, baby ~900 over 2000 days at 25k peers).
  util::Table totals({"observer", "frozen_age_days", "repairs", "losses"});
  for (const auto& obs : out.observers) {
    totals.BeginRow();
    totals.Add(obs.name);
    totals.Add(sim::RoundsToDays(obs.frozen_age), 3);
    totals.Add(obs.repairs);
    totals.Add(obs.losses);
  }
  totals.RenderPretty(std::cout);
  std::printf("\n");

  // The cumulative series (subsampled to ~40 rows for the log).
  util::Table series({"day", "baby-1h", "teenager-1d", "adult-1w", "senior-1m",
                      "elder-3m"});
  const auto& first = out.observers.front().cumulative_repairs.samples();
  const size_t step = first.size() > 40 ? first.size() / 40 : 1;
  for (size_t i = 0; i < first.size(); i += step) {
    series.BeginRow();
    series.Add(sim::RoundsToDays(first[i].first), 0);
    for (const auto& obs : out.observers) {
      series.Add(obs.cumulative_repairs.samples()[i].second, 0);
    }
  }
  series.RenderTsv(std::cout);
  std::fprintf(stderr, "run took %.1fs\n", out.wall_seconds);
  return 0;
}
