// Ablation A3: the paper's future-work directions, implemented.
//
//   fixed      - the paper's fixed threshold (k' = 148)
//   adaptive   - "the repair threshold might be changed depending on the
//                 peer context": threshold follows the measured partner
//                 loss rate
//   proactive  - repair in small batches at the churn rate (Duminuco et
//                 al. [10], discussed in related work)
//   grace-1w   - "delaying the repair to allow peers to come back":
//                 departed peers' quota held for a one-week grace period
//
// Reported: repair traffic (operations and blocks), data loss, and the
// split across age categories.

#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace p2p;

  scenario::Scenario base;
  base.peers = 1500;
  base.rounds = 18'000;

  util::FlagSet flags;
  scenario::ScenarioFlags scale;
  scale.Register(&flags);
  if (auto st = flags.Parse(argc, argv); !st.ok()) {
    std::cerr << st.ToString() << "\n" << flags.Usage(argv[0]);
    return 1;
  }
  if (auto st = scale.Apply(&base); !st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }

  bench::PrintRunBanner("Ablation: maintenance policies (future work)", base);

  struct Config {
    const char* name;
    const char* policy;  // strategy-spec string (core/strategy_spec.h)
    sim::Round grace;
  };
  const Config configs[] = {
      {"fixed k'=148 (paper)", "fixed-threshold", 0},
      {"adaptive threshold", "adaptive-threshold", 0},
      {"proactive batches", "proactive", 0},
      {"adaptive redundancy", "adaptive-redundancy", 0},
      {"fixed + 1-week grace", "fixed-threshold", sim::kRoundsPerWeek},
  };

  util::Table t({"policy", "repairs", "blocks uploaded", "blocks/repair",
                 "losses", "newcomers/1000/day", "elder/1000/day"});
  for (const Config& config : configs) {
    scenario::Scenario s = base;
    auto policy = core::PolicySpec::Parse(config.policy);
    if (!policy.ok()) {
      std::cerr << policy.status().ToString() << "\n";
      return 1;
    }
    s.options.policy = *policy;
    s.options.departure_grace = config.grace;
    const scenario::Outcome out = scenario::RunScenario(s);
    t.BeginRow();
    t.Add(config.name);
    const int64_t repairs = out.report.Count("repairs");
    const int64_t uploaded = out.report.Count("blocks_uploaded");
    t.Add(repairs);
    t.Add(uploaded);
    t.Add(repairs > 0 ? static_cast<double>(uploaded) /
                            static_cast<double>(repairs)
                      : 0.0,
          1);
    t.Add(out.report.Count("losses"));
    t.Add(out.report.PerCategory("repairs_1k_day")[0], 3);
    t.Add(out.report.PerCategory("repairs_1k_day")[3], 3);
    std::fprintf(stderr, "%s done in %.1fs\n", config.name, out.wall_seconds);
  }
  t.RenderPretty(std::cout);
  return 0;
}
