// Ablation A1: which ingredient of the paper's scheme does the work?
//
// Four configurations at threshold 148:
//   oldest    - acceptance function + oldest-first selection (the paper)
//   sort-only - oldest-first selection, acceptance disabled
//   accept    - acceptance function + uniform selection from the pool
//   random    - neither (age-oblivious baseline)
// plus youngest-first as the adversarial control.
//
// The paper's claim predicts: the age-aware configurations shift repairs
// away from old peers onto newcomers; the random baseline flattens the
// stratification; youngest-first inverts part of it.

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

  bench::PrintRunBanner("Ablation: selection strategy / acceptance function",
                        base);

  struct Config {
    const char* name;
    const char* selection;  // strategy-spec string (core/strategy_spec.h)
    bool use_acceptance;
  };
  const Config configs[] = {
      {"oldest+accept (paper)", "oldest-first", true},
      {"sort-only", "oldest-first", false},
      {"accept-only", "random", true},
      {"random", "random", false},
      {"age-weighted (exp=2)", "weighted-random{age_exponent=2}", true},
      {"youngest (adversarial)", "youngest-first", true},
  };

  util::Table t({"config", "newcomers/1000/day", "young", "old", "elder",
                 "elder:newcomer ratio", "total repairs", "losses"});
  for (const Config& config : configs) {
    scenario::Scenario s = base;
    auto selection = core::SelectionSpec::Parse(config.selection);
    if (!selection.ok()) {
      std::cerr << selection.status().ToString() << "\n";
      return 1;
    }
    s.options.selection = *selection;
    s.options.use_acceptance = config.use_acceptance;
    const scenario::Outcome out = scenario::RunScenario(s);
    t.BeginRow();
    t.Add(config.name);
    const auto& repairs_1k = out.report.PerCategory("repairs_1k_day");
    for (int c = 0; c < metrics::kCategoryCount; ++c) {
      t.Add(repairs_1k[static_cast<size_t>(c)], 3);
    }
    const double newc = repairs_1k[0];
    const double elder = repairs_1k[3];
    t.Add(newc > 0 ? elder / newc : 0.0, 4);
    t.Add(out.report.Count("repairs"));
    t.Add(out.report.Count("losses"));
    std::fprintf(stderr, "%s done in %.1fs\n", config.name, out.wall_seconds);
  }
  t.RenderPretty(std::cout);
  return 0;
}
