// Ablation A2: lifetime distribution.
//
// The paper's premise comes from Pareto-distributed lifetimes ([5]); its
// simulation uses the bounded profile table instead. This bench runs the
// same protocol under three churn worlds from the scenario registry:
//   paper      - the four-profile table with diurnal sessions
//   bernoulli  - the four-profile table with per-round coin availability
//   pareto     - one shared Pareto(1 month, 1.1) lifetime for all profiles
// Age-based selection should retain its advantage whenever age predicts
// residual lifetime (profiles, pareto) - the Pareto run is the distribution
// the paper's own argument is strongest for.
//
//   ./bench_ablation_lifetimes [--paper] [--peers=N] [--rounds=R]
//                              [--worlds=paper,bernoulli,pareto]

#include <iostream>

#include "bench_common.h"
#include "scenario/parse.h"
#include "sweep/runner.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace p2p;

  sweep::SweepSpec spec;
  spec.base.peers = 1500;
  spec.base.rounds = 18'000;
  std::string worlds_csv = "paper,bernoulli,pareto";

  util::FlagSet flags;
  scenario::ScenarioFlags scale;
  scale.Register(&flags);
  flags.String("worlds", &worlds_csv,
               "comma-separated scenario names/files to compare");
  if (auto st = flags.Parse(argc, argv); !st.ok()) {
    std::cerr << st.ToString() << "\n" << flags.Usage(argv[0]);
    return 1;
  }
  if (auto st = scale.Apply(&spec.base); !st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }
  if (auto st = scenario::ParseStringList(worlds_csv, &spec.scenarios);
      !st.ok()) {
    std::cerr << "--worlds: " << st.ToString() << "\n";
    return 1;
  }

  bench::PrintRunBanner("Ablation: lifetime distribution", spec.base);

  // The worlds are one sweep axis: each cell keeps the base scale, options
  // and seed and takes one world's population and workload.
  sweep::RunnerOptions ropts;
  ropts.progress = true;
  const auto results = sweep::RunSweep(spec, ropts);
  if (!results.ok()) {
    std::cerr << results.status().ToString() << "\n";
    return 1;
  }

  util::Table t({"churn world", "newcomers/1000/day", "young", "old", "elder",
                 "total repairs", "losses", "departures"});
  for (const sweep::CellResult& r : *results) {
    const metrics::RunReport& report = r.outcome.report;
    t.BeginRow();
    t.Add(r.cell.scenario.name);
    for (double rate : report.PerCategory("repairs_1k_day")) t.Add(rate, 3);
    t.Add(report.Count("repairs"));
    t.Add(report.Count("losses"));
    t.Add(report.Count("departures"));
  }
  t.RenderPretty(std::cout);
  return 0;
}
