// Ablation A4: quota sensitivity ("We plan to investigate smaller quota in
// future work", paper 4.1).
//
// The paper fixes quota = 384 (provide 3x what you back up). This sweep
// shrinks and grows the quota; with n = 256 blocks per peer, quota below
// ~256 starves placement outright, and the band in between shows how much
// slack the market needs.

#include <iostream>

#include "bench_common.h"
#include "sweep/runner.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace p2p;

  sweep::SweepSpec spec;
  spec.base.peers = 1500;
  spec.base.rounds = 12'000;
  spec.quotas = {260, 288, 320, 384, 512};

  util::FlagSet flags;
  scenario::ScenarioFlags scale;
  scale.Register(&flags);
  if (auto st = flags.Parse(argc, argv); !st.ok()) {
    std::cerr << st.ToString() << "\n" << flags.Usage(argv[0]);
    return 1;
  }
  if (auto st = scale.Apply(&spec.base); !st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }

  bench::PrintRunBanner("Ablation: quota per peer", spec.base);

  sweep::RunnerOptions ropts;
  ropts.progress = true;
  const auto results = sweep::RunSweep(spec, ropts);
  if (!results.ok()) {
    std::cerr << results.status().ToString() << "\n";
    return 1;
  }

  util::Table t({"quota", "backed up", "mean partners", "quota used",
                 "repairs", "losses", "newcomer losses/1000/day"});
  for (const sweep::CellResult& r : *results) {
    const scenario::Outcome& out = r.outcome;
    t.BeginRow();
    t.Add(r.cell.scenario.options.quota_blocks);
    t.Add(out.population.backed_up);
    t.Add(out.population.mean_partners, 1);
    t.Add(out.population.mean_hosted, 1);
    t.Add(out.report.Count("repairs"));
    t.Add(out.report.Count("losses"));
    t.Add(out.report.PerCategory("losses_1k_day")[0], 4);
  }
  t.RenderPretty(std::cout);
  return 0;
}
