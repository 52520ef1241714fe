// Figures 1 and 2: "Average rate of repairs" and "Average rate of data lost"
// "for the four categories of peers depending of the repair threshold".
//
// The paper reads both off one experiment ("to decide on a good repair
// threshold, we have to find a good compromise between the loss rate and the
// repair rate", 4.2.1), so the threshold grid runs once through the parallel
// sweep runner (src/sweep/) and both figures print from the same cells, in
// threshold order whatever the thread count.
//
// Expected shapes. Figure 1: repairs grow with the threshold, faster past
// ~156, strongly stratified (newcomers far above elders). Figure 2: losses
// are high near k = 128 (a repair triggered at 131 blocks can be outrun by
// further failures), collapse as the threshold grows, and fall almost
// entirely on newcomers. 148 is the paper's compromise between the two.
//
//   ./bench_fig12_threshold_sweep [--paper] [--peers=N] [--rounds=R]
//                                 [--scenario=<name|file>] [--threads=T]
//                                 [--threshold-lo=132] [--threshold-hi=180]
//                                 [--threshold-step=8]

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "sweep/runner.h"
#include "util/table.h"

namespace {

using namespace p2p;

// One figure's block: the run banner, then `metric` per age category and
// threshold as gnuplot-ready TSV and as an aligned table; with
// `total_losses`, a last column counts every lost archive of the cell.
void PrintFigure(const std::string& title, const std::string& metric,
                 int precision, bool total_losses,
                 const scenario::Scenario& base,
                 const std::vector<sweep::CellResult>& results) {
  bench::PrintRunBanner(title, base);
  std::vector<std::string> columns = {"threshold", "newcomers", "young", "old",
                                      "elder"};
  if (total_losses) columns.push_back("total_losses");
  util::Table table(columns);
  for (const sweep::CellResult& r : results) {
    table.BeginRow();
    table.Add(r.cell.scenario.options.repair_threshold);
    for (double rate : r.outcome.report.PerCategory(metric)) {
      table.Add(rate, precision);
    }
    if (total_losses) table.Add(r.outcome.report.Count("losses"));
  }
  table.RenderTsv(std::cout);
  std::printf("\n");
  table.RenderPretty(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  sweep::SweepSpec spec;
  spec.base.rounds = 18'000;
  int threshold_lo = 132;
  int threshold_hi = 180;
  int threshold_step = 8;
  sweep::RunnerOptions ropts;
  ropts.progress = true;

  util::FlagSet flags;
  scenario::ScenarioFlags scale;
  scale.Register(&flags);
  flags.Int32("threshold-lo", &threshold_lo, "first threshold of the sweep");
  flags.Int32("threshold-hi", &threshold_hi, "last threshold of the sweep");
  flags.Int32("threshold-step", &threshold_step, "sweep step");
  flags.Int32("threads", &ropts.threads, "worker threads (0 = hardware)");
  if (auto st = flags.Parse(argc, argv); !st.ok()) {
    std::cerr << st.ToString() << "\n" << flags.Usage(argv[0]);
    return 1;
  }
  if (threshold_step <= 0) {
    std::cerr << "--threshold-step must be positive\n";
    return 1;
  }
  if (auto st = scale.Apply(&spec.base); !st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }

  for (int threshold = threshold_lo; threshold <= threshold_hi;
       threshold += threshold_step) {
    spec.repair_thresholds.push_back(threshold);
  }
  const auto results = sweep::RunSweep(spec, ropts);
  if (!results.ok()) {
    std::cerr << results.status().ToString() << "\n";
    return 1;
  }

  PrintFigure(
      "Figure 1: average repairs per 1000 peers per day vs repair threshold",
      "repairs_1k_day", 4, /*total_losses=*/false, spec.base, *results);
  PrintFigure(
      "Figure 2: average archives lost per 1000 peers per day vs repair "
      "threshold",
      "losses_1k_day", 5, /*total_losses=*/true, spec.base, *results);
  return 0;
}
