// Ablation A6: what does a finite access link cost?
//
// Two views of the transfer scheduler against the paper's section-2.2.4
// bandwidth analysis:
//
// 1. The scheduler driven directly, back-to-back worst-case repairs
//    (d = k = 128 on a 128 MB archive): measured repairs/day per link
//    profile next to the analytic ceiling 86400 / delta_repair. On the 2009
//    DSL line the paper bounds this at ~20 repairs/day (18.75 analytic).
//    A job runs in whole one-hour rounds and the next one starts the round
//    after its predecessor completes, so the scheduler sustains exactly
//    24 / ceil(delta_repair / 1 h) per day: 12 on dsl-2009, 24 on the
//    faster links.
//
// 2. The flash-crowd world swept over the link axis (common random
//    numbers; instant-repair baseline alongside): how queueing stretches
//    time-to-backup/restore and how hard the join wave saturates uplinks.
//
//   ./bench_ablation_transfer [--paper] [--peers=N] [--rounds=R]
//                             [--links=dsl-2009,dsl-modern,ftth]
//                             [--jobs=J] [--threads=T]

#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "net/bandwidth.h"
#include "scenario/parse.h"
#include "sweep/runner.h"
#include "sweep/spec.h"
#include "transfer/link.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace p2p;

  sweep::SweepSpec spec;
  spec.base.peers = 600;
  spec.base.rounds = 3'600;  // 150 days: the day-100 wave plus aftermath
  std::string links_csv = "dsl-2009,dsl-modern,ftth";
  int64_t jobs = 12;
  int threads = 0;

  util::FlagSet flags;
  scenario::ScenarioFlags scale;
  scale.Register(&flags);
  flags.String("links", &links_csv,
               "comma-separated link-profile names to compare");
  flags.Int64("jobs", &jobs, "back-to-back repairs per link in part 1");
  flags.Int32("threads", &threads, "worker threads (0 = hardware)");
  if (auto st = flags.Parse(argc, argv); !st.ok()) {
    std::cerr << st.ToString() << "\n" << flags.Usage(argv[0]);
    return 1;
  }
  if (auto st = scale.Apply(&spec.base); !st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }
  if (auto st = scenario::ParseStringList(links_csv, &spec.links); !st.ok()) {
    std::cerr << "--links: " << st.ToString() << "\n";
    return 1;
  }

  // ---- Part 1: the repair ceiling, scheduler vs closed form. ------------
  constexpr int kK = 128;
  std::printf("## Repair ceiling: back-to-back d=%d repairs, one peer\n\n",
              kK);
  util::Table ceiling({"link", "up kB/s", "down kB/s", "delta_repair min",
                       "analytic/day", "measured/day", "analytic:measured"});
  for (const std::string& name : spec.links) {
    const util::Result<net::LinkProfile> link =
        transfer::FindLinkProfile(name);
    if (!link.ok()) {
      std::cerr << link.status().ToString() << "\n";
      return 1;
    }
    const bench::RepairCeiling c = bench::MeasureRepairCeiling(*link, jobs);
    const double analytic = c.model.MaxRepairsPerDay(kK);
    const double measured = c.measured_per_day;
    ceiling.BeginRow();
    ceiling.Add(name);
    ceiling.Add(link->upload_bytes_per_s / 1024.0, 1);
    ceiling.Add(link->download_bytes_per_s / 1024.0, 1);
    ceiling.Add(c.model.RepairSeconds(kK) / 60.0, 1);
    ceiling.Add(analytic, 2);
    ceiling.Add(measured, 2);
    ceiling.Add(measured > 0 ? analytic / measured : 0.0, 2);
  }
  ceiling.RenderPretty(std::cout);
  std::printf(
      "\n(the round quantization only adds overhead, so analytic:measured\n"
      " >= 1; within 2x of the paper's <= 20/day DSL ceiling is on spec)\n\n");

  // ---- Part 2: the flash-crowd world across the link axis. --------------
  spec.scenarios = {"flash-crowd"};
  bench::PrintRunBanner("Ablation: link profile x flash crowd", spec.base);
  sweep::RunnerOptions ropts;
  ropts.threads = threads;
  ropts.progress = true;
  std::fprintf(stderr, "# grid: %zu cells on %d threads\n", spec.CellCount(),
               sweep::ResolveThreads(threads));
  const auto results = sweep::RunSweep(spec, ropts);
  if (!results.ok()) {
    std::cerr << results.status().ToString() << "\n";
    return 1;
  }

  // Instant-repair baseline: the same world, no transfer scheduler.
  util::Result<scenario::Scenario> instant =
      scenario::LoadScenario("flash-crowd");
  if (!instant.ok()) {
    std::cerr << instant.status().ToString() << "\n";
    return 1;
  }
  instant->peers = spec.base.peers;
  instant->rounds = spec.base.rounds;
  instant->seed = spec.base.seed;
  const scenario::Outcome baseline = scenario::RunScenario(*instant);

  util::Table t({"link", "repairs", "losses", "backup mean (r)",
                 "restore p99 (r)", "loss window (r)", "uplink util"});
  auto add_row = [&t](const std::string& link, const scenario::Outcome& out) {
    t.BeginRow();
    t.Add(link);
    t.Add(out.report.Count("repairs"));
    t.Add(out.report.Count("losses"));
    t.Add(out.report.Scalar("time_to_backup_mean"), 2);
    t.Add(out.report.Scalar("time_to_restore_p99"), 2);
    t.Add(out.report.Scalar("data_loss_window"), 0);
    t.Add(out.report.Scalar("uplink_utilization"), 4);
  };
  add_row("(instant)", baseline);
  for (const sweep::CellResult& cell : *results) {
    add_row(cell.cell.scenario.options.transfer_link, cell.outcome);
  }
  t.RenderPretty(std::cout);
  return 0;
}
