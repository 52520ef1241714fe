// Table T1 (paper section 2.2.4): the maintenance-cost arithmetic.
//
// Reproduces the parameter table (archive 128 MB, k = 128, m = 128) and the
// derived feasibility numbers: repair time on a 2009 DSL link (~77 minutes
// for d < 128), the <= 20 repairs/day ceiling, and the one-repair-per-day
// budget for a 4 GB (32-archive) user implying roughly one repair per
// archive per month. Also reports the faster links the paper mentions.

#include <cstdio>
#include <iostream>
#include <string>

#include "net/bandwidth.h"
#include "transfer/link.h"
#include "util/table.h"

int main() {
  using namespace p2p;
  constexpr int kK = 128;
  constexpr int kM = 128;

  std::printf("# Table: backup system parameters (paper 2.2.4)\n");
  util::Table params({"parameter", "value"});
  params.BeginRow();
  params.Add("Archive Size");
  params.Add("128 MB");
  params.BeginRow();
  params.Add("k (initial blocks)");
  params.Add(kK);
  params.BeginRow();
  params.Add("m (added blocks)");
  params.Add(kM);
  params.BeginRow();
  params.Add("n = k + m");
  params.Add(kK + kM);
  params.BeginRow();
  params.Add("block size");
  params.Add("1 MB");
  params.RenderPretty(std::cout);

  std::printf("\n# Repair cost per link (d = blocks to replace)\n");
  util::Table costs({"link", "down kB/s", "up kB/s", "download s", "repair d=64",
                     "repair d=128 (min)", "max repairs/day (d=128)",
                     "initial upload (h)", "restore 1 archive (min)"});
  for (const std::string& name : transfer::LinkProfileNames()) {
    const net::LinkProfile link = *transfer::FindLinkProfile(name);
    const net::RepairCostModel model(link, net::kArchiveBytes, kK, kM);
    costs.BeginRow();
    costs.Add(link.name);
    costs.Add(link.download_bytes_per_s / 1024.0, 0);
    costs.Add(link.upload_bytes_per_s / 1024.0, 0);
    costs.Add(model.DownloadSeconds(), 0);
    costs.Add(model.RepairSeconds(64) / 60.0, 1);
    costs.Add(model.RepairSeconds(128) / 60.0, 1);
    costs.Add(model.MaxRepairsPerDay(128), 1);
    costs.Add(model.InitialUploadSeconds(1) / 3600.0, 2);
    costs.Add(model.RestoreSeconds(1) / 60.0, 1);
  }
  costs.RenderPretty(std::cout);

  // The paper's usability argument: "if we want to limit the cost to one
  // repair per day, with 32 archives (4 GB of data), the repair rate should
  // be less than one per month approximatively."
  const net::RepairCostModel dsl(net::LinkProfile::Dsl2009(),
                                 net::kArchiveBytes, kK, kM);
  const double budget_per_archive_per_day = 1.0 / 32.0;
  std::printf(
      "\n# Feasibility: one repair/day budget, 32 archives (4 GB)\n"
      "repair time (d=128): %.0f minutes -> max %.1f repairs/day on dsl-2009\n"
      "per-archive budget: %.4f repairs/day = one repair per %.0f days\n",
      dsl.RepairSeconds(128) / 60.0, dsl.MaxRepairsPerDay(128),
      budget_per_archive_per_day, 1.0 / budget_per_archive_per_day);
  return 0;
}
