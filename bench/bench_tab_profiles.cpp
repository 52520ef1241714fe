// Table T2 (paper section 4.1.1): the peer-profile table.
//
//   Profile   Proportion  Life expectancy   Availability
//   Durable   10%         unlimited         95%
//   Stable    25%         1.5 - 3.5 years   87%
//   Unstable  30%         3 - 18 months     75%
//   Erratic   35%         1 - 3 months      33%
//
// Draws one million peers from the generator and verifies empirically that
// proportions, lifetime means and stationary availabilities match. The
// audited population is a scenario (default: the paper table), so any
// registry entry or scenario file can be checked the same way:
//
//   ./bench_tab_profiles [--scenario=weekend-heavy]

#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "churn/profile.h"
#include "sim/clock.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace p2p;

  scenario::Scenario base;
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

  const auto compiled = base.population.Compile();
  if (!compiled.ok()) {
    std::cerr << compiled.status().ToString() << "\n";
    return 1;
  }
  const churn::ProfileSet& set = *compiled;
  util::Rng rng(2026);

  constexpr int kDraws = 1'000'000;
  std::vector<int64_t> counts(set.size(), 0);
  std::vector<util::RunningStat> lifetimes(set.size());
  for (int i = 0; i < kDraws; ++i) {
    const uint32_t idx = set.SampleIndex(&rng);
    ++counts[idx];
    const sim::Round life = set[idx].lifetime.Sample(&rng);
    if (life != sim::kNever) {
      lifetimes[idx].Add(sim::RoundsToDays(life));
    }
  }

  // Availability measured by simulating each profile's session process.
  std::vector<double> measured_avail(set.size(), 0.0);
  for (size_t p = 0; p < set.size(); ++p) {
    int64_t online = 0, total = 0;
    const churn::SessionProcess& sessions = set.sessions(p);
    bool on = sessions.SampleInitialOnline(&rng);
    while (total < 2'000'000) {
      const sim::Round len = on ? sessions.SampleOnline(&rng)
                                : sessions.SampleOffline(&rng);
      if (on) online += len;
      total += len;
      on = !on;
    }
    measured_avail[p] = static_cast<double>(online) / static_cast<double>(total);
  }

  std::printf("# Table: '%s' peer profiles, nominal vs measured (1M draws)\n",
              base.name.c_str());
  util::Table t({"profile", "proportion", "measured", "lifetime model",
                 "mean (days)", "measured mean (days)", "availability",
                 "measured avail"});
  for (size_t p = 0; p < set.size(); ++p) {
    t.BeginRow();
    t.Add(set[p].name);
    t.Add(set[p].proportion, 2);
    t.Add(counts[p] / static_cast<double>(kDraws), 4);
    t.Add(churn::LifetimeKindName(set[p].lifetime.kind));
    const double mean = set[p].lifetime.MeanRounds();
    if (mean == static_cast<double>(sim::kNever)) {
      t.Add("unlimited");
    } else {
      t.Add(sim::RoundsToDays(static_cast<sim::Round>(mean)), 1);
    }
    t.Add(lifetimes[p].count() > 0 ? lifetimes[p].mean() : 0.0, 1);
    t.Add(set[p].availability, 2);
    t.Add(measured_avail[p], 4);
  }
  t.RenderPretty(std::cout);
  return 0;
}
