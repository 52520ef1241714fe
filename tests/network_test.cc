// Integration tests of the simulated backup network: lifecycle, invariants,
// determinism, both visibility semantics, observers, the quota market, and
// forced-loss scenarios.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "backup/network.h"
#include "backup/options.h"
#include "churn/profile.h"
#include "scenario/population.h"
#include "sim/engine.h"

namespace p2p {
namespace backup {
namespace {

// The totals now live in the network's metrics::Collector; this mirror
// keeps the test bodies terse.
struct RunResult {
  int64_t repairs = 0;
  int64_t losses = 0;
  int64_t blocks_uploaded = 0;
  int64_t departures = 0;
  int64_t timeouts = 0;
  int64_t newcomer_repairs = 0;
  int64_t elder_repairs = 0;
  int64_t newcomer_losses = 0;
};

SystemOptions SmallOptions() {
  SystemOptions opts;
  opts.num_peers = 300;
  opts.k = 16;
  opts.m = 16;
  opts.repair_threshold = 20;
  opts.quota_blocks = 48;
  return opts;
}

RunResult RunSmall(const SystemOptions& opts, sim::Round rounds, uint64_t seed,
                   const churn::ProfileSet& profiles,
                   int invariant_checks = 4) {
  sim::EngineOptions eopts;
  eopts.seed = seed;
  eopts.end_round = rounds;
  sim::Engine engine(eopts);
  BackupNetwork network(&engine, &profiles, opts);
  const sim::Round step = rounds / (invariant_checks + 1);
  for (sim::Round next = step; next < rounds; next += step) {
    while (engine.now() < next && engine.Step()) {
    }
    network.CheckInvariants();
  }
  while (engine.Step()) {
  }
  network.CheckInvariants();
  RunResult r;
  const metrics::Collector& collected = network.metrics();
  r.repairs = collected.repairs();
  r.losses = collected.losses();
  r.blocks_uploaded = collected.blocks_uploaded();
  r.departures = collected.departures();
  r.timeouts = collected.timeouts();
  r.newcomer_repairs =
      collected.accounting().Snapshot(metrics::AgeCategory::kNewcomer).repairs;
  r.elder_repairs =
      collected.accounting().Snapshot(metrics::AgeCategory::kElder).repairs;
  r.newcomer_losses =
      collected.accounting().Snapshot(metrics::AgeCategory::kNewcomer).losses;
  return r;
}

TEST(NetworkTest, BootstrapsAndBacksUpEveryone) {
  sim::EngineOptions eopts;
  eopts.end_round = 200;
  sim::Engine engine(eopts);
  const auto profiles = *scenario::PopulationSpec::Paper().Compile();
  BackupNetwork network(&engine, &profiles, SmallOptions());
  engine.Run();
  const auto pop = network.ComputePopulationStats();
  EXPECT_GT(pop.backed_up, 290);  // nearly everyone placed 32 blocks
  // Stochastic threshold, not a golden: the index sampler's draw sequence
  // re-roll moved this from ~25.1 to ~24.9 (PoolIndexTest locks the
  // distribution itself).
  EXPECT_GT(pop.mean_partners, 24.0);
  network.CheckInvariants();
}

TEST(NetworkTest, DeterministicForSeed) {
  const auto profiles = *scenario::PopulationSpec::Paper().Compile();
  const auto a = RunSmall(SmallOptions(), 3000, 7, profiles, 1);
  const auto b = RunSmall(SmallOptions(), 3000, 7, profiles, 1);
  EXPECT_EQ(a.repairs, b.repairs);
  EXPECT_EQ(a.losses, b.losses);
  EXPECT_EQ(a.blocks_uploaded, b.blocks_uploaded);
  EXPECT_EQ(a.departures, b.departures);
}

TEST(NetworkTest, SeedChangesOutcome) {
  const auto profiles = *scenario::PopulationSpec::Paper().Compile();
  const auto a = RunSmall(SmallOptions(), 3000, 7, profiles, 1);
  const auto b = RunSmall(SmallOptions(), 3000, 8, profiles, 1);
  EXPECT_NE(a.blocks_uploaded, b.blocks_uploaded);
}

TEST(NetworkTest, InvariantsHoldInTimeoutMode) {
  SystemOptions opts = SmallOptions();
  opts.visibility = VisibilityModel::kTimeoutPresumed;
  const auto profiles = *scenario::PopulationSpec::Paper().Compile();
  const auto r = RunSmall(opts, 5000, 11, profiles, 8);
  EXPECT_GT(r.repairs, 0);
}

TEST(NetworkTest, InvariantsHoldInInstantMode) {
  SystemOptions opts = SmallOptions();
  opts.visibility = VisibilityModel::kInstantOnline;
  const auto profiles = *scenario::PopulationSpec::PaperBernoulli().Compile();
  const auto r = RunSmall(opts, 5000, 12, profiles, 8);
  EXPECT_GT(r.repairs, 0);
}

TEST(NetworkTest, DeparturesAreReplacedAndSevered) {
  SystemOptions opts = SmallOptions();
  const auto profiles = *scenario::PopulationSpec::Paper().Compile();
  sim::EngineOptions eopts;
  eopts.end_round = sim::MonthsToRounds(4);  // beyond erratic lifetimes
  eopts.seed = 3;
  sim::Engine engine(eopts);
  BackupNetwork network(&engine, &profiles, opts);
  engine.Run();
  EXPECT_GT(network.metrics().departures(), 0);
  // Population stays constant: every id maps to a live peer.
  EXPECT_EQ(network.total_ids(), opts.num_peers);
  network.CheckInvariants();
}

TEST(NetworkTest, TimeoutSeveringOnlyInTimeoutMode) {
  const auto profiles = *scenario::PopulationSpec::Paper().Compile();
  SystemOptions t = SmallOptions();
  t.visibility = VisibilityModel::kTimeoutPresumed;
  t.partner_timeout = 6;
  EXPECT_GT(RunSmall(t, 2000, 5, profiles, 1).timeouts, 0);
  SystemOptions i = SmallOptions();
  i.visibility = VisibilityModel::kInstantOnline;
  EXPECT_EQ(RunSmall(i, 2000, 5, profiles, 1).timeouts, 0);
}

TEST(NetworkTest, ObserversDoNotConsumeQuotaAndRepair) {
  SystemOptions opts = SmallOptions();
  const auto profiles = *scenario::PopulationSpec::Paper().Compile();
  sim::EngineOptions eopts;
  eopts.end_round = 4000;
  eopts.seed = 13;
  sim::Engine engine(eopts);
  BackupNetwork network(&engine, &profiles, opts);
  network.AddObserver("baby", 1);
  network.AddObserver("elder", 90 * sim::kRoundsPerDay);
  engine.Run();
  network.CheckInvariants();  // verifies hosted counts exclude observers
  ASSERT_EQ(network.metrics().observers().size(), 2u);
  for (const auto& obs : network.metrics().observers()) {
    EXPECT_GE(obs.repairs, 1);  // at least the initial upload
    EXPECT_FALSE(obs.cumulative_repairs.samples().empty());
  }
  // Observers hold partner sets but host nothing.
  const PeerId baby = opts.num_peers;
  EXPECT_GT(network.AliveBlocks(baby), 0);
  EXPECT_EQ(network.HostedBlocks(baby), 0);
}

TEST(NetworkTest, ObserverAgeIsFrozen) {
  SystemOptions opts = SmallOptions();
  const auto profiles = *scenario::PopulationSpec::Paper().Compile();
  sim::EngineOptions eopts;
  eopts.end_round = 1000;
  sim::Engine engine(eopts);
  BackupNetwork network(&engine, &profiles, opts);
  network.AddObserver("week", sim::kRoundsPerWeek);
  engine.Run();
  EXPECT_EQ(network.AgeOf(opts.num_peers), sim::kRoundsPerWeek);
}

TEST(NetworkTest, QuotaNeverExceeded) {
  SystemOptions opts = SmallOptions();
  opts.quota_blocks = 40;
  const auto profiles = *scenario::PopulationSpec::Paper().Compile();
  sim::EngineOptions eopts;
  eopts.end_round = 3000;
  eopts.seed = 17;
  sim::Engine engine(eopts);
  BackupNetwork network(&engine, &profiles, opts);
  engine.Run();
  for (PeerId id = 0; id < opts.num_peers; ++id) {
    ASSERT_LE(network.HostedBlocks(id), 40);
  }
  network.CheckInvariants();
}

TEST(NetworkTest, ScarceQuotaForcesLossesOnNewcomers) {
  // With barely enough supply and a tight timeout, peers cannot always hold
  // k blocks in the system: archives must be lost, and newcomers (whose
  // sets skew to erratic partners) must bear them.
  SystemOptions opts = SmallOptions();
  opts.quota_blocks = 34;  // demand 32 of 34 per peer: near saturation
  opts.partner_timeout = 4;
  opts.repair_threshold = 18;
  const auto profiles = *scenario::PopulationSpec::Paper().Compile();
  const auto r = RunSmall(opts, sim::MonthsToRounds(5), 19, profiles, 2);
  EXPECT_GT(r.losses, 0);
  EXPECT_GE(r.newcomer_losses, r.losses / 2);
}

TEST(NetworkTest, QuotaMarketDisplacesYoungest) {
  // With the market on, older peers keep placing even at saturation; with
  // it off, their repairs starve more often (fewer blocks uploaded).
  SystemOptions with = SmallOptions();
  with.quota_blocks = 36;
  SystemOptions without = with;
  without.quota_market = false;
  const auto profiles = *scenario::PopulationSpec::Paper().Compile();
  const auto a = RunSmall(with, sim::MonthsToRounds(5), 23, profiles, 1);
  const auto b = RunSmall(without, sim::MonthsToRounds(5), 23, profiles, 1);
  EXPECT_GT(a.blocks_uploaded, b.blocks_uploaded);
}

TEST(NetworkTest, DepartureGraceDelaysQuotaRelease) {
  SystemOptions opts = SmallOptions();
  opts.departure_grace = sim::kRoundsPerWeek;
  const auto profiles = *scenario::PopulationSpec::Paper().Compile();
  const auto r = RunSmall(opts, sim::MonthsToRounds(4), 29, profiles, 4);
  EXPECT_GT(r.departures, 0);  // grace path exercised + invariants
}

TEST(NetworkTest, RepairsGrowWithThreshold) {
  const auto profiles = *scenario::PopulationSpec::Paper().Compile();
  SystemOptions low = SmallOptions();
  low.repair_threshold = 17;
  SystemOptions high = SmallOptions();
  high.repair_threshold = 28;
  const auto a = RunSmall(low, sim::MonthsToRounds(4), 31, profiles, 1);
  const auto b = RunSmall(high, sim::MonthsToRounds(4), 31, profiles, 1);
  EXPECT_GT(b.repairs, a.repairs);
}

TEST(NetworkTest, NewcomersRepairMoreThanElders) {
  // The paper's central claim at miniature scale: after enough time for
  // elders to exist, newcomer repair rates dominate elder rates.
  SystemOptions opts = SmallOptions();
  const auto profiles = *scenario::PopulationSpec::Paper().Compile();
  sim::EngineOptions eopts;
  eopts.end_round = sim::MonthsToRounds(24);
  eopts.seed = 37;
  sim::Engine engine(eopts);
  BackupNetwork network(&engine, &profiles, opts);
  engine.Run();
  const auto& acc = network.metrics().accounting();
  const double newcomer =
      acc.RepairsPer1000PerDay(metrics::AgeCategory::kNewcomer);
  const double elder = acc.RepairsPer1000PerDay(metrics::AgeCategory::kElder);
  EXPECT_GT(newcomer, elder);
}

TEST(NetworkTest, CategorySeriesMonotone) {
  SystemOptions opts = SmallOptions();
  const auto profiles = *scenario::PopulationSpec::Paper().Compile();
  sim::EngineOptions eopts;
  eopts.end_round = 2000;
  sim::Engine engine(eopts);
  BackupNetwork network(&engine, &profiles, opts);
  engine.Run();
  const auto& series = network.metrics().category_series();
  ASSERT_GT(series.size(), 10u);
  for (size_t i = 1; i < series.size(); ++i) {
    for (int c = 0; c < metrics::kCategoryCount; ++c) {
      ASSERT_GE(series[i].cumulative_repairs[static_cast<size_t>(c)],
                series[i - 1].cumulative_repairs[static_cast<size_t>(c)]);
      ASSERT_GE(series[i].cumulative_losses[static_cast<size_t>(c)],
                series[i - 1].cumulative_losses[static_cast<size_t>(c)]);
    }
  }
}

TEST(NetworkTest, SelectionStrategyChangesPartnerQuality) {
  // Oldest-first should hand elder-age owners older partner sets than
  // youngest-first does.
  const auto profiles = *scenario::PopulationSpec::Paper().Compile();
  auto mean_age = [&](const char* selection) {
    SystemOptions opts = SmallOptions();
    opts.selection = *core::SelectionSpec::Parse(selection);
    sim::EngineOptions eopts;
    eopts.end_round = sim::MonthsToRounds(8);
    eopts.seed = 41;
    sim::Engine engine(eopts);
    BackupNetwork network(&engine, &profiles, opts);
    engine.Run();
    double sum = 0;
    int n = 0;
    for (PeerId id = 0; id < opts.num_peers; ++id) {
      const auto ps = network.ComputePartnerStats(id);
      if (ps.count > 0) {
        sum += ps.mean_age_days;
        ++n;
      }
    }
    return sum / n;
  };
  EXPECT_GT(mean_age("oldest-first"), mean_age("youngest-first"));
}

TEST(NetworkTest, PoliciesRun) {
  // Every registered policy (including parameterized instances of the new
  // ones) drives a short run without stalling repairs.
  const auto profiles = *scenario::PopulationSpec::Paper().Compile();
  for (const char* policy :
       {"fixed-threshold", "adaptive-threshold", "proactive",
        "adaptive-redundancy", "adaptive-redundancy{safety_factor=8}",
        "proactive{batch_blocks=4,emergency_threshold=132}"}) {
    SCOPED_TRACE(policy);
    SystemOptions opts = SmallOptions();
    auto spec = core::PolicySpec::Parse(policy);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    opts.policy = *spec;
    const auto r = RunSmall(opts, 3000, 43, profiles, 2);
    EXPECT_GT(r.repairs, 0);
  }
}

TEST(NetworkTest, WeightedRandomSelectionRuns) {
  const auto profiles = *scenario::PopulationSpec::Paper().Compile();
  SystemOptions opts = SmallOptions();
  opts.selection = *core::SelectionSpec::Parse("weighted-random{age_exponent=2}");
  const auto r = RunSmall(opts, 3000, 47, profiles, 2);
  EXPECT_GT(r.repairs, 0);
}

TEST(NetworkTest, EstimatorsRun) {
  // Every registered estimator (including parameterized instances) drives a
  // short run with the full invariant set intact.
  const auto profiles = *scenario::PopulationSpec::Paper().Compile();
  for (const char* estimator :
       {"age-rank", "pareto-residual", "empirical-residual",
        "availability-weighted", "availability-weighted{exponent=4,floor=0}",
        "empirical-residual{bucket_rounds=72,buckets=30}"}) {
    SCOPED_TRACE(estimator);
    SystemOptions opts = SmallOptions();
    auto spec = core::EstimatorSpec::Parse(estimator);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    opts.estimator = *spec;
    const auto r = RunSmall(opts, 3000, 53, profiles, 2);
    EXPECT_GT(r.repairs, 0);
  }
}

TEST(NetworkTest, EmpiricalEstimatorLearnsFromDepartures) {
  // The online histogram sees every definitive departure of the run.
  const auto profiles = *scenario::PopulationSpec::Paper().Compile();
  SystemOptions opts = SmallOptions();
  opts.estimator = *core::EstimatorSpec::Parse("empirical-residual");
  sim::EngineOptions eopts;
  eopts.end_round = sim::MonthsToRounds(4);  // beyond erratic lifetimes
  eopts.seed = 9;
  sim::Engine engine(eopts);
  BackupNetwork network(&engine, &profiles, opts);
  engine.Run();
  ASSERT_GT(network.metrics().departures(), 0);
  const auto& est = static_cast<const core::EmpiricalResidualEstimator&>(
      network.estimator());
  EXPECT_EQ(est.observed_departures(), network.metrics().departures());
  network.CheckInvariants();
}

TEST(NetworkTest, AvailabilityWeightedEstimatorPrefersStableHosts) {
  // With diurnal low-availability machines in the mix, weighting age by
  // measured uptime should lift the partner sets' nominal availability
  // relative to the pure age rank (same seed, common random numbers).
  const auto profiles = *scenario::PopulationSpec::Paper().Compile();
  auto mean_avail = [&](const char* estimator) {
    SystemOptions opts = SmallOptions();
    opts.estimator = *core::EstimatorSpec::Parse(estimator);
    sim::EngineOptions eopts;
    eopts.end_round = 3000;
    eopts.seed = 31;
    sim::Engine engine(eopts);
    BackupNetwork network(&engine, &profiles, opts);
    engine.Run();
    network.CheckInvariants();
    double sum = 0.0;
    int64_t owners = 0;
    for (PeerId id = 0; id < opts.num_peers; ++id) {
      const auto stats = network.ComputePartnerStats(id);
      if (stats.count == 0) continue;
      sum += stats.mean_nominal_availability;
      ++owners;
    }
    EXPECT_GT(owners, 0);
    return sum / static_cast<double>(owners);
  };
  const double age_rank = mean_avail("age-rank");
  const double weighted = mean_avail("availability-weighted{exponent=4}");
  EXPECT_GT(weighted, age_rank);
}

TEST(NetworkTest, PoolStatsAttributeEveryDraw) {
  // The candidate-sampling counters are a partition: every id drawn from
  // the eligible-candidate index lands in exactly one bucket, and the quota
  // market plus the acceptance function are the only per-draw filters. The
  // owner and its partners are pre-excluded before the first draw (counted
  // per episode, not per draw), and the pre-index dup / not-live / offline
  // rejects are structurally impossible and have no buckets at all.
  // Scores go through the monitor and the per-round memo here, so the run
  // pins an estimator that reads the monitor (the default age-rank does
  // not; PoolStatsScoreAgeOnlyPoolsWithoutMonitorOrMemo covers it).
  const auto profiles = *scenario::PopulationSpec::Paper().Compile();
  sim::EngineOptions eopts;
  // Long enough that the population's ages spread: acceptance rejections
  // need old owners meeting young replacement candidates.
  eopts.end_round = 800;
  sim::Engine engine(eopts);
  SystemOptions opts = SmallOptions();
  opts.estimator =
      *core::EstimatorSpec::Parse("availability-weighted{exponent=2}");
  BackupNetwork network(&engine, &profiles, opts);
  ASSERT_TRUE(network.estimator().ReadsMonitor());
  engine.Run();
  const auto& ps = network.pool_stats();
  EXPECT_GT(ps.draws, 0);
  EXPECT_EQ(ps.draws,
            ps.reject_quota_full + ps.reject_acceptance + ps.accepted);
  // Every pooled candidate got a score, from the memo or computed fresh;
  // the memo only ever hits behind at least one fresh eval.
  EXPECT_EQ(ps.accepted, ps.score_memo_hits + ps.score_evals);
  EXPECT_GT(ps.score_evals, 0);
  // Each fresh score is exactly one monitor query.
  EXPECT_EQ(network.monitor().query_stats().observe_calls, ps.score_evals);
  // The default scenario runs with acceptance on: maintenance episodes keep
  // pre-taking their owner's existing partners out of the drawable lanes,
  // and old owners meet young candidates they refuse.
  EXPECT_GT(ps.index_partner_excluded, 0);
  EXPECT_GT(ps.reject_acceptance, 0);
}

TEST(NetworkTest, PoolStatsScoreAgeOnlyPoolsWithoutMonitorOrMemo) {
  // The converse under the default age-rank, which reads only the age: the
  // draw loop scores each accepted candidate itself, so the monitor is
  // never asked and the memo never serves. The funnel partition and the
  // score count still cover every accepted candidate.
  const auto profiles = *scenario::PopulationSpec::Paper().Compile();
  sim::EngineOptions eopts;
  eopts.end_round = 800;
  sim::Engine engine(eopts);
  BackupNetwork network(&engine, &profiles, SmallOptions());
  ASSERT_FALSE(network.estimator().ReadsMonitor());
  engine.Run();
  network.CheckInvariants();
  const auto& ps = network.pool_stats();
  EXPECT_GT(ps.accepted, 0);
  EXPECT_EQ(ps.draws,
            ps.reject_quota_full + ps.reject_acceptance + ps.accepted);
  EXPECT_EQ(ps.accepted, ps.score_memo_hits + ps.score_evals);
  EXPECT_EQ(ps.score_memo_hits, 0);
  EXPECT_EQ(network.monitor().query_stats().observe_calls, 0);
}

TEST(NetworkTest, VacantSlotsNeverEnterTheIndex) {
  const auto profiles = *scenario::PopulationSpec::Paper().Compile();
  sim::EngineOptions eopts;
  eopts.end_round = 100;
  sim::Engine engine(eopts);
  // A mass exit vacates a third of the id space. The pre-index sampler
  // drew on those dead slots (a reject_not_live bucket that was otherwise
  // always zero); the index removes them at departure, so a draw can never
  // land on one - the funnel partition needs no not-live bucket at all.
  std::vector<PopulationAdjustment> workload;
  workload.push_back(PopulationAdjustment{20, 0, 100});
  BackupNetwork network(&engine, &profiles, SmallOptions(), workload);
  engine.Run();
  network.CheckInvariants();  // index oracle: dead ids absent, pos map exact
  // The exits really vacated slots, and none of them is a member: the index
  // holds at most the surviving population (natural churn replaces in
  // place, so only workload exits shrink it), every member distinct.
  const std::vector<PeerId>& index = network.candidate_index();
  EXPECT_LE(index.size(), SmallOptions().num_peers - 100);
  EXPECT_GT(index.size(), 0u);
  std::vector<PeerId> sorted(index.begin(), index.end());
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
              sorted.end());
  EXPECT_LE(network.candidate_online_count(), index.size());
  const auto& ps = network.pool_stats();
  EXPECT_EQ(ps.draws,
            ps.reject_quota_full + ps.reject_acceptance + ps.accepted);
}

TEST(NetworkTest, MaxBlocksPerRoundSpreadsPlacement) {
  SystemOptions opts = SmallOptions();
  opts.max_blocks_per_round = 4;  // initial upload takes >= 8 rounds
  const auto profiles = *scenario::PopulationSpec::Paper().Compile();
  sim::EngineOptions eopts;
  eopts.end_round = 4;
  sim::Engine engine(eopts);
  BackupNetwork network(&engine, &profiles, opts);
  engine.Run();
  const auto pop = network.ComputePopulationStats();
  EXPECT_EQ(pop.backed_up, 0);  // nobody can finish in 4 rounds
  EXPECT_GT(pop.mean_partners, 1.0);
  network.CheckInvariants();
}

}  // namespace
}  // namespace backup
}  // namespace p2p
