// Metrics layer tests: age categories, accounting, time series, the metric
// registry, and the collector behind the registry-backed probes.

#include <gtest/gtest.h>

#include "metrics/accounting.h"
#include "metrics/categories.h"
#include "metrics/collector.h"
#include "metrics/registry.h"
#include "metrics/run_report.h"

namespace p2p {
namespace metrics {
namespace {

TEST(CategoryTest, PaperBoundaries) {
  // Newcomers < 3 months, Young 3-6, Old 6-18, Elder > 18 (paper 4.2.1).
  EXPECT_EQ(CategoryOf(0), AgeCategory::kNewcomer);
  EXPECT_EQ(CategoryOf(3 * sim::kRoundsPerMonth - 1), AgeCategory::kNewcomer);
  EXPECT_EQ(CategoryOf(3 * sim::kRoundsPerMonth), AgeCategory::kYoung);
  EXPECT_EQ(CategoryOf(6 * sim::kRoundsPerMonth - 1), AgeCategory::kYoung);
  EXPECT_EQ(CategoryOf(6 * sim::kRoundsPerMonth), AgeCategory::kOld);
  EXPECT_EQ(CategoryOf(18 * sim::kRoundsPerMonth - 1), AgeCategory::kOld);
  EXPECT_EQ(CategoryOf(18 * sim::kRoundsPerMonth), AgeCategory::kElder);
  EXPECT_EQ(CategoryOf(10 * sim::kRoundsPerYear), AgeCategory::kElder);
}

TEST(CategoryTest, NextBoundaryProgression) {
  EXPECT_EQ(NextBoundary(0), 3 * sim::kRoundsPerMonth);
  EXPECT_EQ(NextBoundary(3 * sim::kRoundsPerMonth), 6 * sim::kRoundsPerMonth);
  EXPECT_EQ(NextBoundary(6 * sim::kRoundsPerMonth), 18 * sim::kRoundsPerMonth);
  EXPECT_EQ(NextBoundary(18 * sim::kRoundsPerMonth), sim::kNever);
}

TEST(CategoryTest, Names) {
  EXPECT_STREQ(CategoryName(AgeCategory::kNewcomer), "Newcomers");
  EXPECT_STREQ(CategoryName(AgeCategory::kElder), "Elder peers");
  EXPECT_STREQ(CategoryToken(AgeCategory::kYoung), "young");
  EXPECT_STREQ(CategoryToken(AgeCategory::kOld), "old");
}

TEST(AccountingTest, PopulationBookkeeping) {
  CategoryAccounting acc;
  acc.PeerEntered(AgeCategory::kNewcomer);
  acc.PeerEntered(AgeCategory::kNewcomer);
  acc.AccumulateRound();
  acc.PeerAdvanced(AgeCategory::kNewcomer, AgeCategory::kYoung);
  acc.AccumulateRound();
  acc.PeerLeft(AgeCategory::kYoung);
  acc.AccumulateRound();
  const auto newcomer = acc.Snapshot(AgeCategory::kNewcomer);
  const auto young = acc.Snapshot(AgeCategory::kYoung);
  EXPECT_EQ(newcomer.population, 1);
  EXPECT_DOUBLE_EQ(newcomer.peer_rounds, 2 + 1 + 1);  // 2, then 1, then 1
  EXPECT_EQ(young.population, 0);
  EXPECT_DOUBLE_EQ(young.peer_rounds, 1.0);
  EXPECT_EQ(acc.rounds(), 3);
}

TEST(AccountingTest, RatesPer1000PerDay) {
  CategoryAccounting acc;
  acc.PeerEntered(AgeCategory::kOld);
  for (int i = 0; i < 240; ++i) acc.AccumulateRound();  // 10 days, 1 peer
  acc.RecordRepair(AgeCategory::kOld);
  // 1 repair / (240 peer-rounds) * 1000 * 24 = 100 per 1000 peers per day.
  EXPECT_NEAR(acc.RepairsPer1000PerDay(AgeCategory::kOld), 100.0, 1e-9);
  acc.RecordLoss(AgeCategory::kOld);
  acc.RecordLoss(AgeCategory::kOld);
  EXPECT_NEAR(acc.LossesPer1000PerDay(AgeCategory::kOld), 200.0, 1e-9);
  // Empty categories report zero rather than dividing by zero.
  EXPECT_DOUBLE_EQ(acc.RepairsPer1000PerDay(AgeCategory::kElder), 0.0);
}

TEST(AccountingTest, SnapshotCounters) {
  CategoryAccounting acc;
  acc.RecordRepair(AgeCategory::kYoung);
  acc.RecordRepair(AgeCategory::kYoung);
  acc.RecordLoss(AgeCategory::kYoung);
  const auto snap = acc.Snapshot(AgeCategory::kYoung);
  EXPECT_EQ(snap.repairs, 2);
  EXPECT_EQ(snap.losses, 1);
}

TEST(TimeSeriesTest, SamplesAtInterval) {
  TimeSeries ts(10);
  for (sim::Round r = 0; r < 35; ++r) ts.Offer(r, static_cast<double>(r));
  ASSERT_EQ(ts.samples().size(), 4u);  // rounds 0, 10, 20, 30
  EXPECT_EQ(ts.samples()[0].first, 0);
  EXPECT_EQ(ts.samples()[3].first, 30);
  EXPECT_DOUBLE_EQ(ts.samples()[3].second, 30.0);
  ts.Flush(34, 99.0);
  EXPECT_EQ(ts.samples().back().second, 99.0);
}

TEST(TimeSeriesTest, LateOfferDoesNotDriftOffTheGrid) {
  TimeSeries ts(10);
  ts.Offer(0, 1.0);
  ts.Offer(13, 2.0);  // the round-10 point, crossed late: recorded once...
  ts.Offer(17, 3.0);  // ...and 17 still precedes the next grid point (20)
  ts.Offer(20, 4.0);  // exactly on the grid
  ts.Offer(23, 5.0);  // dropped: the drifting pre-fix series sampled here
  ASSERT_EQ(ts.samples().size(), 3u);
  EXPECT_EQ(ts.samples()[0], (std::pair<sim::Round, double>{0, 1.0}));
  EXPECT_EQ(ts.samples()[1], (std::pair<sim::Round, double>{13, 2.0}));
  EXPECT_EQ(ts.samples()[2], (std::pair<sim::Round, double>{20, 4.0}));
}

TEST(TimeSeriesTest, FlushDedupesTheSameRound) {
  TimeSeries ts(10);
  ts.Offer(10, 1.0);
  ts.Flush(10, 2.0);  // a sample already exists at round 10: overwritten
  ASSERT_EQ(ts.samples().size(), 1u);
  EXPECT_DOUBLE_EQ(ts.samples()[0].second, 2.0);
  ts.Flush(14, 3.0);  // a later round: appended as before
  ASSERT_EQ(ts.samples().size(), 2u);
  EXPECT_EQ(ts.samples()[1], (std::pair<sim::Round, double>{14, 3.0}));
}

// ---------------------------------------------------------- registry

TEST(MetricRegistryTest, DefaultSelectionIsTheHistoricalLayout) {
  // The default set, in this order, is the pre-registry emitter layout; the
  // sweep goldens depend on it.
  EXPECT_EQ(DefaultMetricNames(),
            (std::vector<std::string>{"repairs", "losses", "blocks_uploaded",
                                      "departures", "timeouts",
                                      "repairs_1k_day", "losses_1k_day"}));
  const MetricDescriptor* d = FindMetric("repairs_1k_day");
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(d->per_category);
  EXPECT_EQ(d->kind, MetricKind::kReal);
  EXPECT_EQ(d->aggregation, MetricAggregation::kMoments);
  d = FindMetric("repair_bandwidth");
  ASSERT_NE(d, nullptr);
  EXPECT_FALSE(d->default_selected);
  EXPECT_EQ(d->unit, "blocks/day");
  EXPECT_EQ(FindMetric("no-such-metric"), nullptr);
}

TEST(MetricRegistryTest, SelectionResolvesDefaultsAndRejectsBadNames) {
  auto def = ResolveMetricSelection({});
  ASSERT_TRUE(def.ok());
  EXPECT_EQ(def->size(), 7u);
  auto some = ResolveMetricSelection({"repair_bandwidth", "repairs"});
  ASSERT_TRUE(some.ok());
  ASSERT_EQ(some->size(), 2u);
  EXPECT_EQ((*some)[0]->name, "repair_bandwidth");  // selection order kept

  auto bad = ResolveMetricSelection({"repairs", "no-such-metric"});
  EXPECT_TRUE(bad.status().IsInvalidArgument());
  EXPECT_NE(bad.status().message().find("no-such-metric"), std::string::npos);
  bad = ResolveMetricSelection({"repairs", "repairs"});
  EXPECT_TRUE(bad.status().IsInvalidArgument());
  EXPECT_NE(bad.status().message().find("duplicate"), std::string::npos);
}

TEST(CollectorTest, BuildReportEmitsTheTableInOrder) {
  // BuildReport emits exactly the table's metrics, in table order, each in
  // its row's shape.
  Collector c(2, 24);
  const RunReport report = c.BuildReport(24);
  const std::vector<const MetricDescriptor*> table = ListMetrics();
  ASSERT_EQ(report.values().size(), table.size());
  for (size_t i = 0; i < table.size(); ++i) {
    EXPECT_EQ(report.values()[i].descriptor, table[i]) << table[i]->name;
    EXPECT_EQ(table[i]->per_category,
              table[i]->per_category_field != nullptr) << table[i]->name;
    EXPECT_EQ(table[i]->per_category, table[i]->scalar_field == nullptr)
        << table[i]->name;
  }
}

// ---------------------------------------------------------- collector

TEST(CollectorTest, CountsTypedEventsAndBuildsReport) {
  Collector c(/*id_capacity=*/8, /*sample_interval=*/24);
  c.PeerEntered(AgeCategory::kNewcomer);
  c.OnRepairFlagged(0, 0);
  c.OnRepairStart(AgeCategory::kNewcomer);
  c.OnUpload(5);
  c.OnRepairCleared(0, 7);  // one closed 7-round episode
  c.OnRepairFlagged(0, 7);  // no-op double flag guard lives in the network;
  c.OnRepairCleared(0, 7);  // a 0-round episode is legal
  c.OnRepairFlagged(1, 10);  // stays open to the end of the run
  c.OnTimeout(3);
  c.OnPartnershipEnded(100);
  c.OnPartnershipEnded(200);
  c.OnLoss(AgeCategory::kNewcomer);
  for (sim::Round r = 0; r < 48; ++r) c.OnRoundTick(r);

  EXPECT_EQ(c.repairs(), 1);
  EXPECT_EQ(c.losses(), 1);
  EXPECT_EQ(c.blocks_uploaded(), 5);
  EXPECT_EQ(c.timeouts(), 3);
  EXPECT_EQ(c.category_series().size(), 2u);  // rounds 0 and 24

  const RunReport report = c.BuildReport(48);
  EXPECT_EQ(report.Count("repairs"), 1);
  EXPECT_EQ(report.Count("timeouts"), 3);
  EXPECT_DOUBLE_EQ(report.Scalar("time_to_repair_mean"), 3.5);  // (7 + 0) / 2
  EXPECT_DOUBLE_EQ(report.Scalar("partnership_lifetime_mean"), 150.0);
  // 7 closed plus (48 - 10) still open at the end of the run.
  EXPECT_EQ(report.Count("vulnerability_rounds"), 45);
  // 5 blocks over 48 rounds = 2 days.
  EXPECT_DOUBLE_EQ(report.Scalar("repair_bandwidth"), 2.5);
  EXPECT_EQ(report.PerCategory("cum_repairs")[0], 1.0);
  EXPECT_EQ(report.Count("final_population"), 1);

  // One entry per registered built-in, in registration order.
  ASSERT_GE(report.values().size(), 16u);
  EXPECT_EQ(report.values()[0].descriptor->name, "repairs");
  EXPECT_NE(report.FindSeries("repair_bandwidth"), nullptr);
  EXPECT_EQ(report.Find("no-such-metric"), nullptr);
}

TEST(CollectorTest, DepartureDropsTheOpenEpisode) {
  Collector c(4, 24);
  c.PeerEntered(AgeCategory::kNewcomer);
  c.OnRepairFlagged(2, 5);
  c.OnDeparture(2, AgeCategory::kNewcomer);
  c.OnRepairCleared(2, 9);  // no-op: the episode died with the peer
  const RunReport report = c.BuildReport(100);
  EXPECT_EQ(report.Count("departures"), 1);
  EXPECT_EQ(report.Count("vulnerability_rounds"), 0);
  EXPECT_DOUBLE_EQ(report.Scalar("time_to_repair_mean"), 0.0);
  EXPECT_EQ(report.Count("final_population"), 0);
}

TEST(CollectorTest, ObserversAccumulateSeparately) {
  Collector c(4, 24);
  ASSERT_EQ(c.AddObserver("baby", 1), 0u);
  ASSERT_EQ(c.AddObserver("elder", 2160), 1u);
  c.OnObserverRepair(0);
  c.OnObserverRepair(0);
  c.OnObserverLoss(1);
  for (sim::Round r = 0; r < 30; ++r) c.OnRoundTick(r);
  ASSERT_EQ(c.observers().size(), 2u);
  EXPECT_EQ(c.observers()[0].repairs, 2);
  EXPECT_EQ(c.observers()[1].losses, 1);
  EXPECT_FALSE(c.observers()[0].cumulative_repairs.samples().empty());
  // Observer events count toward the run totals, split per observer.
  EXPECT_EQ(c.repairs(), 2);
  EXPECT_EQ(c.losses(), 1);
}

}  // namespace
}  // namespace metrics
}  // namespace p2p
