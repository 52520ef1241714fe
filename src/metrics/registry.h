// The metric registry: the named probes a run can report, each described
// declaratively (unit, shape, rendering kind, aggregation) in one static
// table (registry.cc) whose rows also name the ComputedProbes field that
// feeds the metric.
//
// Every report column of the results pipeline - scenario::Outcome's
// RunReport, sweep CSV/JSON columns, replicate moments, util::Table
// rendering - is derived from these descriptors rather than enumerated by
// hand, so a new measurement is one table row plus its computation in
// Collector::BuildReport, not a four-layer struct edit. The table is
// immutable, so any thread may read it. `scenario_tool metrics` lists
// everything here.

#ifndef P2P_METRICS_REGISTRY_H_
#define P2P_METRICS_REGISTRY_H_

#include <array>
#include <string>
#include <vector>

#include "metrics/categories.h"
#include "util/result.h"
#include "util/status.h"

namespace p2p {
namespace metrics {

/// How a metric's values are rendered: counts print as integers, reals with
/// six fixed decimals (the historical CSV/JSON discipline - report bytes
/// stay a pure function of the results).
enum class MetricKind {
  kCount,
  kReal,
};

/// How a metric participates in replicate aggregation.
enum class MetricAggregation {
  /// Never aggregated (per-cell reporting only).
  kNone,
  /// Mean / sample-stddev over a group's replicates.
  kMoments,
};

/// Every value Collector::BuildReport distills from its accumulators, one
/// field per metric.
struct ComputedProbes {
  double repairs = 0, losses = 0, blocks_uploaded = 0, departures = 0,
         timeouts = 0;
  double repair_bandwidth = 0, time_to_repair_mean = 0, time_to_repair_p99 = 0,
         partnership_lifetime_mean = 0, vulnerability_rounds = 0,
         final_population = 0;
  double time_to_backup_mean = 0, time_to_backup_p99 = 0,
         time_to_restore_mean = 0, time_to_restore_p99 = 0,
         data_loss_window = 0, uplink_utilization = 0;
  std::array<double, kCategoryCount> repairs_1k{}, losses_1k{}, cum_repairs{},
      cum_losses{}, mean_population{};
};

/// One registered probe: a row of the metric table.
struct MetricDescriptor {
  /// Stable token; the CSV/JSON column name (per-category metrics expand to
  /// one column per category, suffixed `_<category token>`).
  std::string name;
  /// Unit label for listings ("ops", "blocks/day", "rounds", ...).
  std::string unit;
  /// One-line description (`scenario_tool metrics`).
  std::string help;
  /// True: the value is one scalar per age category (4 columns).
  bool per_category = false;
  MetricKind kind = MetricKind::kCount;
  MetricAggregation aggregation = MetricAggregation::kNone;
  /// Member of the default selection - the exact column set (and order) of
  /// the pre-registry emitters, locked byte-for-byte by the sweep goldens.
  bool default_selected = false;
  /// The ComputedProbes field that feeds this metric: `per_category_field`
  /// when per_category, else `scalar_field`.
  double ComputedProbes::*scalar_field = nullptr;
  std::array<double, kCategoryCount> ComputedProbes::*per_category_field =
      nullptr;
};

/// The metric table's rows in table order. The pointers stay valid for the
/// process lifetime.
std::vector<const MetricDescriptor*> ListMetrics();

/// Looks a metric up by exact name; null when unknown.
const MetricDescriptor* FindMetric(const std::string& name);

/// Names of the default selection, in table order.
std::vector<std::string> DefaultMetricNames();

/// Resolves a selection to descriptors: empty means the default set; errors
/// name unknown or duplicate tokens.
util::Result<std::vector<const MetricDescriptor*>> ResolveMetricSelection(
    const std::vector<std::string>& names);

}  // namespace metrics
}  // namespace p2p

#endif  // P2P_METRICS_REGISTRY_H_
