#include "metrics/registry.h"

#include <set>
#include <type_traits>
#include <utility>

namespace p2p {
namespace metrics {
namespace {

// One row of the metric table; the type of `field` gives the metric's shape.
template <typename Field>
MetricDescriptor Metric(std::string name, Field ComputedProbes::*field,
                        std::string unit, std::string help, MetricKind kind,
                        MetricAggregation aggregation, bool default_selected) {
  MetricDescriptor d;
  d.name = std::move(name);
  d.unit = std::move(unit);
  d.help = std::move(help);
  d.kind = kind;
  d.aggregation = aggregation;
  d.default_selected = default_selected;
  if constexpr (std::is_same_v<Field, double>) {
    d.scalar_field = field;
  } else {
    d.per_category = true;
    d.per_category_field = field;
  }
  return d;
}

const std::vector<MetricDescriptor>& MetricTable() {
  // The default set, in this exact order, IS the historical emitter layout:
  // the sweep goldens lock its CSV/JSON bytes. blocks_uploaded / departures
  // / timeouts carry kNone because the historical aggregate tables never
  // included them; that is a recorded fact about the layout, not a law - a
  // new row is free to choose kMoments.
  static const auto* table = new std::vector<MetricDescriptor>{
      Metric("repairs", &ComputedProbes::repairs, "ops",
             "repair operations triggered (initial placements and observer "
             "episodes included)",
             MetricKind::kCount, MetricAggregation::kMoments, true),
      Metric("losses", &ComputedProbes::losses, "archives",
             "archives lost (alive blocks fell below k; observer archives "
             "included)",
             MetricKind::kCount, MetricAggregation::kMoments, true),
      Metric("blocks_uploaded", &ComputedProbes::blocks_uploaded, "blocks",
             "blocks re-placed by repairs",
             MetricKind::kCount, MetricAggregation::kNone, true),
      Metric("departures", &ComputedProbes::departures, "peers",
             "definitive departures",
             MetricKind::kCount, MetricAggregation::kNone, true),
      Metric("timeouts", &ComputedProbes::timeouts, "partnerships",
             "partnerships severed by the timeout rule",
             MetricKind::kCount, MetricAggregation::kNone, true),
      Metric("repairs_1k_day", &ComputedProbes::repairs_1k,
             "ops/1000 peers/day",
             "repair rate by age category (figure 1)",
             MetricKind::kReal, MetricAggregation::kMoments, true),
      Metric("losses_1k_day", &ComputedProbes::losses_1k,
             "archives/1000 peers/day",
             "loss rate by age category (figure 2)",
             MetricKind::kReal, MetricAggregation::kMoments, true),

      // --- probes the closed pre-registry structs could not express ---
      Metric("repair_bandwidth", &ComputedProbes::repair_bandwidth,
             "blocks/day",
             "mean maintenance bandwidth: blocks uploaded per day over the run",
             MetricKind::kReal, MetricAggregation::kMoments, false),
      Metric("time_to_repair_mean", &ComputedProbes::time_to_repair_mean,
             "rounds",
             "mean rounds from repair flag to episode completion",
             MetricKind::kReal, MetricAggregation::kMoments, false),
      Metric("time_to_repair_p99", &ComputedProbes::time_to_repair_p99,
             "rounds",
             "99th percentile of rounds from repair flag to episode completion",
             MetricKind::kReal, MetricAggregation::kMoments, false),
      Metric("partnership_lifetime_mean",
             &ComputedProbes::partnership_lifetime_mean, "rounds",
             "mean lifetime of severed partnerships",
             MetricKind::kReal, MetricAggregation::kMoments, false),
      Metric("vulnerability_rounds", &ComputedProbes::vulnerability_rounds,
             "peer-rounds",
             "total rounds peers spent flagged below the repair trigger (open "
             "episodes truncated at the end of the run)",
             MetricKind::kCount, MetricAggregation::kMoments, false),
      Metric("cum_repairs", &ComputedProbes::cum_repairs, "ops",
             "cumulative repairs by age category",
             MetricKind::kCount, MetricAggregation::kMoments, false),
      Metric("cum_losses", &ComputedProbes::cum_losses, "archives",
             "cumulative losses by age category",
             MetricKind::kCount, MetricAggregation::kMoments, false),
      Metric("mean_population", &ComputedProbes::mean_population, "peers",
             "mean category population over the run",
             MetricKind::kReal, MetricAggregation::kMoments, false),
      Metric("final_population", &ComputedProbes::final_population, "peers",
             "live peers when the run ended",
             MetricKind::kCount, MetricAggregation::kMoments, false),

      // --- transfer-scheduling probes (bandwidth-constrained repairs) ---
      Metric("time_to_backup_mean", &ComputedProbes::time_to_backup_mean,
             "rounds",
             "mean rounds from repair flag to completed initial placement "
             "(transfer time included when the scheduler is enabled)",
             MetricKind::kReal, MetricAggregation::kMoments, false),
      Metric("time_to_backup_p99", &ComputedProbes::time_to_backup_p99,
             "rounds",
             "99th percentile of rounds from repair flag to completed initial "
             "placement",
             MetricKind::kReal, MetricAggregation::kMoments, false),
      Metric("time_to_restore_mean", &ComputedProbes::time_to_restore_mean,
             "rounds",
             "mean rounds a maintenance repair spent downloading the k blocks "
             "needed to decode (the restore path)",
             MetricKind::kReal, MetricAggregation::kMoments, false),
      Metric("time_to_restore_p99", &ComputedProbes::time_to_restore_p99,
             "rounds",
             "99th percentile of the restore-path download rounds",
             MetricKind::kReal, MetricAggregation::kMoments, false),
      Metric("data_loss_window", &ComputedProbes::data_loss_window, "rounds",
             "longest single vulnerability episode: max rounds any peer spent "
             "flagged below the repair trigger (open episodes truncated at "
             "the end of the run)",
             MetricKind::kCount, MetricAggregation::kMoments, false),
      Metric("uplink_utilization", &ComputedProbes::uplink_utilization,
             "fraction",
             "uplink bytes moved over uplink bytes available, summed over "
             "rounds with transfer demand",
             MetricKind::kReal, MetricAggregation::kMoments, false),
  };
  return *table;
}

}  // namespace

std::vector<const MetricDescriptor*> ListMetrics() {
  std::vector<const MetricDescriptor*> out;
  out.reserve(MetricTable().size());
  for (const MetricDescriptor& d : MetricTable()) out.push_back(&d);
  return out;
}

const MetricDescriptor* FindMetric(const std::string& name) {
  for (const MetricDescriptor& d : MetricTable()) {
    if (d.name == name) return &d;
  }
  return nullptr;
}

std::vector<std::string> DefaultMetricNames() {
  std::vector<std::string> names;
  for (const MetricDescriptor* d : ListMetrics()) {
    if (d->default_selected) names.push_back(d->name);
  }
  return names;
}

util::Result<std::vector<const MetricDescriptor*>> ResolveMetricSelection(
    const std::vector<std::string>& names) {
  std::vector<const MetricDescriptor*> out;
  if (names.empty()) {
    for (const MetricDescriptor* d : ListMetrics()) {
      if (d->default_selected) out.push_back(d);
    }
    return out;
  }
  std::set<std::string> seen;
  out.reserve(names.size());
  for (const std::string& name : names) {
    const MetricDescriptor* d = FindMetric(name);
    if (d == nullptr) {
      return util::Status::InvalidArgument("unknown metric '" + name + "'");
    }
    if (!seen.insert(name).second) {
      return util::Status::InvalidArgument("duplicate metric '" + name + "'");
    }
    out.push_back(d);
  }
  return out;
}

}  // namespace metrics
}  // namespace p2p
