#include "sweep/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "metrics/registry.h"
#include "util/logging.h"
#include "util/stats.h"

namespace p2p {
namespace sweep {
namespace {

// Fixed-point rendering keeps CSV/JSON bytes reproducible across runs; 6
// digits is well past the resolution the simulation's counters support.
std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

// Looks up a coordinate by axis token; "" when the row lacks the axis.
std::string CoordValue(
    const std::vector<std::pair<std::string, std::string>>& coords,
    const std::string& axis) {
  for (const auto& [token, value] : coords) {
    if (token == axis) return value;
  }
  return "";
}

// Column name of one category slot of a per-category metric.
std::string CategoryColumn(const metrics::MetricDescriptor& d, int c) {
  return d.name + "_" +
         metrics::CategoryToken(static_cast<metrics::AgeCategory>(c));
}

// The cell's value for a selected metric; aborts (via checked lookup) when
// the cell's report does not carry it - a metric was registered without a
// collector hook feeding it.
const metrics::MetricValue& ValueOf(const CellRow& row,
                                    const metrics::MetricDescriptor& d) {
  const metrics::MetricValue* v = row.report.Find(d.name);
  if (v == nullptr) {
    P2P_LOG_ERROR("cell %zu's report carries no metric '%s' (registered but "
                  "not collected?)", row.index, d.name.c_str());
  }
  P2P_CHECK(v != nullptr);
  return *v;
}

// Renders one metric value into a table cell, honouring the descriptor's
// kind (counts as integers, reals with 6 decimals).
void AddMetricCell(util::Table* table, const metrics::MetricDescriptor& d,
                   double v) {
  if (d.kind == metrics::MetricKind::kCount) {
    table->Add(static_cast<int64_t>(v));
  } else {
    table->Add(v, 6);
  }
}

// JSON scalar rendering of one metric value.
std::string JsonValue(const metrics::MetricDescriptor& d, double v) {
  if (d.kind == metrics::MetricKind::kCount) {
    return std::to_string(static_cast<int64_t>(v));
  }
  return FormatDouble(v);
}

}  // namespace

SweepReport SweepReport::Build(const SweepSpec& spec,
                               const std::vector<CellResult>& results) {
  SweepReport report;
  report.axes_ = spec.ActiveAxes();
  auto selection = metrics::ResolveMetricSelection(
      spec.metrics.empty() ? spec.base.metrics : spec.metrics);
  if (!selection.ok()) {
    P2P_LOG_ERROR("sweep metric selection: %s",
                  selection.status().ToString().c_str());
  }
  P2P_CHECK(selection.ok());
  report.selection_ = std::move(*selection);

  report.cells_.reserve(results.size());
  for (const CellResult& r : results) {
    CellRow row;
    row.index = r.cell.index;
    row.group = r.cell.group;
    row.replicate = r.cell.replicate;
    row.seed = r.cell.scenario.seed;
    row.coords = r.cell.coords;
    // Values only; the (potentially long) series stay on the CellResult.
    for (const metrics::MetricValue& v : r.outcome.report.values()) {
      if (v.descriptor->per_category) {
        row.report.Add(v.descriptor, v.per_category);
      } else {
        row.report.Add(v.descriptor, v.scalar);
      }
    }
    report.cells_.push_back(std::move(row));
  }

  // Group cells by grid point. Results normally arrive cell-ordered, but
  // the rows of each group are re-sorted by cell index so the aggregates -
  // floating-point accumulation included - are a pure function of the
  // results, not of completion or delivery order.
  std::map<size_t, std::vector<const CellRow*>> groups;
  for (const CellRow& row : report.cells_) {
    groups[row.group].push_back(&row);
  }
  for (auto& [group, rows] : groups) {
    std::sort(rows.begin(), rows.end(),
              [](const CellRow* a, const CellRow* b) {
                return a->index < b->index;
              });
    AggregateRow agg;
    agg.group = group;
    agg.replicates = static_cast<int64_t>(rows.size());
    for (const auto& [token, value] : rows.front()->coords) {
      if (token != "rep") agg.coords.emplace_back(token, value);
    }
    for (const metrics::MetricDescriptor* d : report.selection_) {
      if (d->aggregation != metrics::MetricAggregation::kMoments) continue;
      MetricMoments mm;
      mm.descriptor = d;
      if (d->per_category) {
        std::array<util::RunningStat, metrics::kCategoryCount> stats;
        for (const CellRow* row : rows) {
          const auto& v = ValueOf(*row, *d).per_category;
          for (int c = 0; c < metrics::kCategoryCount; ++c) {
            stats[static_cast<size_t>(c)].Add(v[static_cast<size_t>(c)]);
          }
        }
        for (int c = 0; c < metrics::kCategoryCount; ++c) {
          const auto i = static_cast<size_t>(c);
          mm.per_category[i] = {stats[i].mean(), stats[i].stddev()};
        }
      } else {
        util::RunningStat stat;
        for (const CellRow* row : rows) stat.Add(ValueOf(*row, *d).scalar);
        mm.scalar = {stat.mean(), stat.stddev()};
      }
      agg.metrics.push_back(std::move(mm));
    }
    report.aggregates_.push_back(std::move(agg));
  }
  return report;
}

util::Table SweepReport::CellTable() const {
  std::vector<std::string> headers = {"cell", "seed"};
  headers.insert(headers.end(), axes_.begin(), axes_.end());
  for (const metrics::MetricDescriptor* d : selection_) {
    if (d->per_category) {
      for (int c = 0; c < metrics::kCategoryCount; ++c) {
        headers.push_back(CategoryColumn(*d, c));
      }
    } else {
      headers.push_back(d->name);
    }
  }

  util::Table table(std::move(headers));
  for (const CellRow& row : cells_) {
    table.BeginRow();
    table.Add(static_cast<uint64_t>(row.index));
    table.Add(row.seed);
    for (const std::string& axis : axes_) {
      table.Add(CoordValue(row.coords, axis));
    }
    for (const metrics::MetricDescriptor* d : selection_) {
      const metrics::MetricValue& v = ValueOf(row, *d);
      if (d->per_category) {
        for (double x : v.per_category) AddMetricCell(&table, *d, x);
      } else {
        AddMetricCell(&table, *d, v.scalar);
      }
    }
  }
  return table;
}

util::Table SweepReport::AggregateTable() const {
  std::vector<std::string> headers = {"group"};
  for (const std::string& axis : axes_) {
    if (axis != "rep") headers.push_back(axis);
  }
  headers.emplace_back("reps");
  for (const metrics::MetricDescriptor* d : selection_) {
    if (d->aggregation != metrics::MetricAggregation::kMoments) continue;
    if (d->per_category) {
      for (int c = 0; c < metrics::kCategoryCount; ++c) {
        headers.push_back(CategoryColumn(*d, c) + "_mean");
        headers.push_back(CategoryColumn(*d, c) + "_sd");
      }
    } else {
      headers.push_back(d->name + "_mean");
      headers.push_back(d->name + "_sd");
    }
  }

  util::Table table(std::move(headers));
  for (const AggregateRow& agg : aggregates_) {
    table.BeginRow();
    table.Add(static_cast<uint64_t>(agg.group));
    for (const std::string& axis : axes_) {
      if (axis != "rep") table.Add(CoordValue(agg.coords, axis));
    }
    table.Add(agg.replicates);
    auto add = [&table](const Moments& m) {
      table.Add(m.mean, 6);
      table.Add(m.stddev, 6);
    };
    for (const MetricMoments& mm : agg.metrics) {
      if (mm.descriptor->per_category) {
        for (const Moments& m : mm.per_category) add(m);
      } else {
        add(mm.scalar);
      }
    }
  }
  return table;
}

void SweepReport::WriteCellsCsv(std::ostream& os) const {
  CellTable().RenderCsv(os);
}

void SweepReport::WriteAggregateCsv(std::ostream& os) const {
  AggregateTable().RenderCsv(os);
}

void SweepReport::WriteJson(std::ostream& os) const {
  os << "{\n  \"axes\": [";
  for (size_t i = 0; i < axes_.size(); ++i) {
    os << (i ? ", " : "") << '"' << JsonEscape(axes_[i]) << '"';
  }
  os << "],\n  \"cells\": [\n";
  for (size_t i = 0; i < cells_.size(); ++i) {
    const CellRow& row = cells_[i];
    os << "    {\"cell\": " << row.index << ", \"group\": " << row.group
       << ", \"replicate\": " << row.replicate << ", \"seed\": " << row.seed
       << ", \"coords\": {";
    for (size_t c = 0; c < row.coords.size(); ++c) {
      os << (c ? ", " : "") << '"' << JsonEscape(row.coords[c].first)
         << "\": \"" << JsonEscape(row.coords[c].second) << '"';
    }
    os << "}";
    for (const metrics::MetricDescriptor* d : selection_) {
      const metrics::MetricValue& v = ValueOf(row, *d);
      os << ", \"" << JsonEscape(d->name) << "\": ";
      if (d->per_category) {
        os << '[';
        for (int c = 0; c < metrics::kCategoryCount; ++c) {
          os << (c ? ", " : "")
             << JsonValue(*d, v.per_category[static_cast<size_t>(c)]);
        }
        os << ']';
      } else {
        os << JsonValue(*d, v.scalar);
      }
    }
    os << "}" << (i + 1 < cells_.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"aggregates\": [\n";
  for (size_t i = 0; i < aggregates_.size(); ++i) {
    const AggregateRow& agg = aggregates_[i];
    os << "    {\"group\": " << agg.group << ", \"coords\": {";
    for (size_t c = 0; c < agg.coords.size(); ++c) {
      os << (c ? ", " : "") << '"' << JsonEscape(agg.coords[c].first)
         << "\": \"" << JsonEscape(agg.coords[c].second) << '"';
    }
    os << "}, \"replicates\": " << agg.replicates;
    for (const MetricMoments& mm : agg.metrics) {
      if (mm.descriptor->per_category) continue;  // CSV-only (see header)
      os << ", \"" << JsonEscape(mm.descriptor->name)
         << "\": {\"mean\": " << FormatDouble(mm.scalar.mean)
         << ", \"sd\": " << FormatDouble(mm.scalar.stddev) << "}";
    }
    os << "}" << (i + 1 < aggregates_.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace sweep
}  // namespace p2p
