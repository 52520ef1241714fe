#include "sweep/spec.h"

#include <algorithm>
#include <functional>

#include "backup/options.h"
#include "core/strategy_spec.h"
#include "metrics/registry.h"
#include "util/rng.h"

namespace p2p {
namespace sweep {
namespace {

// Appends "token=value" pairs joined by spaces.
std::string JoinCoords(
    const std::vector<std::pair<std::string, std::string>>& coords) {
  std::string out;
  for (const auto& [axis, value] : coords) {
    if (!out.empty()) out += ' ';
    out += axis;
    out += '=';
    out += value;
  }
  return out;
}

// Writes value `i` of one axis into a cell's scenario and returns the cell's
// coordinate on that axis.
using ApplyValue = std::function<std::string(size_t i, Scenario* cell)>;

// Parses an axis's values once per expansion (strategy specs, scenario
// files); fails with an error naming the axis and the token.
using Resolve = std::function<util::Result<ApplyValue>()>;

// One active axis of the grid: its coordinate token, its number of values,
// and how they resolve.
struct Axis {
  const char* token;
  size_t size;
  Resolve resolve;
};

// An axis whose values need no parsing: `set` writes one and returns its
// coordinate.
template <typename T, typename Set>
Resolve Plain(const std::vector<T>& values, Set set) {
  return [&values, set]() -> util::Result<ApplyValue> {
    return ApplyValue([&values, set](size_t i, Scenario* cell) {
      return set(values[i], cell);
    });
  };
}

// A strategy axis: each token parsed into the spec `member` of the options.
template <typename Strategy>
Resolve SpecAxis(const std::vector<std::string>& tokens,
                 core::StrategySpec<Strategy> backup::SystemOptions::*member) {
  return [&tokens, member]() -> util::Result<ApplyValue> {
    std::vector<core::StrategySpec<Strategy>> specs;
    specs.reserve(tokens.size());
    for (const std::string& token : tokens) {
      auto parsed = core::StrategySpec<Strategy>::Parse(token);
      if (!parsed.ok()) {
        return util::Status::InvalidArgument(
            std::string(core::StrategyTraits<Strategy>::kLabel) +
            " axis: " + parsed.status().message());
      }
      specs.push_back(std::move(*parsed));
    }
    return ApplyValue([specs = std::move(specs), member](size_t i,
                                                         Scenario* cell) {
      cell->options.*member = specs[i];
      return specs[i].ToString();
    });
  };
}

// The named-scenario axis: each name or file resolved to the world a cell
// takes (population + workload), keeping the base scale and options.
Resolve WorldAxis(const std::vector<std::string>& names) {
  return [&names]() -> util::Result<ApplyValue> {
    std::vector<Scenario> worlds;
    worlds.reserve(names.size());
    for (const std::string& name : names) {
      util::Result<Scenario> world = scenario::LoadScenario(name);
      if (!world.ok()) {
        return util::Status::InvalidArgument("scenario axis: " +
                                             world.status().message());
      }
      worlds.push_back(std::move(*world));
    }
    return ApplyValue([worlds = std::move(worlds)](size_t i, Scenario* cell) {
      scenario::ApplyWorld(worlds[i], cell);
      return cell->name;
    });
  };
}

// The non-empty axes of `spec`, in expansion order (the first outermost).
// A new axis is one row here.
std::vector<Axis> ActiveAxisList(const SweepSpec& spec) {
  using backup::SystemOptions;
  std::vector<Axis> axes = {
      {"threshold", spec.repair_thresholds.size(),
       Plain(spec.repair_thresholds,
             [](int threshold, Scenario* cell) {
               cell->options.repair_threshold = threshold;
               return std::to_string(threshold);
             })},
      {"quota", spec.quotas.size(),
       Plain(spec.quotas,
             [](int quota, Scenario* cell) {
               cell->options.quota_blocks = quota;
               return std::to_string(quota);
             })},
      {"policy", spec.policies.size(),
       SpecAxis(spec.policies, &SystemOptions::policy)},
      {"selection", spec.selections.size(),
       SpecAxis(spec.selections, &SystemOptions::selection)},
      {"estimator", spec.estimators.size(),
       SpecAxis(spec.estimators, &SystemOptions::estimator)},
      {"scenario", spec.scenarios.size(), WorldAxis(spec.scenarios)},
      // A link cell runs the transfer scheduler on that link.
      {"link", spec.links.size(),
       Plain(spec.links,
             [](const std::string& link, Scenario* cell) {
               cell->options.transfer_enabled = true;
               cell->options.transfer_link = link;
               return link;
             })},
  };
  axes.erase(std::remove_if(axes.begin(), axes.end(),
                            [](const Axis& axis) { return axis.size == 0; }),
             axes.end());
  return axes;
}

}  // namespace

uint64_t ReplicateSeed(uint64_t base_seed, uint64_t replicate) {
  if (replicate == 0) return base_seed;
  // The replicate index is a stream id under the Engine's own seed-mixing
  // discipline, so replicates are as independent as any two RNG streams.
  return util::DeriveSeed(base_seed, replicate);
}

std::string Cell::Label() const { return JoinCoords(coords); }

util::Status SweepSpec::Validate() const { return Expand().status(); }

size_t SweepSpec::GroupCount() const {
  size_t groups = 1;
  for (const Axis& axis : ActiveAxisList(*this)) groups *= axis.size;
  return groups;
}

size_t SweepSpec::CellCount() const {
  return GroupCount() * static_cast<size_t>(replicates < 1 ? 0 : replicates);
}

std::vector<std::string> SweepSpec::ActiveAxes() const {
  const std::vector<Axis> axes = ActiveAxisList(*this);
  std::vector<std::string> tokens;
  tokens.reserve(axes.size() + 1);
  for (const Axis& axis : axes) tokens.push_back(axis.token);
  if (replicates > 1) tokens.push_back("rep");
  return tokens;
}

util::Result<std::vector<Cell>> SweepSpec::Expand() const {
  const std::vector<Axis> axes = ActiveAxisList(*this);
  std::vector<ApplyValue> apply;
  apply.reserve(axes.size());
  for (const Axis& axis : axes) {
    P2P_ASSIGN_OR_RETURN(ApplyValue a, axis.resolve());
    apply.push_back(std::move(a));
  }
  if (replicates < 1) {
    return util::Status::InvalidArgument("replicates must be >= 1, got " +
                                         std::to_string(replicates));
  }
  if (auto selection = metrics::ResolveMetricSelection(metrics);
      !selection.ok()) {
    return util::Status::InvalidArgument("metrics list: " +
                                         selection.status().message());
  }
  P2P_RETURN_IF_ERROR(base.Validate());

  const size_t groups = GroupCount();
  std::vector<Cell> cells;
  cells.reserve(CellCount());
  for (size_t group = 0; group < groups; ++group) {
    // `group` in mixed radix over the axis sizes, the last axis fastest.
    Scenario resolved = base;
    std::vector<std::pair<std::string, std::string>> coords;
    size_t stride = groups;
    for (size_t a = 0; a < axes.size(); ++a) {
      stride /= axes[a].size;
      coords.emplace_back(axes[a].token,
                          apply[a]((group / stride) % axes[a].size, &resolved));
    }
    // The sweep-level metric selection (when set) rides on every cell's
    // scenario, so a cell re-run in isolation reports the same columns the
    // sweep did.
    if (!metrics.empty()) resolved.metrics = metrics;
    P2P_RETURN_IF_ERROR(resolved.Validate());
    for (int rep = 0; rep < replicates; ++rep) {
      Cell cell;
      cell.index = cells.size();
      cell.group = group;
      cell.replicate = static_cast<size_t>(rep);
      cell.scenario = resolved;
      cell.scenario.seed = ReplicateSeed(base.seed, static_cast<uint64_t>(rep));
      cell.coords = coords;
      if (replicates > 1) {
        cell.coords.emplace_back("rep", std::to_string(rep));
      }
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

}  // namespace sweep
}  // namespace p2p
