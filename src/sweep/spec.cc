#include "sweep/spec.h"

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

// Resolves the named-scenario axis to full scenarios, in axis order.
util::Result<std::vector<Scenario>> ResolveWorlds(
    const std::vector<std::string>& names) {
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
  return worlds;
}

// Resolves a strategy axis to parsed specs; errors name the axis and token.
template <typename Strategy>
util::Result<std::vector<core::StrategySpec<Strategy>>> ResolveSpecAxis(
    const std::vector<std::string>& tokens) {
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
  return specs;
}

// Everything Validate() checks, given the already-resolved scenario axis
// (shared with Expand() so the axis is resolved - and any files parsed -
// exactly once per expansion).
util::Status ValidateResolved(const SweepSpec& spec,
                              const std::vector<Scenario>& worlds) {
  if (spec.replicates < 1) {
    return util::Status::InvalidArgument("replicates must be >= 1, got " +
                                         std::to_string(spec.replicates));
  }
  if (auto selection = metrics::ResolveMetricSelection(spec.metrics);
      !selection.ok()) {
    return util::Status::InvalidArgument("metrics list: " +
                                         selection.status().message());
  }
  P2P_RETURN_IF_ERROR(spec.base.Validate());
  // Every resolved cell must carry valid system options. RunScenario copies
  // scenario.peers over options.num_peers, so validate with that population.
  backup::SystemOptions opts = spec.base.options;
  opts.num_peers = spec.base.peers;
  for (int t : spec.repair_thresholds) {
    backup::SystemOptions cell = opts;
    cell.repair_threshold = t;
    P2P_RETURN_IF_ERROR(cell.Validate());
  }
  for (int q : spec.quotas) {
    backup::SystemOptions cell = opts;
    cell.quota_blocks = q;
    P2P_RETURN_IF_ERROR(cell.Validate());
  }
  for (const std::string& link : spec.links) {
    backup::SystemOptions cell = opts;
    cell.transfer_enabled = true;
    cell.transfer_link = link;
    P2P_RETURN_IF_ERROR(cell.Validate());
  }
  // Each world's workload must be feasible at the base scale (the axis
  // swaps populations/workloads but keeps base.peers).
  for (const Scenario& world : worlds) {
    Scenario resolved = spec.base;
    scenario::ApplyWorld(world, &resolved);
    P2P_RETURN_IF_ERROR(resolved.Validate());
  }
  return util::Status::OK();
}

}  // namespace

uint64_t ReplicateSeed(uint64_t base_seed, uint64_t replicate) {
  if (replicate == 0) return base_seed;
  // The replicate index is a stream id under the Engine's own seed-mixing
  // discipline, so replicates are as independent as any two RNG streams.
  return util::DeriveSeed(base_seed, replicate);
}

std::string Cell::Label() const { return JoinCoords(coords); }

util::Status SweepSpec::Validate() const {
  util::Result<std::vector<Scenario>> worlds = ResolveWorlds(scenarios);
  if (!worlds.ok()) return worlds.status();
  P2P_RETURN_IF_ERROR(
      ResolveSpecAxis<core::MaintenancePolicy>(policies).status());
  P2P_RETURN_IF_ERROR(
      ResolveSpecAxis<core::SelectionStrategy>(selections).status());
  P2P_RETURN_IF_ERROR(
      ResolveSpecAxis<core::LifetimeEstimator>(estimators).status());
  return ValidateResolved(*this, *worlds);
}

size_t SweepSpec::GroupCount() const {
  auto dim = [](size_t n) { return n == 0 ? size_t{1} : n; };
  return dim(repair_thresholds.size()) * dim(quotas.size()) *
         dim(policies.size()) * dim(selections.size()) *
         dim(estimators.size()) * dim(scenarios.size()) *
         dim(visibilities.size()) * dim(links.size());
}

size_t SweepSpec::CellCount() const {
  return GroupCount() * static_cast<size_t>(replicates < 1 ? 0 : replicates);
}

std::vector<std::string> SweepSpec::ActiveAxes() const {
  std::vector<std::string> axes;
  if (!repair_thresholds.empty()) axes.push_back("threshold");
  if (!quotas.empty()) axes.push_back("quota");
  if (!policies.empty()) axes.push_back("policy");
  if (!selections.empty()) axes.push_back("selection");
  if (!estimators.empty()) axes.push_back("estimator");
  if (!scenarios.empty()) axes.push_back("scenario");
  if (!visibilities.empty()) axes.push_back("visibility");
  if (!links.empty()) axes.push_back("link");
  if (replicates > 1) axes.push_back("rep");
  return axes;
}

util::Result<std::vector<Cell>> SweepSpec::Expand() const {
  P2P_ASSIGN_OR_RETURN(const std::vector<Scenario> worlds,
                       ResolveWorlds(scenarios));
  P2P_ASSIGN_OR_RETURN(const std::vector<core::PolicySpec> policy_specs,
                       ResolveSpecAxis<core::MaintenancePolicy>(policies));
  P2P_ASSIGN_OR_RETURN(const std::vector<core::SelectionSpec> selection_specs,
                       ResolveSpecAxis<core::SelectionStrategy>(selections));
  P2P_ASSIGN_OR_RETURN(const std::vector<core::EstimatorSpec> estimator_specs,
                       ResolveSpecAxis<core::LifetimeEstimator>(estimators));
  P2P_RETURN_IF_ERROR(ValidateResolved(*this, worlds));

  std::vector<Cell> cells;
  cells.reserve(CellCount());

  // Row-major nesting, replicates innermost. Each axis loop runs once with a
  // sentinel index of -1 when the axis is inactive (keep the base value).
  auto indices = [](size_t n) {
    std::vector<int> ix;
    if (n == 0) {
      ix.push_back(-1);
    } else {
      for (size_t i = 0; i < n; ++i) ix.push_back(static_cast<int>(i));
    }
    return ix;
  };

  size_t group = 0;
  for (int ti : indices(repair_thresholds.size())) {
    for (int qi : indices(quotas.size())) {
      for (int pi : indices(policies.size())) {
        for (int si : indices(selections.size())) {
          for (int ei : indices(estimators.size())) {
            for (int wi : indices(worlds.size())) {
              for (int vi : indices(visibilities.size())) {
                Scenario resolved = base;
                std::vector<std::pair<std::string, std::string>> coords;
                if (ti >= 0) {
                  resolved.options.repair_threshold =
                      repair_thresholds[static_cast<size_t>(ti)];
                  coords.emplace_back(
                      "threshold",
                      std::to_string(resolved.options.repair_threshold));
                }
                if (qi >= 0) {
                  resolved.options.quota_blocks =
                      quotas[static_cast<size_t>(qi)];
                  coords.emplace_back(
                      "quota", std::to_string(resolved.options.quota_blocks));
                }
                if (pi >= 0) {
                  resolved.options.policy =
                      policy_specs[static_cast<size_t>(pi)];
                  coords.emplace_back("policy",
                                      resolved.options.policy.ToString());
                }
                if (si >= 0) {
                  resolved.options.selection =
                      selection_specs[static_cast<size_t>(si)];
                  coords.emplace_back("selection",
                                      resolved.options.selection.ToString());
                }
                if (ei >= 0) {
                  resolved.options.estimator =
                      estimator_specs[static_cast<size_t>(ei)];
                  coords.emplace_back("estimator",
                                      resolved.options.estimator.ToString());
                }
                if (wi >= 0) {
                  scenario::ApplyWorld(worlds[static_cast<size_t>(wi)],
                                       &resolved);
                  coords.emplace_back("scenario", resolved.name);
                }
                if (vi >= 0) {
                  resolved.options.visibility =
                      visibilities[static_cast<size_t>(vi)];
                  coords.emplace_back(
                      "visibility",
                      backup::VisibilityModelName(resolved.options.visibility));
                }
                for (int li : indices(links.size())) {
                  Scenario linked = resolved;
                  std::vector<std::pair<std::string, std::string>> lcoords =
                      coords;
                  if (li >= 0) {
                    linked.options.transfer_enabled = true;
                    linked.options.transfer_link =
                        links[static_cast<size_t>(li)];
                    lcoords.emplace_back("link", linked.options.transfer_link);
                  }
                  // The sweep-level metric selection (when set) rides on
                  // every cell's scenario, so a cell re-run in isolation
                  // reports the same columns the sweep did.
                  if (!metrics.empty()) linked.metrics = metrics;
                  for (int rep = 0; rep < replicates; ++rep) {
                    Cell cell;
                    cell.index = cells.size();
                    cell.group = group;
                    cell.replicate = static_cast<size_t>(rep);
                    cell.scenario = linked;
                    cell.scenario.seed = ReplicateSeed(
                        base.seed, static_cast<uint64_t>(rep));
                    cell.coords = lcoords;
                    if (replicates > 1) {
                      cell.coords.emplace_back("rep", std::to_string(rep));
                    }
                    cells.push_back(std::move(cell));
                  }
                  ++group;
                }
              }
            }
          }
        }
      }
    }
  }
  return cells;
}

}  // namespace sweep
}  // namespace p2p
