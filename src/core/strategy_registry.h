// The strategy registry: the maintenance policies, selection strategies,
// and lifetime estimators a run can name, each described declaratively
// (parameters with types, defaults, valid ranges) and instantiated through
// a factory. One template serves all three families; StrategyRegistry<
// MaintenancePolicy> lists, finds, registers and makes policies, and
// PolicyRegistry / SelectionRegistry / EstimatorRegistry are its aliases.
//
// Built-ins register themselves on first access; Register adds further
// strategies to a family (call before any concurrent sweep starts -
// registration is mutex-guarded, but a strategy must be registered before a
// cell naming it is expanded). `scenario_tool policies` / `selections` /
// `estimators` list everything here, and scripts/check.sh smoke-runs every
// registered strategy, so an unrunnable registration fails CI rather than
// lurking.

#ifndef P2P_CORE_STRATEGY_REGISTRY_H_
#define P2P_CORE_STRATEGY_REGISTRY_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/lifetime_estimator.h"
#include "core/maintenance_policy.h"
#include "core/selection.h"
#include "core/strategy_spec.h"
#include "sim/clock.h"
#include "util/result.h"
#include "util/status.h"

namespace p2p {
namespace core {

/// Declares one parameter of a registered strategy.
struct ParamInfo {
  std::string name;
  ParamType type = ParamType::kInt;
  /// Default when the spec does not set the parameter. Ignored when
  /// `contextual_default` is non-empty.
  ParamValue def;
  /// Name of the SystemOptions knob the default follows ("repair_threshold"
  /// or "acceptance_horizon") - resolved from StrategyEnv at instantiation;
  /// empty = use `def`.
  std::string contextual_default;
  /// Inclusive numeric range a value must lie in.
  double min_value = 0.0;
  double max_value = 0.0;
  std::string help;
};

/// The run context a factory may consult for contextual defaults: the
/// erasure-code geometry, the configured repair threshold, and the
/// acceptance horizon L (estimator horizons follow it by default).
struct StrategyEnv {
  int k = 128;
  int n = 256;  ///< k + m, the redundancy target
  int repair_threshold = 148;
  sim::Round acceptance_horizon = 90 * sim::kRoundsPerDay;
};

/// \brief Parameter lookup with defaults applied; what factories consume.
class ResolvedParams {
 public:
  ResolvedParams(const std::vector<ParamInfo>& infos, const ParamMap& given,
                 const StrategyEnv& env);

  /// Value of a declared parameter; aborts on an undeclared name (factory
  /// bugs, not user input - user input is validated before resolution).
  int64_t Int(const std::string& name) const;
  double Double(const std::string& name) const;

 private:
  ParamMap values_;
};

/// One registered strategy of family `Strategy`. The factory makes a fresh
/// instance per network: estimators may be stateful (the empirical family
/// learns from observed departures).
template <typename Strategy>
struct StrategyDescriptor {
  std::string name;
  std::string summary;
  std::vector<ParamInfo> params;
  /// Cross-parameter consistency check (e.g. floor <= ceiling); optional.
  std::function<util::Status(const ResolvedParams&)> check;
  std::function<std::unique_ptr<Strategy>(const ResolvedParams&,
                                          const StrategyEnv&)>
      make;
};

/// \brief The registered strategies of one family. Defined for the three
/// families in strategy_registry.cc.
template <typename Strategy>
class StrategyRegistry {
 public:
  using Descriptor = StrategyDescriptor<Strategy>;

  /// Registered descriptors in registration order (built-ins first). The
  /// returned pointers stay valid for the process lifetime.
  static std::vector<const Descriptor*> List();

  /// Looks a strategy up by exact name; null when unknown.
  static const Descriptor* Find(const std::string& name);

  /// Registers a strategy; aborts on a duplicate name.
  static void Register(Descriptor descriptor);

  /// Instantiates a validated spec. Errors (unknown name, bad parameters)
  /// name the offending token.
  static util::Result<std::unique_ptr<Strategy>> Make(
      const StrategySpec<Strategy>& spec, const StrategyEnv& env);
};

using PolicyDescriptor = StrategyDescriptor<MaintenancePolicy>;
using SelectionDescriptor = StrategyDescriptor<SelectionStrategy>;
using EstimatorDescriptor = StrategyDescriptor<LifetimeEstimator>;
using PolicyRegistry = StrategyRegistry<MaintenancePolicy>;
using SelectionRegistry = StrategyRegistry<SelectionStrategy>;
using EstimatorRegistry = StrategyRegistry<LifetimeEstimator>;

}  // namespace core
}  // namespace p2p

#endif  // P2P_CORE_STRATEGY_REGISTRY_H_
