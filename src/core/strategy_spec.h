// Declarative strategy specifications: a registry-backed strategy name plus
// a typed parameter map.
//
// The simulator has three strategy families - maintenance policies,
// selection strategies and lifetime estimators - and one spec type,
// StrategySpec<Strategy>, keyed by the family's interface (PolicySpec,
// SelectionSpec and EstimatorSpec are aliases). A spec makes a strategy
// data:
//
//   fixed-threshold                         (all defaults)
//   fixed-threshold{threshold=140}
//   proactive{batch_blocks=8,emergency_threshold=136}
//   weighted-random{age_exponent=2}
//
// The spec grammar is `name` or `name{key=value,...}`. Parsing is
// type-directed against the family's registry (strategy_registry.h): unknown
// strategy names, unknown parameters, type mismatches, and out-of-range
// values are all util::Result errors naming the offending token - never a
// silent fallback. Render is canonical (parameters in name order, shortest
// value form), so Parse(Render(spec)) == spec exactly; only explicitly-set
// parameters are stored and rendered, which keeps `fixed-threshold` and
// `fixed-threshold{threshold=148}` distinct as text while both resolve to
// the same policy under the default options. StrategyTraits holds the only
// per-family facts: the default strategy and the label errors use.

#ifndef P2P_CORE_STRATEGY_SPEC_H_
#define P2P_CORE_STRATEGY_SPEC_H_

#include <cstdint>
#include <map>
#include <string>

#include "util/result.h"
#include "util/status.h"

namespace p2p {
namespace core {

/// Type of one strategy parameter.
enum class ParamType {
  kInt,     ///< integer counts / levels / round counts
  kDouble,  ///< rates, exponents, factors
};

/// Lowercase token of a parameter type ("int", "double"); for listings.
const char* ParamTypeName(ParamType type);

/// One typed parameter value.
struct ParamValue {
  ParamType type = ParamType::kInt;
  int64_t int_value = 0;
  double double_value = 0.0;

  static ParamValue Int(int64_t v);
  static ParamValue Double(double v);

  /// Numeric view, whatever the type (used by range checks).
  double AsDouble() const;

  /// Canonical text form ("8", "2.5"); doubles render with the fewest
  /// digits that parse back to the same value.
  std::string Render() const;
};

bool operator==(const ParamValue& a, const ParamValue& b);
inline bool operator!=(const ParamValue& a, const ParamValue& b) {
  return !(a == b);
}

/// Explicitly-set parameters, keyed by name. std::map so the canonical
/// render order is deterministic.
using ParamMap = std::map<std::string, ParamValue>;

class LifetimeEstimator;
class MaintenancePolicy;
class SelectionStrategy;

/// What sets one strategy family apart in specs, sweeps and tools: the
/// strategy a default spec names, and the label of error texts, sweep axes
/// and `--<label>` flags.
template <typename Strategy>
struct StrategyTraits;

template <>
struct StrategyTraits<MaintenancePolicy> {
  /// The paper's rule; its threshold follows options.repair_threshold.
  static constexpr const char* kDefaultName = "fixed-threshold";
  static constexpr const char* kLabel = "policy";
};

template <>
struct StrategyTraits<SelectionStrategy> {
  static constexpr const char* kDefaultName = "oldest-first";  ///< the paper's
  static constexpr const char* kLabel = "selection";
};

template <>
struct StrategyTraits<LifetimeEstimator> {
  /// The paper's rule; its horizon follows options.acceptance_horizon.
  static constexpr const char* kDefaultName = "age-rank";
  static constexpr const char* kLabel = "estimator";
};

/// \brief A strategy reference: registry name + explicit parameters. A
/// default spec names the family's paper strategy with no parameters.
/// Defined for the three families in strategy_spec.cc.
template <typename Strategy>
struct StrategySpec {
  std::string name = StrategyTraits<Strategy>::kDefaultName;
  ParamMap params;

  /// Canonical text: `name` or `name{key=value,...}` (params in key order).
  std::string ToString() const;

  /// Checks the name against the family's registry and every parameter for
  /// existence, type, range, and cross-parameter consistency. Errors name
  /// the offending token.
  util::Status Validate() const;

  /// Parses the spec grammar against the family's registry (type-directed:
  /// values are coerced to the declared parameter types) and validates.
  static util::Result<StrategySpec> Parse(const std::string& text);
};

template <typename Strategy>
bool operator==(const StrategySpec<Strategy>& a,
                const StrategySpec<Strategy>& b) {
  return a.name == b.name && a.params == b.params;
}

using PolicySpec = StrategySpec<MaintenancePolicy>;
using SelectionSpec = StrategySpec<SelectionStrategy>;
using EstimatorSpec = StrategySpec<LifetimeEstimator>;

}  // namespace core
}  // namespace p2p

#endif  // P2P_CORE_STRATEGY_SPEC_H_
