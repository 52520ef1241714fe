// Declarative peer populations.
//
// A PopulationSpec is a plain list of churn::Profile descriptions - name,
// population share, lifetime law, session process - that compiles into the
// churn::ProfileSet the simulation runs on. Where the old sweep::ProfileMix
// enum offered exactly three hardcoded worlds, a spec can describe any mix
// (the heterogeneity studies of Skowron & Rzadca, the adaptive-redundancy
// regimes of Dell'Amico et al., ...) without touching C++: specs travel
// through the scenario text format (text.h) and the registry (registry.h).

#ifndef P2P_SCENARIO_POPULATION_H_
#define P2P_SCENARIO_POPULATION_H_

#include <vector>

#include "churn/profile.h"
#include "util/result.h"
#include "util/status.h"

namespace p2p {
namespace scenario {

/// \brief A complete population: profile shares must sum to 1.
struct PopulationSpec {
  std::vector<churn::Profile> profiles;

  /// Checks each profile and the proportion sum.
  util::Status Validate() const;

  /// Compiles to the runtime form (validates first).
  util::Result<churn::ProfileSet> Compile() const;

  /// \name Built-in mixes.
  /// @{
  /// The paper's four-profile table (section 4.1.1), diurnal sessions.
  static PopulationSpec Paper();
  /// Same table with per-round Bernoulli availability.
  static PopulationSpec PaperBernoulli();
  /// The paper table with every lifetime replaced by Pareto(scale, shape).
  static PopulationSpec ParetoMix(double scale_rounds, double shape);
  /// Machines used mostly on weekends: weekly session cycles dominate.
  static PopulationSpec WeekendHeavy();
  /// @}

  friend bool operator==(const PopulationSpec& a, const PopulationSpec& b) {
    return a.profiles == b.profiles;
  }
  friend bool operator!=(const PopulationSpec& a, const PopulationSpec& b) {
    return !(a == b);
  }
};

}  // namespace scenario
}  // namespace p2p

#endif  // P2P_SCENARIO_POPULATION_H_
