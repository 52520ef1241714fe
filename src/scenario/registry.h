// Named built-in scenarios and the --scenario command-line vocabulary.
//
// The registry maps stable names to fully built Scenario values:
//
//   paper           the paper's four-profile world, diurnal sessions
//   bernoulli       same profiles, per-round coin availability
//   pareto          shared heavy-tailed Pareto lifetimes (ablation A2)
//   flash-crowd     paper world + a +50% join wave at day 100
//   mass-exit       paper world + a correlated 30% departure at day 100
//   growing         paper world + a +100% growth ramp over the first year
//   weekend-heavy   machines that are mostly online on weekends only
//   flash-crowd-dsl the flash crowd with transfers on the 2009 DSL link
//
// Every bench/example binary resolves `--scenario=<name>` through
// FindScenario and `--scenario=<path>` through the text format, so new
// worlds are files, not code.

#ifndef P2P_SCENARIO_REGISTRY_H_
#define P2P_SCENARIO_REGISTRY_H_

#include <string>
#include <vector>

#include "scenario/scenario.h"
#include "util/flags.h"
#include "util/result.h"

namespace p2p {
namespace scenario {

/// Registered names, in registration order.
std::vector<std::string> RegistryNames();

/// Looks a name up in the registry.
util::Result<Scenario> FindScenario(const std::string& name);

/// Resolves `name_or_path`: registry first, then a scenario file.
util::Result<Scenario> LoadScenario(const std::string& name_or_path);

/// Copies the *world* of `world` - name, population, workload - onto `dst`,
/// leaving scale (peers/rounds/seed), options, and observers alone. This is
/// what the sweep's named-scenario axis and the --scenario flag do, so a
/// bench keeps its calibrated scale while swapping the simulated world.
void ApplyWorld(const Scenario& world, Scenario* dst);

/// Overrides the scale of `scenario` from command-line values: `peers` and
/// `rounds` when positive, `seed` when not -1. Rejects negative rounds and
/// seeds below -1 instead of ignoring them.
util::Status OverrideScale(uint32_t peers, int64_t rounds, int64_t seed,
                           Scenario* scenario);

/// \brief The standard scenario/scale flags shared by benches and examples.
///
/// Registers --scenario (name or file), --peers, --rounds, --seed, and
/// --paper against a FlagSet. Apply() rewrites a base scenario in override
/// order: a selected --scenario replaces the configuration wholesale
/// (scale, options, population, workload - every key of a scenario file is
/// honoured, matching `scenario_tool run`; the base observer list survives
/// when the scenario defines none), then --paper, then the explicit scale
/// flags. Binary-specific knobs (e.g. a bench's --threshold) are applied by
/// the caller after Apply() and override everything.
class ScenarioFlags {
 public:
  void Register(util::FlagSet* flags);
  util::Status Apply(Scenario* scenario) const;

 private:
  std::string scenario_;
  uint32_t peers_ = 0;  // 0 = keep base
  int64_t rounds_ = 0;  // 0 = keep base
  int64_t seed_ = -1;   // -1 = keep base
  bool paper_ = false;  // full paper scale: 25,000 peers, 50,000 rounds
};

}  // namespace scenario
}  // namespace p2p

#endif  // P2P_SCENARIO_REGISTRY_H_
