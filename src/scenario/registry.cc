#include "scenario/registry.h"

#include <utility>

#include "scenario/text.h"

namespace p2p {
namespace scenario {
namespace {

Scenario Named(const char* name) {
  Scenario s;
  s.name = name;
  return s;
}

Scenario Paper() { return Named("paper"); }

Scenario Bernoulli() {
  Scenario s = Named("bernoulli");
  s.population = PopulationSpec::PaperBernoulli();
  return s;
}

Scenario Pareto() {
  Scenario s = Named("pareto");
  // Scale 1 month, shape 1.1: heavy-tailed as in [5]; mean ~ 8 months.
  s.population = PopulationSpec::ParetoMix(
      static_cast<double>(sim::MonthsToRounds(1)), 1.1);
  return s;
}

Scenario FlashCrowd() {
  Scenario s = Named("flash-crowd");
  // Half the network's worth of fresh peers arrives at once on day 100 -
  // the quota market and the repair pipeline absorb a newcomer wave.
  s.workload.events.push_back(
      WorkloadEvent::FlashCrowd(sim::DaysToRounds(100), 0.5));
  return s;
}

Scenario MassExit() {
  Scenario s = Named("mass-exit");
  // A correlated 30% departure on day 100 (an ISP outage taken as permanent,
  // a client-update exodus): redundancy must outlive correlated loss.
  s.workload.events.push_back(
      WorkloadEvent::MassExit(sim::DaysToRounds(100), 0.3));
  return s;
}

Scenario Growing() {
  Scenario s = Named("growing");
  // The network doubles over its first year, starting day 30.
  s.workload.events.push_back(WorkloadEvent::Ramp(
      sim::DaysToRounds(30), 1.0, sim::YearsToRounds(1)));
  return s;
}

Scenario WeekendHeavy() {
  Scenario s = Named("weekend-heavy");
  s.population = PopulationSpec::WeekendHeavy();
  return s;
}

Scenario FlashCrowdDsl() {
  Scenario s = Named("flash-crowd-dsl");
  // The flash-crowd wave on the paper's DSL link: every newcomer's initial
  // placement is a full n-block upload on a 32 kB/s uplink, so the wave
  // saturates uplink capacity and stretches time-to-backup over days -
  // the feasibility ceiling of section 2.2.4 made visible.
  s.workload.events.push_back(
      WorkloadEvent::FlashCrowd(sim::DaysToRounds(100), 0.5));
  s.options.transfer_enabled = true;
  s.options.transfer_link = "dsl-2009";
  return s;
}

struct Entry {
  const char* name;
  Scenario (*build)();
};

constexpr Entry kRegistry[] = {
    {"paper", Paper},           {"bernoulli", Bernoulli},
    {"pareto", Pareto},         {"flash-crowd", FlashCrowd},
    {"mass-exit", MassExit},    {"growing", Growing},
    {"weekend-heavy", WeekendHeavy},
    {"flash-crowd-dsl", FlashCrowdDsl},
};

}  // namespace

std::vector<std::string> RegistryNames() {
  std::vector<std::string> names;
  names.reserve(std::size(kRegistry));
  for (const Entry& e : kRegistry) names.push_back(e.name);
  return names;
}

util::Result<Scenario> FindScenario(const std::string& name) {
  for (const Entry& e : kRegistry) {
    if (name == e.name) return e.build();
  }
  std::string known;
  for (const Entry& e : kRegistry) {
    if (!known.empty()) known += ", ";
    known += e.name;
  }
  return util::Status::NotFound("no scenario named '" + name +
                                "' (registry: " + known + ")");
}

util::Result<Scenario> LoadScenario(const std::string& name_or_path) {
  util::Result<Scenario> named = FindScenario(name_or_path);
  if (named.ok()) return named;
  // Only fall through to the filesystem for things that look like paths;
  // a typo'd registry name should list the registry, not say ENOENT.
  if (name_or_path.find('/') == std::string::npos &&
      name_or_path.find('.') == std::string::npos) {
    return named.status();
  }
  return LoadScenarioFile(name_or_path);
}

void ApplyWorld(const Scenario& world, Scenario* dst) {
  dst->name = world.name;
  dst->population = world.population;
  dst->workload = world.workload;
}

util::Status OverrideScale(uint32_t peers, int64_t rounds, int64_t seed,
                           Scenario* scenario) {
  if (rounds < 0) {
    return util::Status::InvalidArgument(
        "--rounds must be >= 0 (0 keeps the scenario's), got " +
        std::to_string(rounds));
  }
  if (seed < -1) {
    return util::Status::InvalidArgument(
        "--seed must be >= -1 (-1 keeps the scenario's), got " +
        std::to_string(seed));
  }
  if (peers > 0) scenario->peers = peers;
  if (rounds > 0) scenario->rounds = rounds;
  if (seed >= 0) scenario->seed = static_cast<uint64_t>(seed);
  return util::Status::OK();
}

void ScenarioFlags::Register(util::FlagSet* flags) {
  flags->String("scenario", &scenario_,
                "simulated world: a registry name or a scenario file");
  flags->UInt32("peers", &peers_, "population size (0 = keep default)");
  flags->Int64("rounds", &rounds_, "rounds to simulate (0 = keep default)");
  flags->Int64("seed", &seed_, "random seed (-1 = keep default)");
  flags->Bool("paper", &paper_, "full paper scale: 25000 peers, 50000 rounds");
}

util::Status ScenarioFlags::Apply(Scenario* scenario) const {
  if (!scenario_.empty()) {
    util::Result<Scenario> loaded = LoadScenario(scenario_);
    if (!loaded.ok()) return loaded.status();
    // The selected scenario replaces the run configuration wholesale -
    // including its peers/rounds/seed and options.* keys, exactly as
    // `scenario_tool run` would honour them - and the explicit flags below
    // (plus any binary-specific knobs applied after this call) override it.
    // Only the observer list survives when the scenario defines none:
    // observers are measurement instruments, not part of the world.
    std::vector<std::pair<std::string, sim::Round>> base_observers =
        std::move(scenario->observers);
    *scenario = std::move(*loaded);
    if (scenario->observers.empty()) {
      scenario->observers = std::move(base_observers);
    }
  }
  if (paper_) {
    scenario->peers = 25'000;
    scenario->rounds = 50'000;
  }
  return OverrideScale(peers_, rounds_, seed_, scenario);
}

}  // namespace scenario
}  // namespace p2p
