#include "scenario/population.h"

#include "sim/clock.h"

namespace p2p {
namespace scenario {
namespace {

using churn::LifetimeSpec;
using churn::SessionKind;

churn::Profile MakeProfile(std::string name, double proportion,
                           LifetimeSpec life, double availability,
                           SessionKind sessions,
                           sim::Round cycle = sim::kRoundsPerDay) {
  churn::Profile p;
  p.name = std::move(name);
  p.proportion = proportion;
  p.availability = availability;
  p.lifetime = life;
  p.sessions = sessions;
  p.session_cycle = cycle;
  return p;
}

// The paper's four-profile table (section 4.1.1):
//
//   Profile   Proportion  Life expectancy   Availability
//   Durable   10%         unlimited         95%
//   Stable    25%         1.5 - 3.5 years   87%
//   Unstable  30%         3 - 18 months     75%
//   Erratic   35%         1 - 3 months      33%
//
// The sessions knob is the only difference between the "paper" and
// "bernoulli" worlds.
PopulationSpec PaperTable(SessionKind sessions) {
  using sim::MonthsToRounds;
  using sim::YearsToRounds;
  PopulationSpec spec;
  spec.profiles.push_back(
      MakeProfile("durable", 0.10, LifetimeSpec::Unlimited(), 0.95, sessions));
  spec.profiles.push_back(MakeProfile(
      "stable", 0.25,
      LifetimeSpec::Uniform(YearsToRounds(1.5), YearsToRounds(3.5)), 0.87,
      sessions));
  spec.profiles.push_back(MakeProfile(
      "unstable", 0.30,
      LifetimeSpec::Uniform(MonthsToRounds(3), MonthsToRounds(18)), 0.75,
      sessions));
  spec.profiles.push_back(MakeProfile(
      "erratic", 0.35,
      LifetimeSpec::Uniform(MonthsToRounds(1), MonthsToRounds(3)), 0.33,
      sessions));
  return spec;
}

}  // namespace

util::Status PopulationSpec::Validate() const { return Compile().status(); }

util::Result<churn::ProfileSet> PopulationSpec::Compile() const {
  return churn::ProfileSet::Create(profiles);
}

PopulationSpec PopulationSpec::Paper() {
  return PaperTable(SessionKind::kDiurnal);
}

PopulationSpec PopulationSpec::PaperBernoulli() {
  return PaperTable(SessionKind::kBernoulli);
}

PopulationSpec PopulationSpec::ParetoMix(double scale_rounds, double shape) {
  PopulationSpec spec = PaperTable(SessionKind::kDiurnal);
  for (churn::Profile& p : spec.profiles) {
    p.lifetime = LifetimeSpec::Pareto(scale_rounds, shape);
  }
  return spec;
}

PopulationSpec PopulationSpec::WeekendHeavy() {
  using sim::MonthsToRounds;
  using sim::YearsToRounds;
  PopulationSpec spec;
  // Machines switched on for the weekend and off during the work week: the
  // session cycle is a full week, so partners vanish for days at a time.
  spec.profiles.push_back(MakeProfile(
      "weekender", 0.45,
      LifetimeSpec::Uniform(MonthsToRounds(3), MonthsToRounds(18)), 0.30,
      SessionKind::kDiurnal, sim::kRoundsPerWeek));
  spec.profiles.push_back(MakeProfile(
      "evening", 0.35,
      LifetimeSpec::Uniform(MonthsToRounds(1), MonthsToRounds(6)), 0.50,
      SessionKind::kDiurnal));
  spec.profiles.push_back(MakeProfile(
      "always-on", 0.20,
      LifetimeSpec::Uniform(YearsToRounds(1), YearsToRounds(4)), 0.97,
      SessionKind::kDiurnal));
  return spec;
}

}  // namespace scenario
}  // namespace p2p
