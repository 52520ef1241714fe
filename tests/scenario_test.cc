// Tests for the scenario subsystem: token parsing (durations, lists),
// declarative populations, workload events, the key=value text round-trip
// (including a golden file), the registry, and the guarantee that workload
// scenarios actually change the population at the scheduled round, end to
// end through the parallel sweep runner.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include <gtest/gtest.h>

#include "backup/network.h"
#include "scenario/parse.h"
#include "scenario/population.h"
#include "scenario/registry.h"
#include "scenario/scenario.h"
#include "scenario/text.h"
#include "scenario/workload.h"
#include "sim/engine.h"
#include "sweep/runner.h"
#include "sweep/spec.h"
#include "util/flags.h"
#include "util/rng.h"

namespace p2p {
namespace scenario {
namespace {

// ---------------------------------------------------------------- parsing

TEST(ParseTest, Durations) {
  auto rounds = [](const std::string& s) {
    auto r = ParseDuration(s);
    EXPECT_TRUE(r.ok()) << s << ": " << r.status().ToString();
    return r.ok() ? *r : -1;
  };
  EXPECT_EQ(rounds("0"), 0);
  EXPECT_EQ(rounds("36"), 36);
  EXPECT_EQ(rounds("36h"), 36);
  EXPECT_EQ(rounds("90d"), 90 * sim::kRoundsPerDay);
  EXPECT_EQ(rounds("2w"), 2 * sim::kRoundsPerWeek);
  EXPECT_EQ(rounds("3mo"), 3 * sim::kRoundsPerMonth);
  EXPECT_EQ(rounds("1y"), sim::kRoundsPerYear);
  EXPECT_EQ(rounds("1.5y"), sim::YearsToRounds(1.5));
  EXPECT_EQ(rounds(" 7d "), 7 * sim::kRoundsPerDay);

  // Errors name the offending token.
  auto bad = ParseDuration("90x");
  EXPECT_TRUE(bad.status().IsInvalidArgument());
  EXPECT_NE(bad.status().message().find("90x"), std::string::npos);
  EXPECT_FALSE(ParseDuration("").ok());
  EXPECT_FALSE(ParseDuration("-5d").ok());
  EXPECT_FALSE(ParseDuration("d").ok());
}

TEST(ParseTest, DurationRenderRoundTrips) {
  for (sim::Round r : {sim::Round{0}, sim::Round{1}, sim::Round{12},
                       sim::Round{24}, sim::Round{36}, sim::Round{168},
                       sim::Round{720}, sim::Round{2160}, sim::Round{8760},
                       sim::Round{13140}, sim::Round{18000},
                       sim::Round{50000}}) {
    const std::string text = RenderDuration(r);
    auto back = ParseDuration(text);
    ASSERT_TRUE(back.ok()) << text;
    EXPECT_EQ(*back, r) << text;
  }
  EXPECT_EQ(RenderDuration(2160), "3mo");
  EXPECT_EQ(RenderDuration(2400), "100d");
  EXPECT_EQ(RenderDuration(13140), "13140");  // 1.5y: no unit divides it
}

TEST(ParseTest, DoubleRenderRoundTrips) {
  for (double v : {0.0, 0.1, 0.25, 0.35, 1.0 / 3.0, 2.0, 1.1, 1e-9, -3.75}) {
    const std::string text = RenderDouble(v);
    auto back = ParseDouble(text);
    ASSERT_TRUE(back.ok()) << text;
    EXPECT_EQ(*back, v) << text;
  }
  EXPECT_EQ(RenderDouble(0.1), "0.1");
  EXPECT_EQ(RenderDouble(2.0), "2");
}

TEST(ParseTest, IntListParsesAndNamesOffendingToken) {
  std::vector<int> out;
  ASSERT_TRUE(ParseIntList("132,148,164", &out).ok());
  EXPECT_EQ(out, (std::vector<int>{132, 148, 164}));
  ASSERT_TRUE(ParseIntList("7", &out).ok());
  EXPECT_EQ(out, (std::vector<int>{7}));
  ASSERT_TRUE(ParseIntList("-4, 5", &out).ok());  // spaces tolerated
  EXPECT_EQ(out, (std::vector<int>{-4, 5}));

  EXPECT_TRUE(ParseIntList("", &out).IsInvalidArgument());
  EXPECT_TRUE(ParseIntList("1,,2", &out).IsInvalidArgument());
  const util::Status bad = ParseIntList("132,14x,164", &out);
  EXPECT_TRUE(bad.IsInvalidArgument());
  // The message names the bad element and its position.
  EXPECT_NE(bad.message().find("'14x'"), std::string::npos);
  EXPECT_NE(bad.message().find("element 2"), std::string::npos);
  EXPECT_TRUE(ParseIntList("12cats", &out).IsInvalidArgument());
}

TEST(ParseTest, StringLists) {
  std::vector<std::string> out;
  ASSERT_TRUE(ParseStringList("paper, flash-crowd", &out).ok());
  EXPECT_EQ(out, (std::vector<std::string>{"paper", "flash-crowd"}));
  EXPECT_TRUE(ParseStringList("a,,b", &out).IsInvalidArgument());
  EXPECT_TRUE(ParseStringList("", &out).IsInvalidArgument());
}

TEST(ParseTest, SpecListsHonourBraces) {
  std::vector<std::string> out;
  ASSERT_TRUE(ParseSpecList(
                  "fixed-threshold{threshold=140}, "
                  "proactive{batch_blocks=8,emergency_threshold=136},random",
                  &out)
                  .ok());
  EXPECT_EQ(out, (std::vector<std::string>{
                     "fixed-threshold{threshold=140}",
                     "proactive{batch_blocks=8,emergency_threshold=136}",
                     "random"}));
  EXPECT_TRUE(ParseSpecList("a,,b", &out).IsInvalidArgument());
  EXPECT_TRUE(ParseSpecList("a{x=1,b", &out).IsInvalidArgument());
  EXPECT_TRUE(ParseSpecList("a}b", &out).IsInvalidArgument());
  EXPECT_TRUE(ParseSpecList("", &out).IsInvalidArgument());
}

// ------------------------------------------------------------- population

TEST(PopulationTest, BuiltInsValidateAndCompile) {
  for (const PopulationSpec& spec :
       {PopulationSpec::Paper(), PopulationSpec::PaperBernoulli(),
        PopulationSpec::ParetoMix(720.0, 1.1), PopulationSpec::WeekendHeavy()}) {
    EXPECT_TRUE(spec.Validate().ok());
    EXPECT_TRUE(spec.Compile().ok());
  }
}

TEST(PopulationTest, RejectsBadSpecs) {
  PopulationSpec spec;
  EXPECT_TRUE(spec.Validate().IsInvalidArgument());  // empty

  spec = PopulationSpec::Paper();
  spec.profiles[0].proportion = 0.5;  // sum != 1
  EXPECT_TRUE(spec.Validate().IsInvalidArgument());

  spec = PopulationSpec::Paper();
  spec.profiles[1].availability = 1.5;
  EXPECT_TRUE(spec.Validate().IsInvalidArgument());

  spec = PopulationSpec::Paper();
  spec.profiles[1].lifetime = churn::LifetimeSpec::Uniform(100, 50);  // hi < lo
  EXPECT_TRUE(spec.Validate().IsInvalidArgument());

  spec = PopulationSpec::Paper();
  spec.profiles[2].lifetime = churn::LifetimeSpec::Pareto(-1.0, 1.1);
  EXPECT_TRUE(spec.Validate().IsInvalidArgument());
}

// --------------------------------------------------------------- workload

TEST(WorkloadTest, EventValidation) {
  EXPECT_TRUE(WorkloadEvent::FlashCrowd(100, 0.5).Validate().ok());
  EXPECT_TRUE(WorkloadEvent::MassExit(100, 0.3).Validate().ok());
  EXPECT_TRUE(WorkloadEvent::Ramp(100, -0.5, 200).Validate().ok());

  EXPECT_FALSE(WorkloadEvent::FlashCrowd(0, 0.5).Validate().ok());  // round 0
  EXPECT_FALSE(WorkloadEvent::FlashCrowd(100, -0.5).Validate().ok());
  EXPECT_FALSE(WorkloadEvent::MassExit(100, 1.0).Validate().ok());
  EXPECT_FALSE(WorkloadEvent::Ramp(100, 0.5, 0).Validate().ok());
  WorkloadEvent e = WorkloadEvent::FlashCrowd(100, 0.5);
  e.duration = 10;  // duration only belongs to ramps
  EXPECT_FALSE(e.Validate().ok());
}

TEST(WorkloadTest, CompileResolvesFractionsAndSorts) {
  WorkloadSchedule schedule;
  schedule.events.push_back(WorkloadEvent::MassExit(500, 0.25));
  schedule.events.push_back(WorkloadEvent::FlashCrowd(100, 0.5));
  auto compiled = CompileWorkload(schedule, 200);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  ASSERT_EQ(compiled->size(), 2u);
  EXPECT_EQ((*compiled)[0].at, 100);
  EXPECT_EQ((*compiled)[0].joins, 100u);  // 0.5 * 200
  EXPECT_EQ((*compiled)[1].at, 500);
  EXPECT_EQ((*compiled)[1].exits, 50u);  // 0.25 * 200
}

TEST(WorkloadTest, CompileSpreadsRampsExactly) {
  WorkloadSchedule schedule;
  schedule.events.push_back(WorkloadEvent::Ramp(10, 1.0, 7));
  auto compiled = CompileWorkload(schedule, 100);
  ASSERT_TRUE(compiled.ok());
  int64_t total = 0;
  sim::Round prev = 0;
  for (const auto& adj : *compiled) {
    EXPECT_GE(adj.at, 10);
    EXPECT_LT(adj.at, 17);
    EXPECT_GE(adj.at, prev);
    prev = adj.at;
    total += adj.joins;
    EXPECT_EQ(adj.exits, 0u);
  }
  EXPECT_EQ(total, 100);  // the ramp delivers exactly fraction * peers
}

// The per-round ramp loop CompileWorkload ran before it stepped over joins:
// one pass per ramp round, the cumulative count after r rounds being
// floor(total * r / duration). The reference for ramps short enough to walk.
std::vector<backup::PopulationAdjustment> PerRoundRamp(const WorkloadEvent& e,
                                                      uint32_t num_peers) {
  const int64_t total = static_cast<int64_t>(
      std::llround(std::abs(e.fraction) * static_cast<double>(num_peers)));
  std::vector<backup::PopulationAdjustment> out;
  for (sim::Round r = 0; r < e.duration; ++r) {
    const int64_t step = total * (r + 1) / e.duration - total * r / e.duration;
    if (step == 0) continue;
    if (e.fraction > 0.0) {
      out.push_back({e.at + r, static_cast<uint32_t>(step), 0});
    } else {
      out.push_back({e.at + r, 0, static_cast<uint32_t>(step)});
    }
  }
  return out;
}

TEST(WorkloadTest, RampsMatchThePerRoundReference) {
  struct Case {
    double fraction;
    sim::Round duration;
    uint32_t peers;
  };
  // Durations below, equal to and above the ramp's count, growing and
  // shrinking: each round gets several joins, exactly one, or often none.
  const Case cases[] = {
      {1.0, 7, 100},         {0.5, 7, 1000},     {0.25, 1000, 100},
      {1.0, 1000, 1000},     {-0.5, 333, 1000},  {-0.3, 10'000, 500},
      {2.0, 720, 997},       {0.01, 1, 1600},    {16.0, 4321, 1000},
      {0.003, 50'000, 1000}, {-0.9, 1, 200},     {1.0, 999, 1000},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message() << "fraction " << c.fraction
                                      << ", duration " << c.duration
                                      << ", peers " << c.peers);
    const WorkloadEvent ramp = WorkloadEvent::Ramp(25, c.fraction, c.duration);
    WorkloadSchedule schedule;
    schedule.events.push_back(ramp);
    const auto compiled = CompileWorkload(schedule, c.peers);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    const std::vector<backup::PopulationAdjustment> want =
        PerRoundRamp(ramp, c.peers);
    ASSERT_EQ(compiled->size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ((*compiled)[i].at, want[i].at) << i;
      EXPECT_EQ((*compiled)[i].joins, want[i].joins) << i;
      EXPECT_EQ((*compiled)[i].exits, want[i].exits) << i;
    }
  }
}

TEST(WorkloadTest, BillionYearRampCompilesPromptly) {
  // 1e9 years is 8.76e12 rounds: a pass per round would spin for hours, and
  // total * (r + 1) would overflow int64 long before the end.
  const auto parsed = ParseScenarioText(
      "name = x\nevent.0.kind = ramp\nevent.0.at = 30d\n"
      "event.0.fraction = 1\nevent.0.duration = 1e9y\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const sim::Round duration = parsed->workload.events[0].duration;
  ASSERT_EQ(duration, sim::Round{1'000'000'000} * sim::kRoundsPerYear);

  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(parsed->Validate().ok());
  const auto compiled = CompileWorkload(parsed->workload, parsed->peers);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_LT(elapsed, std::chrono::seconds(1));

  // Every join gets a round of its own; the last lands on the ramp's last.
  ASSERT_EQ(compiled->size(), parsed->peers);
  const sim::Round at = 30 * sim::kRoundsPerDay;
  EXPECT_EQ(compiled->front().at,
            at + (duration + parsed->peers - 1) / parsed->peers - 1);
  EXPECT_EQ(compiled->back().at, at + duration - 1);
  for (const backup::PopulationAdjustment& adj : *compiled) {
    EXPECT_EQ(adj.joins, 1u);
    EXPECT_EQ(adj.exits, 0u);
  }
}

TEST(WorkloadTest, CompileRejectsPopulationUnderflow) {
  WorkloadSchedule schedule;
  schedule.events.push_back(WorkloadEvent::MassExit(100, 0.95));
  const auto compiled = CompileWorkload(schedule, 100);
  EXPECT_TRUE(compiled.status().IsInvalidArgument());
  EXPECT_NE(compiled.status().message().find("below"), std::string::npos);
}

TEST(WorkloadTest, CompileRejectsCountsPastTheIdSpace) {
  // Each schedule is rejected before any adjustment is built, so none of
  // them allocates: its counts would wrap a uint32_t, and the ramps would
  // first build one adjustment per peer.
  const auto compile = [](WorkloadEvent e, uint32_t peers) {
    WorkloadSchedule schedule;
    schedule.events.push_back(e);
    return CompileWorkload(schedule, peers).status();
  };
  const std::string ids = "more than the " +
                          std::to_string(backup::kMaxNormalSlots) +
                          " a network has";
  util::Status st = compile(WorkloadEvent::FlashCrowd(100, 16.0), 300'000'000);
  EXPECT_EQ(st.message(),
            "workload needs 5100000000 peer ids for its peers plus scheduled "
            "joins, " + ids);
  const sim::Round eon = sim::Round{1'000'000'000} * sim::kRoundsPerYear;
  st = compile(WorkloadEvent::Ramp(720, 1.0, eon), 4'000'000'000u);
  EXPECT_EQ(st.message(),
            "workload needs 8000000000 peer ids for its peers plus scheduled "
            "joins, " + ids);
  st = compile(WorkloadEvent::Ramp(720, -16.0, 1), 270'000'000);
  EXPECT_EQ(st.message(),
            "workload removes 4320000000 peers, more than the 270000000 it "
            "ever has");
  st = compile(WorkloadEvent::Ramp(720, -1.5, eon), 1'000'000'000);
  EXPECT_EQ(st.message(),
            "workload removes 1500000000 peers, more than the 1000000000 it "
            "ever has");

  // The bound itself: one join fills the last id slot, a second is one
  // too many.
  const double one = 1.0 / backup::kMaxNormalSlots;
  const auto last = CompileWorkload(
      WorkloadSchedule{{WorkloadEvent::FlashCrowd(100, one)}},
      backup::kMaxNormalSlots - 1);
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  ASSERT_EQ(last->size(), 1u);
  EXPECT_EQ((*last)[0].joins, 1u);
  EXPECT_FALSE(
      compile(WorkloadEvent::FlashCrowd(100, one), backup::kMaxNormalSlots)
          .ok());
}

// ---------------------------------------------------------- text format

TEST(TextTest, EveryRegistryEntryRoundTripsExactly) {
  for (const std::string& name : RegistryNames()) {
    SCOPED_TRACE(name);
    auto original = FindScenario(name);
    ASSERT_TRUE(original.ok());
    const std::string text = RenderScenarioText(*original);
    auto reparsed = ParseScenarioText(text);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
    EXPECT_TRUE(*reparsed == *original) << text;
    // Render is canonical: a second round trip is a fixed point.
    EXPECT_EQ(RenderScenarioText(*reparsed), text);
  }
}

TEST(TextTest, GoldenFlashCrowdFile) {
  const std::string path =
      std::string(P2P_SOURCE_DIR) + "/tests/golden/flash_crowd.scenario";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();

  auto registry = FindScenario("flash-crowd");
  ASSERT_TRUE(registry.ok());
  // The checked-in file is the canonical render of the registry entry...
  EXPECT_EQ(RenderScenarioText(*registry), buffer.str());
  // ...and parses back to exactly that scenario.
  auto parsed = ParseScenarioText(buffer.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(*parsed == *registry);
}

TEST(TextTest, PartialFilesKeepDefaults) {
  auto parsed = ParseScenarioText(
      "# tiny world\n"
      "name = tiny\n"
      "peers = 64\n"
      "rounds = 10d\n"
      "options.repair_threshold = 132\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->name, "tiny");
  EXPECT_EQ(parsed->peers, 64u);
  EXPECT_EQ(parsed->rounds, 240);
  EXPECT_EQ(parsed->options.repair_threshold, 132);
  EXPECT_EQ(parsed->seed, 42u);  // default kept
  EXPECT_TRUE(parsed->population == PopulationSpec::Paper());
  EXPECT_TRUE(parsed->workload.empty());
}

TEST(TextTest, ErrorsNameLineAndToken) {
  auto bad = ParseScenarioText("name = x\npeers = lots\n");
  EXPECT_TRUE(bad.status().IsInvalidArgument());
  EXPECT_NE(bad.status().message().find("line 2"), std::string::npos);
  EXPECT_NE(bad.status().message().find("lots"), std::string::npos);

  bad = ParseScenarioText("name = x\nnonsense.key = 1\n");
  EXPECT_NE(bad.status().message().find("unknown key"), std::string::npos);

  bad = ParseScenarioText("name = x\nseed = 1\nseed = 2\n");
  EXPECT_NE(bad.status().message().find("duplicate"), std::string::npos);

  bad = ParseScenarioText("peers = 100\n");
  EXPECT_NE(bad.status().message().find("name"), std::string::npos);

  bad = ParseScenarioText(
      "name = x\nprofile.0.name = solo\nprofile.0.proportion = 1\n"
      "profile.0.availability = 0.5\n");
  EXPECT_NE(bad.status().message().find("lifetime"), std::string::npos);

  bad = ParseScenarioText("name = x\nevent.0.kind = comet\n");
  EXPECT_NE(bad.status().message().find("comet"), std::string::npos);

  bad = ParseScenarioText("name = x\noptions.visibility = psychic\n");
  EXPECT_NE(bad.status().message().find("psychic"), std::string::npos);

  // Strategy specs: unknown names and bad parameters fail loudly, naming
  // the token - the silent-fallback FromName era is over.
  bad = ParseScenarioText("name = x\noptions.policy = psychic-repair\n");
  EXPECT_TRUE(bad.status().IsInvalidArgument());
  EXPECT_NE(bad.status().message().find("psychic-repair"), std::string::npos);

  bad = ParseScenarioText("name = x\noptions.selection = oldest\n");
  EXPECT_TRUE(bad.status().IsInvalidArgument());
  EXPECT_NE(bad.status().message().find("oldest"), std::string::npos);

  bad = ParseScenarioText(
      "name = x\noptions.policy = proactive{batch_blocks=none}\n");
  EXPECT_NE(bad.status().message().find("none"), std::string::npos);

  bad = ParseScenarioText("name = x\noptions.estimator = crystal-ball\n");
  EXPECT_TRUE(bad.status().IsInvalidArgument());
  EXPECT_NE(bad.status().message().find("crystal-ball"), std::string::npos);

  bad = ParseScenarioText(
      "name = x\noptions.estimator = age-rank{horizon=forever}\n");
  EXPECT_NE(bad.status().message().find("forever"), std::string::npos);

  // Integer options reject values outside int instead of wrapping them.
  for (const std::string line : {"options.quota_blocks = 4294967680",
                                  "options.k = 4294967424",
                                  "options.repair_threshold = -4294967148"}) {
    SCOPED_TRACE(line);
    bad = ParseScenarioText("name = x\n" + line + "\n");
    EXPECT_TRUE(bad.status().IsInvalidArgument());
    const std::string& message = bad.status().message();
    EXPECT_NE(message.find("line 2"), std::string::npos) << message;
    EXPECT_NE(message.find(line.substr(0, line.find(' '))), std::string::npos)
        << message;
    EXPECT_NE(message.find(line.substr(line.rfind(' ') + 1)),
              std::string::npos)
        << message;
  }

  // Section indices are canonical decimals: another spelling of index 0
  // would slip past the duplicate-key check and overwrite profile 0.
  const std::string profile0 =
      "name = x\nprofile.0.name = a\nprofile.0.proportion = 1\n"
      "profile.0.availability = 0.5\nprofile.0.lifetime = unlimited\n";
  for (const std::string line : {"profile.00.availability = 0.9",
                                  "profile.+0.name = b"}) {
    SCOPED_TRACE(line);
    bad = ParseScenarioText(profile0 + line + "\n");
    EXPECT_TRUE(bad.status().IsInvalidArgument());
    const std::string& message = bad.status().message();
    EXPECT_NE(message.find("line 6"), std::string::npos) << message;
    EXPECT_NE(message.find("bad profile index '" +
                           line.substr(8, line.find('.', 8) - 8) + "'"),
              std::string::npos)
        << message;
  }

  // Number errors name the expected type, then the key or argument.
  const std::pair<std::string, std::string> typed[] = {
      {"options.k = lots", "line 2: not an integer for options.k: 'lots'"},
      {"peers = x", "line 2: not an integer for peers: 'x'"},
      {"profile.0.lifetime = exponential(x)",
       "line 2: not a duration for exponential mean: 'x'"},
      {"profile.0.availability = x",
       "line 2: not a number for profile.0.availability: 'x'"},
  };
  for (const auto& [line, want] : typed) {
    SCOPED_TRACE(line);
    bad = ParseScenarioText("name = x\n" + line + "\n");
    EXPECT_TRUE(bad.status().IsInvalidArgument());
    EXPECT_EQ(bad.status().message().find(want), 0u)
        << bad.status().message();
  }
}

TEST(TextTest, LifetimeMeansAndScalesTakeDurations) {
  // A unit suffix reads as a duration, as uniform(...)'s bounds do; a bare
  // number stays raw rounds, and the render is the bare number's.
  const std::pair<std::string, std::string> same[] = {
      {"exponential(4mo)", "exponential(2880)"},
      {"exponential(1.5y)", "exponential(13140)"},
      {"pareto(30d,1.1)", "pareto(720,1.1)"},
  };
  const std::string profile =
      "name = x\nprofile.0.name = solo\nprofile.0.proportion = 1\n"
      "profile.0.availability = 0.5\nprofile.0.lifetime = ";
  for (const auto& [suffixed, bare] : same) {
    SCOPED_TRACE(suffixed);
    const auto with_unit = ParseScenarioText(profile + suffixed + "\n");
    const auto rounds = ParseScenarioText(profile + bare + "\n");
    ASSERT_TRUE(with_unit.ok()) << with_unit.status().ToString();
    ASSERT_TRUE(rounds.ok()) << rounds.status().ToString();
    EXPECT_TRUE(with_unit->population == rounds->population);
    const std::string text = RenderScenarioText(*with_unit);
    EXPECT_EQ(text, RenderScenarioText(*rounds));
    const auto again = ParseScenarioText(text);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_TRUE(*again == *with_unit);
    EXPECT_EQ(RenderScenarioText(*again), text);
  }
  // A fractional bare mean is rounds as written, not rounded to a duration.
  const auto fractional = ParseScenarioText(profile + "exponential(0.5)\n");
  ASSERT_TRUE(fractional.ok()) << fractional.status().ToString();
  EXPECT_EQ(fractional->population.profiles[0].lifetime.mean, 0.5);
}

TEST(TextTest, ParameterizedStrategySpecsRoundTrip) {
  auto parsed = ParseScenarioText(
      "name = strategies\n"
      "options.policy = adaptive-redundancy{safety_factor=4,min_extra=16}\n"
      "options.selection = weighted-random{age_exponent=2}\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->options.policy.name, "adaptive-redundancy");
  EXPECT_EQ(parsed->options.policy.params.at("safety_factor"),
            core::ParamValue::Double(4.0));
  EXPECT_EQ(parsed->options.policy.params.at("min_extra"),
            core::ParamValue::Int(16));
  EXPECT_EQ(parsed->options.selection.ToString(),
            "weighted-random{age_exponent=2}");

  const std::string text = RenderScenarioText(*parsed);
  auto reparsed = ParseScenarioText(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_TRUE(*reparsed == *parsed);
  EXPECT_EQ(RenderScenarioText(*reparsed), text);
}

TEST(TextTest, MetricSelectionRoundTripsAndValidates) {
  auto parsed = ParseScenarioText(
      "name = probes\n"
      "metrics.select = repairs,losses,repair_bandwidth,time_to_repair_mean\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->metrics,
            (std::vector<std::string>{"repairs", "losses", "repair_bandwidth",
                                      "time_to_repair_mean"}));
  const std::string text = RenderScenarioText(*parsed);
  EXPECT_NE(text.find("metrics.select = repairs,losses,repair_bandwidth,"
                      "time_to_repair_mean"),
            std::string::npos);
  auto reparsed = ParseScenarioText(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_TRUE(*reparsed == *parsed);
  EXPECT_EQ(RenderScenarioText(*reparsed), text);

  // A default-selection scenario renders with no metrics.select line at all.
  Scenario plain;
  EXPECT_EQ(RenderScenarioText(plain).find("metrics.select"),
            std::string::npos);

  // Unknown and duplicate probe names fail loudly, naming the token.
  auto bad = ParseScenarioText("name = x\nmetrics.select = repairs,psychic\n");
  EXPECT_TRUE(bad.status().IsInvalidArgument());
  EXPECT_NE(bad.status().message().find("psychic"), std::string::npos);
  bad = ParseScenarioText("name = x\nmetrics.select = repairs,repairs\n");
  EXPECT_TRUE(bad.status().IsInvalidArgument());
  EXPECT_NE(bad.status().message().find("duplicate"), std::string::npos);
}

TEST(TextTest, GoldenParameterizedStrategiesFile) {
  const std::string path = std::string(P2P_SOURCE_DIR) +
                           "/tests/golden/parameterized_strategies.scenario";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();

  auto parsed = ParseScenarioText(buffer.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  // The checked-in file is canonical: render reproduces it byte for byte.
  EXPECT_EQ(RenderScenarioText(*parsed), buffer.str());

  // The strategy specs survive with their exact parameters.
  core::PolicySpec policy;
  policy.name = "proactive";
  policy.params["batch_blocks"] = core::ParamValue::Int(4);
  policy.params["emergency_threshold"] = core::ParamValue::Int(136);
  EXPECT_TRUE(parsed->options.policy == policy);

  core::SelectionSpec selection;
  selection.name = "weighted-random";
  selection.params["age_exponent"] = core::ParamValue::Double(2.5);
  EXPECT_TRUE(parsed->options.selection == selection);

  core::EstimatorSpec estimator;
  estimator.name = "availability-weighted";
  estimator.params["exponent"] = core::ParamValue::Double(1.5);
  EXPECT_TRUE(parsed->options.estimator == estimator);

  // And the scenario actually runs with them.
  Scenario s = *parsed;
  s.peers = 120;
  s.rounds = 200;
  RunOptions run;
  run.check_invariants = true;
  const Outcome out = RunScenario(s, run);
  EXPECT_GT(out.report.Count("repairs"), 0);
}

// One random edit of scenario text: delete, insert, replace or duplicate a
// character, or delete, duplicate or swap a line.
std::string MutateScenarioText(std::string text, util::Rng* rng) {
  static const std::string kAlphabet =
      "=.#,(){}-+_ \t\n0123456789abcdefhilmnoprstuwxy";
  const auto pick = [&](size_t bound) {
    return static_cast<size_t>(rng->UniformBounded(bound));
  };
  // [begin, end) of the line holding text[at], newline included.
  const auto line_at = [&](size_t at) {
    const size_t before =
        at == 0 ? std::string::npos : text.rfind('\n', at - 1);
    const size_t after = text.find('\n', at);
    return std::make_pair(before == std::string::npos ? 0 : before + 1,
                          after == std::string::npos ? text.size() : after + 1);
  };
  if (text.empty()) return std::string(1, kAlphabet[pick(kAlphabet.size())]);
  const size_t at = pick(text.size());
  const char c = kAlphabet[pick(kAlphabet.size())];
  switch (rng->UniformBounded(7)) {
    case 0:
      text.erase(at, 1);
      break;
    case 1:
      text.insert(pick(text.size() + 1), 1, c);
      break;
    case 2:
      text[at] = c;
      break;
    case 3:
      text.insert(at, 1, text[at]);
      break;
    case 4: {
      const auto [begin, end] = line_at(at);
      text.erase(begin, end - begin);
      break;
    }
    case 5: {
      const auto [begin, end] = line_at(at);
      text.insert(begin, text.substr(begin, end - begin));
      break;
    }
    default: {  // swap the line with the next one
      const auto [begin, end] = line_at(at);
      if (end >= text.size()) break;
      const size_t next_end = line_at(end).second;
      text = text.substr(0, begin) + text.substr(end, next_end - end) +
             text.substr(begin, end - begin) + text.substr(next_end);
      break;
    }
  }
  return text;
}

// FNV-1a of `text`: each base text seeds its own mutant stream, so adding a
// registry scenario or a golden file leaves the other bases' mutants alone.
uint64_t TextHash(const std::string& text) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const unsigned char c : text) hash = (hash ^ c) * 0x100000001b3ull;
  return hash;
}

TEST(TextTest, SeededMutationsGiveNamedErrorsOrExactRoundTrips) {
  // Every registry scenario's canonical text and every checked-in scenario
  // file (sorted, so the set does not depend on directory order).
  std::vector<std::string> bases;
  for (const std::string& name : RegistryNames()) {
    auto scenario = FindScenario(name);
    ASSERT_TRUE(scenario.ok());
    bases.push_back(RenderScenarioText(*scenario));
  }
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(P2P_SOURCE_DIR) + "/tests/golden")) {
    if (entry.path().extension() == ".scenario") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());
  for (const std::string& path : files) {
    std::ifstream in(path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bases.push_back(buffer.str());
  }

  constexpr int kMutantsPerText = 256;
  int64_t parsed = 0, rejected = 0;
  for (const std::string& base : bases) {
    ASSERT_TRUE(ParseScenarioText(base).ok()) << base;
    util::Rng rng(0x5ce7a210 ^ TextHash(base));
    for (int m = 0; m < kMutantsPerText; ++m) {
      std::string text = base;
      const uint64_t edits = 1 + rng.UniformBounded(3);
      for (uint64_t e = 0; e < edits; ++e) {
        text = MutateScenarioText(text, &rng);
      }
      const util::Result<Scenario> scenario = ParseScenarioText(text);
      if (!scenario.ok()) {
        EXPECT_FALSE(scenario.status().message().empty()) << text;
        ++rejected;
        continue;
      }
      ++parsed;
      // A mutant that parses renders to canonical text that parses back to
      // the same scenario, and renders to the same text again.
      const std::string canonical = RenderScenarioText(*scenario);
      const util::Result<Scenario> again = ParseScenarioText(canonical);
      ASSERT_TRUE(again.ok()) << text << "\n->\n"
                              << canonical << "\n"
                              << again.status().ToString();
      EXPECT_TRUE(*again == *scenario) << text << "\n->\n" << canonical;
      EXPECT_EQ(RenderScenarioText(*again), canonical) << text;
    }
  }
  // Both outcomes occur, so the round-trip branch is exercised too.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

// ----------------------------------------------------- registry and flags

TEST(RegistryTest, HasTheAdvertisedEntriesAndTheyValidate) {
  const std::vector<std::string> names = RegistryNames();
  EXPECT_GE(names.size(), 6u);
  for (const char* expected :
       {"paper", "bernoulli", "pareto", "flash-crowd", "mass-exit", "growing",
        "weekend-heavy"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    auto s = FindScenario(name);
    ASSERT_TRUE(s.ok());
    EXPECT_EQ(s->name, name);
    EXPECT_TRUE(s->Validate().ok()) << s->Validate().ToString();
  }
  EXPECT_TRUE(FindScenario("nope").status().IsNotFound());
  // Unknown bare names do not fall through to the filesystem.
  EXPECT_TRUE(LoadScenario("nope").status().IsNotFound());
}

TEST(RegistryTest, RoundsAboveInt32MaxFailValidate) {
  // The network stores partnership rounds in 32 bits: a longer run is a
  // named validation error, not an abort in the network constructor.
  auto s = FindScenario("paper");
  ASSERT_TRUE(s.ok());
  s->rounds = INT32_MAX;
  EXPECT_TRUE(s->Validate().ok()) << s->Validate().ToString();
  s->rounds = static_cast<sim::Round>(INT32_MAX) + 1;
  const util::Status status = s->Validate();
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("rounds must be <= 2147483647"),
            std::string::npos)
      << status.ToString();
}

TEST(RegistryTest, ApplyWorldSwapsWorldOnly) {
  auto world = FindScenario("weekend-heavy");
  ASSERT_TRUE(world.ok());
  Scenario base;
  base.peers = 333;
  base.rounds = 777;
  base.seed = 5;
  base.options.repair_threshold = 140;
  ApplyWorld(*world, &base);
  EXPECT_EQ(base.name, "weekend-heavy");
  EXPECT_TRUE(base.population == world->population);
  EXPECT_EQ(base.peers, 333u);
  EXPECT_EQ(base.rounds, 777);
  EXPECT_EQ(base.seed, 5u);
  EXPECT_EQ(base.options.repair_threshold, 140);
}

TEST(RegistryTest, ScenarioFlagsApplyOrder) {
  Scenario s;
  s.rounds = 999;  // base value, distinguishable from the scenario's 18000
  s.options.repair_threshold = 140;
  s.observers.emplace_back("probe", 7);
  util::FlagSet flags;
  ScenarioFlags scenario_flags;
  scenario_flags.Register(&flags);
  const char* argv[] = {"prog", "--scenario=mass-exit", "--peers=640",
                        "--seed=9"};
  ASSERT_TRUE(flags.Parse(4, const_cast<char**>(argv)).ok());
  ASSERT_TRUE(scenario_flags.Apply(&s).ok());
  EXPECT_EQ(s.name, "mass-exit");
  EXPECT_EQ(s.workload.events.size(), 1u);
  EXPECT_EQ(s.peers, 640u);  // explicit scale beats the loaded scenario
  EXPECT_EQ(s.seed, 9u);
  // The scenario replaces the configuration wholesale: its rounds and
  // options win over base values (every key of a file is honoured)...
  EXPECT_EQ(s.rounds, 18'000);
  EXPECT_EQ(s.options.repair_threshold, 148);
  // ...except the base observer list, kept when the scenario has none.
  ASSERT_EQ(s.observers.size(), 1u);
  EXPECT_EQ(s.observers[0].first, "probe");

  // Scale flags out of range fail instead of wrapping or being ignored.
  for (const char* arg : {"--peers=4294967396", "--peers=-5"}) {
    SCOPED_TRACE(arg);
    util::FlagSet range_flags;
    ScenarioFlags range;
    range.Register(&range_flags);
    const char* range_argv[] = {"prog", arg};
    EXPECT_TRUE(
        range_flags.Parse(2, const_cast<char**>(range_argv)).IsOutOfRange());
  }
  for (const char* arg : {"--seed=-7", "--rounds=-5"}) {
    SCOPED_TRACE(arg);
    util::FlagSet range_flags;
    ScenarioFlags range;
    range.Register(&range_flags);
    const char* range_argv[] = {"prog", arg};
    ASSERT_TRUE(range_flags.Parse(2, const_cast<char**>(range_argv)).ok());
    Scenario kept;
    const util::Status status = range.Apply(&kept);
    EXPECT_TRUE(status.IsInvalidArgument());
    // The message names the flag and the value.
    const std::string flag(arg);
    const size_t eq = flag.find('=');
    EXPECT_NE(status.message().find(flag.substr(0, eq)), std::string::npos)
        << status.message();
    EXPECT_NE(status.message().find(flag.substr(eq + 1)), std::string::npos)
        << status.message();
  }

  Scenario bad;
  util::FlagSet flags2;
  ScenarioFlags scenario_flags2;
  scenario_flags2.Register(&flags2);
  const char* argv2[] = {"prog", "--scenario=missing-world"};
  ASSERT_TRUE(flags2.Parse(2, const_cast<char**>(argv2)).ok());
  EXPECT_FALSE(scenario_flags2.Apply(&bad).ok());
}

// ------------------------------------------- workload events end to end

TEST(WorkloadRunTest, FlashCrowdGrowsThePopulationAtTheScheduledRound) {
  auto s = FindScenario("flash-crowd");
  ASSERT_TRUE(s.ok());
  s->peers = 120;
  s->rounds = 400;
  s->workload.events[0] = WorkloadEvent::FlashCrowd(50, 0.5);
  ASSERT_TRUE(s->Validate().ok());

  sim::EngineOptions eopts;
  eopts.seed = s->seed;
  eopts.end_round = s->rounds;
  sim::Engine engine(eopts);
  auto profiles = s->population.Compile();
  ASSERT_TRUE(profiles.ok());
  auto workload = CompileWorkload(s->workload, s->peers);
  ASSERT_TRUE(workload.ok());
  backup::SystemOptions opts = s->options;
  opts.num_peers = s->peers;
  backup::BackupNetwork network(&engine, &*profiles, opts,
                                std::move(*workload));

  while (engine.now() < 50) {
    ASSERT_TRUE(engine.Step());
    EXPECT_EQ(network.LivePopulation(), 120);
  }
  ASSERT_TRUE(engine.Step());  // executes round 50: the join wave
  EXPECT_EQ(network.LivePopulation(), 180);
  network.CheckInvariants();
  while (engine.Step()) {
  }
  EXPECT_EQ(network.LivePopulation(), 180);
  network.CheckInvariants();
  // The wave members are real peers: they own and host partnerships. (At
  // this tiny scale nobody reaches the full n=256 distinct partners, so
  // "backed_up" is not the right signal - participation is.)
  int64_t wave_partnerships = 0;
  for (backup::PeerId id = 120; id < 180; ++id) {
    wave_partnerships += network.AliveBlocks(id) + network.HostedBlocks(id);
  }
  EXPECT_GT(wave_partnerships, 0);
}

TEST(WorkloadRunTest, MassExitShrinksAndGrowingRampGrows) {
  auto exit_world = FindScenario("mass-exit");
  ASSERT_TRUE(exit_world.ok());
  exit_world->peers = 120;
  exit_world->rounds = 300;
  exit_world->workload.events[0] = WorkloadEvent::MassExit(60, 0.3);
  const Outcome exited = RunScenario(*exit_world);
  EXPECT_EQ(exited.final_population, 120 - 36);
  // 36 correlated departures show up in the departure counter...
  EXPECT_GE(exited.report.Count("departures"), 36);
  // ...and the registry-derived population probe agrees with the live count.
  EXPECT_EQ(exited.report.Count("final_population"), 120 - 36);

  auto grow_world = FindScenario("growing");
  ASSERT_TRUE(grow_world.ok());
  grow_world->peers = 120;
  grow_world->rounds = 300;
  grow_world->workload.events[0] = WorkloadEvent::Ramp(60, 1.0, 100);
  const Outcome grown = RunScenario(*grow_world);
  EXPECT_EQ(grown.final_population, 240);
}

TEST(WorkloadRunTest, FlashCrowdRunsThroughTheParallelSweepRunner) {
  // Acceptance: a workload-event scenario end to end through RunSweep.
  sweep::SweepSpec spec;
  spec.base.peers = 120;
  spec.base.rounds = 2'600;  // past day 100: the registry wave fires
  spec.scenarios = {"flash-crowd"};
  sweep::RunnerOptions ropts;
  ropts.threads = 2;
  auto results = sweep::RunSweep(spec, ropts);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), 1u);
  EXPECT_EQ((*results)[0].outcome.final_population, 180);
}

}  // namespace
}  // namespace scenario
}  // namespace p2p
