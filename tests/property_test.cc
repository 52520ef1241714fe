// Cross-module property tests: parameterized sweeps over the invariants the
// system's correctness rests on.

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "backup/options.h"
#include "core/acceptance.h"
#include "core/lifetime_estimator.h"
#include "core/maintenance_policy.h"
#include "core/strategy_registry.h"
#include "core/strategy_spec.h"
#include "metrics/registry.h"
#include "scenario/registry.h"
#include "scenario/scenario.h"
#include "scenario/workload.h"
#include "sim/event_queue.h"
#include "sweep/report.h"
#include "sweep/runner.h"
#include "sweep/spec.h"
#include "transfer/link.h"
#include "util/rng.h"

namespace p2p {
namespace {

// --- Calendar queue: random schedules drain in exact round order. ---

TEST(CalendarQueueProperty, RandomSchedulesDrainInOrder) {
  util::Rng rng(2);
  for (int trial = 0; trial < 50; ++trial) {
    sim::CalendarQueue<std::pair<sim::Round, int>> q(8);
    std::vector<std::vector<int>> expected(300);
    int serial = 0;
    sim::Round now = 0;
    for (int step = 0; step < 300; ++step) {
      const int schedules = static_cast<int>(rng.UniformInt(0, 5));
      for (int s = 0; s < schedules; ++s) {
        const sim::Round at = now + rng.UniformInt(0, 250);
        if (at < 300) {
          expected[static_cast<size_t>(at)].push_back(serial);
          q.Schedule(at, {at, serial});
        }
        ++serial;
      }
      std::vector<int> got;
      q.DrainInto(now, [&](std::pair<sim::Round, int>& e) {
        ASSERT_EQ(e.first, now);
        got.push_back(e.second);
      });
      ASSERT_EQ(got, expected[static_cast<size_t>(now)]) << "round " << now;
      ++now;
    }
    ASSERT_EQ(q.size(), 0u);
  }
}

// --- Acceptance: exhaustive grid of the paper's three properties. ---

class AcceptanceGrid : public ::testing::TestWithParam<sim::Round> {};

TEST_P(AcceptanceGrid, PropertiesHoldForHorizon) {
  const sim::Round L = GetParam();
  core::AcceptanceFunction f(L);
  const sim::Round probes[] = {0, 1, L / 7, L / 3, L / 2, L - 1, L, 2 * L, 10 * L};
  for (sim::Round s1 : probes) {
    for (sim::Round s2 : probes) {
      const double p = f.Probability(s1, s2);
      // Never zero, never above one.
      ASSERT_GT(p, 0.0);
      ASSERT_LE(p, 1.0);
      // One whenever the candidate is at least as old.
      if (std::min(s2, L) >= std::min(s1, L)) {
        ASSERT_DOUBLE_EQ(p, 1.0);
      }
      // Minimum is 1/L, achieved at (>=L, 0).
      ASSERT_GE(p, 1.0 / static_cast<double>(L) - 1e-12);
    }
  }
  ASSERT_NEAR(f.Probability(L, 0), 1.0 / static_cast<double>(L), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Horizons, AcceptanceGrid,
                         ::testing::Values(24, 720, 2160, 90 * 24, 365 * 24));

// Draws the parameters of one strategy spec for trial `trial`: even trials
// run pure defaults, odd ones set every parameter to a uniformly drawn
// in-range value. Integer draws stay in a simulation-sized window: the
// declared ranges go to 2^20 and huge levels are valid but uninteresting.
void DrawParams(const std::vector<core::ParamInfo>& params, int trial,
                util::Rng* rng, core::ParamMap* drawn) {
  if (trial % 2 == 0) return;
  for (const core::ParamInfo& info : params) {
    const double hi = std::min(info.max_value, 4096.0);
    if (info.type == core::ParamType::kInt) {
      (*drawn)[info.name] = core::ParamValue::Int(rng->UniformInt(
          static_cast<int64_t>(info.min_value), static_cast<int64_t>(hi)));
    } else {
      (*drawn)[info.name] = core::ParamValue::Double(
          rng->UniformDouble(info.min_value, std::min(hi, 64.0)));
    }
  }
}

// Feeds an estimator a random departure history (up to 40 departures at
// ages up to 200 days), as a run's DepartPeer calls would.
void LearnRandomDepartures(core::LifetimeEstimator* estimator, util::Rng* rng) {
  const int departures = static_cast<int>(rng->UniformInt(0, 40));
  for (int d = 0; d < departures; ++d) {
    estimator->ObserveDeparture(rng->UniformInt(0, 200 * 24));
  }
}

// --- Strategy registry: FlagLevel really bounds every trigger. ---
//
// The network flags a peer for policy evaluation only when its visible
// count drops below FlagLevel(k, n); a policy whose Evaluate could trigger
// at or above its own FlagLevel would silently never repair. Sweep every
// registered policy under randomly drawn in-range parameters and random
// reachable contexts: alive >= FlagLevel must never trigger.

TEST(StrategyProperty, FlagLevelBoundsEveryRegisteredPolicy) {
  util::Rng rng(20240728);
  core::StrategyEnv env;  // k = 128, n = 256, repair_threshold = 148

  for (const core::PolicyDescriptor* descriptor : core::PolicyRegistry::List()) {
    SCOPED_TRACE(descriptor->name);
    int valid_trials = 0;
    for (int trial = 0; trial < 200 && valid_trials < 50; ++trial) {
      core::PolicySpec spec;
      spec.name = descriptor->name;
      DrawParams(descriptor->params, trial, &rng, &spec.params);
      if (!spec.Validate().ok()) continue;  // e.g. floor > ceiling draws
      ++valid_trials;
      auto policy = core::PolicyRegistry::Make(spec, env);
      ASSERT_TRUE(policy.ok()) << policy.status().ToString();
      const int flag = (*policy)->FlagLevel(env.k, env.n);
      for (int probe = 0; probe < 40; ++probe) {
        core::MaintenanceContext ctx;
        ctx.k = env.k;
        ctx.n = env.n;
        ctx.alive =
            flag + static_cast<int>(rng.UniformInt(0, 2 * env.n));
        ctx.partner_loss_rate = rng.UniformDouble(0.0, 50.0);
        ctx.rounds_since_repair = rng.UniformInt(0, 100'000);
        const auto decision = (*policy)->Evaluate(ctx);
        ASSERT_FALSE(decision.trigger)
            << spec.ToString() << " triggered at alive=" << ctx.alive
            << " >= FlagLevel=" << flag
            << " (loss_rate=" << ctx.partner_loss_rate << ")";
      }
    }
    EXPECT_GT(valid_trials, 0);
  }
}

// --- Estimator registry: scores are monotone nondecreasing in age. ---
//
// Selection ranks candidates by estimator score with age refining ties; the
// paper's fidelity property ("the longer a node has been in the system, the
// more stable it will be considered") only survives the generalization if
// every estimator is monotone nondecreasing in age at fixed availability.
// Sweep every registered estimator under randomly drawn in-range parameters
// and random fixed availability: increasing age must never lower the score.

TEST(StrategyProperty, StabilityScoreMonotoneInAgeForEveryEstimator) {
  util::Rng rng(20260729);
  core::StrategyEnv env;  // acceptance_horizon = 90 days

  for (const core::EstimatorDescriptor* descriptor : core::EstimatorRegistry::List()) {
    SCOPED_TRACE(descriptor->name);
    int valid_trials = 0;
    for (int trial = 0; trial < 200 && valid_trials < 50; ++trial) {
      core::EstimatorSpec spec;
      spec.name = descriptor->name;
      DrawParams(descriptor->params, trial, &rng, &spec.params);
      if (!spec.Validate().ok()) continue;
      ++valid_trials;
      auto estimator = core::EstimatorRegistry::Make(spec, env);
      ASSERT_TRUE(estimator.ok()) << estimator.status().ToString();
      // Exercise the online-learning path too: a random departure history
      // must not break monotonicity of the empirical CDF.
      LearnRandomDepartures(estimator->get(), &rng);
      for (int probe = 0; probe < 20; ++probe) {
        core::PeerObservation obs;
        obs.availability = rng.UniformDouble(0.0, 1.0);
        obs.rounds_since_seen = rng.UniformInt(0, 48);
        double prev_score = -1.0;
        sim::Round age = 0;
        while (age < 400 * 24) {
          obs.age = age;
          const double score = (*estimator)->StabilityScore(obs);
          ASSERT_GE(score, 0.0) << spec.ToString() << " age=" << age;
          ASSERT_GE(score, prev_score)
              << spec.ToString() << " score dropped at age=" << age
              << " (availability=" << obs.availability << ")";
          prev_score = score;
          age += 1 + rng.UniformInt(0, 300);
        }
      }
    }
    EXPECT_GT(valid_trials, 0);
  }
}

// --- Strategy declarations: what a strategy says it reads is all it reads.
//
// The network skips the availability monitor for an estimator whose
// ReadsMonitor() is false, scoring it from the age alone, and skips the
// loss-rate average for a policy whose ReadsLossRate() is false, passing 0.
// Both shortcuts are exact only if the declarations are honest, so sweep
// every registered strategy under the random specs (and, for estimators,
// random departure histories) of the properties above.

TEST(StrategyProperty, MonitorBlindEstimatorsScoreFromAgeAlone) {
  util::Rng rng(20260729);
  core::StrategyEnv env;
  int blind_specs = 0;

  for (const core::EstimatorDescriptor* descriptor : core::EstimatorRegistry::List()) {
    SCOPED_TRACE(descriptor->name);
    int valid_trials = 0;
    for (int trial = 0; trial < 200 && valid_trials < 50; ++trial) {
      core::EstimatorSpec spec;
      spec.name = descriptor->name;
      DrawParams(descriptor->params, trial, &rng, &spec.params);
      if (!spec.Validate().ok()) continue;
      ++valid_trials;
      auto estimator = core::EstimatorRegistry::Make(spec, env);
      ASSERT_TRUE(estimator.ok()) << estimator.status().ToString();
      LearnRandomDepartures(estimator->get(), &rng);
      if ((*estimator)->ReadsMonitor()) continue;
      ++blind_specs;
      for (int probe = 0; probe < 20; ++probe) {
        // The observation the network builds on the age-only path...
        core::PeerObservation age_only;
        age_only.age = rng.UniformInt(0, 400 * 24);
        const double expected = (*estimator)->StabilityScore(age_only);
        // ...must score like any monitor observation of the same age.
        for (int variant = 0; variant < 10; ++variant) {
          core::PeerObservation obs = age_only;
          obs.availability = rng.UniformDouble(0.0, 1.0);
          obs.rounds_since_seen = rng.UniformInt(0, obs.age);
          ASSERT_EQ((*estimator)->StabilityScore(obs), expected)
              << spec.ToString() << " declares ReadsMonitor() false but its "
              << "score moved at age=" << obs.age
              << " (availability=" << obs.availability
              << ", rounds_since_seen=" << obs.rounds_since_seen << ")";
        }
      }
    }
    EXPECT_GT(valid_trials, 0);
  }
  EXPECT_GT(blind_specs, 0);
}

TEST(StrategyProperty, LossBlindPoliciesDecideWithoutTheLossRate) {
  util::Rng rng(20240728);
  core::StrategyEnv env;  // k = 128, n = 256, repair_threshold = 148
  int blind_specs = 0;

  for (const core::PolicyDescriptor* descriptor : core::PolicyRegistry::List()) {
    SCOPED_TRACE(descriptor->name);
    int valid_trials = 0;
    for (int trial = 0; trial < 200 && valid_trials < 50; ++trial) {
      core::PolicySpec spec;
      spec.name = descriptor->name;
      DrawParams(descriptor->params, trial, &rng, &spec.params);
      if (!spec.Validate().ok()) continue;
      ++valid_trials;
      auto policy = core::PolicyRegistry::Make(spec, env);
      ASSERT_TRUE(policy.ok()) << policy.status().ToString();
      if ((*policy)->ReadsLossRate()) continue;
      ++blind_specs;
      for (int probe = 0; probe < 40; ++probe) {
        // The context the network builds for a loss-blind policy...
        core::MaintenanceContext unknown;
        unknown.k = env.k;
        unknown.n = env.n;
        unknown.alive = static_cast<int>(rng.UniformInt(0, env.n));
        unknown.rounds_since_repair = rng.UniformInt(0, 100'000);
        const core::MaintenanceDecision expected =
            (*policy)->Evaluate(unknown);
        // ...must decide like any measured loss rate.
        for (int variant = 0; variant < 10; ++variant) {
          core::MaintenanceContext ctx = unknown;
          ctx.partner_loss_rate = rng.UniformDouble(0.0, 50.0);
          const core::MaintenanceDecision decision = (*policy)->Evaluate(ctx);
          ASSERT_EQ(decision.trigger, expected.trigger)
              << spec.ToString() << " declares ReadsLossRate() false but "
              << "its trigger moved at alive=" << ctx.alive
              << " (loss_rate=" << ctx.partner_loss_rate << ")";
          ASSERT_EQ(decision.restore_to, expected.restore_to)
              << spec.ToString() << " declares ReadsLossRate() false but "
              << "its target moved at alive=" << ctx.alive
              << " (loss_rate=" << ctx.partner_loss_rate << ")";
        }
      }
    }
    EXPECT_GT(valid_trials, 0);
  }
  EXPECT_GT(blind_specs, 0);
}

// --- Metrics: replicate moments stay inside the per-cell envelope. ---

TEST(MetricsProperty, AggregatedMeanLiesWithinCellRangeForEveryMetric) {
  // For every registered metric (scalar and per-category slots alike), the
  // replicate-aggregated mean of each grid point must lie within the
  // [min, max] of that group's per-cell values, and the stddev must be
  // finite and non-negative - over a small randomized sweep.
  auto world = scenario::LoadScenario(
      std::string(P2P_SOURCE_DIR) + "/tests/golden/sweep_small_world.scenario");
  ASSERT_TRUE(world.ok()) << world.status().ToString();

  util::Rng rng(4242);
  sweep::SweepSpec spec;
  spec.base = *world;
  spec.base.rounds = 900;
  // Two random thresholds inside [k, k + m] = [16, 32].
  spec.repair_thresholds = {
      static_cast<int>(rng.UniformInt(16, 32)),
      static_cast<int>(rng.UniformInt(16, 32)),
  };
  spec.base.seed = rng.NextU64();
  spec.replicates = 3;
  for (const metrics::MetricDescriptor* d : metrics::ListMetrics()) {
    spec.metrics.push_back(d->name);
  }
  ASSERT_TRUE(spec.Validate().ok()) << spec.Validate().ToString();

  auto results = sweep::RunSweep(spec, sweep::RunnerOptions{});
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  const sweep::SweepReport report = sweep::SweepReport::Build(spec, *results);

  for (const sweep::AggregateRow& agg : report.aggregates()) {
    // The group's cells, in cell order.
    std::vector<const sweep::CellRow*> rows;
    for (const sweep::CellRow& cell : report.cells()) {
      if (cell.group == agg.group) rows.push_back(&cell);
    }
    ASSERT_EQ(rows.size(), 3u);
    for (const sweep::MetricMoments& mm : agg.metrics) {
      SCOPED_TRACE(mm.descriptor->name);
      auto check_slot = [&](const sweep::Moments& m, auto value_of) {
        double lo = std::numeric_limits<double>::infinity();
        double hi = -lo;
        for (const sweep::CellRow* row : rows) {
          const double v = value_of(*row);
          lo = std::min(lo, v);
          hi = std::max(hi, v);
        }
        EXPECT_GE(m.mean, lo - 1e-9);
        EXPECT_LE(m.mean, hi + 1e-9);
        EXPECT_GE(m.stddev, 0.0);
        EXPECT_FALSE(std::isnan(m.stddev));
      };
      if (mm.descriptor->per_category) {
        for (size_t c = 0; c < metrics::kCategoryCount; ++c) {
          check_slot(mm.per_category[c], [&](const sweep::CellRow& row) {
            return row.report.PerCategory(mm.descriptor->name)[c];
          });
        }
      } else {
        check_slot(mm.scalar, [&](const sweep::CellRow& row) {
          return row.report.Scalar(mm.descriptor->name);
        });
      }
    }
  }
}

// --- Invariant soak: random worlds x strategies x visibility x links. ---
//
// Registry worlds, registered policies, selections and estimators (default
// parameters), both visibility models, and every link profile plus instant
// transfers, combined at random and run under RunOptions::check_invariants,
// which aborts on the first violated partnership, quota, candidate-index or
// transfer invariant. Every value of every axis is drawn at least once, and
// every workload event moves inside the run so each join wave, exit and
// ramp fires. An n = 256-block placement needs at least 257 peers; at 300
// placements complete, so maintenance repairs and transfer jobs run.

// `count` draws over `values` in random order, each value at least once
// (count >= values.size()).
template <typename T>
std::vector<T> EveryValueInRandomOrder(const std::vector<T>& values,
                                       size_t count, util::Rng* rng) {
  std::vector<T> draws;
  draws.reserve(count);
  while (draws.size() < count) {
    draws.push_back(values[draws.size() % values.size()]);
  }
  rng->Shuffle(&draws);
  return draws;
}

template <typename Strategy>
std::vector<core::StrategySpec<Strategy>> DefaultSpecs() {
  std::vector<core::StrategySpec<Strategy>> specs;
  for (const auto* descriptor : core::StrategyRegistry<Strategy>::List()) {
    specs.emplace_back();
    specs.back().name = descriptor->name;
  }
  return specs;
}

TEST(InvariantSoak, RandomCombinationsKeepEveryInvariant) {
  constexpr size_t kCombinations = 48;
  constexpr uint32_t kPeers = 300;
  constexpr sim::Round kRounds = 300;
  util::Rng rng(20261020);

  std::vector<std::string> links = {""};  // "" = instant transfers
  for (const std::string& name : transfer::LinkProfileNames()) {
    links.push_back(name);
  }
  const auto world_draws = EveryValueInRandomOrder(scenario::RegistryNames(),
                                                   kCombinations, &rng);
  const auto policy_draws = EveryValueInRandomOrder(
      DefaultSpecs<core::MaintenancePolicy>(), kCombinations, &rng);
  const auto selection_draws = EveryValueInRandomOrder(
      DefaultSpecs<core::SelectionStrategy>(), kCombinations, &rng);
  const auto estimator_draws = EveryValueInRandomOrder(
      DefaultSpecs<core::LifetimeEstimator>(), kCombinations, &rng);
  const auto visibility_draws = EveryValueInRandomOrder(
      std::vector<backup::VisibilityModel>{
          backup::VisibilityModel::kTimeoutPresumed,
          backup::VisibilityModel::kInstantOnline},
      kCombinations, &rng);
  const auto link_draws = EveryValueInRandomOrder(links, kCombinations, &rng);

  int64_t backed_up_through_transfers = 0;
  for (size_t i = 0; i < kCombinations; ++i) {
    util::Result<scenario::Scenario> s =
        scenario::LoadScenario(world_draws[i]);
    ASSERT_TRUE(s.ok()) << s.status().ToString();
    s->peers = kPeers;
    s->rounds = kRounds;
    for (scenario::WorkloadEvent& event : s->workload.events) {
      event.at = rng.UniformInt(1, kRounds / 2);
      if (event.kind == scenario::WorkloadKind::kRamp) {
        event.duration = kRounds / 4;
      }
    }
    s->options.policy = policy_draws[i];
    s->options.selection = selection_draws[i];
    s->options.estimator = estimator_draws[i];
    s->options.visibility = visibility_draws[i];
    s->options.transfer_enabled = !link_draws[i].empty();
    if (s->options.transfer_enabled) s->options.transfer_link = link_draws[i];

    const std::string label =
        world_draws[i] + " policy=" + policy_draws[i].name +
        " selection=" + selection_draws[i].name +
        " estimator=" + estimator_draws[i].name + " visibility=" +
        (visibility_draws[i] == backup::VisibilityModel::kInstantOnline
             ? "instant"
             : "timeout") +
        " link=" + (link_draws[i].empty() ? "none" : link_draws[i]);
    SCOPED_TRACE(label);
    // A violated invariant aborts the binary; the last line names the run.
    std::fprintf(stderr, "soak %zu: %s\n", i, label.c_str());
    ASSERT_TRUE(s->Validate().ok()) << s->Validate().ToString();
    scenario::RunOptions run;
    run.check_invariants = true;
    const scenario::Outcome out = scenario::RunScenario(*s, run);
    EXPECT_GT(out.final_population, 0);
    if (s->options.transfer_enabled) {
      backed_up_through_transfers += out.population.backed_up;
    }
  }
  // With a link, a backup completes only when its transfer job does: the
  // link axis really ran the scheduler.
  EXPECT_GT(backed_up_through_transfers, 0);
}

}  // namespace
}  // namespace p2p
