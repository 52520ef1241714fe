// Tests of the paper's core contribution: the acceptance function's printed
// properties, score-based selection, lifetime estimators and repair policies
// - plus the declarative strategy-spec layer (parse/render round trips, the
// registry, and registry-backed instantiation of policies, selections, and
// estimators).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/acceptance.h"
#include "core/lifetime_estimator.h"
#include "core/maintenance_policy.h"
#include "core/selection.h"
#include "core/strategy_registry.h"
#include "core/strategy_spec.h"
#include "util/rng.h"

namespace p2p {
namespace core {
namespace {

constexpr sim::Round kL = 90 * sim::kRoundsPerDay;

// --- Acceptance function: the three properties stated in section 3.2 ---

TEST(AcceptanceTest, NeverZeroAndMinimumIsOneOverL) {
  AcceptanceFunction f(kL);
  // "its minimum is 1/L": an ancient peer evaluating a newborn.
  EXPECT_NEAR(f.Probability(kL, 0), 1.0 / kL, 1e-12);
  for (sim::Round s1 : {0L, 100L, kL / 2, kL, 10 * kL}) {
    for (sim::Round s2 : {0L, 1L, kL / 3, kL, 100 * kL}) {
      ASSERT_GT(f.Probability(s1, s2), 0.0);
    }
  }
}

TEST(AcceptanceTest, AlwaysOneForOlderCandidates) {
  AcceptanceFunction f(kL);
  // "The result is always one if peer p2 is older than peer p1."
  for (sim::Round s1 : {0L, 5L, kL / 2, kL - 1}) {
    for (sim::Round delta : {0L, 1L, 100L, kL}) {
      ASSERT_DOUBLE_EQ(f.Probability(s1, s1 + delta), 1.0);
    }
  }
}

TEST(AcceptanceTest, AsymmetricBelowHorizon) {
  AcceptanceFunction f(kL);
  // "The function is not symmetric ... unless both peers are older than L."
  const sim::Round old_age = kL / 2;
  const sim::Round young_age = kL / 10;
  EXPECT_LT(f.Probability(old_age, young_age), 1.0);
  EXPECT_DOUBLE_EQ(f.Probability(young_age, old_age), 1.0);
  // Both beyond the horizon: symmetric (both equal one).
  EXPECT_DOUBLE_EQ(f.Probability(2 * kL, 3 * kL), 1.0);
  EXPECT_DOUBLE_EQ(f.Probability(3 * kL, 2 * kL), 1.0);
}

TEST(AcceptanceTest, ExactFormulaSpotChecks) {
  AcceptanceFunction f(kL);
  // f = (L - (s1 - s2) + 1) / L for capped ages with s1 > s2.
  const double L = static_cast<double>(kL);
  EXPECT_NEAR(f.Probability(1000, 400), (L - 600 + 1) / L, 1e-12);
  EXPECT_NEAR(f.Probability(kL + 500, 400), (L - (L - 400) + 1) / L, 1e-12);
}

TEST(AcceptanceTest, MonotoneInCandidateAge) {
  AcceptanceFunction f(kL);
  double prev = 0.0;
  for (sim::Round s2 = 0; s2 <= kL; s2 += kL / 16) {
    const double p = f.Probability(kL, s2);
    ASSERT_GE(p, prev);
    prev = p;
  }
}

TEST(AcceptanceTest, MutualAcceptRequiresBothSides) {
  AcceptanceFunction f(kL);
  util::Rng rng(1);
  // Old-old always pairs; probability of old-young pairing equals the
  // one-sided probability (the young side always consents).
  int pair_old_old = 0, pair_old_young = 0;
  const int trials = 200'000;
  for (int i = 0; i < trials; ++i) {
    pair_old_old += f.MutualAccept(2 * kL, 3 * kL, &rng);
    pair_old_young += f.MutualAccept(kL, kL / 100, &rng);
  }
  EXPECT_EQ(pair_old_old, trials);
  const double expect = f.Probability(kL, kL / 100);
  EXPECT_NEAR(pair_old_young / static_cast<double>(trials), expect,
              3e-3);
}

// --- Lifetime estimators ---

PeerObservation Obs(sim::Round age, double availability = 1.0,
                    sim::Round rounds_since_seen = 0) {
  PeerObservation obs;
  obs.age = age;
  obs.availability = availability;
  obs.rounds_since_seen = rounds_since_seen;
  return obs;
}

TEST(EstimatorTest, AgeRankSaturatesAtHorizon) {
  AgeRankEstimator est(kL);
  EXPECT_LT(est.StabilityScore(Obs(10)), est.StabilityScore(Obs(100)));
  EXPECT_DOUBLE_EQ(est.StabilityScore(Obs(kL)),
                   est.StabilityScore(Obs(5 * kL)));
  // The paper's criterion ignores the availability signal entirely.
  EXPECT_DOUBLE_EQ(est.StabilityScore(Obs(100, 0.1)),
                   est.StabilityScore(Obs(100, 0.9)));
}

TEST(EstimatorTest, ParetoResidualLinearInAge) {
  ParetoResidualEstimator est(24.0, 2.0);
  // E[T - a | T > a] = a / (shape - 1) = a for shape 2.
  EXPECT_NEAR(est.ExpectedResidualRounds(Obs(1000)), 1000.0, 1e-9);
  EXPECT_NEAR(est.ExpectedResidualRounds(Obs(4000)), 4000.0, 1e-9);
  // Below the scale, conditioning clamps at the scale.
  EXPECT_NEAR(est.ExpectedResidualRounds(Obs(1)), 24.0, 1e-9);
}

TEST(EstimatorTest, HeavyTailStillMonotone) {
  ParetoResidualEstimator est(24.0, 0.9);  // infinite mean regime
  EXPECT_LT(est.StabilityScore(Obs(100)), est.StabilityScore(Obs(1000)));
}

TEST(EstimatorTest, EmpiricalDegeneratesToAgeRankWithoutData) {
  EmpiricalResidualEstimator est(90, sim::kRoundsPerDay, kL);
  // No departures observed: the score is the pure (normalized) age rank.
  EXPECT_LT(est.StabilityScore(Obs(10)), est.StabilityScore(Obs(100)));
  EXPECT_DOUBLE_EQ(est.StabilityScore(Obs(kL)),
                   est.StabilityScore(Obs(5 * kL)));
  EXPECT_EQ(est.observed_departures(), 0);
  // And the residual falls back to the optimistic age proxy.
  EXPECT_DOUBLE_EQ(est.ExpectedResidualRounds(Obs(500)), 500.0);
}

TEST(EstimatorTest, EmpiricalLearnsDepartureDistribution) {
  EmpiricalResidualEstimator est(90, sim::kRoundsPerDay, kL);
  // A burst of early departures around day 2 and a few late ones at day 40.
  for (int i = 0; i < 100; ++i) est.ObserveDeparture(2 * sim::kRoundsPerDay);
  for (int i = 0; i < 10; ++i) est.ObserveDeparture(40 * sim::kRoundsPerDay);
  EXPECT_EQ(est.observed_departures(), 110);

  // A peer past the early-departure hump has outlived ~100 observed
  // departures; a newborn has outlived none.
  const double young = est.StabilityScore(Obs(1 * sim::kRoundsPerDay));
  const double seasoned = est.StabilityScore(Obs(10 * sim::kRoundsPerDay));
  const double elder = est.StabilityScore(Obs(60 * sim::kRoundsPerDay));
  EXPECT_LT(young, 100.0);
  EXPECT_GT(seasoned, 99.0);
  EXPECT_GT(elder, seasoned);

  // Residual at day 10: only the day-40 departures lie beyond, 30 days out.
  EXPECT_NEAR(est.ExpectedResidualRounds(Obs(10 * sim::kRoundsPerDay)),
              30.0 * sim::kRoundsPerDay, 1e-6);
}

TEST(EstimatorTest, AvailabilityWeightedDiscountsFlakyPeers) {
  AvailabilityWeightedEstimator est(kL, /*exponent=*/1.0, /*floor=*/0.05);
  // Same age: the reachable peer wins.
  EXPECT_GT(est.StabilityScore(Obs(1000, 0.9)),
            est.StabilityScore(Obs(1000, 0.2)));
  // Exponent 0 is pure age rank, availability-oblivious.
  AvailabilityWeightedEstimator flat(kL, 0.0, 0.05);
  EXPECT_DOUBLE_EQ(flat.StabilityScore(Obs(1000, 0.9)),
                   flat.StabilityScore(Obs(1000, 0.2)));
  EXPECT_DOUBLE_EQ(flat.StabilityScore(Obs(1000, 0.5)), 1000.0);
  // The floor keeps a zero-availability peer selectable (score > 0).
  EXPECT_GT(est.StabilityScore(Obs(1000, 0.0)), 0.0);
}

// --- Selection strategies ---

// Pool with score == age: what the network builds under the default
// age-rank estimator (ages below the horizon).
std::vector<Candidate> MakePool() {
  return {{1, 10, 10.0},
          {2, 500, 500.0},
          {3, 250, 250.0},
          {4, 90, 90.0},
          {5, 1000, 1000.0}};
}

TEST(SelectionTest, OldestFirstPicksByAge) {
  OldestFirstSelection sel;
  util::Rng rng(2);
  auto pool = MakePool();
  std::vector<uint32_t> out;
  sel.Choose(&pool, 2, &rng, &out);
  EXPECT_EQ(out, (std::vector<uint32_t>{5, 2}));
}

TEST(SelectionTest, YoungestFirstPicksInverse) {
  YoungestFirstSelection sel;
  util::Rng rng(3);
  auto pool = MakePool();
  std::vector<uint32_t> out;
  sel.Choose(&pool, 2, &rng, &out);
  EXPECT_EQ(out, (std::vector<uint32_t>{1, 4}));
}

TEST(SelectionTest, RandomCoversPool) {
  RandomSelection sel;
  util::Rng rng(4);
  std::set<uint32_t> seen;
  for (int i = 0; i < 200; ++i) {
    auto pool = MakePool();
    std::vector<uint32_t> out;
    sel.Choose(&pool, 1, &rng, &out);
    seen.insert(out[0]);
  }
  EXPECT_EQ(seen.size(), 5u);  // every candidate selected at least once
}

TEST(SelectionTest, TiesBrokenRandomly) {
  OldestFirstSelection sel;
  util::Rng rng(5);
  std::set<uint32_t> first_pick;
  for (int i = 0; i < 200; ++i) {
    std::vector<Candidate> pool = {{1, 100}, {2, 100}, {3, 100}};
    std::vector<uint32_t> out;
    sel.Choose(&pool, 1, &rng, &out);
    first_pick.insert(out[0]);
  }
  EXPECT_EQ(first_pick.size(), 3u);
}

TEST(SelectionTest, ScoreOutranksAgeAndAgeRefinesScoreTies) {
  // The estimator's verdict is primary: a younger peer with a higher score
  // wins; among equal scores the older peer wins (so the default age-rank
  // estimator reproduces the paper's pure age ordering exactly).
  OldestFirstSelection sel;
  util::Rng rng(10);
  std::vector<Candidate> pool = {
      {1, 900, 50.0}, {2, 100, 80.0}, {3, 400, 50.0}};
  std::vector<uint32_t> out;
  sel.Choose(&pool, 3, &rng, &out);
  EXPECT_EQ(out, (std::vector<uint32_t>{2, 1, 3}));

  YoungestFirstSelection inverse;
  pool = {{1, 900, 50.0}, {2, 100, 80.0}, {3, 400, 50.0}};
  out.clear();
  inverse.Choose(&pool, 3, &rng, &out);
  EXPECT_EQ(out, (std::vector<uint32_t>{3, 1, 2}));
}

// Fills a test pool in one of three shapes: dense integer ties in score and
// age; non-integer scores that mix +0.0 with -0.0 (equal as doubles, so they
// must tie) and two negative values; or ages up to INT32_MAX, the largest age
// a run can reach, mixed with small ones so every age bit matters.
std::vector<Candidate> RankingTestPool(size_t size, int shape, util::Rng* fill) {
  static const double kScores[] = {0.0,  -0.0,      0.25, 0.1,  1e-300,
                                   2.75, 1.0 / 3.0, -0.5, -2.25};
  static const sim::Round kAges[] = {0, 1, sim::Round{1} << 30, INT32_MAX - 1,
                                     INT32_MAX};
  std::vector<Candidate> pool(size);
  for (size_t i = 0; i < size; ++i) {
    pool[i].id = static_cast<uint32_t>(i);
    switch (shape) {
      case 0:
        pool[i].age = fill->UniformInt(0, 3);
        pool[i].score = static_cast<double>(fill->UniformInt(0, 2));
        break;
      case 1:
        pool[i].age = fill->UniformInt(0, 2);
        pool[i].score = kScores[fill->UniformBounded(9)];
        break;
      default:
        pool[i].age = kAges[fill->UniformBounded(5)];
        pool[i].score = kScores[fill->UniformBounded(3)];
        break;
    }
  }
  return pool;
}

// The reference ranking: shuffle the pool itself with a stream seeded by
// `seed`, then stable_sort it on (score, age). Returns the ranked ids and
// stores the stream's next draw after the shuffle in `*next`.
std::vector<uint32_t> StableSortRanking(std::vector<Candidate> pool,
                                        uint64_t seed, bool best_first,
                                        uint64_t* next) {
  util::Rng rng(seed);
  rng.Shuffle(&pool);
  *next = rng.NextU64();
  std::stable_sort(pool.begin(), pool.end(),
                   [best_first](const Candidate& a, const Candidate& b) {
                     if (a.score != b.score) {
                       return best_first ? a.score > b.score
                                         : a.score < b.score;
                     }
                     return best_first ? a.age > b.age : a.age < b.age;
                   });
  std::vector<uint32_t> ids;
  for (const Candidate& c : pool) ids.push_back(c.id);
  return ids;
}

TEST(SelectionTest, PackedKeyRankingMatchesStableSortReference) {
  // The rank strategies shuffle an index permutation and take the front of
  // packed (score, age, post-shuffle position) keys by nth_element plus a
  // sort. The reference shuffles the pool itself and stable_sorts it on
  // (score, age): stability is exactly "ties keep prior position", so
  // the chosen ids must match element for element - for every take from 0
  // to past the pool size, on pools up to 1,000 candidates (768 is the
  // initial-placement storm's pool for 256 blocks), both directions.
  const OldestFirstSelection oldest;
  const YoungestFirstSelection youngest;
  util::Rng fill(99);
  uint64_t seed = 1000;
  const auto check = [&](const std::vector<Candidate>& pool, size_t d_lo,
                         size_t d_hi, bool best_first) {
    uint64_t ref_next = 0;
    const std::vector<uint32_t> reference =
        StableSortRanking(pool, seed, best_first, &ref_next);
    const RankSelection& selection =
        best_first ? static_cast<const RankSelection&>(oldest)
                   : static_cast<const RankSelection&>(youngest);
    for (size_t d = d_lo; d <= d_hi; ++d) {
      const std::vector<uint32_t> want(
          reference.begin(),
          reference.begin() +
              static_cast<std::ptrdiff_t>(std::min(d, pool.size())));
      auto ranked = pool;
      util::Rng rng(seed);
      std::vector<uint32_t> got;
      selection.Choose(&ranked, static_cast<int>(d), &rng, &got);
      ASSERT_EQ(got, want) << "size " << pool.size() << " seed " << seed
                           << " best_first " << best_first << " d=" << d;
      // Both implementations consumed identical draws: the streams agree.
      ASSERT_EQ(rng.NextU64(), ref_next) << "seed " << seed << " d=" << d;
      // Ranking reads the pool and leaves it as it was.
      for (size_t i = 0; i < pool.size(); ++i) {
        ASSERT_EQ(ranked[i].id, pool[i].id);
      }
    }
    ++seed;
  };
  for (size_t size : {0, 1, 2, 3, 7, 40, 66, 255, 768, 1000}) {
    for (int shape = 0; shape < 3; ++shape) {
      const std::vector<Candidate> pool = RankingTestPool(size, shape, &fill);
      for (const bool best_first : {true, false}) {
        check(pool, 0, size + 5, best_first);
      }
    }
  }
  // Random small pool sizes, at one random take each.
  for (int trial = 0; trial < 200; ++trial) {
    const std::vector<Candidate> pool = RankingTestPool(
        static_cast<size_t>(fill.UniformInt(1, 40)), trial % 3, &fill);
    const size_t d = static_cast<size_t>(fill.UniformInt(0, 45));
    check(pool, d, d, trial % 2 == 0);
  }
}

TEST(SelectionTest, RequestMoreThanPool) {
  OldestFirstSelection sel;
  util::Rng rng(6);
  auto pool = MakePool();
  std::vector<uint32_t> out;
  sel.Choose(&pool, 100, &rng, &out);
  EXPECT_EQ(out.size(), 5u);
}

TEST(SelectionTest, RegistryInstantiatesEveryBuiltin) {
  for (const char* name :
       {"oldest-first", "random", "youngest-first", "weighted-random"}) {
    auto spec = SelectionSpec::Parse(name);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    auto strategy = SelectionRegistry::Make(*spec, StrategyEnv{});
    ASSERT_TRUE(strategy.ok()) << strategy.status().ToString();
    EXPECT_EQ((*strategy)->name(), name);
  }
}

TEST(SelectionTest, WeightedRandomExponentZeroCoversPool) {
  // age_exponent = 0 degenerates to uniform random.
  WeightedRandomSelection sel(0.0);
  util::Rng rng(7);
  std::set<uint32_t> seen;
  for (int i = 0; i < 200; ++i) {
    auto pool = MakePool();
    std::vector<uint32_t> out;
    sel.Choose(&pool, 1, &rng, &out);
    seen.insert(out[0]);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(SelectionTest, WeightedRandomFavoursAgeAndInterpolates) {
  util::Rng rng(8);
  auto count_oldest_first_picks = [&rng](double exponent) {
    WeightedRandomSelection sel(exponent);
    int oldest = 0;
    for (int i = 0; i < 500; ++i) {
      auto pool = MakePool();
      std::vector<uint32_t> out;
      sel.Choose(&pool, 1, &rng, &out);
      if (out[0] == 5) ++oldest;  // id 5 has age 1000, the maximum
    }
    return oldest;
  };
  const int flat = count_oldest_first_picks(0.0);
  const int linear = count_oldest_first_picks(1.0);
  const int steep = count_oldest_first_picks(8.0);
  // Uniform picks the oldest ~1/5 of the time; raising the exponent moves
  // the distribution monotonically toward oldest-first.
  EXPECT_LT(flat, linear);
  EXPECT_LT(linear, steep);
  EXPECT_GT(steep, 450);  // (1000/500)^8 = 256: near-deterministic
}

TEST(SelectionTest, WeightedRandomSelectsWithoutReplacement) {
  WeightedRandomSelection sel(2.0);
  util::Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    auto pool = MakePool();
    std::vector<uint32_t> out;
    sel.Choose(&pool, 5, &rng, &out);
    std::set<uint32_t> distinct(out.begin(), out.end());
    EXPECT_EQ(out.size(), 5u);
    EXPECT_EQ(distinct.size(), 5u);
  }
}

// --- Maintenance policies ---

MaintenanceContext Ctx(int alive) {
  MaintenanceContext ctx;
  ctx.k = 128;
  ctx.n = 256;
  ctx.alive = alive;
  return ctx;
}

TEST(PolicyTest, FixedThresholdTriggersStrictlyBelow) {
  FixedThresholdPolicy policy(148);
  EXPECT_FALSE(policy.Evaluate(Ctx(148)).trigger);
  EXPECT_TRUE(policy.Evaluate(Ctx(147)).trigger);
  EXPECT_EQ(policy.Evaluate(Ctx(147)).restore_to, 256);
  EXPECT_EQ(policy.FlagLevel(128, 256), 148);
}

TEST(PolicyTest, AdaptiveThresholdFollowsLossRate) {
  AdaptiveThresholdPolicy policy(AdaptiveThresholdPolicy::Options{});
  MaintenanceContext quiet = Ctx(140);
  quiet.partner_loss_rate = 0.0;
  EXPECT_FALSE(policy.Evaluate(quiet).trigger);  // only floor margin applies
  MaintenanceContext bleeding = Ctx(140);
  bleeding.partner_loss_rate = 0.5;  // heavy churn: margin rises
  EXPECT_TRUE(policy.Evaluate(bleeding).trigger);
}

TEST(PolicyTest, AdaptiveFlagLevelBoundsEvaluate) {
  AdaptiveThresholdPolicy policy(AdaptiveThresholdPolicy::Options{});
  const int flag = policy.FlagLevel(128, 256);
  // Above the flag level the policy must never trigger, whatever the rate.
  for (double rate : {0.0, 0.1, 1.0, 100.0}) {
    MaintenanceContext ctx = Ctx(flag);
    ctx.partner_loss_rate = rate;
    EXPECT_FALSE(policy.Evaluate(ctx).trigger) << rate;
  }
}

TEST(PolicyTest, ProactiveBatchesAndEmergency) {
  ProactivePolicy::Options opts;
  opts.batch_blocks = 8;
  opts.emergency_threshold = 136;
  ProactivePolicy policy(opts);
  EXPECT_FALSE(policy.Evaluate(Ctx(250)).trigger);  // 6 missing < batch
  EXPECT_TRUE(policy.Evaluate(Ctx(248)).trigger);   // 8 missing = batch
  EXPECT_TRUE(policy.Evaluate(Ctx(135)).trigger);   // emergency
  EXPECT_GE(policy.FlagLevel(128, 256), 249);
}

TEST(PolicyTest, AdaptiveRedundancyMovesRestoreTargetWithLossRate) {
  AdaptiveRedundancyPolicy::Options opts;
  opts.threshold = 148;
  opts.safety_factor = 2.0;
  opts.horizon_rounds = 100;
  opts.min_extra = 8;
  AdaptiveRedundancyPolicy policy(opts);

  // Trigger is the fixed threshold, whatever the rate.
  EXPECT_FALSE(policy.Evaluate(Ctx(148)).trigger);
  EXPECT_TRUE(policy.Evaluate(Ctx(147)).trigger);
  EXPECT_EQ(policy.FlagLevel(128, 256), 148);

  // Quiet partner set: restore just past the threshold (cheap repair).
  MaintenanceContext quiet = Ctx(140);
  quiet.partner_loss_rate = 0.0;
  EXPECT_EQ(policy.Evaluate(quiet).restore_to, 148 + 8);

  // Moderate churn: target tracks k + safety * rate * horizon.
  MaintenanceContext churny = Ctx(140);
  churny.partner_loss_rate = 0.25;  // 2.0 * 0.25 * 100 = 50 expected losses
  EXPECT_EQ(policy.Evaluate(churny).restore_to, 128 + 50);

  // Heavy churn: clamped at n.
  MaintenanceContext bleeding = Ctx(140);
  bleeding.partner_loss_rate = 10.0;
  EXPECT_EQ(policy.Evaluate(bleeding).restore_to, 256);
}

// --- Strategy specs: grammar, round trips, registry ---

TEST(StrategySpecTest, ParseRenderRoundTrips) {
  for (const char* text : {
           "fixed-threshold",
           "fixed-threshold{threshold=140}",
           "adaptive-threshold{ceiling_margin=32,safety_factor=2.5}",
           "proactive{batch_blocks=4,emergency_threshold=136}",
           "adaptive-redundancy{min_extra=16,safety_factor=4}",
       }) {
    SCOPED_TRACE(text);
    auto spec = PolicySpec::Parse(text);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    EXPECT_EQ(spec->ToString(), text);  // canonical inputs are fixed points
    auto again = PolicySpec::Parse(spec->ToString());
    ASSERT_TRUE(again.ok());
    EXPECT_TRUE(*again == *spec);
  }
  for (const char* text : {"oldest-first", "weighted-random{age_exponent=2}"}) {
    SCOPED_TRACE(text);
    auto spec = SelectionSpec::Parse(text);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    EXPECT_EQ(spec->ToString(), text);
  }
}

TEST(StrategySpecTest, ParseNormalizesWhitespaceAndParamOrder) {
  auto spec =
      PolicySpec::Parse("  proactive{ emergency_threshold = 136 , "
                        "batch_blocks = 4 }  ");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  // Canonical form: no spaces, parameters in name order.
  EXPECT_EQ(spec->ToString(), "proactive{batch_blocks=4,emergency_threshold=136}");
}

TEST(StrategySpecTest, ErrorsNameTheOffendingToken) {
  auto unknown = PolicySpec::Parse("reactive-gold-plated");
  EXPECT_TRUE(unknown.status().IsInvalidArgument());
  EXPECT_NE(unknown.status().message().find("reactive-gold-plated"),
            std::string::npos);

  // The pre-redesign short enum names are gone, not silently mapped.
  EXPECT_FALSE(PolicySpec::Parse("fixed").ok());
  EXPECT_FALSE(PolicySpec::Parse("adaptive").ok());
  EXPECT_FALSE(SelectionSpec::Parse("oldest").ok());
  EXPECT_FALSE(SelectionSpec::Parse("youngest").ok());

  auto bad_param = PolicySpec::Parse("proactive{batch_size=4}");
  EXPECT_TRUE(bad_param.status().IsInvalidArgument());
  EXPECT_NE(bad_param.status().message().find("batch_size"),
            std::string::npos);

  auto bad_value = PolicySpec::Parse("proactive{batch_blocks=lots}");
  EXPECT_NE(bad_value.status().message().find("lots"), std::string::npos);

  auto out_of_range = SelectionSpec::Parse("weighted-random{age_exponent=99}");
  EXPECT_TRUE(out_of_range.status().IsInvalidArgument());
  EXPECT_NE(out_of_range.status().message().find("age_exponent"),
            std::string::npos);

  EXPECT_FALSE(PolicySpec::Parse("proactive{batch_blocks=4").ok());
  EXPECT_FALSE(PolicySpec::Parse("proactive{batch_blocks}").ok());
  EXPECT_FALSE(PolicySpec::Parse("").ok());

  // Cross-parameter consistency.
  auto inverted = PolicySpec::Parse(
      "adaptive-threshold{floor_margin=32,ceiling_margin=8}");
  EXPECT_TRUE(inverted.status().IsInvalidArgument());
  EXPECT_NE(inverted.status().message().find("floor_margin"),
            std::string::npos);
}

TEST(StrategySpecTest, ValidateCatchesHandBuiltMistakes) {
  PolicySpec spec;  // default fixed-threshold
  EXPECT_TRUE(spec.Validate().ok());
  spec.params["no_such_param"] = ParamValue::Int(3);
  EXPECT_TRUE(spec.Validate().IsInvalidArgument());

  PolicySpec wrong_type;
  wrong_type.params["threshold"] = ParamValue::Double(140.0);
  EXPECT_TRUE(wrong_type.Validate().IsInvalidArgument());

  SelectionSpec unknown;
  unknown.name = "no-such-selection";
  EXPECT_TRUE(unknown.Validate().IsInvalidArgument());
  EXPECT_NE(unknown.Validate().message().find("no-such-selection"),
            std::string::npos);
}

TEST(StrategySpecTest, EachFamilyKeepsItsDefaultAndErrorLabel) {
  // One spec template serves all three families; StrategyTraits supplies
  // the default strategy and the label every error text carries.
  EXPECT_EQ(PolicySpec().ToString(), "fixed-threshold");
  EXPECT_EQ(SelectionSpec().ToString(), "oldest-first");
  EXPECT_EQ(EstimatorSpec().ToString(), "age-rank");
  EXPECT_EQ(PolicySpec::Parse("psychic").status().message(),
            "unknown policy: 'psychic'");
  EXPECT_EQ(SelectionSpec::Parse("psychic").status().message(),
            "unknown selection: 'psychic'");
  EXPECT_EQ(EstimatorSpec::Parse("psychic").status().message(),
            "unknown estimator: 'psychic'");
  EXPECT_EQ(PolicySpec::Parse("proactive{bogus=1}").status().message(),
            "policy 'proactive' has no parameter 'bogus'");
  EXPECT_EQ(SelectionSpec::Parse("random{bogus=1}").status().message(),
            "selection 'random' has no parameter 'bogus'");
  EXPECT_EQ(EstimatorSpec::Parse("age-rank{bogus=1}").status().message(),
            "estimator 'age-rank' has no parameter 'bogus'");
}

TEST(StrategySpecTest, FactoryWiresContextualThreshold) {
  StrategyEnv env;
  env.repair_threshold = 140;

  // No explicit threshold: the spec follows env.repair_threshold.
  auto fixed = PolicyRegistry::Make(PolicySpec(), env);
  ASSERT_TRUE(fixed.ok());
  EXPECT_TRUE((*fixed)->Evaluate(Ctx(139)).trigger);
  EXPECT_FALSE((*fixed)->Evaluate(Ctx(140)).trigger);

  // An explicit threshold parameter overrides the context.
  auto spec = PolicySpec::Parse("fixed-threshold{threshold=150}");
  ASSERT_TRUE(spec.ok());
  auto overridden = PolicyRegistry::Make(*spec, env);
  ASSERT_TRUE(overridden.ok());
  EXPECT_TRUE((*overridden)->Evaluate(Ctx(149)).trigger);
  EXPECT_FALSE((*overridden)->Evaluate(Ctx(150)).trigger);

  // The proactive emergency floor is contextual too.
  auto proactive = PolicyRegistry::Make(*PolicySpec::Parse("proactive"), env);
  ASSERT_TRUE(proactive.ok());
  EXPECT_TRUE((*proactive)->Evaluate(Ctx(139)).trigger);
}

TEST(StrategySpecTest, RegistryIsOpenForExtension) {
  // Registering a new policy makes it parseable, listable, and runnable -
  // the whole point of replacing the closed enums.
  if (PolicyRegistry::Find("test-always-repair") == nullptr) {
    PolicyDescriptor d;
    d.name = "test-always-repair";
    d.summary = "test fixture";
    d.params = {[] {
      ParamInfo info;
      info.name = "restore_to";
      info.type = ParamType::kInt;
      info.def = ParamValue::Int(200);
      info.min_value = 1;
      info.max_value = 4096;
      info.help = "fixed restore level";
      return info;
    }()};
    d.make = [](const ResolvedParams& p, const StrategyEnv&) {
      class AlwaysRepair : public MaintenancePolicy {
       public:
        explicit AlwaysRepair(int restore_to) : restore_to_(restore_to) {}
        MaintenanceDecision Evaluate(const MaintenanceContext&) const override {
          return {true, restore_to_};
        }
        int FlagLevel(int, int n) const override { return n + 1; }
        std::string name() const override { return "test-always-repair"; }

       private:
        int restore_to_;
      };
      return std::unique_ptr<MaintenancePolicy>(
          new AlwaysRepair(static_cast<int>(p.Int("restore_to"))));
    };
    PolicyRegistry::Register(std::move(d));
  }

  auto spec = PolicySpec::Parse("test-always-repair{restore_to=180}");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  auto policy = PolicyRegistry::Make(*spec, StrategyEnv{});
  ASSERT_TRUE(policy.ok());
  EXPECT_TRUE((*policy)->Evaluate(Ctx(255)).trigger);
  EXPECT_EQ((*policy)->Evaluate(Ctx(255)).restore_to, 180);

  bool listed = false;
  for (const PolicyDescriptor* d : PolicyRegistry::List()) {
    listed = listed || d->name == "test-always-repair";
  }
  EXPECT_TRUE(listed);
}

// --- Estimator specs: grammar, registry, contextual defaults ---

TEST(EstimatorSpecTest, ParseRenderRoundTrips) {
  for (const char* text : {
           "age-rank",
           "age-rank{horizon=2160}",
           "pareto-residual{scale=24,shape=2}",
           "empirical-residual{bucket_rounds=24,buckets=90}",
           "availability-weighted{exponent=2,floor=0.1}",
       }) {
    SCOPED_TRACE(text);
    auto spec = EstimatorSpec::Parse(text);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    EXPECT_EQ(spec->ToString(), text);  // canonical inputs are fixed points
    auto again = EstimatorSpec::Parse(spec->ToString());
    ASSERT_TRUE(again.ok());
    EXPECT_TRUE(*again == *spec);
  }
}

TEST(EstimatorSpecTest, ErrorsNameTheOffendingToken) {
  auto unknown = EstimatorSpec::Parse("crystal-ball");
  EXPECT_TRUE(unknown.status().IsInvalidArgument());
  EXPECT_NE(unknown.status().message().find("crystal-ball"),
            std::string::npos);

  auto bad_param = EstimatorSpec::Parse("age-rank{half_life=3}");
  EXPECT_TRUE(bad_param.status().IsInvalidArgument());
  EXPECT_NE(bad_param.status().message().find("half_life"), std::string::npos);

  auto bad_value = EstimatorSpec::Parse("pareto-residual{shape=steep}");
  EXPECT_NE(bad_value.status().message().find("steep"), std::string::npos);

  auto out_of_range = EstimatorSpec::Parse("availability-weighted{floor=2}");
  EXPECT_TRUE(out_of_range.status().IsInvalidArgument());
  EXPECT_NE(out_of_range.status().message().find("floor"), std::string::npos);

  EstimatorSpec hand_built;
  hand_built.name = "no-such-estimator";
  EXPECT_TRUE(hand_built.Validate().IsInvalidArgument());
}

TEST(EstimatorSpecTest, RegistryInstantiatesEveryBuiltin) {
  for (const char* name : {"age-rank", "pareto-residual", "empirical-residual",
                           "availability-weighted"}) {
    auto spec = EstimatorSpec::Parse(name);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    auto estimator = EstimatorRegistry::Make(*spec, StrategyEnv{});
    ASSERT_TRUE(estimator.ok()) << estimator.status().ToString();
    EXPECT_EQ((*estimator)->name(), name);
    // Fresh instance per call: stateful estimators must not share history
    // across concurrently running networks.
    auto second = EstimatorRegistry::Make(*spec, StrategyEnv{});
    ASSERT_TRUE(second.ok());
    EXPECT_NE(estimator->get(), second->get());
  }
}

TEST(EstimatorSpecTest, FactoryWiresContextualHorizon) {
  StrategyEnv env;
  env.acceptance_horizon = 100;

  // No explicit horizon: age-rank saturates at env.acceptance_horizon.
  auto contextual = EstimatorRegistry::Make(EstimatorSpec(), env);
  ASSERT_TRUE(contextual.ok());
  EXPECT_DOUBLE_EQ((*contextual)->StabilityScore(Obs(100)),
                   (*contextual)->StabilityScore(Obs(5000)));
  EXPECT_LT((*contextual)->StabilityScore(Obs(99)),
            (*contextual)->StabilityScore(Obs(100)));

  // An explicit horizon parameter overrides the context.
  auto spec = EstimatorSpec::Parse("age-rank{horizon=500}");
  ASSERT_TRUE(spec.ok());
  auto overridden = EstimatorRegistry::Make(*spec, env);
  ASSERT_TRUE(overridden.ok());
  EXPECT_LT((*overridden)->StabilityScore(Obs(100)),
            (*overridden)->StabilityScore(Obs(499)));
  EXPECT_DOUBLE_EQ((*overridden)->StabilityScore(Obs(500)),
                   (*overridden)->StabilityScore(Obs(5000)));
}

TEST(EstimatorSpecTest, RegistryIsOpenForExtension) {
  if (EstimatorRegistry::Find("test-coin-flip") == nullptr) {
    EstimatorDescriptor d;
    d.name = "test-coin-flip";
    d.summary = "test fixture";
    d.make = [](const ResolvedParams&, const StrategyEnv&) {
      class CoinFlip : public LifetimeEstimator {
       public:
        double StabilityScore(const PeerObservation& obs) const override {
          return static_cast<double>(obs.age % 2);
        }
        double ExpectedResidualRounds(const PeerObservation&) const override {
          return 1.0;
        }
        std::string name() const override { return "test-coin-flip"; }
      };
      return std::unique_ptr<LifetimeEstimator>(new CoinFlip());
    };
    EstimatorRegistry::Register(std::move(d));
  }

  auto spec = EstimatorSpec::Parse("test-coin-flip");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  auto estimator = EstimatorRegistry::Make(*spec, StrategyEnv{});
  ASSERT_TRUE(estimator.ok());
  EXPECT_EQ((*estimator)->name(), "test-coin-flip");

  bool listed = false;
  for (const EstimatorDescriptor* d : EstimatorRegistry::List()) {
    listed = listed || d->name == "test-coin-flip";
  }
  EXPECT_TRUE(listed);
}

// --- Hostile input: seeded mutations of every registered spec ---

// A value inside `info`'s range: the declared default unless a contextual
// default replaces it, else the range minimum.
ParamValue InRangeValue(const ParamInfo& info) {
  const double def = info.def.AsDouble();
  if (info.contextual_default.empty() && info.def.type == info.type &&
      def >= info.min_value && def <= info.max_value) {
    return info.def;
  }
  return info.type == ParamType::kInt
             ? ParamValue::Int(static_cast<int64_t>(info.min_value))
             : ParamValue::Double(info.min_value);
}

// Every registered strategy of one kind as spec text: bare, with each
// parameter set alone, and with all of them set.
template <typename Descriptor>
std::vector<std::string> RegisteredSpecTexts(
    const std::vector<const Descriptor*>& descriptors) {
  std::vector<std::string> texts;
  for (const Descriptor* d : descriptors) {
    texts.push_back(d->name);
    std::string all;
    for (const ParamInfo& info : d->params) {
      const std::string kv = info.name + "=" + InRangeValue(info).Render();
      texts.push_back(d->name + "{" + kv + "}");
      all += (all.empty() ? "" : ",") + kv;
    }
    if (d->params.size() > 1) texts.push_back(d->name + "{" + all + "}");
  }
  return texts;
}

// One random edit: delete, insert, replace or duplicate a character,
// unbalance a brace, or drop an '='.
std::string MutateSpecText(std::string text, util::Rng* rng) {
  static const std::string kAlphabet =
      "{}=,.-+_ \tex0123456789abcdefghijklmnopqrstuvwxyz";
  const auto pick = [&](size_t bound) {
    return static_cast<size_t>(rng->UniformBounded(bound));
  };
  // Erases one randomly chosen occurrence of any of `chars`; false if none.
  const auto erase_one_of = [&](const std::string& chars) {
    std::vector<size_t> at;
    for (size_t i = 0; i < text.size(); ++i) {
      if (chars.find(text[i]) != std::string::npos) at.push_back(i);
    }
    if (at.empty()) return false;
    text.erase(at[pick(at.size())], 1);
    return true;
  };
  const char c = kAlphabet[pick(kAlphabet.size())];
  switch (rng->UniformBounded(6)) {
    case 0:
      if (!text.empty()) text.erase(pick(text.size()), 1);
      break;
    case 1:
      text.insert(pick(text.size() + 1), 1, c);
      break;
    case 2:
      if (!text.empty()) text[pick(text.size())] = c;
      break;
    case 3:
      if (!text.empty()) {
        const size_t i = pick(text.size());
        text.insert(i, 1, text[i]);
      }
      break;
    case 4:  // unbalance a brace: drop one, or add a stray one
      if (rng->UniformBounded(2) == 0 && erase_one_of("{}")) break;
      text.insert(pick(text.size() + 1), 1,
                  rng->UniformBounded(2) == 0 ? '{' : '}');
      break;
    default:
      erase_one_of("=");
      break;
  }
  return text;
}

// Parse must return a named error or a spec whose canonical text parses
// back to an equal spec. Returns whether `text` parsed.
template <typename Spec>
bool ExpectNamedErrorOrRoundTrip(const std::string& text) {
  const util::Result<Spec> parsed = Spec::Parse(text);
  if (!parsed.ok()) {
    EXPECT_FALSE(parsed.status().message().empty()) << "'" << text << "'";
    return false;
  }
  const std::string canonical = parsed->ToString();
  const util::Result<Spec> again = Spec::Parse(canonical);
  EXPECT_TRUE(again.ok()) << "'" << text << "' -> '" << canonical
                          << "': " << again.status().ToString();
  if (again.ok()) {
    EXPECT_TRUE(*again == *parsed) << "'" << text << "' -> '" << canonical
                                   << "'";
  }
  return true;
}

// FNV-1a of `text`. Each base spec seeds its own mutant stream from it, so
// a base gets the same mutants whichever other strategies the tests that ran
// before have registered.
uint64_t TextHash(const std::string& text) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const unsigned char c : text) hash = (hash ^ c) * 0x100000001b3ull;
  return hash;
}

TEST(StrategySpecTest, SeededMutationsGiveNamedErrorsOrExactRoundTrips) {
  std::vector<std::string> bases = RegisteredSpecTexts(PolicyRegistry::List());
  for (const auto& list : {RegisteredSpecTexts(SelectionRegistry::List()),
                           RegisteredSpecTexts(EstimatorRegistry::List())}) {
    bases.insert(bases.end(), list.begin(), list.end());
  }
  constexpr int kMutantsPerSpec = 256;
  int64_t parsed = 0, rejected = 0;
  for (const std::string& base : bases) {
    util::Rng rng(0x5eed5bec ^ TextHash(base));
    // The unmutated text is a valid spec of its own kind.
    ASSERT_TRUE(PolicySpec::Parse(base).ok() ||
                SelectionSpec::Parse(base).ok() ||
                EstimatorSpec::Parse(base).ok())
        << base;
    for (int m = 0; m < kMutantsPerSpec; ++m) {
      std::string text = base;
      const uint64_t edits = 1 + rng.UniformBounded(3);
      for (uint64_t e = 0; e < edits; ++e) text = MutateSpecText(text, &rng);
      for (const bool ok : {ExpectNamedErrorOrRoundTrip<PolicySpec>(text),
                            ExpectNamedErrorOrRoundTrip<SelectionSpec>(text),
                            ExpectNamedErrorOrRoundTrip<EstimatorSpec>(text)}) {
        ++(ok ? parsed : rejected);
      }
    }
  }
  // Both outcomes occur, so the round-trip branch is exercised too.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace core
}  // namespace p2p
