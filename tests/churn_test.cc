// Churn model tests: lifetime distributions, availability processes and the
// paper's profile table.

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>

#include <gtest/gtest.h>

#include "churn/availability.h"
#include "churn/lifetime.h"
#include "churn/profile.h"
#include "scenario/population.h"
#include "util/rng.h"

namespace p2p {
namespace churn {
namespace {

TEST(LifetimeTest, UnlimitedNeverDeparts) {
  const LifetimeSpec life = LifetimeSpec::Unlimited();
  util::Rng rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(life.Sample(&rng), sim::kNever);
}

TEST(LifetimeTest, UniformWithinRange) {
  const LifetimeSpec life = LifetimeSpec::Uniform(100, 200);
  util::Rng rng(2);
  double sum = 0;
  for (int i = 0; i < 50'000; ++i) {
    const sim::Round v = life.Sample(&rng);
    ASSERT_GE(v, 100);
    ASSERT_LE(v, 200);
    sum += static_cast<double>(v);
  }
  EXPECT_NEAR(sum / 50'000, 150.0, 1.0);
  EXPECT_DOUBLE_EQ(life.MeanRounds(), 150.0);
}

TEST(LifetimeTest, ExponentialMean) {
  const LifetimeSpec life = LifetimeSpec::Exponential(500.0);
  util::Rng rng(3);
  double sum = 0;
  for (int i = 0; i < 100'000; ++i) sum += static_cast<double>(life.Sample(&rng));
  EXPECT_NEAR(sum / 100'000, 500.0, 10.0);
}

TEST(LifetimeTest, ParetoResidualGrowsWithAge) {
  // The paper's fidelity property: among Pareto lifetimes, survivors to age
  // a have expected residual life increasing in a. Verify empirically.
  const LifetimeSpec life = LifetimeSpec::Pareto(24.0, 1.5);
  util::Rng rng(4);
  double young_residual = 0, old_residual = 0;
  int young_n = 0, old_n = 0;
  for (int i = 0; i < 400'000; ++i) {
    const double v = static_cast<double>(life.Sample(&rng));
    if (v > 100) {
      young_residual += v - 100;
      ++young_n;
    }
    if (v > 1000) {
      old_residual += v - 1000;
      ++old_n;
    }
  }
  ASSERT_GT(young_n, 1000);
  ASSERT_GT(old_n, 100);
  EXPECT_GT(old_residual / old_n, 3.0 * young_residual / young_n);
}

TEST(LifetimeTest, SampleMakesTheLawsRngCallsDrawForDraw) {
  // Each law against the explicit Rng calls it stands for, on a
  // twin-seeded generator. The Pareto and exponential parameters put many
  // draws on the kNever cap and the >= 1 clamp.
  struct Case {
    LifetimeSpec life;
    std::function<sim::Round(util::Rng*)> draw;
  };
  const Case cases[] = {
      {LifetimeSpec::Unlimited(),
       [](util::Rng* rng) {
         rng->NextDouble();
         return sim::kNever;
       }},
      {LifetimeSpec::Uniform(100, 200),
       [](util::Rng* rng) { return rng->UniformInt(100, 200); }},
      {LifetimeSpec::Pareto(0.5, 0.05),
       [](util::Rng* rng) {
         const double v = rng->Pareto(0.5, 0.05);
         if (v >= static_cast<double>(sim::kNever)) return sim::kNever;
         return std::max<sim::Round>(1, static_cast<sim::Round>(v));
       }},
      {LifetimeSpec::Exponential(2.0),
       [](util::Rng* rng) {
         return std::max<sim::Round>(
             1, static_cast<sim::Round>(rng->Exponential(2.0)));
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(LifetimeKindName(c.life.kind));
    util::Rng rng(11), twin(11);
    int capped = 0, clamped = 0;
    for (int i = 0; i < 20'000; ++i) {
      const sim::Round got = c.life.Sample(&rng);
      ASSERT_EQ(got, c.draw(&twin)) << "draw " << i;
      capped += got == sim::kNever;
      clamped += got == 1;
    }
    for (int i = 0; i < 32; ++i) ASSERT_EQ(rng.NextU64(), twin.NextU64());
    if (c.life.kind == LifetimeKind::kPareto) {
      EXPECT_GT(capped, 0);
      EXPECT_GT(clamped, 0);
    }
    if (c.life.kind == LifetimeKind::kExponential) {
      EXPECT_GT(clamped, 0);
    }
  }
}

TEST(LifetimeTest, DrawsPastTheLastRoundNeverDepart) {
  // Means this long put every draw beyond sim::kNever; the lifetime is
  // capped there rather than cast out of range.
  util::Rng rng(12);
  for (const LifetimeSpec& life :
       {LifetimeSpec::Exponential(1e300), LifetimeSpec::Pareto(1e300, 2.0)}) {
    for (int i = 0; i < 100; ++i) EXPECT_EQ(life.Sample(&rng), sim::kNever);
  }
}

TEST(AvailabilityTest, StationaryShareMatchesNominal) {
  util::Rng rng(5);
  for (double a : {0.33, 0.75, 0.87, 0.95}) {
    const SessionProcess proc = SessionProcess::DiurnalSessions(a);
    int64_t online = 0, total = 0;
    bool on = proc.SampleInitialOnline(&rng);
    while (total < 400'000) {
      const sim::Round len =
          on ? proc.SampleOnline(&rng) : proc.SampleOffline(&rng);
      if (on) online += len;
      total += len;
      on = !on;
    }
    EXPECT_NEAR(static_cast<double>(online) / static_cast<double>(total), a,
                0.02)
        << "availability " << a;
    EXPECT_NEAR(proc.StationaryAvailability(), a, 0.02);
  }
}

TEST(AvailabilityTest, BernoulliRoundsIsMemoryless) {
  // With the Bernoulli preset, P(online) each round equals `a` regardless of
  // the previous state: mean run lengths are 1/(1-a) online, 1/a offline.
  const SessionProcess proc = SessionProcess::BernoulliRounds(0.25);
  EXPECT_NEAR(proc.mean_online(), 1.0 / 0.75, 1e-9);
  EXPECT_NEAR(proc.mean_offline(), 1.0 / 0.25, 1e-9);
  EXPECT_NEAR(proc.StationaryAvailability(), 0.25, 1e-9);
}

TEST(AvailabilityTest, SessionLengthsAtLeastOneRound) {
  util::Rng rng(6);
  const SessionProcess proc = SessionProcess::DiurnalSessions(0.95);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_GE(proc.SampleOnline(&rng), 1);
    EXPECT_GE(proc.SampleOffline(&rng), 1);
  }
}

TEST(ProfileTest, PaperTableValues) {
  const ProfileSet set = *scenario::PopulationSpec::Paper().Compile();
  ASSERT_EQ(set.size(), 4u);
  EXPECT_EQ(set[0].name, "durable");
  EXPECT_DOUBLE_EQ(set[0].proportion, 0.10);
  EXPECT_DOUBLE_EQ(set[0].availability, 0.95);
  EXPECT_EQ(set[1].name, "stable");
  EXPECT_DOUBLE_EQ(set[1].proportion, 0.25);
  EXPECT_EQ(set[2].name, "unstable");
  EXPECT_DOUBLE_EQ(set[2].proportion, 0.30);
  EXPECT_EQ(set[3].name, "erratic");
  EXPECT_DOUBLE_EQ(set[3].proportion, 0.35);
  EXPECT_DOUBLE_EQ(set[3].availability, 0.33);
}

TEST(ProfileTest, PaperLifetimeRanges) {
  const ProfileSet set = *scenario::PopulationSpec::Paper().Compile();
  util::Rng rng(7);
  EXPECT_EQ(set[0].lifetime.Sample(&rng), sim::kNever);
  for (int i = 0; i < 1000; ++i) {
    const sim::Round stable = set[1].lifetime.Sample(&rng);
    EXPECT_GE(stable, sim::YearsToRounds(1.5));
    EXPECT_LE(stable, sim::YearsToRounds(3.5));
    const sim::Round erratic = set[3].lifetime.Sample(&rng);
    EXPECT_GE(erratic, sim::MonthsToRounds(1));
    EXPECT_LE(erratic, sim::MonthsToRounds(3));
  }
}

TEST(ProfileTest, SamplingMatchesProportions) {
  const ProfileSet set = *scenario::PopulationSpec::Paper().Compile();
  util::Rng rng(8);
  std::array<int, 4> counts{};
  const int trials = 200'000;
  for (int i = 0; i < trials; ++i) ++counts[set.SampleIndex(&rng)];
  EXPECT_NEAR(counts[0] / static_cast<double>(trials), 0.10, 0.005);
  EXPECT_NEAR(counts[1] / static_cast<double>(trials), 0.25, 0.005);
  EXPECT_NEAR(counts[2] / static_cast<double>(trials), 0.30, 0.005);
  EXPECT_NEAR(counts[3] / static_cast<double>(trials), 0.35, 0.005);
}

TEST(ProfileTest, CreateValidation) {
  EXPECT_EQ(ProfileSet::Create({}).status().message(),
            "population needs >= 1 profile");
  Profile p;
  p.name = "x";
  p.proportion = 0.5;  // does not sum to 1
  p.availability = 0.5;
  EXPECT_EQ(ProfileSet::Create({p}).status().message(),
            "profile proportions must sum to 1, got 0.500000");
  Profile q = p;
  q.name = "y";
  EXPECT_TRUE(ProfileSet::Create({p, q}).ok());
  Profile bad = q;
  bad.lifetime = LifetimeSpec::Uniform(0, 10);
  EXPECT_EQ(ProfileSet::Create({p, bad}).status().message(),
            "profile 'y': uniform lifetime needs 1 <= lo <= hi, got [0, 10]");
}

TEST(ProfileTest, ParetoMixReplacesEveryLifetime) {
  const ProfileSet set =
      *scenario::PopulationSpec::ParetoMix(24.0, 1.2).Compile();
  ASSERT_EQ(set.size(), 4u);
  for (size_t i = 0; i < set.size(); ++i) {
    EXPECT_EQ(set[i].lifetime, LifetimeSpec::Pareto(24.0, 1.2));
  }
  // Availability mix still follows the paper table.
  EXPECT_DOUBLE_EQ(set[3].availability, 0.33);
}

}  // namespace
}  // namespace churn
}  // namespace p2p
