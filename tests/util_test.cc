// Unit tests for the utility kernel: Status/Result, RNG, statistics,
// flags and tables.

#include <cmath>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/flags.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/table.h"

namespace p2p {
namespace util {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
  EXPECT_EQ(st, Status::OK());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::NotFound("missing thing");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsNotFound());
  EXPECT_EQ(st.message(), "missing thing");
  EXPECT_EQ(st.ToString(), "not found: missing thing");
}

TEST(StatusTest, DistinctCategories) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::Unavailable("x").IsUnavailable());
  EXPECT_NE(Status::NotFound("a"), Status::NotFound("b"));
}

Status FailIfNegative(int v) {
  if (v < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Status UsesReturnIfError(int v, bool* reached_end) {
  P2P_RETURN_IF_ERROR(FailIfNegative(v));
  *reached_end = true;
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  bool reached = false;
  EXPECT_TRUE(UsesReturnIfError(1, &reached).ok());
  EXPECT_TRUE(reached);
  reached = false;
  EXPECT_TRUE(UsesReturnIfError(-1, &reached).IsInvalidArgument());
  EXPECT_FALSE(reached);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.value_or(7), 7);
}

Result<int> HalfOf(int v) {
  if (v % 2 != 0) return Status::InvalidArgument("odd");
  return v / 2;
}

Status UsesAssignOrReturn(int v, int* out) {
  P2P_ASSIGN_OR_RETURN(*out, HalfOf(v));
  return Status::OK();
}

TEST(ResultTest, AssignOrReturn) {
  int out = 0;
  EXPECT_TRUE(UsesAssignOrReturn(10, &out).ok());
  EXPECT_EQ(out, 5);
  EXPECT_TRUE(UsesAssignOrReturn(3, &out).IsInvalidArgument());
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.NextU64() == b.NextU64();
  EXPECT_LT(equal, 4);
}

TEST(RngTest, UniformIntRespectsBounds) {
  Rng rng(5);
  std::set<int64_t> seen;
  for (int i = 0; i < 10'000; ++i) {
    const int64_t v = rng.UniformInt(-3, 7);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 11u);  // every value reached
}

TEST(RngTest, StateRoundTripReplaysExactly) {
  // Save, draw speculatively, restore: the replay re-emits the same values
  // and the stream continues exactly as if only the replayed draws had run.
  Rng rng(42);
  rng.NextU64();  // move off the seed state
  const Rng saved = rng;
  uint64_t speculative[16];
  for (uint64_t& v : speculative) v = rng.UniformBounded(100);
  // Only 5 of the 16 speculative draws were consumable: rewind, replay the
  // prefix, and the next values must continue the sequential stream.
  rng = saved;
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(rng.UniformBounded(100), speculative[i]);
  }

  Rng ref(42);
  ref.NextU64();
  for (int i = 0; i < 5; ++i) ref.UniformBounded(100);
  for (int i = 0; i < 32; ++i) ASSERT_EQ(rng.NextU64(), ref.NextU64());
}

TEST(RngTest, UniformBoundedMatchesUniformInt) {
  // UniformBounded(bound) is UniformInt(0, bound - 1) under another name:
  // same values, same NextU64 consumption. The eligible-candidate index
  // sampler (BackupNetwork::BuildPool) relies on this to stay draw-aligned
  // with any consumer phrased in the inclusive-range form.
  const uint64_t kBounds[] = {1, 2, 3, 11, 997, 25'000, 1ull << 40};
  for (uint64_t bound : kBounds) {
    Rng a(909), b(909);
    for (int i = 0; i < 500; ++i) {
      ASSERT_EQ(a.UniformBounded(bound),
                static_cast<uint64_t>(
                    b.UniformInt(0, static_cast<int64_t>(bound) - 1)))
          << "bound " << bound << " draw " << i;
    }
    for (int i = 0; i < 32; ++i) ASSERT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, ShufflePrefixMatchesManualPartialFisherYates) {
  // ShufflePrefix(v, k) consumes the stream exactly like the historical
  // manual loop - one UniformInt(0, size-1-i) per position, a span of 1
  // included - and produces the identical permutation. ApplyAdjustment's
  // correlated-exit wave swapped the manual loop for this helper on the
  // strength of this identity.
  for (size_t k : {size_t{0}, size_t{1}, size_t{5}, size_t{40}, size_t{64}}) {
    Rng helper(314), manual(314);
    std::vector<int> a(64), b(64);
    for (int i = 0; i < 64; ++i) a[i] = b[i] = i;
    helper.ShufflePrefix(&a, k);
    for (size_t i = 0; i < k; ++i) {
      const size_t j = i + static_cast<size_t>(manual.UniformInt(
                               0, static_cast<int64_t>(b.size() - 1 - i)));
      std::swap(b[i], b[j]);
    }
    EXPECT_EQ(a, b) << "k=" << k;
    for (int i = 0; i < 32; ++i) ASSERT_EQ(helper.NextU64(), manual.NextU64());
  }
  // k beyond the size clamps to a full shuffle.
  Rng c(271), d(271);
  std::vector<int> e(10), f(10);
  for (int i = 0; i < 10; ++i) e[i] = f[i] = i;
  c.ShufflePrefix(&e, 99);
  d.ShufflePrefix(&f, 10);
  EXPECT_EQ(e, f);
}

TEST(RngTest, StateRoundTripThroughShufflePrefix) {
  // Snapshot / restore brackets the shuffle-based sampler exactly: replay
  // from the saved state re-emits the same permutation, and the post-replay
  // stream continues in lockstep with an uninterrupted twin.
  Rng rng(58);
  rng.NextU64();
  const Rng saved = rng;
  std::vector<uint32_t> first(128), second(128);
  for (uint32_t i = 0; i < 128; ++i) first[i] = second[i] = i;
  rng.ShufflePrefix(&first, 50);
  rng = saved;
  rng.ShufflePrefix(&second, 50);
  EXPECT_EQ(first, second);

  Rng twin(58);
  twin.NextU64();
  std::vector<uint32_t> scratch(128);
  for (uint32_t i = 0; i < 128; ++i) scratch[i] = i;
  twin.ShufflePrefix(&scratch, 50);
  for (int i = 0; i < 32; ++i) ASSERT_EQ(rng.NextU64(), twin.NextU64());
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(6);
  for (int i = 0; i < 10'000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(7);
  int hits = 0;
  const int trials = 100'000;
  for (int i = 0; i < trials; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / static_cast<double>(trials), 0.3, 0.01);
}

TEST(RngTest, BernoulliDegenerateProbabilities) {
  Rng rng(8);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, ExponentialMean) {
  Rng rng(9);
  double sum = 0;
  const int trials = 200'000;
  for (int i = 0; i < trials; ++i) sum += rng.Exponential(5.0);
  EXPECT_NEAR(sum / trials, 5.0, 0.1);
}

TEST(RngTest, GeometricMeanAndSupport) {
  Rng rng(10);
  double sum = 0;
  const int trials = 200'000;
  for (int i = 0; i < trials; ++i) {
    const int64_t v = rng.Geometric(4.0);
    ASSERT_GE(v, 1);
    sum += static_cast<double>(v);
  }
  EXPECT_NEAR(sum / trials, 4.0, 0.1);
}

TEST(RngTest, ParetoTailExponent) {
  Rng rng(11);
  // For Pareto(scale=1, shape=2), P(X > 2) = 2^-2 = 0.25.
  int exceed = 0;
  const int trials = 100'000;
  for (int i = 0; i < trials; ++i) exceed += rng.Pareto(1.0, 2.0) > 2.0;
  EXPECT_NEAR(exceed / static_cast<double>(trials), 0.25, 0.01);
}

TEST(RngTest, DerivedStreamsIndependent) {
  Rng a = DeriveStream(99, 0);
  Rng b = DeriveStream(99, 1);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.NextU64() == b.NextU64();
  EXPECT_LT(equal, 4);
  // Same (seed, stream) reproduces.
  Rng c = DeriveStream(99, 0);
  Rng d = DeriveStream(99, 0);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(c.NextU64(), d.NextU64());
}

TEST(RunningStatTest, MomentsMatchClosedForm) {
  RunningStat s;
  for (int i = 1; i <= 5; ++i) s.Add(i);
  EXPECT_EQ(s.count(), 5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 2.5);  // sample variance of 1..5
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.sum(), 15.0);
}

TEST(HistogramTest, BucketsAndOverflow) {
  Histogram h(0.0, 10.0, 10);
  h.Add(-1);    // underflow
  h.Add(0.5);   // bucket 0
  h.Add(9.5);   // bucket 9
  h.Add(10.5);  // overflow
  EXPECT_EQ(h.count(), 4);
  EXPECT_EQ(h.underflow(), 1);
  EXPECT_EQ(h.overflow(), 1);
  EXPECT_EQ(h.bucket(0), 1);
  EXPECT_EQ(h.bucket(9), 1);
}

TEST(HistogramTest, QuantileInterpolation) {
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.Add(i + 0.5);
  EXPECT_NEAR(h.Quantile(0.5), 50.0, 1.5);
  EXPECT_NEAR(h.Quantile(0.9), 90.0, 1.5);
}

TEST(FlagsTest, ParsesTypedFlags) {
  int64_t n = 5;
  double d = 1.5;
  bool b = false;
  std::string s = "x";
  FlagSet flags;
  flags.Int64("n", &n, "a number");
  flags.Double("d", &d, "a double");
  flags.Bool("b", &b, "a flag");
  flags.String("s", &s, "a string");
  const char* argv[] = {"prog", "--n=42", "--d", "2.25", "--b", "--s=hello", "pos"};
  ASSERT_TRUE(flags.Parse(7, const_cast<char**>(argv)).ok());
  EXPECT_EQ(n, 42);
  EXPECT_DOUBLE_EQ(d, 2.25);
  EXPECT_TRUE(b);
  EXPECT_EQ(s, "hello");
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "pos");
}

TEST(FlagsTest, NegatedBool) {
  bool b = true;
  FlagSet flags;
  flags.Bool("b", &b, "a flag");
  const char* argv[] = {"prog", "--no-b"};
  ASSERT_TRUE(flags.Parse(2, const_cast<char**>(argv)).ok());
  EXPECT_FALSE(b);
}

TEST(FlagsTest, UnknownFlagRejected) {
  FlagSet flags;
  const char* argv[] = {"prog", "--nope=1"};
  EXPECT_TRUE(flags.Parse(2, const_cast<char**>(argv)).IsInvalidArgument());
}

TEST(FlagsTest, BadValueRejected) {
  int64_t n = 0;
  FlagSet flags;
  flags.Int64("n", &n, "a number");
  const char* argv[] = {"prog", "--n=abc"};
  EXPECT_TRUE(flags.Parse(2, const_cast<char**>(argv)).IsInvalidArgument());
}

TEST(TableTest, TsvRendering) {
  Table t({"a", "b"});
  t.BeginRow();
  t.Add(1);
  t.Add("x");
  std::ostringstream os;
  t.RenderTsv(os);
  EXPECT_EQ(os.str(), "# a\tb\n1\tx\n");
}

TEST(TableTest, PrettyRenderingAligns) {
  Table t({"name", "v"});
  t.BeginRow();
  t.Add("long-name-here");
  t.Add(3.5, 1);
  std::ostringstream os;
  t.RenderPretty(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| long-name-here | 3.5 |"), std::string::npos);
}

TEST(TableTest, CsvQuotesCellsWithCommas) {
  // RFC 4180: strategy-spec sweep coordinates embed commas (e.g.
  // proactive{batch_blocks=8,emergency_threshold=136}) and must come back
  // as one quoted field.
  Table t({"policy", "n"});
  t.BeginRow();
  t.Add("proactive{batch_blocks=8,emergency_threshold=136}");
  t.Add(int64_t{7});
  std::ostringstream os;
  t.RenderCsv(os);
  EXPECT_EQ(os.str(),
            "policy,n\n"
            "\"proactive{batch_blocks=8,emergency_threshold=136}\",7\n");
}

TEST(TableTest, CsvLeavesBraceOnlyCellsUnquoted) {
  // Braces alone are not special in RFC 4180; only commas, quotes, and line
  // breaks force quoting.
  Table t({"spec"});
  t.BeginRow();
  t.Add("age-rank{horizon=120}");
  std::ostringstream os;
  t.RenderCsv(os);
  EXPECT_EQ(os.str(), "spec\nage-rank{horizon=120}\n");
}

TEST(TableTest, CsvEscapesQuotesAndNewlines) {
  Table t({"a", "b", "c"});
  t.BeginRow();
  t.Add("say \"hi\"");
  t.Add("two\nlines");
  t.Add("plain");
  std::ostringstream os;
  t.RenderCsv(os);
  // Embedded quotes double; the cell stays one quoted field.
  EXPECT_EQ(os.str(),
            "a,b,c\n"
            "\"say \"\"hi\"\"\",\"two\nlines\",plain\n");
}

TEST(TableTest, CsvQuotesHeadersTheSameWay) {
  Table t({"metric,unit", "v"});
  std::ostringstream os;
  t.RenderCsv(os);
  EXPECT_EQ(os.str(), "\"metric,unit\",v\n");
}

}  // namespace
}  // namespace util
}  // namespace p2p
