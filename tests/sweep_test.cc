// Tests for the scenario-sweep subsystem: grid expansion (counts, ordering,
// seed derivation), SystemOptions validation, and the load-bearing guarantee
// that report bytes do not depend on the runner's thread count - including
// over the named-scenario axis that replaced the old ProfileMix enum.
//
// The registry-backed metrics redesign is locked two ways: the default
// selection's CSV/JSON emitters are compared byte for byte against goldens
// captured from the pre-registry hand-written emitters
// (tests/golden/sweep_default*), and non-default selections must be
// thread-count invariant like every other report. A further golden
// (tests/golden/peer_table_cells.csv) carries every metric over a world with
// instant visibility, observers, a departure grace and workload events.

#include <algorithm>
#include <array>
#include <climits>
#include <cmath>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "backup/options.h"
#include "core/lifetime_estimator.h"
#include "core/strategy_registry.h"
#include "metrics/registry.h"
#include "scenario/registry.h"
#include "sweep/report.h"
#include "sweep/runner.h"
#include "sweep/spec.h"

namespace p2p {
namespace sweep {
namespace {

// The two metric sets the comparison tests walk.
constexpr const char* kDefaultScalars[] = {"repairs", "losses",
                                           "blocks_uploaded", "departures",
                                           "timeouts"};
constexpr const char* kDefaultPerCategory[] = {"repairs_1k_day",
                                               "losses_1k_day"};

// Expects two cells to carry identical default metrics (bitwise).
void ExpectSameDefaultMetrics(const CellRow& cell, const CellRow& reference) {
  for (const char* name : kDefaultScalars) {
    EXPECT_EQ(cell.report.Count(name), reference.report.Count(name)) << name;
  }
  for (const char* name : kDefaultPerCategory) {
    for (size_t i = 0; i < metrics::kCategoryCount; ++i) {
      EXPECT_EQ(cell.report.PerCategory(name)[i],
                reference.report.PerCategory(name)[i])
          << name << "[" << i << "]";
    }
  }
}

// Loads a committed golden input world (see each file's header comment).
scenario::Scenario GoldenWorld(const std::string& file) {
  auto world = scenario::LoadScenario(std::string(P2P_SOURCE_DIR) +
                                      "/tests/golden/" + file);
  EXPECT_TRUE(world.ok()) << world.status().ToString();
  return *world;
}

// The grid the pre-registry goldens were captured from.
SweepSpec GoldenSpec() {
  SweepSpec spec;
  spec.base = GoldenWorld("sweep_small_world.scenario");
  spec.repair_thresholds = {20, 26};
  spec.replicates = 2;
  return spec;
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Every registered metric, in registration order (scripts/regen_goldens.sh
// passes the same list as --metrics).
const std::vector<std::string> kAllMetrics = {
    "repairs", "losses", "blocks_uploaded", "departures", "timeouts",
    "repairs_1k_day", "losses_1k_day", "repair_bandwidth",
    "time_to_repair_mean", "time_to_repair_p99", "partnership_lifetime_mean",
    "vulnerability_rounds", "cum_repairs", "cum_losses", "mean_population",
    "final_population", "time_to_backup_mean", "time_to_backup_p99",
    "time_to_restore_mean", "time_to_restore_p99", "data_loss_window",
    "uplink_utilization"};

// The peer-table golden's grid: instant visibility, two observers, a
// departure grace period, a mass exit and a flash crowd (see the world's
// header comment), under a binding and a slack quota, every metric.
SweepSpec PeerTableSpec() {
  SweepSpec spec;
  spec.base = GoldenWorld("peer_table_world.scenario");
  spec.repair_thresholds = {20, 26};
  spec.quotas = {40, 128};
  spec.metrics = kAllMetrics;
  return spec;
}

// The transfer goldens' grid: `world` with the transfer scheduler on the
// paper's DSL link, every metric. The sweep golden world runs it under
// timeout visibility, the peer-table world under instant visibility.
SweepSpec TransferSpec(const std::string& world) {
  SweepSpec spec;
  spec.base = GoldenWorld(world);
  spec.repair_thresholds = {20, 26};
  spec.links = {"dsl-2009"};
  spec.metrics = kAllMetrics;
  return spec;
}

// A grid small enough that the full 1/2/8-thread comparison stays fast.
SweepSpec SmallSpec() {
  SweepSpec spec;
  spec.base.peers = 120;
  spec.base.rounds = 400;
  spec.base.seed = 7;
  spec.repair_thresholds = {140, 156};
  spec.replicates = 2;
  return spec;
}

TEST(SweepSpecTest, ExpansionCountsAndOrdering) {
  SweepSpec spec;
  spec.base.seed = 42;
  spec.repair_thresholds = {132, 148, 164};
  spec.quotas = {256, 384};
  spec.replicates = 2;

  EXPECT_EQ(spec.GroupCount(), 6u);
  EXPECT_EQ(spec.CellCount(), 12u);
  EXPECT_EQ(spec.ActiveAxes(),
            (std::vector<std::string>{"threshold", "quota", "rep"}));

  auto cells = spec.Expand();
  ASSERT_TRUE(cells.ok()) << cells.status().ToString();
  ASSERT_EQ(cells->size(), 12u);

  // Row-major: threshold outermost, then quota, replicates innermost.
  for (size_t i = 0; i < cells->size(); ++i) {
    const Cell& cell = (*cells)[i];
    EXPECT_EQ(cell.index, i);
    EXPECT_EQ(cell.group, i / 2);
    EXPECT_EQ(cell.replicate, i % 2);
    const size_t ti = i / 4;        // 2 quotas * 2 replicates per threshold
    const size_t qi = (i / 2) % 2;  // 2 replicates per quota
    EXPECT_EQ(cell.scenario.options.repair_threshold,
              spec.repair_thresholds[ti]);
    EXPECT_EQ(cell.scenario.options.quota_blocks, spec.quotas[qi]);
  }

  // Coordinates carry every active axis, in axis order.
  const Cell& first = cells->front();
  ASSERT_EQ(first.coords.size(), 3u);
  EXPECT_EQ(first.coords[0],
            (std::pair<std::string, std::string>{"threshold", "132"}));
  EXPECT_EQ(first.coords[1],
            (std::pair<std::string, std::string>{"quota", "256"}));
  EXPECT_EQ(first.coords[2], (std::pair<std::string, std::string>{"rep", "0"}));
  EXPECT_EQ(first.Label(), "threshold=132 quota=256 rep=0");
}

TEST(SweepSpecTest, AllAxesExpandRowMajorWithReplicatesInnermost) {
  SweepSpec spec;
  spec.base.peers = 120;
  spec.base.rounds = 400;
  spec.base.seed = 11;
  spec.repair_thresholds = {140, 156};
  spec.quotas = {256, 384};
  spec.policies = {"fixed-threshold", "proactive{ batch_blocks = 8 }"};
  spec.selections = {"oldest-first", "weighted-random{age_exponent=2}"};
  spec.estimators = {"age-rank", "availability-weighted{exponent=2}"};
  spec.scenarios = {"paper", "flash-crowd"};
  spec.links = {"dsl-2009", "ftth"};
  spec.replicates = 2;

  const std::vector<std::string> axes = {"threshold", "quota",    "policy",
                                         "selection", "estimator", "scenario",
                                         "link",      "rep"};
  // Each axis's two coordinates; spec axes carry the canonical spec form.
  const std::vector<std::array<std::string, 2>> values = {
      {"140", "156"},
      {"256", "384"},
      {"fixed-threshold", "proactive{batch_blocks=8}"},
      {"oldest-first", "weighted-random{age_exponent=2}"},
      {"age-rank", "availability-weighted{exponent=2}"},
      {"paper", "flash-crowd"},
      {"dsl-2009", "ftth"},
      {"0", "1"}};
  EXPECT_EQ(spec.ActiveAxes(), axes);
  EXPECT_EQ(spec.GroupCount(), 128u);
  EXPECT_EQ(spec.CellCount(), 256u);

  auto cells = spec.Expand();
  ASSERT_TRUE(cells.ok()) << cells.status().ToString();
  ASSERT_EQ(cells->size(), 256u);
  for (size_t i = 0; i < cells->size(); ++i) {
    SCOPED_TRACE(i);
    const Cell& cell = (*cells)[i];
    EXPECT_EQ(cell.index, i);
    EXPECT_EQ(cell.group, i / 2);
    EXPECT_EQ(cell.replicate, i % 2);
    EXPECT_EQ(cell.scenario.seed, ReplicateSeed(11, i % 2));
    // Row-major with two values per axis: bit b of the cell index, counted
    // from the innermost (replicate) axis, is axis (7 - b)'s value.
    ASSERT_EQ(cell.coords.size(), axes.size());
    for (size_t a = 0; a < axes.size(); ++a) {
      const size_t bit = axes.size() - 1 - a;
      EXPECT_EQ(cell.coords[a],
                (std::pair<std::string, std::string>{
                    axes[a], values[a][(i >> bit) & 1]}));
    }
    // The cell runs what its coordinates name.
    const backup::SystemOptions& o = cell.scenario.options;
    EXPECT_EQ(std::to_string(o.repair_threshold), cell.coords[0].second);
    EXPECT_EQ(std::to_string(o.quota_blocks), cell.coords[1].second);
    EXPECT_EQ(o.policy.ToString(), cell.coords[2].second);
    EXPECT_EQ(o.selection.ToString(), cell.coords[3].second);
    EXPECT_EQ(o.estimator.ToString(), cell.coords[4].second);
    EXPECT_EQ(cell.scenario.name, cell.coords[5].second);
    EXPECT_TRUE(o.transfer_enabled);
    EXPECT_EQ(o.transfer_link, cell.coords[6].second);
    EXPECT_EQ(cell.scenario.peers, 120u);
    EXPECT_EQ(cell.scenario.rounds, 400);
  }
}

TEST(SweepSpecTest, EmptyAxesYieldOneCell) {
  SweepSpec spec;
  EXPECT_EQ(spec.GroupCount(), 1u);
  EXPECT_EQ(spec.CellCount(), 1u);
  EXPECT_TRUE(spec.ActiveAxes().empty());
  auto cells = spec.Expand();
  ASSERT_TRUE(cells.ok());
  ASSERT_EQ(cells->size(), 1u);
  EXPECT_TRUE((*cells)[0].coords.empty());
  EXPECT_EQ((*cells)[0].scenario.seed, spec.base.seed);
}

TEST(SweepSpecTest, ScenarioAxisSwapsWorldsOnly) {
  SweepSpec spec;
  spec.base.peers = 120;
  spec.base.rounds = 400;
  spec.scenarios = {"paper", "bernoulli", "weekend-heavy"};

  EXPECT_EQ(spec.ActiveAxes(), (std::vector<std::string>{"scenario"}));
  auto cells = spec.Expand();
  ASSERT_TRUE(cells.ok()) << cells.status().ToString();
  ASSERT_EQ(cells->size(), 3u);
  for (size_t i = 0; i < cells->size(); ++i) {
    const Cell& cell = (*cells)[i];
    // The axis swaps the simulated world...
    EXPECT_EQ(cell.scenario.name, spec.scenarios[i]);
    EXPECT_EQ(cell.coords[0],
              (std::pair<std::string, std::string>{"scenario",
                                                   spec.scenarios[i]}));
    // ...but keeps the base scale and options (common random numbers).
    EXPECT_EQ(cell.scenario.peers, 120u);
    EXPECT_EQ(cell.scenario.rounds, 400);
    EXPECT_EQ(cell.scenario.seed, spec.base.seed);
    EXPECT_EQ(cell.scenario.options, spec.base.options);
  }
  EXPECT_NE((*cells)[0].scenario.population, (*cells)[2].scenario.population);

  spec.scenarios = {"no-such-scenario"};
  EXPECT_TRUE(spec.Validate().IsInvalidArgument());
  EXPECT_FALSE(spec.Expand().ok());
}

TEST(SweepSpecTest, StrategyAxesResolveSpecsAndRejectUnknownTokens) {
  SweepSpec spec;
  spec.base.peers = 120;
  spec.base.rounds = 400;
  spec.policies = {"fixed-threshold", "proactive{ batch_blocks = 4 }"};
  spec.selections = {"weighted-random{age_exponent=2}"};

  EXPECT_EQ(spec.ActiveAxes(),
            (std::vector<std::string>{"policy", "selection"}));
  auto cells = spec.Expand();
  ASSERT_TRUE(cells.ok()) << cells.status().ToString();
  ASSERT_EQ(cells->size(), 2u);
  // Coordinates carry the canonical spec form, whatever spacing came in.
  EXPECT_EQ((*cells)[1].coords[0],
            (std::pair<std::string, std::string>{"policy",
                                                 "proactive{batch_blocks=4}"}));
  EXPECT_EQ((*cells)[1].scenario.options.policy.name, "proactive");
  EXPECT_EQ((*cells)[0].coords[1],
            (std::pair<std::string, std::string>{
                "selection", "weighted-random{age_exponent=2}"}));

  spec.policies = {"no-such-policy"};
  util::Status bad = spec.Validate();
  EXPECT_TRUE(bad.IsInvalidArgument());
  EXPECT_NE(bad.message().find("no-such-policy"), std::string::npos);
  EXPECT_FALSE(spec.Expand().ok());

  spec.policies.clear();
  spec.selections = {"weighted-random{age_exponent=99}"};
  bad = spec.Validate();
  EXPECT_TRUE(bad.IsInvalidArgument());
  EXPECT_NE(bad.message().find("age_exponent"), std::string::npos);
}

TEST(SweepSpecTest, SeedDerivation) {
  // Replicate 0 keeps the base seed, so a 1-replicate sweep reproduces a
  // plain RunScenario; later replicates get distinct derived seeds.
  EXPECT_EQ(ReplicateSeed(42, 0), 42u);
  EXPECT_NE(ReplicateSeed(42, 1), 42u);
  EXPECT_NE(ReplicateSeed(42, 1), ReplicateSeed(42, 2));
  EXPECT_NE(ReplicateSeed(42, 1), ReplicateSeed(43, 1));
  // Pure function: same inputs, same seed.
  EXPECT_EQ(ReplicateSeed(42, 5), ReplicateSeed(42, 5));

  SweepSpec spec;
  spec.repair_thresholds = {140, 156};
  spec.replicates = 2;
  auto cells = spec.Expand();
  ASSERT_TRUE(cells.ok());
  // All groups share replicate seeds (common random numbers across the
  // grid); replicates differ within a group.
  EXPECT_EQ((*cells)[0].scenario.seed, (*cells)[2].scenario.seed);
  EXPECT_EQ((*cells)[1].scenario.seed, (*cells)[3].scenario.seed);
  EXPECT_NE((*cells)[0].scenario.seed, (*cells)[1].scenario.seed);
}

TEST(SweepSpecTest, RejectsInvalidGrids) {
  SweepSpec spec;
  spec.replicates = 0;
  EXPECT_TRUE(spec.Validate().IsInvalidArgument());

  spec = SweepSpec();
  spec.repair_thresholds = {500};  // outside [k, k + m]
  EXPECT_TRUE(spec.Validate().IsInvalidArgument());
  EXPECT_FALSE(spec.Expand().ok());

  spec = SweepSpec();
  spec.quotas = {0};
  EXPECT_TRUE(spec.Validate().IsInvalidArgument());

  spec = SweepSpec();
  spec.base.peers = 8;  // below the simulation's population floor
  EXPECT_TRUE(spec.Validate().IsInvalidArgument());
  EXPECT_FALSE(spec.Expand().ok());
}

TEST(SystemOptionsTest, ValidateAcceptsDefaults) {
  backup::SystemOptions options;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(SystemOptionsTest, ValidateRejectsBadKnobs) {
  backup::SystemOptions options;
  options.repair_threshold = options.k - 1;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());

  options = backup::SystemOptions();
  options.repair_threshold = options.k + options.m + 1;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());

  options = backup::SystemOptions();
  options.quota_blocks = 0;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());

  options = backup::SystemOptions();
  options.num_peers = 0;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());

  // Below the pool-sampling floor: must fail at validation, not abort the
  // process inside a runner thread.
  options = backup::SystemOptions();
  options.num_peers = 8;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());

  options = backup::SystemOptions();
  options.partner_timeout = -3;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());

  options = backup::SystemOptions();
  options.max_partner_factor = 0.5;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());

  // Values that would overflow an int downstream name their key instead:
  // k + m, and each factor's product with it (partner cap, pool target).
  options = backup::SystemOptions();
  options.m = 2147483647;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  EXPECT_NE(options.Validate().message().find("k + m"), std::string::npos);

  options = backup::SystemOptions();
  options.pool_factor = 1e308;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  EXPECT_NE(options.Validate().message().find("pool_factor"),
            std::string::npos);

  options = backup::SystemOptions();
  options.max_partner_factor = 1e308;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  EXPECT_NE(options.Validate().message().find("max_partner_factor"),
            std::string::npos);

  // The largest factors whose products still fit are accepted.
  options = backup::SystemOptions();
  options.pool_factor = static_cast<double>(INT_MAX / (options.k + options.m));
  options.max_partner_factor = options.pool_factor;
  EXPECT_TRUE(options.Validate().ok()) << options.Validate().ToString();
}

TEST(SystemOptionsTest, ValidateRejectsNonPositiveSampleInterval) {
  // sample_interval <= 0 would stall the series sampler forever.
  backup::SystemOptions options;
  options.sample_interval = 0;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  EXPECT_NE(options.Validate().message().find("sample_interval"),
            std::string::npos);

  options = backup::SystemOptions();
  options.sample_interval = -24;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());

  options = backup::SystemOptions();
  options.sample_interval = 1;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(SystemOptionsTest, ValidateRejectsNonPositiveLossRateTau) {
  // loss_rate_tau <= 0 divides by zero in the loss-rate EMA decay.
  backup::SystemOptions options;
  options.loss_rate_tau = 0;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  EXPECT_NE(options.Validate().message().find("loss_rate_tau"),
            std::string::npos);

  options = backup::SystemOptions();
  options.loss_rate_tau = -1;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());

  options = backup::SystemOptions();
  options.loss_rate_tau = 1;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(RunnerTest, OneCellSweepMatchesDirectRun) {
  SweepSpec spec;
  spec.base.peers = 120;
  spec.base.rounds = 400;
  spec.base.seed = 7;

  auto results = RunSweep(spec, RunnerOptions{});
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 1u);

  const Outcome direct = RunScenario(spec.base);
  const Outcome& via_runner = (*results)[0].outcome;
  for (const char* name : kDefaultScalars) {
    EXPECT_EQ(via_runner.report.Count(name), direct.report.Count(name))
        << name;
  }
}

TEST(RunnerTest, ReportsAreThreadCountInvariant) {
  const SweepSpec spec = SmallSpec();

  std::string cells_csv[3];
  std::string agg_csv[3];
  std::string json[3];
  const int thread_counts[3] = {1, 2, 8};
  for (int i = 0; i < 3; ++i) {
    RunnerOptions ropts;
    ropts.threads = thread_counts[i];
    auto results = RunSweep(spec, ropts);
    ASSERT_TRUE(results.ok()) << results.status().ToString();
    const SweepReport report = SweepReport::Build(spec, *results);
    std::ostringstream cells_os, agg_os, json_os;
    report.WriteCellsCsv(cells_os);
    report.WriteAggregateCsv(agg_os);
    report.WriteJson(json_os);
    cells_csv[i] = cells_os.str();
    agg_csv[i] = agg_os.str();
    json[i] = json_os.str();
  }

  EXPECT_EQ(cells_csv[0], cells_csv[1]);
  EXPECT_EQ(cells_csv[0], cells_csv[2]);
  EXPECT_EQ(agg_csv[0], agg_csv[1]);
  EXPECT_EQ(agg_csv[0], agg_csv[2]);
  EXPECT_EQ(json[0], json[1]);
  EXPECT_EQ(json[0], json[2]);

  // Sanity: the CSV actually carries the grid (header + 4 cell rows).
  EXPECT_NE(cells_csv[0].find("threshold"), std::string::npos);
  int lines = 0;
  for (char ch : cells_csv[0]) lines += ch == '\n';
  EXPECT_EQ(lines, 5);
}

TEST(RunnerTest, ScenarioAxisIsThreadCountInvariant) {
  // The named-scenario axis (including a workload-event scenario) must
  // produce byte-identical CSV at 1 and 8 threads: each cell's run is a
  // pure function of its resolved scenario, regardless of scheduling.
  SweepSpec spec;
  spec.base.peers = 120;
  spec.base.rounds = 2'600;  // past day 100, so the mass exit actually fires
  spec.base.seed = 11;
  spec.scenarios = {"paper", "mass-exit"};

  std::string csv[2];
  const int thread_counts[2] = {1, 8};
  for (int i = 0; i < 2; ++i) {
    RunnerOptions ropts;
    ropts.threads = thread_counts[i];
    auto results = RunSweep(spec, ropts);
    ASSERT_TRUE(results.ok()) << results.status().ToString();
    // The workload-event cell ends with a visibly different population:
    // 30% of 120 peers left for good at day 100.
    EXPECT_EQ((*results)[0].outcome.final_population, 120);
    EXPECT_EQ((*results)[1].outcome.final_population, 120 - 36);
    const SweepReport report = SweepReport::Build(spec, *results);
    std::ostringstream os;
    report.WriteCellsCsv(os);
    csv[i] = os.str();
  }
  EXPECT_EQ(csv[0], csv[1]);
  EXPECT_NE(csv[0].find("scenario"), std::string::npos);
  EXPECT_NE(csv[0].find("mass-exit"), std::string::npos);
}

TEST(SweepSpecTest, EstimatorAxisResolvesSpecsAndRejectsUnknownTokens) {
  SweepSpec spec;
  spec.base.peers = 120;
  spec.base.rounds = 400;
  spec.estimators = {"age-rank", "availability-weighted{ exponent = 2 }"};

  EXPECT_EQ(spec.ActiveAxes(), (std::vector<std::string>{"estimator"}));
  auto cells = spec.Expand();
  ASSERT_TRUE(cells.ok()) << cells.status().ToString();
  ASSERT_EQ(cells->size(), 2u);
  // Coordinates carry the canonical spec form, whatever spacing came in.
  EXPECT_EQ((*cells)[1].coords[0],
            (std::pair<std::string, std::string>{
                "estimator", "availability-weighted{exponent=2}"}));
  EXPECT_EQ((*cells)[1].scenario.options.estimator.name,
            "availability-weighted");
  // All cells share the seed: common random numbers across the axis.
  EXPECT_EQ((*cells)[0].scenario.seed, (*cells)[1].scenario.seed);

  spec.estimators = {"no-such-estimator"};
  util::Status bad = spec.Validate();
  EXPECT_TRUE(bad.IsInvalidArgument());
  EXPECT_NE(bad.message().find("no-such-estimator"), std::string::npos);
  EXPECT_FALSE(spec.Expand().ok());

  spec.estimators = {"pareto-residual{shape=999}"};
  bad = spec.Validate();
  EXPECT_TRUE(bad.IsInvalidArgument());
  EXPECT_NE(bad.message().find("shape"), std::string::npos);
}

TEST(RunnerTest, DefaultEstimatorSpecsMatchLegacyAgePath) {
  // The pre-estimator protocol sorted candidates by raw, unsaturated age.
  // Lock the default against that ordering with a test-registered raw-age
  // estimator (score = age, no horizon): in a run whose ages exceed the
  // saturation horizon it reproduces the legacy sort key exactly, so the
  // bare `age-rank` default, an explicit horizon, an exponent-0
  // availability weighting, and the raw legacy key must all produce the
  // same simulation block for block.
  if (core::EstimatorRegistry::Find("test-raw-age") == nullptr) {
    core::EstimatorDescriptor d;
    d.name = "test-raw-age";
    d.summary = "legacy sort key: score = raw age, unsaturated";
    d.make = [](const core::ResolvedParams&, const core::StrategyEnv&) {
      class RawAge : public core::LifetimeEstimator {
       public:
        double StabilityScore(const core::PeerObservation& obs) const override {
          return static_cast<double>(obs.age);
        }
        double ExpectedResidualRounds(
            const core::PeerObservation& obs) const override {
          return static_cast<double>(obs.age);
        }
        std::string name() const override { return "test-raw-age"; }
      };
      return std::unique_ptr<core::LifetimeEstimator>(new RawAge());
    };
    core::EstimatorRegistry::Register(std::move(d));
  }

  SweepSpec base;
  base.base.peers = 120;
  base.base.rounds = 400;
  base.base.seed = 7;
  // Saturate well inside the run: rounds 120..400 exercise the region
  // where min(age, horizon) ties and the raw key does not.
  base.base.options.acceptance_horizon = 120;
  auto baseline = RunSweep(base, RunnerOptions{});
  ASSERT_TRUE(baseline.ok());
  const SweepReport baseline_report = SweepReport::Build(base, *baseline);
  ASSERT_EQ(baseline_report.cells().size(), 1u);

  SweepSpec specced = base;
  specced.estimators = {"age-rank", "age-rank{horizon=120}",
                        "availability-weighted{exponent=0}", "test-raw-age"};
  auto results = RunSweep(specced, RunnerOptions{});
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  const SweepReport report = SweepReport::Build(specced, *results);
  ASSERT_EQ(report.cells().size(), 4u);

  const CellRow& reference = baseline_report.cells()[0];
  for (const CellRow& cell : report.cells()) {
    SCOPED_TRACE(cell.coords[0].second);
    ExpectSameDefaultMetrics(cell, reference);
  }
}

// Test wrappers that delegate to a built-in strategy but keep the base
// class's declarations: ReadsMonitor() and ReadsLossRate() stay true, so
// the network drives them down the monitor, score-memo and loss-rate paths
// that the built-in itself skips.
class MonitorPathEstimator : public core::LifetimeEstimator {
 public:
  explicit MonitorPathEstimator(std::unique_ptr<core::LifetimeEstimator> inner)
      : inner_(std::move(inner)) {}
  double StabilityScore(const core::PeerObservation& obs) const override {
    return inner_->StabilityScore(obs);
  }
  double ExpectedResidualRounds(
      const core::PeerObservation& obs) const override {
    return inner_->ExpectedResidualRounds(obs);
  }
  void ObserveDeparture(sim::Round age_at_departure) override {
    inner_->ObserveDeparture(age_at_departure);
  }
  std::string name() const override { return "test-monitor-" + inner_->name(); }

 private:
  std::unique_ptr<core::LifetimeEstimator> inner_;
};

class LossRatePathPolicy : public core::MaintenancePolicy {
 public:
  explicit LossRatePathPolicy(std::unique_ptr<core::MaintenancePolicy> inner)
      : inner_(std::move(inner)) {}
  core::MaintenanceDecision Evaluate(
      const core::MaintenanceContext& ctx) const override {
    return inner_->Evaluate(ctx);
  }
  int FlagLevel(int k, int n) const override { return inner_->FlagLevel(k, n); }
  std::string name() const override { return "test-loss-" + inner_->name(); }

 private:
  std::unique_ptr<core::MaintenancePolicy> inner_;
};

// Draws d candidates without replacement with probability proportional to
// score + 1. The built-in selections read scores only through their order
// (and raw ages), and every age-only estimator orders candidates like their
// age, so none of them could tell a wrong fast-path score from the right
// one; this selection reads the values themselves.
class ScoreWeightedSelection : public core::SelectionStrategy {
 public:
  void Choose(std::vector<core::Candidate>* pool, int d, util::Rng* rng,
              std::vector<uint32_t>* out) const override {
    size_t live = pool->size();
    const size_t take =
        std::min<size_t>(static_cast<size_t>(std::max(d, 0)), live);
    for (size_t pick = 0; pick < take; ++pick) {
      double total = 0.0;
      for (size_t i = 0; i < live; ++i) total += (*pool)[i].score + 1.0;
      const double r = rng->UniformDouble(0.0, total);
      size_t chosen = live - 1;
      double acc = 0.0;
      for (size_t i = 0; i < live; ++i) {
        acc += (*pool)[i].score + 1.0;
        if (r < acc) {
          chosen = i;
          break;
        }
      }
      out->push_back((*pool)[chosen].id);
      std::swap((*pool)[chosen], (*pool)[--live]);
    }
  }
  std::string name() const override { return "test-score-weighted"; }
};

// Registers "test-monitor-<name>" wrapping the bare built-in `name`; the
// inner instance resolves its contextual defaults against the same env.
void RegisterMonitorPathEstimator(const std::string& name) {
  if (core::EstimatorRegistry::Find("test-monitor-" + name) != nullptr) return;
  core::EstimatorDescriptor d;
  d.name = "test-monitor-" + name;
  d.summary = "bare " + name + " scored through the monitor path";
  d.make = [name](const core::ResolvedParams&, const core::StrategyEnv& env) {
    core::EstimatorSpec spec;
    spec.name = name;
    auto inner = core::EstimatorRegistry::Make(spec, env);
    EXPECT_TRUE(inner.ok());
    return std::unique_ptr<core::LifetimeEstimator>(
        new MonitorPathEstimator(std::move(*inner)));
  };
  core::EstimatorRegistry::Register(std::move(d));
}

void RegisterLossRatePathPolicy(const std::string& name) {
  if (core::PolicyRegistry::Find("test-loss-" + name) != nullptr) return;
  core::PolicyDescriptor d;
  d.name = "test-loss-" + name;
  d.summary = "bare " + name + " fed the loss-rate average";
  d.make = [name](const core::ResolvedParams&, const core::StrategyEnv& env) {
    core::PolicySpec spec;
    spec.name = name;
    auto inner = core::PolicyRegistry::Make(spec, env);
    EXPECT_TRUE(inner.ok());
    return std::unique_ptr<core::MaintenancePolicy>(
        new LossRatePathPolicy(std::move(*inner)));
  };
  core::PolicyRegistry::Register(std::move(d));
}

// A world where both fast paths have something to get wrong: departures
// occur (so empirical-residual has learned a histogram), ages pass the
// 10-day horizon (so age-rank and the empirical tie-break saturate), and
// repairs run under the policy.
SweepSpec FastPathWorld() {
  SweepSpec spec;
  spec.base = GoldenWorld("sweep_small_world.scenario");
  spec.base.options.acceptance_horizon = 10 * sim::kRoundsPerDay;
  return spec;
}

TEST(RunnerTest, AgeOnlyEstimatorsMatchTheirMonitorPath) {
  // Scoring an age-only estimator from the draw loop's candidate age must
  // be indistinguishable from scoring it through the monitor and the
  // per-round memo: each bare spec and its monitor-path wrapper produce
  // identical cells, under a selection that reads the score values.
  if (core::SelectionRegistry::Find("test-score-weighted") == nullptr) {
    core::SelectionDescriptor d;
    d.name = "test-score-weighted";
    d.summary = "draw hosts with probability ~ score + 1";
    d.make = [](const core::ResolvedParams&, const core::StrategyEnv&) {
      return std::unique_ptr<core::SelectionStrategy>(
          new ScoreWeightedSelection());
    };
    core::SelectionRegistry::Register(std::move(d));
  }
  const std::vector<std::string> bare = {"age-rank", "pareto-residual",
                                         "empirical-residual"};
  SweepSpec spec = FastPathWorld();
  spec.base.options.selection =
      *core::SelectionSpec::Parse("test-score-weighted");
  for (const std::string& name : bare) {
    core::EstimatorSpec probe;
    probe.name = name;
    ASSERT_FALSE((*core::EstimatorRegistry::Make(probe, {}))->ReadsMonitor()) << name;
    RegisterMonitorPathEstimator(name);
    spec.estimators.push_back(name);
    spec.estimators.push_back("test-monitor-" + name);
  }
  auto results = RunSweep(spec, RunnerOptions{});
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  const SweepReport report = SweepReport::Build(spec, *results);
  ASSERT_EQ(report.cells().size(), 2 * bare.size());
  EXPECT_GT(report.cells()[0].report.Count("departures"), 0);
  EXPECT_GT(report.cells()[0].report.Count("repairs"), 0);
  for (size_t i = 0; i < bare.size(); ++i) {
    SCOPED_TRACE(bare[i]);
    ExpectSameDefaultMetrics(report.cells()[2 * i + 1], report.cells()[2 * i]);
  }
}

TEST(RunnerTest, LossBlindPoliciesMatchTheirLossRatePath) {
  // Skipping the loss-rate average for a policy that never reads it must
  // change nothing: each bare spec and its wrapper, which keeps the average
  // fed and passes it to Evaluate, produce identical cells.
  const std::vector<std::string> bare = {"fixed-threshold", "proactive"};
  SweepSpec spec = FastPathWorld();
  for (const std::string& name : bare) {
    core::PolicySpec probe;
    probe.name = name;
    ASSERT_FALSE((*core::PolicyRegistry::Make(probe, {}))->ReadsLossRate()) << name;
    RegisterLossRatePathPolicy(name);
    spec.policies.push_back(name);
    spec.policies.push_back("test-loss-" + name);
  }
  auto results = RunSweep(spec, RunnerOptions{});
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  const SweepReport report = SweepReport::Build(spec, *results);
  ASSERT_EQ(report.cells().size(), 2 * bare.size());
  for (size_t i = 0; i < bare.size(); ++i) {
    SCOPED_TRACE(bare[i]);
    EXPECT_GT(report.cells()[2 * i].report.Count("repairs"), 0);
    ExpectSameDefaultMetrics(report.cells()[2 * i + 1], report.cells()[2 * i]);
  }
}

TEST(RunnerTest, EstimatorAxisIsThreadCountInvariant) {
  // The estimator axis must emit byte-identical CSV at 1 and 8 threads,
  // like every other axis - including the stateful empirical estimator
  // (its histogram is per-network, so scheduling cannot leak across cells).
  SweepSpec spec;
  spec.base.peers = 120;
  spec.base.rounds = 400;
  spec.base.seed = 17;
  spec.estimators = {"age-rank", "pareto-residual", "empirical-residual",
                     "availability-weighted{exponent=2}"};

  std::string csv[2];
  const int thread_counts[2] = {1, 8};
  for (int i = 0; i < 2; ++i) {
    RunnerOptions ropts;
    ropts.threads = thread_counts[i];
    auto results = RunSweep(spec, ropts);
    ASSERT_TRUE(results.ok()) << results.status().ToString();
    ASSERT_EQ(results->size(), 4u);
    const SweepReport report = SweepReport::Build(spec, *results);
    std::ostringstream os;
    report.WriteCellsCsv(os);
    csv[i] = os.str();
  }
  EXPECT_EQ(csv[0], csv[1]);
  EXPECT_NE(csv[0].find("estimator"), std::string::npos);
  EXPECT_NE(csv[0].find("empirical-residual"), std::string::npos);
  EXPECT_NE(csv[0].find("availability-weighted{exponent=2}"),
            std::string::npos);
}

TEST(RunnerTest, LinkAxisIsThreadCountInvariant) {
  // The link-profile axis runs every cell with the transfer scheduler
  // enabled; the scheduler consumes no randomness and processes jobs in
  // enqueue order, so the axis must emit byte-identical CSV at 1 and 8
  // threads like every other axis. 300 peers so initial placements can
  // actually complete (n = 256 partners) and the transfer probes carry
  // real values.
  SweepSpec spec;
  spec.base.peers = 300;
  spec.base.rounds = 400;
  spec.base.seed = 17;
  spec.links = {"dsl-2009", "dsl-modern", "ftth"};
  spec.metrics = {"repairs", "losses", "time_to_backup_mean",
                  "time_to_restore_p99", "uplink_utilization",
                  "data_loss_window"};

  std::string csv[2];
  const int thread_counts[2] = {1, 8};
  for (int i = 0; i < 2; ++i) {
    RunnerOptions ropts;
    ropts.threads = thread_counts[i];
    auto results = RunSweep(spec, ropts);
    ASSERT_TRUE(results.ok()) << results.status().ToString();
    ASSERT_EQ(results->size(), 3u);
    const SweepReport report = SweepReport::Build(spec, *results);
    std::ostringstream os;
    report.WriteCellsCsv(os);
    csv[i] = os.str();
  }
  EXPECT_EQ(csv[0], csv[1]);
  EXPECT_NE(csv[0].find("link"), std::string::npos);
  EXPECT_NE(csv[0].find("dsl-2009"), std::string::npos);
  EXPECT_NE(csv[0].find("ftth"), std::string::npos);
  EXPECT_NE(csv[0].find("time_to_restore_p99"), std::string::npos);
  EXPECT_NE(csv[0].find("uplink_utilization"), std::string::npos);
}

TEST(RunnerTest, LinkAxisCellsValidate) {
  // An unknown link name must fail at expansion with an error naming the
  // registry, not abort mid-run.
  SweepSpec spec;
  spec.base.peers = 64;
  spec.base.rounds = 10;
  spec.links = {"dsl-2009", "isdn-1999"};
  const auto st = spec.Validate();
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("isdn-1999"), std::string::npos);
}

TEST(RunnerTest, DefaultSpecsMatchHistoricalEnumPaths) {
  // The pre-redesign enum path instantiated FixedThresholdPolicy at
  // options.repair_threshold and OldestFirstSelection. The spec-backed
  // equivalents - default-constructed specs, a bare name, and the fully
  // explicit `fixed-threshold{threshold=148}` - must all produce
  // byte-identical metrics (same simulation, block for block).
  SweepSpec base;
  base.base.peers = 120;
  base.base.rounds = 400;
  base.base.seed = 7;
  auto baseline = RunSweep(base, RunnerOptions{});
  ASSERT_TRUE(baseline.ok());
  const SweepReport baseline_report = SweepReport::Build(base, *baseline);
  ASSERT_EQ(baseline_report.cells().size(), 1u);

  SweepSpec specced = base;
  specced.policies = {"fixed-threshold{threshold=148}", "fixed-threshold"};
  specced.selections = {"oldest-first"};
  auto results = RunSweep(specced, RunnerOptions{});
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  const SweepReport report = SweepReport::Build(specced, *results);
  ASSERT_EQ(report.cells().size(), 2u);

  const CellRow& reference = baseline_report.cells()[0];
  for (const CellRow& cell : report.cells()) {
    SCOPED_TRACE(cell.coords[0].second);
    ExpectSameDefaultMetrics(cell, reference);
  }
}

TEST(RunnerTest, StrategyAxesAreThreadCountInvariant) {
  // The spec-string policy/selection axes must emit byte-identical CSV at
  // 1 and 8 threads, like every other axis (CRN: all cells share the seed).
  SweepSpec spec;
  spec.base.peers = 120;
  spec.base.rounds = 400;
  spec.base.seed = 13;
  spec.policies = {"fixed-threshold", "adaptive-redundancy{safety_factor=4}",
                   "proactive{batch_blocks=4}"};
  spec.selections = {"oldest-first", "weighted-random{age_exponent=2}"};

  std::string csv[2];
  const int thread_counts[2] = {1, 8};
  for (int i = 0; i < 2; ++i) {
    RunnerOptions ropts;
    ropts.threads = thread_counts[i];
    auto results = RunSweep(spec, ropts);
    ASSERT_TRUE(results.ok()) << results.status().ToString();
    ASSERT_EQ(results->size(), 6u);
    const SweepReport report = SweepReport::Build(spec, *results);
    std::ostringstream os;
    report.WriteCellsCsv(os);
    csv[i] = os.str();
  }
  EXPECT_EQ(csv[0], csv[1]);
  // Spec strings with commas survive the CSV (quoted), canonical form.
  EXPECT_NE(csv[0].find("adaptive-redundancy{safety_factor=4}"),
            std::string::npos);
  EXPECT_NE(csv[0].find("weighted-random{age_exponent=2}"),
            std::string::npos);
}

TEST(ReportTest, AggregatesGroupReplicates) {
  const SweepSpec spec = SmallSpec();
  auto results = RunSweep(spec, RunnerOptions{});
  ASSERT_TRUE(results.ok());
  const SweepReport report = SweepReport::Build(spec, *results);

  ASSERT_EQ(report.cells().size(), 4u);
  ASSERT_EQ(report.aggregates().size(), 2u);
  for (const AggregateRow& agg : report.aggregates()) {
    EXPECT_EQ(agg.replicates, 2);
    // "rep" is folded into the aggregate, the swept axis is kept.
    ASSERT_EQ(agg.coords.size(), 1u);
    EXPECT_EQ(agg.coords[0].first, "threshold");
    // The aggregated metrics are the moments-aggregated subset of the
    // default selection, in selection order.
    ASSERT_EQ(agg.metrics.size(), 4u);
    EXPECT_EQ(agg.metrics[0].descriptor->name, "repairs");
    EXPECT_EQ(agg.metrics[1].descriptor->name, "losses");
    EXPECT_EQ(agg.metrics[2].descriptor->name, "repairs_1k_day");
    EXPECT_EQ(agg.metrics[3].descriptor->name, "losses_1k_day");
  }
  // The aggregate mean of a 2-replicate group is the mean of its two cells.
  const auto& cells = report.cells();
  const auto& agg0 = report.aggregates()[0];
  EXPECT_DOUBLE_EQ(agg0.metrics[0].scalar.mean,
                   (static_cast<double>(cells[0].report.Count("repairs")) +
                    static_cast<double>(cells[1].report.Count("repairs"))) /
                       2.0);
}

// --------------------------------------------- registry-backed metrics API

TEST(ReportTest, DefaultMetricEmittersMatchPreRegistryGoldens) {
  // Acceptance: the default-selection CSV/JSON emitters are byte-identical
  // to the pre-registry hand-written emitters, whose output on this exact
  // grid is committed under tests/golden/. The peer-table grid pins the
  // simulation paths that grid never runs, and the two transfer grids pin
  // the transfer scheduler under both visibility models. On mismatch the
  // actual bytes are written next to the test binary for diffing (CI
  // uploads them).
  const SweepSpec spec = GoldenSpec();
  auto results = RunSweep(spec, RunnerOptions{});
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  const SweepReport report = SweepReport::Build(spec, *results);
  const SweepSpec peer_spec = PeerTableSpec();
  auto peer_results = RunSweep(peer_spec, RunnerOptions{});
  ASSERT_TRUE(peer_results.ok()) << peer_results.status().ToString();
  const SweepReport peer_report = SweepReport::Build(peer_spec, *peer_results);
  // Written by sweep_demo --links=dsl-2009 (scripts/regen_goldens.sh).
  const auto transfer_csv = [](const std::string& world) {
    const SweepSpec spec = TransferSpec(world);
    auto results = RunSweep(spec, RunnerOptions{});
    EXPECT_TRUE(results.ok()) << results.status().ToString();
    std::ostringstream os;
    if (results.ok()) SweepReport::Build(spec, *results).WriteCellsCsv(os);
    return os.str();
  };

  const std::string golden_dir = std::string(P2P_SOURCE_DIR) + "/tests/golden/";
  const struct {
    const char* golden;
    const char* actual;
    std::string bytes;
  } cases[] = {
      {"sweep_default_cells.csv", "sweep_default_cells.actual.csv",
       [&] {
         std::ostringstream os;
         report.WriteCellsCsv(os);
         return os.str();
       }()},
      {"sweep_default_aggregate.csv", "sweep_default_aggregate.actual.csv",
       [&] {
         std::ostringstream os;
         report.WriteAggregateCsv(os);
         return os.str();
       }()},
      {"sweep_default.json", "sweep_default.actual.json",
       [&] {
         std::ostringstream os;
         report.WriteJson(os);
         return os.str();
       }()},
      {"peer_table_cells.csv", "peer_table_cells.actual.csv",
       [&] {
         std::ostringstream os;
         peer_report.WriteCellsCsv(os);
         return os.str();
       }()},
      {"transfer_small_cells.csv", "transfer_small_cells.actual.csv",
       transfer_csv("sweep_small_world.scenario")},
      {"transfer_peer_table_cells.csv", "transfer_peer_table_cells.actual.csv",
       transfer_csv("peer_table_world.scenario")},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.golden);
    const std::string expected = ReadFileOrDie(golden_dir + c.golden);
    if (c.bytes != expected) {
      std::ofstream out(c.actual);
      out << c.bytes;
    }
    EXPECT_EQ(c.bytes, expected);
  }
}

TEST(SweepSpecTest, RejectsUnknownAndDuplicateMetricNames) {
  SweepSpec spec;
  spec.base.peers = 120;
  spec.base.rounds = 400;
  spec.metrics = {"repairs", "psychic-rate"};
  util::Status bad = spec.Validate();
  EXPECT_TRUE(bad.IsInvalidArgument());
  EXPECT_NE(bad.message().find("psychic-rate"), std::string::npos);
  EXPECT_FALSE(spec.Expand().ok());

  spec.metrics = {"repairs", "repairs"};
  bad = spec.Validate();
  EXPECT_TRUE(bad.IsInvalidArgument());
  EXPECT_NE(bad.message().find("duplicate"), std::string::npos);
}

TEST(ReportTest, MetricSelectionDerivesColumnsFromRegistry) {
  // Acceptance: a non-default metrics= selection produces registry-derived
  // columns - including the probes the closed structs blocked (repair
  // bandwidth, time-to-repair) - without touching the simulation.
  SweepSpec spec = GoldenSpec();
  spec.metrics = {"repairs",           "repair_bandwidth",
                  "time_to_repair_mean", "time_to_repair_p99",
                  "partnership_lifetime_mean", "vulnerability_rounds"};
  ASSERT_TRUE(spec.Validate().ok()) << spec.Validate().ToString();
  auto results = RunSweep(spec, RunnerOptions{});
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  const SweepReport report = SweepReport::Build(spec, *results);

  std::ostringstream cells_os;
  report.WriteCellsCsv(cells_os);
  const std::string csv = cells_os.str();
  EXPECT_EQ(csv.substr(0, csv.find('\n')),
            "cell,seed,threshold,rep,repairs,repair_bandwidth,"
            "time_to_repair_mean,time_to_repair_p99,"
            "partnership_lifetime_mean,vulnerability_rounds");

  // The new probes carry real signal on this world.
  for (const CellRow& cell : report.cells()) {
    EXPECT_GT(cell.report.Scalar("repair_bandwidth"), 0.0);
    EXPECT_GT(cell.report.Scalar("time_to_repair_mean"), 0.0);
    EXPECT_GE(cell.report.Scalar("time_to_repair_p99"),
              cell.report.Scalar("time_to_repair_mean"));
    EXPECT_GT(cell.report.Scalar("partnership_lifetime_mean"), 0.0);
    EXPECT_GT(cell.report.Count("vulnerability_rounds"), 0);
    // Rows carry scalars only; the trajectories stay on the outcome.
    EXPECT_EQ(cell.report.FindSeries("repair_bandwidth"), nullptr);
  }
  for (const CellResult& r : *results) {
    const metrics::TimeSeries* series =
        r.outcome.report.FindSeries("repair_bandwidth");
    ASSERT_NE(series, nullptr);
    EXPECT_FALSE(series->samples().empty());
  }

  // Selected scalar moments reach the aggregate table.
  std::ostringstream agg_os;
  report.WriteAggregateCsv(agg_os);
  EXPECT_NE(agg_os.str().find("repair_bandwidth_mean"), std::string::npos);
  EXPECT_NE(agg_os.str().find("vulnerability_rounds_sd"), std::string::npos);
}

TEST(ReportTest, MetricSelectionIsThreadCountInvariant) {
  // Acceptance: the registry-derived columns are byte-identical at 1 and 8
  // threads, like every report before them.
  SweepSpec spec = GoldenSpec();
  spec.metrics = {"repairs", "losses", "repair_bandwidth",
                  "time_to_repair_mean", "time_to_repair_p99"};

  std::string csv[2];
  const int thread_counts[2] = {1, 8};
  for (int i = 0; i < 2; ++i) {
    RunnerOptions ropts;
    ropts.threads = thread_counts[i];
    auto results = RunSweep(spec, ropts);
    ASSERT_TRUE(results.ok()) << results.status().ToString();
    const SweepReport report = SweepReport::Build(spec, *results);
    std::ostringstream os;
    report.WriteCellsCsv(os);
    report.WriteJson(os);
    csv[i] = os.str();
  }
  EXPECT_EQ(csv[0], csv[1]);
  EXPECT_NE(csv[0].find("repair_bandwidth"), std::string::npos);
}

TEST(ReportTest, SingleReplicateGroupsEmitZeroStddev) {
  // Moments edge case: one replicate per grid point must report stddev 0
  // (sample stddev of n=1 is undefined; NaN would poison the CSV).
  SweepSpec spec = GoldenSpec();
  spec.replicates = 1;
  auto results = RunSweep(spec, RunnerOptions{});
  ASSERT_TRUE(results.ok());
  const SweepReport report = SweepReport::Build(spec, *results);
  ASSERT_EQ(report.aggregates().size(), 2u);
  for (const AggregateRow& agg : report.aggregates()) {
    EXPECT_EQ(agg.replicates, 1);
    for (const MetricMoments& mm : agg.metrics) {
      SCOPED_TRACE(mm.descriptor->name);
      if (mm.descriptor->per_category) {
        for (const Moments& m : mm.per_category) {
          EXPECT_EQ(m.stddev, 0.0);
          EXPECT_FALSE(std::isnan(m.stddev));
        }
      } else {
        EXPECT_EQ(mm.scalar.stddev, 0.0);
        EXPECT_FALSE(std::isnan(mm.scalar.stddev));
      }
    }
  }
  // And the rendered aggregate carries "0.000000", not "nan".
  std::ostringstream os;
  report.WriteAggregateCsv(os);
  EXPECT_EQ(os.str().find("nan"), std::string::npos);
}

TEST(ReportTest, AggregatesAreInvariantToCellCompletionOrder) {
  // Moments edge case: however the runner delivers results, the aggregate
  // rows (floating-point accumulation included) must not change - Build
  // re-sorts each group by cell index.
  const SweepSpec spec = GoldenSpec();
  auto results = RunSweep(spec, RunnerOptions{});
  ASSERT_TRUE(results.ok());
  const SweepReport ordered = SweepReport::Build(spec, *results);

  std::vector<CellResult> shuffled = *results;
  std::mt19937 gen(99);
  for (int trial = 0; trial < 5; ++trial) {
    std::shuffle(shuffled.begin(), shuffled.end(), gen);
    const SweepReport report = SweepReport::Build(spec, shuffled);
    std::ostringstream a, b;
    ordered.WriteAggregateCsv(a);
    report.WriteAggregateCsv(b);
    EXPECT_EQ(a.str(), b.str());
  }
}

}  // namespace
}  // namespace sweep
}  // namespace p2p
