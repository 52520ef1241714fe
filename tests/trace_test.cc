// Tests for the host-runtime tracing subsystem (src/trace/): session
// mechanics (spans, nesting, counters, retention), the sinks, and the two
// load-bearing integration guarantees:
//
//  * Structure determinism: the span *structure* of a traced sweep -
//    names, relative depths, counts; never timing - is identical whether
//    1 or 8 threads executed the grid (runner-category spans excluded,
//    they legitimately scale with the thread count).
//  * Collector consistency: the trace counters and the metrics collector
//    observe the same simulation - on a fixed-seed run the
//    "repair/episodes" counter equals the report's "repairs" scalar, and
//    tracing a run changes none of its results.

#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/strategy_spec.h"
#include "scenario/registry.h"
#include "scenario/scenario.h"
#include "sweep/runner.h"
#include "sweep/spec.h"
#include "trace/sinks.h"
#include "trace/trace.h"

namespace p2p {
namespace trace {
namespace {

// Loads the small-geometry golden world (shared with the sweep tests).
scenario::Scenario SmallWorld() {
  auto world = scenario::LoadScenario(
      std::string(P2P_SOURCE_DIR) + "/tests/golden/sweep_small_world.scenario");
  EXPECT_TRUE(world.ok()) << world.status().ToString();
  return *world;
}

const PhaseStat* FindPhase(const std::vector<PhaseStat>& phases,
                           const std::string& name) {
  for (const auto& p : phases) {
    if (p.name == name) return &p;
  }
  return nullptr;
}
// The pointer aims into `phases`; a temporary (e.g. session.PhaseStats()
// passed inline) dies at the end of the full expression and leaves it
// dangling. Deleting the rvalue overload forces callers to materialize.
const PhaseStat* FindPhase(std::vector<PhaseStat>&&,
                           const std::string&) = delete;

int64_t CounterValue(const TraceSession& session, const std::string& name) {
  for (const auto& c : session.CounterStats()) {
    if (c.name == name) return c.value;
  }
  return -1;
}

TEST(TraceSessionTest, DisabledByDefault) {
  ASSERT_EQ(TraceSession::Current(), nullptr);
  // The macros must be safe no-ops without a session.
  TRACE_SCOPE("test/noop");
  TRACE_COUNTER("test/noop_counter", 1);
  ASSERT_EQ(TraceSession::Current(), nullptr);
}

TEST(TraceSessionTest, RecordsNestedSpansWithDepth) {
  TraceSession session;
  session.Install();
  ASSERT_EQ(TraceSession::Current(), &session);
  {
    TRACE_SCOPE("test/outer");
    {
      TRACE_SCOPE("test/inner");
    }
    {
      TRACE_SCOPE("test/inner");
    }
  }
  TraceSession::Uninstall();
  ASSERT_EQ(TraceSession::Current(), nullptr);

  const std::vector<Span> spans = session.SortedSpans();
  ASSERT_EQ(spans.size(), 3u);
  // Sorted by start time: outer first, then the two inners.
  EXPECT_STREQ(spans[0].name, "test/outer");
  EXPECT_EQ(spans[0].depth, 0u);
  EXPECT_STREQ(spans[1].name, "test/inner");
  EXPECT_EQ(spans[1].depth, 1u);
  EXPECT_EQ(spans[2].depth, 1u);
  // The inner spans are contained in the outer one.
  EXPECT_GE(spans[1].start_ns, spans[0].start_ns);
  EXPECT_LE(spans[1].start_ns + spans[1].dur_ns,
            spans[0].start_ns + spans[0].dur_ns);

  const std::vector<PhaseStat> phases = session.PhaseStats();
  const PhaseStat* inner = FindPhase(phases, "test/inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->count, 2);
  EXPECT_GE(inner->max_ns, 0u);
  const PhaseStat* outer = FindPhase(phases, "test/outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_GE(outer->total_ns, inner->total_ns);
}

TEST(TraceSessionTest, CountersSumAcrossThreads) {
  TraceSession session;
  session.Install();
  TRACE_COUNTER("test/events", 2);
  std::thread other([] {
    for (int i = 0; i < 5; ++i) TRACE_COUNTER("test/events", 1);
  });
  other.join();
  TraceSession::Uninstall();

  EXPECT_EQ(CounterValue(session, "test/events"), 7);
  EXPECT_EQ(session.thread_count(), 2u);
}

TEST(TraceSessionTest, NamedCountersMergeWithMacroCounters) {
  TraceSession session;
  session.Install();
  TRACE_COUNTER("test/merged", 1);
  session.AddNamedCounter("test/merged", 10);
  session.AddNamedCounter("test/only_named", 3);
  TraceSession::Uninstall();

  EXPECT_EQ(CounterValue(session, "test/merged"), 11);
  EXPECT_EQ(CounterValue(session, "test/only_named"), 3);
}

TEST(TraceSessionTest, RetentionCapDropsSpansButKeepsAggregatesExact) {
  TraceSession::Options options;
  options.max_spans_per_thread = 4;
  TraceSession session(options);
  session.Install();
  for (int i = 0; i < 10; ++i) {
    TRACE_SCOPE("test/capped");
  }
  TraceSession::Uninstall();

  EXPECT_EQ(session.SortedSpans().size(), 4u);
  EXPECT_EQ(session.dropped_spans(), 6);
  const std::vector<PhaseStat> phases = session.PhaseStats();
  const PhaseStat* phase = FindPhase(phases, "test/capped");
  ASSERT_NE(phase, nullptr);
  EXPECT_EQ(phase->count, 10);  // aggregates never drop

  const std::vector<std::string> sig = session.StructureSignature();
  ASSERT_EQ(sig.size(), 1u);
  EXPECT_EQ(sig[0], "sim/test/capped depth=0 count=10");
}

TEST(TraceSessionTest, AggregatesOnlyModeRetainsNoSpans) {
  TraceSession::Options options;
  options.max_spans_per_thread = 0;
  TraceSession session(options);
  session.Install();
  {
    TRACE_SCOPE("test/agg_only");
  }
  TraceSession::Uninstall();

  EXPECT_TRUE(session.SortedSpans().empty());
  EXPECT_EQ(session.dropped_spans(), 1);
  const std::vector<PhaseStat> phases = session.PhaseStats();
  const PhaseStat* phase = FindPhase(phases, "test/agg_only");
  ASSERT_NE(phase, nullptr);
  EXPECT_EQ(phase->count, 1);
}

TEST(TraceSessionTest, SequentialSessionsDoNotLeakThreadBuffers) {
  // The thread-local buffer cache is validated per session id; a second
  // session on the same thread must start empty.
  {
    TraceSession first;
    first.Install();
    {
      TRACE_SCOPE("test/first");
    }
    TraceSession::Uninstall();
    EXPECT_EQ(first.SortedSpans().size(), 1u);
  }
  TraceSession second;
  second.Install();
  TRACE_COUNTER("test/second", 1);
  TraceSession::Uninstall();
  EXPECT_TRUE(second.SortedSpans().empty());
  EXPECT_EQ(CounterValue(second, "test/second"), 1);
}

TEST(TraceSessionTest, StructureSignatureExcludesCategory) {
  TraceSession session;
  session.Install();
  {
    TRACE_SCOPE_CAT("test/outer_runner", "runner");
    TRACE_SCOPE("test/sim_work");
  }
  TraceSession::Uninstall();

  const std::vector<std::string> all = session.StructureSignature();
  EXPECT_EQ(all.size(), 2u);
  const std::vector<std::string> sim_only =
      session.StructureSignature("runner");
  ASSERT_EQ(sim_only.size(), 1u);
  // Depth is relative to the category's own outermost span, not to the
  // enclosing runner scope.
  EXPECT_EQ(sim_only[0], "sim/test/sim_work depth=0 count=1");
}

TEST(TraceSinksTest, SummaryAndFileFormats) {
  TraceSession session;
  session.Install();
  {
    TRACE_SCOPE("test/phase_a");
    TRACE_SCOPE("test/phase_b");
  }
  TRACE_COUNTER("test/events", 3);
  TraceSession::Uninstall();

  std::ostringstream summary;
  WriteSummary(session, summary);
  EXPECT_NE(summary.str().find("test/phase_a"), std::string::npos);
  EXPECT_NE(summary.str().find("test/events"), std::string::npos);

  std::ostringstream jsonl;
  WriteJsonl(session, jsonl);
  // One line per span plus one per counter.
  int lines = 0;
  for (char c : jsonl.str()) lines += c == '\n';
  EXPECT_EQ(lines, 3);
  EXPECT_NE(jsonl.str().find("\"name\": \"test/phase_b\""),
            std::string::npos);

  std::ostringstream chrome;
  WriteChromeTrace(session, chrome);
  EXPECT_NE(chrome.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.str().find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(chrome.str().find("\"ph\": \"C\""), std::string::npos);

  // Extension dispatch: .jsonl selects JSONL, anything else Chrome format.
  const std::string dir = ::testing::TempDir();
  ASSERT_TRUE(WriteTraceFile(session, dir + "/trace_test_out.jsonl").ok());
  ASSERT_TRUE(WriteTraceFile(session, dir + "/trace_test_out.json").ok());
  EXPECT_FALSE(WriteTraceFile(session, "/nonexistent-dir/x.json").ok());
}

// The tentpole determinism guarantee: the simulation's span structure does
// not depend on the sweep runner's thread count.
TEST(TraceSweepTest, StructureDeterministicAcrossThreadCounts) {
  sweep::SweepSpec spec;
  spec.base = SmallWorld();
  spec.repair_thresholds = {20, 26};
  spec.replicates = 2;  // 4 cells

  auto run_traced = [&](int threads) {
    TraceSession session;
    session.Install();
    sweep::RunnerOptions options;
    options.threads = threads;
    auto results = sweep::RunSweep(spec, options);
    TraceSession::Uninstall();
    EXPECT_TRUE(results.ok());
    return session.StructureSignature(/*exclude_category=*/"runner");
  };

  const std::vector<std::string> one = run_traced(1);
  const std::vector<std::string> eight = run_traced(8);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, eight);
  // Spot-check the signature carries the simulation phases.
  bool has_round = false;
  for (const auto& line : one) {
    if (line.find("sim/round depth=") != std::string::npos) has_round = true;
  }
  EXPECT_TRUE(has_round);
}

// Consistency between the two observability layers: trace counters (host
// runtime) and the metrics collector (simulated quantities) must agree on
// what happened, and tracing must not perturb the simulation.
TEST(TraceSweepTest, RepairCounterMatchesCollectorAndRunIsUnperturbed) {
  // Pinned to an estimator that reads the monitor, so the flushed monitor
  // statistics below carry traffic (age-rank keeps no monitor; see
  // AgeOnlyEstimatorRunsNoScorePassAndNoMonitor).
  scenario::Scenario scenario = SmallWorld();
  scenario.options.estimator =
      *core::EstimatorSpec::Parse("availability-weighted{exponent=2}");

  const scenario::Outcome untraced = scenario::RunScenario(scenario);

  TraceSession session;
  session.Install();
  const scenario::Outcome traced = scenario::RunScenario(scenario);
  TraceSession::Uninstall();

  // Same simulation either way (tracing reads clocks, never RNG draws).
  EXPECT_EQ(traced.report.Count("repairs"), untraced.report.Count("repairs"));
  EXPECT_EQ(traced.report.Count("losses"), untraced.report.Count("losses"));
  EXPECT_EQ(traced.final_population, untraced.final_population);

  // The trace counter and the collector count the same episodes.
  EXPECT_EQ(CounterValue(session, "repair/episodes"),
            traced.report.Count("repairs"));

  // One "round" span per simulated round, one "scenario/run" per run.
  const std::vector<PhaseStat> phases = session.PhaseStats();
  const PhaseStat* round = FindPhase(phases, "round");
  ASSERT_NE(round, nullptr);
  EXPECT_EQ(round->count, scenario.rounds);
  const PhaseStat* run = FindPhase(phases, "scenario/run");
  ASSERT_NE(run, nullptr);
  EXPECT_EQ(run->count, 1);

  // The monitor's flushed query statistics reached the session.
  EXPECT_GT(CounterValue(session, "monitor/observe"), 0);
}

// The converse under the default age-rank, which reads only the age: pools
// are scored inside repair/pool, so no repair/score pass runs, the score
// memo never serves, and the monitor is never asked.
TEST(TraceSweepTest, AgeOnlyEstimatorRunsNoScorePassAndNoMonitor) {
  scenario::Scenario scenario = SmallWorld();
  ASSERT_EQ(scenario.options.estimator.name, "age-rank");

  TraceSession session;
  session.Install();
  const scenario::Outcome traced = scenario::RunScenario(scenario);
  TraceSession::Uninstall();

  EXPECT_GT(traced.report.Count("repairs"), 0);
  const std::vector<PhaseStat> phases = session.PhaseStats();
  EXPECT_NE(FindPhase(phases, "repair/pool"), nullptr);
  EXPECT_EQ(FindPhase(phases, "repair/score"), nullptr);
  EXPECT_GT(CounterValue(session, "repair/pool_accepted"), 0);
  EXPECT_EQ(CounterValue(session, "repair/score_evals"),
            CounterValue(session, "repair/pool_accepted"));
  EXPECT_EQ(CounterValue(session, "repair/score_memo_hits"), 0);
  EXPECT_EQ(CounterValue(session, "monitor/observe"), 0);
}

// Signature line of one simulation phase: "sim/<name> depth=D count=C".
// Returns false when the phase is absent.
bool FindSignature(const std::vector<std::string>& signature,
                   const std::string& name, int* depth, int64_t* count) {
  const std::string prefix = "sim/" + name + " depth=";
  for (const std::string& line : signature) {
    if (line.rfind(prefix, 0) != 0) continue;
    std::istringstream in(line.substr(prefix.size()));
    std::string count_field;
    in >> *depth >> count_field;
    *count = std::stoll(count_field.substr(count_field.find('=') + 1));
    return true;
  }
  return false;
}

bool SameDouble(double a, double b) {
  return a == b || (std::isnan(a) && std::isnan(b));
}

// A traced run must report exactly what the untraced run reports.
void ExpectSameOutcome(const scenario::Outcome& traced,
                       const scenario::Outcome& untraced) {
  const auto& a = traced.report.values();
  const auto& b = untraced.report.values();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    const std::string& name = a[i].descriptor->name;
    EXPECT_EQ(a[i].descriptor, b[i].descriptor) << name;
    EXPECT_TRUE(SameDouble(a[i].scalar, b[i].scalar)) << name;
    for (size_t c = 0; c < a[i].per_category.size(); ++c) {
      EXPECT_TRUE(SameDouble(a[i].per_category[c], b[i].per_category[c]))
          << name << " category " << c;
    }
  }
  EXPECT_EQ(traced.final_population, untraced.final_population);
}

// Every placing episode runs the selection ranking and the placement loop
// once each, directly under repair/place, so those two spans and
// repair/pool together name all of repair/place's work. Naming them
// changes nothing the simulation computes.
TEST(TraceSweepTest, PlaceChildrenRunOncePerPlacingEpisode) {
  scenario::Scenario scenario = SmallWorld();
  const scenario::Outcome untraced = scenario::RunScenario(scenario);

  TraceSession session;
  session.Install();
  const scenario::Outcome traced = scenario::RunScenario(scenario);
  TraceSession::Uninstall();

  const std::vector<std::string> signature = session.StructureSignature();
  int place_depth = 0;
  int64_t place_count = 0;
  ASSERT_TRUE(FindSignature(signature, "repair/place", &place_depth,
                            &place_count));
  EXPECT_GT(place_count, 0);
  for (const char* child : {"repair/choose", "repair/try_place"}) {
    int depth = 0;
    int64_t count = 0;
    ASSERT_TRUE(FindSignature(signature, child, &depth, &count)) << child;
    EXPECT_EQ(depth, place_depth + 1) << child;
    EXPECT_EQ(count, place_count) << child;
  }

  ExpectSameOutcome(traced, untraced);
}

// round/churn drains five calendar queues, each under its own child span,
// once per round whatever the queue holds, so the children name all of
// round/churn's work. Naming them changes nothing the simulation computes.
TEST(TraceSweepTest, ChurnChildrenRunOncePerRound) {
  scenario::Scenario scenario = SmallWorld();
  const scenario::Outcome untraced = scenario::RunScenario(scenario);

  TraceSession session;
  session.Install();
  const scenario::Outcome traced = scenario::RunScenario(scenario);
  TraceSession::Uninstall();

  const std::vector<std::string> signature = session.StructureSignature();
  int churn_depth = 0;
  int64_t churn_count = 0;
  ASSERT_TRUE(FindSignature(signature, "round/churn", &churn_depth,
                            &churn_count));
  EXPECT_EQ(churn_count, scenario.rounds);
  for (const char* child :
       {"churn/departures", "churn/toggles", "churn/timeouts",
        "churn/quota_releases", "churn/categories"}) {
    int depth = 0;
    int64_t count = 0;
    ASSERT_TRUE(FindSignature(signature, child, &depth, &count)) << child;
    EXPECT_EQ(depth, churn_depth + 1) << child;
    EXPECT_EQ(count, churn_count) << child;
  }

  ExpectSameOutcome(traced, untraced);
}

// With the quota at exactly n blocks per host, total capacity equals total
// demand, so hosts are full and placements displace younger clients through
// the quota market. Each displacement runs the eviction scan, which has its
// own span directly under the placement loop's; naming it changes nothing
// the simulation computes.
TEST(TraceSweepTest, EvictSpanNestsUnderTryPlaceOnFullQuotaWorld) {
  scenario::Scenario scenario = SmallWorld();
  scenario.options.quota_blocks = scenario.options.k + scenario.options.m;
  const scenario::Outcome untraced = scenario::RunScenario(scenario);

  TraceSession session;
  session.Install();
  const scenario::Outcome traced = scenario::RunScenario(scenario);
  TraceSession::Uninstall();

  const std::vector<std::string> signature = session.StructureSignature();
  int place_depth = 0, evict_depth = 0;
  int64_t place_count = 0, evict_count = 0;
  ASSERT_TRUE(FindSignature(signature, "repair/try_place", &place_depth,
                            &place_count));
  ASSERT_TRUE(FindSignature(signature, "repair/evict", &evict_depth,
                            &evict_count));
  EXPECT_EQ(evict_depth, place_depth + 1);
  EXPECT_GT(evict_count, 0);
  ExpectSameOutcome(traced, untraced);
}

}  // namespace
}  // namespace trace
}  // namespace p2p
