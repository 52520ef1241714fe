// End-to-end benchmark driver: runs one pinned workload through the
// simulator's public entry points and prints its metrics.
//
// Entry points: scenario::LoadScenarioFile and CompileWorkload load a world,
// the BackupNetwork constructor builds it, sim::Engine::Step advances it one
// round at a time, CheckInvariants and metrics().BuildReport check and report
// it, and sweep::RunSweep runs a grid. Every timing is taken here, never
// inside src/.
//
// Noise filter: a run executes R replicas of the same seeded world one after
// the other, each on a fresh Engine, ProfileSet and network, until --seconds
// have passed (R >= 3, so a slow host does fewer replicas, not a longer
// run). The simulation is deterministic, so chunk i of the post-setup rounds
// does identical work in every replica, and the window time is the sum over
// chunks of the fastest replica's chunk time. The raw per-replica totals are printed next
// to it. Set-up (compile, construction, the round-0 placement storm) is
// timed once per replica plus kExtraSetups times before each, and filtered
// the same way: setup_s is the fastest set-up, and for a grid the sum over
// its cells' worlds of each world's fastest set-up.
//
// Correctness: every replica and every sweep cell ends with CheckInvariants
// (which aborts on a violation), and every replica of a world must produce
// a byte-identical RunReport. Each world is one operation; a report that
// differs from the reference is a failed one.
//
// Output: informational JSON lines, then one result line
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// carrying the end-to-end metrics, or with --trace the per-layer metrics
// read from an aggregates-only trace::TraceSession.
//
//   e2e_driver --world=e2ebench/worlds/wave-dsl-10k.scn --seed=7
//       --seconds=55 --chunk=10 [--trace]
//       [--thresholds=132,148,164,180 --quotas=256,384 --threads=4]

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "backup/network.h"
#include "scenario/scenario.h"
#include "scenario/text.h"
#include "scenario/workload.h"
#include "sim/engine.h"
#include "sweep/runner.h"
#include "sweep/spec.h"
#include "trace/trace.h"
#include "util/flags.h"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif
#ifndef E2E_COMPILER
#define E2E_COMPILER "unknown"
#endif

namespace {

using namespace p2p;
using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::string world;
  int64_t seed = 1;
  double seconds = 20.0;
  int64_t chunk = 100;
  bool trace = false;
  // Sweep workloads only (empty axes = single world).
  std::string thresholds;
  std::string quotas;
  int threads = 4;
};

[[noreturn]] void Fail(const std::string& what) {
  std::fprintf(stderr, "e2e_driver: %s\n", what.c_str());
  std::exit(1);
}

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

constexpr int kMinReplicas = 3;
// Set-ups timed before each replica, on top of its own, so that setup_s is
// the fastest of many.
constexpr int kExtraSetups = 2;

// Whether to start another replica: at least kMinReplicas, then only while
// one more, at the mean pace so far, ends within the time budget.
bool MoreReplicas(const Options& opt, int done, Clock::time_point start) {
  if (done < kMinReplicas) return true;
  const double elapsed = Since(start);
  return elapsed + elapsed / done <= opt.seconds;
}

// Nearest-rank quantile, q in [0, 1].
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t i = static_cast<size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(i, v.size() - 1)];
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Min(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<int> ParseIntList(const std::string& text) {
  std::vector<int> out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find(',', pos);
    if (end == std::string::npos) end = text.size();
    const std::string token = text.substr(pos, end - pos);
    char* rest = nullptr;
    const long value = std::strtol(token.c_str(), &rest, 10);
    if (token.empty() || *rest != '\0') Fail("bad integer list: " + text);
    out.push_back(static_cast<int>(value));
    pos = end + 1;
  }
  return out;
}

std::string JsonList(const std::vector<double>& values) {
  std::string out = "[";
  char buf[32];
  for (size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.6f", i ? ", " : "", values[i]);
    out += buf;
  }
  return out + "]";
}

// ------------------------------------------------------- report identity

// Every scalar, per-category value and series sample of a report, at full
// precision, plus the final live population: two replicas agree on this
// text exactly when their reports are byte-identical.
std::string CanonicalReport(const metrics::RunReport& report, int64_t live) {
  std::string out;
  char buf[64];
  for (const metrics::MetricValue& v : report.values()) {
    out += v.descriptor->name;
    if (v.descriptor->per_category) {
      for (double x : v.per_category) {
        std::snprintf(buf, sizeof buf, " %.17g", x);
        out += buf;
      }
    } else {
      std::snprintf(buf, sizeof buf, " %.17g", v.scalar);
      out += buf;
    }
    out += '\n';
  }
  for (const metrics::MetricSeries& s : report.series()) {
    out += s.descriptor->name;
    for (const auto& [round, value] : s.series.samples()) {
      std::snprintf(buf, sizeof buf, " %" PRId64 ":%.17g",
                    static_cast<int64_t>(round), value);
      out += buf;
    }
    out += '\n';
  }
  std::snprintf(buf, sizeof buf, "live %" PRId64 "\n", live);
  return out + buf;
}

std::string Digest(const std::string& text) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a 64
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

// ---------------------------------------------------------- trace reading

// Phase totals and counters of a session at one instant; subtracting two
// snapshots of one session isolates a window of rounds.
struct TraceSnapshot {
  std::map<std::string, trace::PhaseStat> phases;
  std::map<std::string, int64_t> counters;

  static TraceSnapshot Take(const trace::TraceSession& session) {
    TraceSnapshot s;
    for (trace::PhaseStat& p : session.PhaseStats()) {
      s.phases[p.name] = std::move(p);
    }
    for (const trace::CounterStat& c : session.CounterStats()) {
      s.counters[c.name] = c.value;
    }
    return s;
  }

  TraceSnapshot Minus(const TraceSnapshot& earlier) const {
    TraceSnapshot d = *this;
    for (auto& [name, p] : d.phases) {
      auto it = earlier.phases.find(name);
      if (it == earlier.phases.end()) continue;
      p.count -= it->second.count;
      p.total_ns -= it->second.total_ns;
    }
    for (auto& [name, value] : d.counters) {
      auto it = earlier.counters.find(name);
      if (it != earlier.counters.end()) value -= it->second;
    }
    return d;
  }

  double Ms(const std::string& name) const {
    auto it = phases.find(name);
    return it == phases.end() ? 0.0 : static_cast<double>(it->second.total_ns) / 1e6;
  }
  double Calls(const std::string& name) const {
    auto it = phases.find(name);
    return it == phases.end() ? 0.0 : static_cast<double>(it->second.count);
  }
  double Counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0.0 : static_cast<double>(it->second);
  }
};

// ------------------------------------------------------------ one world

struct World {
  std::unique_ptr<churn::ProfileSet> profiles;
  std::unique_ptr<sim::Engine> engine;
  std::unique_ptr<backup::BackupNetwork> network;
};

scenario::Scenario LoadWorld(const Options& opt) {
  util::Result<scenario::Scenario> loaded =
      scenario::LoadScenarioFile(opt.world);
  if (!loaded.ok()) Fail(opt.world + ": " + loaded.status().ToString());
  scenario::Scenario s = std::move(*loaded);
  s.seed = static_cast<uint64_t>(opt.seed);
  return s;
}

// Compiles, builds and runs round 0 of a world: the set-up that setup_s
// times. The construction and the storm carry driver-side spans.
World SetUp(const scenario::Scenario& s, double* setup_s) {
  const Clock::time_point t0 = Clock::now();
  util::Result<churn::ProfileSet> profiles = s.population.Compile();
  if (!profiles.ok()) Fail("population: " + profiles.status().ToString());
  util::Result<std::vector<backup::PopulationAdjustment>> workload =
      scenario::CompileWorkload(s.workload, s.peers);
  if (!workload.ok()) Fail("workload: " + workload.status().ToString());
  World w;
  w.profiles = std::make_unique<churn::ProfileSet>(std::move(*profiles));
  sim::EngineOptions eopts;
  eopts.seed = s.seed;
  eopts.end_round = s.rounds;
  w.engine = std::make_unique<sim::Engine>(eopts);
  backup::SystemOptions options = s.options;
  options.num_peers = s.peers;
  {
    TRACE_SCOPE_CAT("bench/construct", "bench");
    w.network = std::make_unique<backup::BackupNetwork>(
        w.engine.get(), w.profiles.get(), options, std::move(*workload));
    for (const auto& [name, age] : s.observers) {
      w.network->AddObserver(name, age);
    }
  }
  {
    TRACE_SCOPE_CAT("bench/storm", "bench");
    if (!w.engine->Step()) Fail("world has no round 0");
  }
  *setup_s = Since(t0);
  return w;
}

// One replica: set-up, the chunked post-setup window, report and checks.
struct Replica {
  double setup_s = 0.0;
  std::vector<double> chunk_s;
  std::vector<double> step_s;
  double report_s = 0.0;
  double peer_rounds = 0.0;  // live peers summed over post-setup rounds
  std::string report;        // CanonicalReport
  // Traced replicas: the session over the post-setup window, with the
  // network's own always-on counters folded in under their trace names,
  // and the whole session at the end (for the driver-side spans).
  TraceSnapshot window;
  TraceSnapshot whole;
  double initial_episodes = 0.0;

  double window_s() const {
    double sum = 0.0;
    for (double c : chunk_s) sum += c;
    return sum;
  }
};

void FoldNetworkCounters(const backup::BackupNetwork& net,
                         const backup::BackupNetwork::PoolStats& pool0,
                         const monitor::AvailabilityMonitor::QueryStats& mon0,
                         TraceSnapshot* window) {
  const backup::BackupNetwork::PoolStats& pool = net.pool_stats();
  const monitor::AvailabilityMonitor::QueryStats& mon =
      net.monitor().query_stats();
  auto& c = window->counters;
  c["repair/pool_draws"] = pool.draws - pool0.draws;
  c["repair/pool_accepted"] = pool.accepted - pool0.accepted;
  c["repair/pool_reject_quota_full"] =
      pool.reject_quota_full - pool0.reject_quota_full;
  c["repair/pool_reject_acceptance"] =
      pool.reject_acceptance - pool0.reject_acceptance;
  c["repair/pool_index_exhausted"] =
      pool.index_exhausted - pool0.index_exhausted;
  c["repair/score_memo_hits"] = pool.score_memo_hits - pool0.score_memo_hits;
  c["repair/score_evals"] = pool.score_evals - pool0.score_evals;
  c["monitor/observe"] = mon.observe_calls - mon0.observe_calls;
  c["monitor/observe_memo_hits"] = mon.memo_hits - mon0.memo_hits;
  // Scheduler counters cover the whole run: the storm's initial uploads
  // are the queue's largest load.
  if (const transfer::TransferScheduler* ts = net.transfer()) {
    c["transfer/enqueued"] = static_cast<int64_t>(ts->stats().enqueued);
    c["transfer/completed"] = static_cast<int64_t>(ts->stats().completed);
    c["transfer/queue_depth_peak"] = ts->stats().queue_depth_peak;
  }
}

Replica RunReplica(const Options& opt, const scenario::Scenario& world,
                   bool traced) {
  std::unique_ptr<trace::TraceSession> session;
  if (traced) {
    trace::TraceSession::Options topts;
    topts.max_spans_per_thread = 0;  // aggregates only
    session = std::make_unique<trace::TraceSession>(topts);
    session->Install();
  }
  Replica r;
  World w = SetUp(world, &r.setup_s);
  sim::Engine& engine = *w.engine;
  backup::BackupNetwork& net = *w.network;

  TraceSnapshot after_storm;
  const backup::BackupNetwork::PoolStats pool0 = net.pool_stats();
  const monitor::AvailabilityMonitor::QueryStats mon0 =
      net.monitor().query_stats();
  if (session) {
    after_storm = TraceSnapshot::Take(*session);
    r.initial_episodes = after_storm.Counter("repair/episodes");
  }

  const sim::Round end = engine.end_round();
  r.step_s.reserve(static_cast<size_t>(end));
  for (sim::Round from = engine.now(); from < end; from += opt.chunk) {
    const sim::Round to = std::min<sim::Round>(end, from + opt.chunk);
    const Clock::time_point c0 = Clock::now();
    for (sim::Round round = from; round < to; ++round) {
      const Clock::time_point s0 = Clock::now();
      engine.Step();
      r.step_s.push_back(Since(s0));
      r.peer_rounds += static_cast<double>(net.LivePopulation());
    }
    r.chunk_s.push_back(Since(c0));
  }
  if (session) {
    r.window = TraceSnapshot::Take(*session).Minus(after_storm);
    FoldNetworkCounters(net, pool0, mon0, &r.window);
  }

  const Clock::time_point q0 = Clock::now();
  metrics::RunReport report;
  {
    TRACE_SCOPE_CAT("bench/report", "bench");
    report = net.metrics().BuildReport(end);
  }
  r.report_s = Since(q0);
  if (session) r.whole = TraceSnapshot::Take(*session);
  net.CheckInvariants();
  r.report = CanonicalReport(report, net.LivePopulation());
  return r;
}

// Sum over chunks of the fastest replica's chunk time.
double FilteredWindow(const std::vector<Replica>& reps) {
  double sum = 0.0;
  for (size_t i = 0; i < reps.front().chunk_s.size(); ++i) {
    double best = reps.front().chunk_s[i];
    for (const Replica& r : reps) best = std::min(best, r.chunk_s.at(i));
    sum += best;
  }
  return sum;
}

// Per-round minimum over replicas (the same filter, one round per chunk).
std::vector<double> FilteredSteps(const std::vector<Replica>& reps) {
  std::vector<double> out = reps.front().step_s;
  for (const Replica& r : reps) {
    for (size_t i = 0; i < out.size(); ++i) {
      out[i] = std::min(out[i], r.step_s.at(i));
    }
  }
  return out;
}

// ------------------------------------------------------------- metrics

using Values = std::map<std::string, double>;

// The per-layer metrics in output order, with their units. A workload fills
// the ones its layers exercise; the rest read 0 (no transfers outside the
// DSL world, no sweep runner outside the grid).
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"sim.step_ms.p50", "ms"},
    {"sim.step_ms.p99", "ms"},
    {"setup.ctor_ms", "ms"},
    {"setup.storm_ms", "ms"},
    {"setup.initial_episodes", "count"},
    {"repair.episodes", "count"},
    {"repair.us_per_episode", "us"},
    {"repair.pool_ms", "ms"},
    {"repair.score_ms", "ms"},
    {"repair.place_self_ms", "ms"},
    {"pool.draws_per_episode", "count"},
    {"pool.accept_ratio", "ratio"},
    {"pool.quota_full_ratio", "ratio"},
    {"pool.acceptance_reject_ratio", "ratio"},
    {"pool.exhausted_ratio", "ratio"},
    {"score.memo_hit_ratio", "ratio"},
    {"monitor.observe_calls", "count"},
    {"monitor.ns_per_observe", "ns"},
    {"monitor.observe_memo_hit_ratio", "ratio"},
    {"churn.ms", "ms"},
    {"churn.share", "ratio"},
    {"transfer.tick_ms", "ms"},
    {"transfer.share", "ratio"},
    {"transfer.enqueued", "count"},
    {"transfer.completed_ratio", "ratio"},
    {"transfer.queue_depth_peak", "count"},
    {"report.build_ms", "ms"},
    {"sweep.cell_s.p50", "s"},
    {"sweep.cell_s.max", "s"},
    {"sweep.thread_utilization", "ratio"},
    {"sweep.cells_per_thread_spread", "count"},
    {"sweep.queue_wait_ms", "ms"},
    {"sweep.cells_per_s", "1/s"},
    {"mem.bytes_per_peer", "B"},
    {"trace.overhead_pct", "%"},
};

// The per-layer metrics every workload reads off a traced window.
void AddLayerMetrics(const TraceSnapshot& w, Values* v) {
  const double episodes = w.Counter("repair/episodes");
  const double draws = w.Counter("repair/pool_draws");
  const double observe = w.Counter("monitor/observe");
  const double hits = w.Counter("repair/score_memo_hits");
  const double round_ms = w.Ms("round");
  const double enqueued = w.Counter("transfer/enqueued");
  Values& m = *v;
  m["repair.episodes"] = episodes;
  m["repair.us_per_episode"] = Ratio(w.Ms("repair/run") * 1e3, episodes);
  m["repair.pool_ms"] = w.Ms("repair/pool");
  m["repair.score_ms"] = w.Ms("repair/score");
  // repair/score nests inside repair/pool, which nests inside repair/place:
  // place minus pool is the time no span covers.
  m["repair.place_self_ms"] = w.Ms("repair/place") - w.Ms("repair/pool");
  m["pool.draws_per_episode"] = Ratio(draws, episodes);
  m["pool.accept_ratio"] = Ratio(w.Counter("repair/pool_accepted"), draws);
  m["pool.quota_full_ratio"] =
      Ratio(w.Counter("repair/pool_reject_quota_full"), draws);
  m["pool.acceptance_reject_ratio"] =
      Ratio(w.Counter("repair/pool_reject_acceptance"), draws);
  m["pool.exhausted_ratio"] =
      Ratio(w.Counter("repair/pool_index_exhausted"), w.Calls("repair/pool"));
  m["score.memo_hit_ratio"] =
      Ratio(hits, hits + w.Counter("repair/score_evals"));
  m["monitor.observe_calls"] = observe;
  m["monitor.ns_per_observe"] = Ratio(w.Ms("repair/score") * 1e6, observe);
  m["monitor.observe_memo_hit_ratio"] =
      Ratio(w.Counter("monitor/observe_memo_hits"), observe);
  m["churn.ms"] = w.Ms("round/churn");
  m["churn.share"] = Ratio(w.Ms("round/churn"), round_ms);
  m["transfer.tick_ms"] = w.Ms("transfer/tick");
  m["transfer.share"] = Ratio(w.Ms("round/transfers"), round_ms);
  m["transfer.enqueued"] = enqueued;
  m["transfer.completed_ratio"] =
      Ratio(w.Counter("transfer/completed"), enqueued);
  m["transfer.queue_depth_peak"] = w.Counter("transfer/queue_depth_peak");
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::vector<Metric> LayerMetrics(const Values& values) {
  std::vector<Metric> out;
  for (const auto& [name, unit] : kLayerMetrics) {
    auto it = values.find(name);
    out.push_back({name, it == values.end() ? 0.0 : it->second, unit});
  }
  return out;
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  char buf[256];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                  metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    line += buf;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

void PrintFingerprint(const Options& opt) {
  std::printf(
      "{\"fingerprint\": {\"nproc\": %ld, \"l2_bytes\": %ld, \"l3_bytes\": %ld, "
      "\"compiler\": \"%s\", \"build_type\": \"%s\"}, \"workload\": \"%s\", "
      "\"seed\": %" PRId64 ", \"seconds\": %g, "
      "\"trace\": %s}\n",
      sysconf(_SC_NPROCESSORS_ONLN), sysconf(_SC_LEVEL2_CACHE_SIZE),
      sysconf(_SC_LEVEL3_CACHE_SIZE), E2E_COMPILER, E2E_BUILD_TYPE,
      opt.workload.c_str(), opt.seed, opt.seconds,
      opt.trace ? "true" : "false");
}

// Set-up timings, one list per world.
using SetupTimes = std::vector<std::vector<double>>;

// Set-up only: extra timings, so that each world's fastest set-up is picked
// from many. Callers run them before each replica, so a slow spell of the
// host does not catch them all. Each pass sets up every world in turn.
void TimeSetups(const std::vector<scenario::Scenario>& worlds, int passes,
                SetupTimes* out) {
  out->resize(worlds.size());
  for (int i = 0; i < passes; ++i) {
    for (size_t w = 0; w < worlds.size(); ++w) {
      double setup_s = 0.0;
      World world = SetUp(worlds[w], &setup_s);
      (*out)[w].push_back(setup_s);
    }
  }
}

// Sum over worlds of each world's fastest set-up: the chunk filter, with
// one world's set-up as the chunk.
double FilteredSetup(const SetupTimes& times) {
  double sum = 0.0;
  for (const std::vector<double>& t : times) sum += Min(t);
  return sum;
}

// Each pass's total over the worlds: the raw times behind FilteredSetup.
std::vector<double> SetupPasses(const SetupTimes& times) {
  std::vector<double> out(times.front().size(), 0.0);
  for (const std::vector<double>& t : times) {
    for (size_t i = 0; i < out.size(); ++i) out[i] += t.at(i);
  }
  return out;
}

// Median over traced replicas of one driver-side span's total.
double MedianSpanMs(const std::vector<Replica>& traced, const char* span) {
  std::vector<double> ms;
  for (const Replica& r : traced) ms.push_back(r.whole.Ms(span));
  return Median(ms);
}

int RunSingleWorld(const Options& opt, double rss_base_mib) {
  const scenario::Scenario world = LoadWorld(opt);
  SetupTimes setups;
  std::vector<Replica> plain;
  std::vector<Replica> traced;
  const Clock::time_point start = Clock::now();
  for (int i = 0; MoreReplicas(opt, i, start); ++i) {
    TimeSetups({world}, kExtraSetups, &setups);
    plain.push_back(RunReplica(opt, world, /*traced=*/false));
    setups[0].push_back(plain.back().setup_s);
    if (opt.trace) traced.push_back(RunReplica(opt, world, /*traced=*/true));
  }

  const std::string& reference = plain.front().report;
  int64_t failed = 0;
  std::vector<double> raw, report_s;
  for (const Replica& r : plain) {
    failed += r.report != reference;
    raw.push_back(r.window_s());
    report_s.push_back(r.report_s);
  }
  for (const Replica& r : traced) failed += r.report != reference;
  const int64_t attempted = static_cast<int64_t>(plain.size() + traced.size());

  const double setup_s = FilteredSetup(setups);
  const double window_s = FilteredWindow(plain);
  const double run_s = setup_s + window_s + Min(report_s);
  std::printf(
      "{\"digest\": \"%s\", \"chunks\": %zu, \"window_filtered_s\": %.6f, "
      "\"window_raw_s\": %s, \"setup_s\": %s, \"report_s\": %s}\n",
      Digest(reference).c_str(), plain.front().chunk_s.size(), window_s,
      JsonList(raw).c_str(), JsonList(setups[0]).c_str(),
      JsonList(report_s).c_str());

  std::vector<Metric> m;
  if (!opt.trace) {
    m = {{"setup_s", setup_s, "s"},
         {"run_s", run_s, "s"},
         {"peer_rounds_per_s", plain.front().peer_rounds / window_s, "1/s"},
         {"peak_rss_mb", PeakRssMiB(), "MiB"}};
  } else {
    std::vector<double> traced_raw, traced_setup, traced_report;
    for (const Replica& r : traced) {
      traced_raw.push_back(r.window_s());
      traced_setup.push_back(r.setup_s);
      traced_report.push_back(r.report_s);
    }
    const double traced_run_s =
        Min(traced_setup) + FilteredWindow(traced) + Min(traced_report);
    std::printf("{\"traced_window_raw_s\": %s, \"traced_run_s\": %.6f}\n",
                JsonList(traced_raw).c_str(), traced_run_s);
    // Span totals from the fastest traced replica.
    const Replica& best = *std::min_element(
        traced.begin(), traced.end(), [](const Replica& a, const Replica& b) {
          return a.window_s() < b.window_s();
        });
    const std::vector<double> steps = FilteredSteps(plain);
    Values v;
    AddLayerMetrics(best.window, &v);
    v["sim.step_ms.p50"] = Quantile(steps, 0.50) * 1e3;
    v["sim.step_ms.p99"] = Quantile(steps, 0.99) * 1e3;
    v["setup.ctor_ms"] = MedianSpanMs(traced, "bench/construct");
    v["setup.storm_ms"] = MedianSpanMs(traced, "bench/storm");
    v["setup.initial_episodes"] = best.initial_episodes;
    v["report.build_ms"] = MedianSpanMs(traced, "bench/report");
    v["mem.bytes_per_peer"] =
        (PeakRssMiB() - rss_base_mib) * 1048576.0 / world.peers;
    v["trace.overhead_pct"] = (traced_run_s / run_s - 1.0) * 100.0;
    m = LayerMetrics(v);
  }
  PrintResult(failed == 0, attempted, failed, m);
  return 0;
}

// ---------------------------------------------------------------- sweep

struct Grid {
  double wall_s = 0.0;
  std::vector<std::string> reports;  // per cell, CanonicalReport
  std::vector<double> cell_s;
  TraceSnapshot trace;
};

Grid RunGrid(const sweep::SweepSpec& spec, int threads, bool traced) {
  std::unique_ptr<trace::TraceSession> session;
  if (traced) {
    trace::TraceSession::Options topts;
    topts.max_spans_per_thread = 0;
    session = std::make_unique<trace::TraceSession>(topts);
    session->Install();
  }
  sweep::RunnerOptions ropts;
  ropts.threads = threads;
  Grid g;
  const Clock::time_point t0 = Clock::now();
  util::Result<std::vector<sweep::CellResult>> cells =
      sweep::RunSweep(spec, ropts);
  g.wall_s = Since(t0);
  if (!cells.ok()) Fail("sweep: " + cells.status().ToString());
  for (const sweep::CellResult& c : *cells) {
    g.reports.push_back(
        CanonicalReport(c.outcome.report, c.outcome.final_population));
    g.cell_s.push_back(c.outcome.wall_seconds);
  }
  if (session) g.trace = TraceSnapshot::Take(*session);
  return g;
}

// Re-runs every cell with periodic and final CheckInvariants (untimed) and
// returns its reports: the reference the timed grids must reproduce.
std::vector<std::string> CheckCells(const std::vector<sweep::Cell>& cells,
                                    int threads) {
  std::vector<std::string> reports(cells.size());
  std::atomic<size_t> cursor{0};
  auto worker = [&] {
    for (size_t i = cursor++; i < cells.size(); i = cursor++) {
      scenario::RunOptions run;
      run.check_invariants = true;
      const scenario::Outcome out = scenario::RunScenario(cells[i].scenario, run);
      reports[i] = CanonicalReport(out.report, out.final_population);
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  return reports;
}

int RunSweepWorkload(const Options& opt, double rss_base_mib) {
  sweep::SweepSpec spec;
  spec.base = LoadWorld(opt);
  spec.repair_thresholds = ParseIntList(opt.thresholds);
  spec.quotas = ParseIntList(opt.quotas);
  util::Result<std::vector<sweep::Cell>> cells = spec.Expand();
  if (!cells.ok()) Fail("sweep: " + cells.status().ToString());
  const int threads =
      std::min<int>(opt.threads, static_cast<int>(cells->size()));

  std::vector<scenario::Scenario> worlds;
  for (const sweep::Cell& c : *cells) worlds.push_back(c.scenario);
  SetupTimes setups;
  std::vector<Grid> plain, traced;
  const Clock::time_point start = Clock::now();
  for (int i = 0; MoreReplicas(opt, i, start); ++i) {
    TimeSetups(worlds, kExtraSetups, &setups);
    plain.push_back(RunGrid(spec, threads, /*traced=*/false));
    if (opt.trace) traced.push_back(RunGrid(spec, threads, /*traced=*/true));
  }
  const std::vector<std::string> reference = CheckCells(*cells, threads);

  int64_t attempted = static_cast<int64_t>(reference.size());
  int64_t failed = 0;
  std::vector<double> walls;
  for (const std::vector<Grid>* set : {&plain, &traced}) {
    for (const Grid& g : *set) {
      for (size_t c = 0; c < reference.size(); ++c) {
        ++attempted;
        failed += g.reports.at(c) != reference[c];
      }
    }
  }
  for (const Grid& g : plain) walls.push_back(g.wall_s);
  std::string digests;
  for (const std::string& r : reference) digests += Digest(r);
  double nominal_peer_rounds = 0.0;
  uint32_t peers = 0;
  for (const sweep::Cell& c : *cells) {
    nominal_peer_rounds +=
        static_cast<double>(c.scenario.peers) * static_cast<double>(c.scenario.rounds);
    peers = std::max(peers, c.scenario.peers);
  }
  const double run_s = Min(walls);
  // Per-worker speed under contention, filtered like the chunks of a single
  // world: each cell's fastest time over the grids, summed. Unlike
  // cells / run_s it leaves out idle workers and load imbalance.
  double cell_busy_s = 0.0;
  for (size_t c = 0; c < reference.size(); ++c) {
    double best = plain.front().cell_s.at(c);
    for (const Grid& g : plain) best = std::min(best, g.cell_s.at(c));
    cell_busy_s += best;
  }
  std::printf(
      "{\"digest\": \"%s\", \"cells\": %zu, \"threads\": %d, "
      "\"grid_wall_s\": %s, \"cell_busy_filtered_s\": %.6f, \"setup_s\": %s}\n",
      Digest(digests).c_str(), reference.size(), threads, JsonList(walls).c_str(),
      cell_busy_s, JsonList(SetupPasses(setups)).c_str());

  std::vector<Metric> m;
  if (!opt.trace) {
    m = {{"setup_s", FilteredSetup(setups), "s"},
         {"run_s", run_s, "s"},
         {"peer_rounds_per_s", nominal_peer_rounds / cell_busy_s, "1/s"},
         {"peak_rss_mb", PeakRssMiB(), "MiB"}};
  } else {
    std::vector<double> traced_walls;
    for (const Grid& g : traced) traced_walls.push_back(g.wall_s);
    const Grid& best = *std::min_element(
        traced.begin(), traced.end(),
        [](const Grid& a, const Grid& b) { return a.wall_s < b.wall_s; });
    const Grid& fastest = *std::min_element(
        plain.begin(), plain.end(),
        [](const Grid& a, const Grid& b) { return a.wall_s < b.wall_s; });
    std::printf("{\"traced_grid_wall_s\": %s}\n", JsonList(traced_walls).c_str());
    // The grid's cells run their set-up inside RunScenario; one traced
    // set-up of every cell's world, as setup_s times it, stands in for them.
    TraceSnapshot setup_trace;
    {
      trace::TraceSession::Options topts;
      topts.max_spans_per_thread = 0;
      trace::TraceSession session(topts);
      session.Install();
      SetupTimes ignored;
      TimeSetups(worlds, 1, &ignored);
      setup_trace = TraceSnapshot::Take(session);
    }
    const TraceSnapshot& w = best.trace;
    const double ncells = static_cast<double>(reference.size());
    Values v;
    AddLayerMetrics(w, &v);
    v["setup.ctor_ms"] = setup_trace.Ms("bench/construct");
    v["setup.storm_ms"] = setup_trace.Ms("bench/storm");
    v["setup.initial_episodes"] = setup_trace.Counter("repair/episodes");
    v["report.build_ms"] =
        Ratio(w.Ms("scenario/report"), w.Calls("scenario/report"));
    v["sweep.cell_s.p50"] = Median(fastest.cell_s);
    v["sweep.cell_s.max"] = Quantile(fastest.cell_s, 1.0);
    v["sweep.thread_utilization"] =
        w.Counter("sweep/thread_utilization_permille") / 1000.0;
    v["sweep.cells_per_thread_spread"] =
        w.Counter("sweep/cells_per_thread_spread");
    v["sweep.queue_wait_ms"] = w.Counter("sweep/queue_wait_ns") / ncells / 1e6;
    v["sweep.cells_per_s"] = ncells / run_s;
    v["mem.bytes_per_peer"] = (PeakRssMiB() - rss_base_mib) * 1048576.0 /
                              (static_cast<double>(peers) * threads);
    v["trace.overhead_pct"] = (Min(traced_walls) / run_s - 1.0) * 100.0;
    m = LayerMetrics(v);
  }
  PrintResult(failed == 0, attempted, failed, m);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  util::FlagSet flags;
  flags.String("workload", &opt.workload, "workload name (for the output)");
  flags.String("world", &opt.world, "scenario file of the world");
  flags.Int64("seed", &opt.seed, "simulation seed (replaces the file's)");
  flags.Double("seconds", &opt.seconds, "time budget for the replicas (> 0)");
  flags.Int64("chunk", &opt.chunk, "rounds per filter chunk (>= 1)");
  flags.Bool("trace", &opt.trace, "report per-layer metrics instead");
  flags.String("thresholds", &opt.thresholds, "sweep: repair thresholds");
  flags.String("quotas", &opt.quotas, "sweep: quotas");
  flags.Int32("threads", &opt.threads, "sweep: worker threads");
  if (util::Status st = flags.Parse(argc, argv); !st.ok()) {
    Fail(st.ToString() + "\n" + flags.Usage(argv[0]));
  }
  if (opt.world.empty() || !(opt.seconds > 0) || opt.chunk < 1 ||
      opt.threads < 1 || opt.seed < 0) {
    Fail("need --world, --seed >= 0, --seconds > 0 and --chunk/--threads >= 1");
  }
#ifndef NDEBUG
  Fail("refusing to time a build with assertions on (NDEBUG unset)");
#endif
  if (std::string(E2E_BUILD_TYPE) != "Release") {
    Fail(std::string("refusing to time a non-Release build: ") + E2E_BUILD_TYPE);
  }
  PrintFingerprint(opt);
  const double rss_base_mib = PeakRssMiB();
  return opt.thresholds.empty() ? RunSingleWorld(opt, rss_base_mib)
                                : RunSweepWorkload(opt, rss_base_mib);
}
