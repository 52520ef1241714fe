// Performance-trajectory harness: one canonical grid, timed twice (tracing
// off, then tracing on in aggregates-only mode), emitted as a schema-
// versioned JSON document the repo commits as BENCH_<pr>.json and CI diffs
// with scripts/bench_compare.py.
//
//   ./bench_trajectory --out=BENCH_6.json            # canonical grid
//   ./bench_trajectory --quick --out=bench_quick.json
//   ./bench_trajectory --quick --trace-out=cell.json # Chrome trace artifact
//
// The document carries: build metadata, the grid shape, end-to-end wall
// time, peers*rounds/sec throughput and process peak RSS, the per-phase
// wall-time breakdown from the traced pass, monitor-query micro numbers
// derived from the trace counters, the repair-pool sampling funnel (draws,
// reject attribution, acceptance and score-memo rates), and the measured
// tracing overhead (enabled-vs-disabled wall time plus the nanosecond cost
// of a TRACE_SCOPE with no session installed). Timing and peak RSS vary run
// to run; everything else is deterministic.

#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "sweep/runner.h"
#include "sweep/spec.h"
#include "trace/sinks.h"
#include "trace/trace.h"
#include "transfer/link.h"
#include "util/flags.h"

namespace {

using namespace p2p;

constexpr int kSchemaVersion = 1;

// Keeps the no-session fast path honest under optimization: the scope sits
// in a noinline function so the relaxed load + branch cannot be hoisted out
// of the measurement loop.
#if defined(__GNUC__)
__attribute__((noinline))
#endif
void DisabledScopeOnce() {
  TRACE_SCOPE("bench/disabled_scope");
}

/// Nanoseconds per TRACE_SCOPE when no session is installed.
double MeasureDisabledScopeNs() {
  constexpr int64_t kIters = 20'000'000;
  // Warm up (page in the code, settle the branch predictor).
  for (int64_t i = 0; i < 1'000'000; ++i) DisabledScopeOnce();
  const uint64_t start = trace::NowNanos();
  for (int64_t i = 0; i < kIters; ++i) DisabledScopeOnce();
  const uint64_t end = trace::NowNanos();
  return static_cast<double>(end - start) / static_cast<double>(kIters);
}

sweep::SweepSpec CanonicalGrid(bool quick) {
  sweep::SweepSpec spec;
  spec.base.name = "paper";
  if (quick) {
    spec.base.peers = 150;
    spec.base.rounds = 300;
    spec.repair_thresholds = {140, 156};
    spec.replicates = 1;
  } else {
    spec.base.peers = 500;
    spec.base.rounds = 1200;
    spec.repair_thresholds = {132, 148, 164};
    spec.quotas = {256, 384};
    spec.replicates = 2;
  }
  return spec;
}

/// Process CPU seconds (all threads). The overhead comparison uses CPU
/// time, not wall time: instrumentation cost is CPU work, and CPU time is
/// immune to the time-sharing noise of CI runners (which dwarfs a
/// single-digit-percent effect in wall clock).
double CpuSeconds() {
#if defined(CLOCK_PROCESS_CPUTIME_ID)
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
#else
  return static_cast<double>(std::clock()) /
         static_cast<double>(CLOCKS_PER_SEC);
#endif
}

/// Peak resident set size of this process so far, in MiB (Linux reports
/// ru_maxrss in KiB).
double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct GridTiming {
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
};

/// Runs the grid and times it (aborting the bench on an invalid spec - the
/// grid is hard-coded, so that is a bench bug).
GridTiming TimeGrid(const sweep::SweepSpec& spec,
                    const sweep::RunnerOptions& ropts) {
  const double cpu0 = CpuSeconds();
  const uint64_t start = trace::NowNanos();
  const auto results = sweep::RunSweep(spec, ropts);
  const uint64_t end = trace::NowNanos();
  const double cpu1 = CpuSeconds();
  if (!results.ok()) {
    std::cerr << "bench_trajectory: " << results.status().ToString() << "\n";
    std::abort();
  }
  GridTiming t;
  t.wall_seconds = static_cast<double>(end - start) * 1e-9;
  t.cpu_seconds = cpu1 - cpu0;
  return t;
}

// --------------------------------------------------------------- JSON out
// Hand-rolled emitter in the same style as the sweep/report writers: fixed
// %.6f doubles, no dependency beyond <cstdio>.

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else {
      out.push_back(c);
    }
  }
  return out;
}

struct BenchDoc {
  bool quick = false;
  std::string scenario;
  uint32_t peers = 0;
  int64_t rounds = 0;
  size_t cells = 0;
  int threads = 0;
  double wall_seconds = 0.0;
  double peer_rounds_per_second = 0.0;
  double peak_rss_mb = 0.0;
  std::vector<trace::PhaseStat> phases;
  std::vector<trace::CounterStat> counters;
  double observe_calls = 0.0;
  double score_ns_per_observe = 0.0;
  int64_t pool_draws = 0;
  int64_t pool_partner_excluded = 0;
  int64_t pool_index_exhausted = 0;
  int64_t pool_reject_quota_full = 0;
  int64_t pool_reject_acceptance = 0;
  int64_t pool_accepted = 0;
  double pool_accept_percent = 0.0;
  double score_memo_hit_percent = 0.0;
  double disabled_cpu_seconds = 0.0;
  double enabled_cpu_seconds = 0.0;
  double overhead_percent = 0.0;
  double disabled_scope_ns = 0.0;
  double disabled_overhead_percent = 0.0;
  std::string transfer_link;
  double transfer_analytic_repairs_per_day = 0.0;
  double transfer_measured_repairs_per_day = 0.0;
  int64_t transfer_enqueued = 0;
  int64_t transfer_completed = 0;
  int64_t transfer_cancelled = 0;
  int64_t transfer_queue_depth_peak = 0;
  double transfer_phase_ms = 0.0;
};

void WriteBenchJson(const BenchDoc& d, std::ostream& os) {
  uint64_t max_total = 1;
  for (const auto& p : d.phases) {
    if (p.total_ns > max_total) max_total = p.total_ns;
  }
  os << "{\n";
  os << "  \"schema_version\": " << kSchemaVersion << ",\n";
  os << "  \"bench\": \"trajectory\",\n";
  os << "  \"quick\": " << (d.quick ? "true" : "false") << ",\n";
  os << "  \"build\": {\n";
  os << "    \"compiler\": \"" << JsonEscape(__VERSION__) << "\",\n";
#if defined(NDEBUG)
  os << "    \"build_type\": \"Release\"\n";
#else
  os << "    \"build_type\": \"Debug\"\n";
#endif
  os << "  },\n";
  os << "  \"grid\": {\n";
  os << "    \"scenario\": \"" << JsonEscape(d.scenario) << "\",\n";
  os << "    \"peers\": " << d.peers << ",\n";
  os << "    \"rounds\": " << d.rounds << ",\n";
  os << "    \"cells\": " << d.cells << ",\n";
  os << "    \"threads\": " << d.threads << "\n";
  os << "  },\n";
  os << "  \"totals\": {\n";
  os << "    \"wall_seconds\": " << Num(d.wall_seconds) << ",\n";
  os << "    \"peer_rounds_per_second\": " << Num(d.peer_rounds_per_second)
     << ",\n";
  os << "    \"peak_rss_mb\": " << Num(d.peak_rss_mb) << "\n";
  os << "  },\n";
  os << "  \"phases\": [\n";
  for (size_t i = 0; i < d.phases.size(); ++i) {
    const auto& p = d.phases[i];
    const double total_ms = static_cast<double>(p.total_ns) * 1e-6;
    const double mean_us =
        p.count > 0
            ? static_cast<double>(p.total_ns) / static_cast<double>(p.count) *
                  1e-3
            : 0.0;
    const double share = static_cast<double>(p.total_ns) /
                         static_cast<double>(max_total) * 100.0;
    os << "    {\"name\": \"" << JsonEscape(p.name) << "\", \"category\": \""
       << JsonEscape(p.category) << "\", \"count\": " << p.count
       << ", \"total_ms\": " << Num(total_ms)
       << ", \"mean_us\": " << Num(mean_us)
       << ", \"share_percent\": " << Num(share) << "}"
       << (i + 1 < d.phases.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"counters\": [\n";
  for (size_t i = 0; i < d.counters.size(); ++i) {
    os << "    {\"name\": \"" << JsonEscape(d.counters[i].name)
       << "\", \"value\": " << d.counters[i].value << "}"
       << (i + 1 < d.counters.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"monitor\": {\n";
  os << "    \"observe_calls\": " << Num(d.observe_calls) << ",\n";
  os << "    \"score_ns_per_observe\": " << Num(d.score_ns_per_observe)
     << "\n";
  os << "  },\n";
  // Funnel of the eligible-candidate index sampler. The pre-index rejection
  // sampler's reject_dup / reject_not_live / reject_offline keys are retired
  // (structurally impossible), not emitted as zeros; bench_compare.py
  // --trajectory reports "n/a" across the schema boundary. partner_excluded
  // counts the owner/partner ids pre-taken out of the drawable lanes per
  // episode - they are not draws, so draws == rejects + accepted.
  os << "  \"repair_pool\": {\n";
  os << "    \"draws\": " << d.pool_draws << ",\n";
  os << "    \"partner_excluded\": " << d.pool_partner_excluded << ",\n";
  os << "    \"index_exhausted\": " << d.pool_index_exhausted << ",\n";
  os << "    \"reject_quota_full\": " << d.pool_reject_quota_full << ",\n";
  os << "    \"reject_acceptance\": " << d.pool_reject_acceptance << ",\n";
  os << "    \"accepted\": " << d.pool_accepted << ",\n";
  os << "    \"accept_percent\": " << Num(d.pool_accept_percent) << ",\n";
  os << "    \"score_memo_hit_percent\": " << Num(d.score_memo_hit_percent)
     << "\n";
  os << "  },\n";
  os << "  \"transfer\": {\n";
  os << "    \"link\": \"" << JsonEscape(d.transfer_link) << "\",\n";
  os << "    \"analytic_repairs_per_day\": "
     << Num(d.transfer_analytic_repairs_per_day) << ",\n";
  os << "    \"measured_repairs_per_day\": "
     << Num(d.transfer_measured_repairs_per_day) << ",\n";
  os << "    \"enqueued\": " << d.transfer_enqueued << ",\n";
  os << "    \"completed\": " << d.transfer_completed << ",\n";
  os << "    \"cancelled\": " << d.transfer_cancelled << ",\n";
  os << "    \"queue_depth_peak\": " << d.transfer_queue_depth_peak << ",\n";
  os << "    \"phase_ms\": " << Num(d.transfer_phase_ms) << "\n";
  os << "  },\n";
  os << "  \"trace_overhead\": {\n";
  os << "    \"disabled_cpu_seconds\": " << Num(d.disabled_cpu_seconds)
     << ",\n";
  os << "    \"enabled_cpu_seconds\": " << Num(d.enabled_cpu_seconds)
     << ",\n";
  os << "    \"overhead_percent\": " << Num(d.overhead_percent) << ",\n";
  os << "    \"disabled_scope_ns\": " << Num(d.disabled_scope_ns) << ",\n";
  os << "    \"disabled_overhead_percent\": "
     << Num(d.disabled_overhead_percent) << "\n";
  os << "  }\n";
  os << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path;
  std::string trace_out;
  int threads = 0;

  util::FlagSet flags;
  flags.Bool("quick", &quick,
             "small grid (2 cells, 150 peers x 300 rounds) for CI");
  flags.String("out", &out_path,
               "write the BENCH JSON document here (empty = stdout)");
  flags.String("trace-out", &trace_out,
               "also record one traced cell and write its Chrome trace / "
               "JSONL here (CI artifact)");
  flags.Int32("threads", &threads, "worker threads (0 = hardware)");
  if (auto st = flags.Parse(argc, argv); !st.ok()) {
    std::cerr << st.ToString() << "\n" << flags.Usage(argv[0]);
    return 1;
  }

  const sweep::SweepSpec spec = CanonicalGrid(quick);
  sweep::RunnerOptions ropts;
  ropts.threads = threads;

  BenchDoc doc;
  doc.quick = quick;
  doc.scenario = spec.base.name;
  doc.peers = spec.base.peers;
  doc.rounds = spec.base.rounds;
  doc.cells = spec.CellCount();
  doc.threads = sweep::ResolveThreads(threads);

  std::fprintf(stderr, "# trajectory: %zu cells (%u peers x %lld rounds) on %d threads%s\n",
               doc.cells, doc.peers, static_cast<long long>(doc.rounds),
               doc.threads, quick ? " [quick]" : "");

  // Warm-up cell: page in code and settle the allocator before timing.
  {
    sweep::SweepSpec warm = CanonicalGrid(/*quick=*/true);
    warm.repair_thresholds = {warm.repair_thresholds.front()};
    (void)TimeGrid(warm, ropts);
  }

  // Interleaved repetitions, min-of-N per pass: a shared or single-core
  // host jitters far more than the tracing overhead under measurement, and
  // the minimum is the run least disturbed by neighbors. Each enabled rep
  // records into a fresh session (counters are per-grid quantities); the
  // fastest rep's session provides the phase breakdown.
  constexpr int kReps = 3;
  trace::TraceSession::Options topts;
  topts.max_spans_per_thread = 0;  // phase accumulators only, no span memory
  double wall_min = 0.0;
  doc.disabled_cpu_seconds = 0.0;
  doc.enabled_cpu_seconds = 0.0;
  std::unique_ptr<trace::TraceSession> session;
  for (int rep = 0; rep < kReps; ++rep) {
    std::fprintf(stderr, "# rep %d/%d: tracing disabled\n", rep + 1, kReps);
    const GridTiming off = TimeGrid(spec, ropts);
    if (rep == 0 || off.wall_seconds < wall_min) wall_min = off.wall_seconds;
    if (rep == 0 || off.cpu_seconds < doc.disabled_cpu_seconds) {
      doc.disabled_cpu_seconds = off.cpu_seconds;
    }
    std::fprintf(stderr, "# rep %d/%d: tracing enabled (aggregates only)\n",
                 rep + 1, kReps);
    auto s = std::make_unique<trace::TraceSession>(topts);
    s->Install();
    const GridTiming on = TimeGrid(spec, ropts);
    trace::TraceSession::Uninstall();
    if (rep == 0 || on.cpu_seconds < doc.enabled_cpu_seconds) {
      doc.enabled_cpu_seconds = on.cpu_seconds;
      session = std::move(s);
    }
  }

  doc.wall_seconds = wall_min;
  const double peer_rounds = static_cast<double>(doc.cells) *
                             static_cast<double>(doc.peers) *
                             static_cast<double>(doc.rounds);
  doc.peer_rounds_per_second = peer_rounds / doc.wall_seconds;
  doc.overhead_percent =
      (doc.enabled_cpu_seconds - doc.disabled_cpu_seconds) /
      doc.disabled_cpu_seconds * 100.0;
  doc.disabled_scope_ns = MeasureDisabledScopeNs();

  doc.phases = session->PhaseStats();
  doc.counters = session->CounterStats();
  double observe = 0.0;
  int64_t score_memo_hits = 0, score_evals = 0;
  uint64_t score_ns = 0;
  for (const auto& c : doc.counters) {
    if (c.name == "monitor/observe") observe = static_cast<double>(c.value);
    if (c.name == "repair/pool_draws") doc.pool_draws = c.value;
    if (c.name == "repair/pool_partner_excluded")
      doc.pool_partner_excluded = c.value;
    if (c.name == "repair/pool_index_exhausted")
      doc.pool_index_exhausted = c.value;
    if (c.name == "repair/pool_reject_quota_full")
      doc.pool_reject_quota_full = c.value;
    if (c.name == "repair/pool_reject_acceptance")
      doc.pool_reject_acceptance = c.value;
    if (c.name == "repair/pool_accepted") doc.pool_accepted = c.value;
    if (c.name == "repair/score_memo_hits") score_memo_hits = c.value;
    if (c.name == "repair/score_evals") score_evals = c.value;
  }
  if (doc.pool_draws > 0) {
    doc.pool_accept_percent = static_cast<double>(doc.pool_accepted) /
                              static_cast<double>(doc.pool_draws) * 100.0;
  }
  if (score_memo_hits + score_evals > 0) {
    doc.score_memo_hit_percent =
        static_cast<double>(score_memo_hits) /
        static_cast<double>(score_memo_hits + score_evals) * 100.0;
  }
  for (const auto& p : doc.phases) {
    if (p.name == "repair/score") score_ns = p.total_ns;
  }
  doc.observe_calls = observe;
  doc.score_ns_per_observe =
      observe > 0.0 ? static_cast<double>(score_ns) / observe : 0.0;

  // Disabled-mode overhead on this grid: spans-per-grid times the measured
  // per-scope cost of the no-session fast path, as a share of the untraced
  // CPU time. (Estimated, not differenced: both passes run the same binary,
  // so the disabled cost is present in both and cancels out of
  // overhead_percent above.)
  int64_t grid_spans = 0;
  for (const auto& p : doc.phases) grid_spans += p.count;
  doc.disabled_overhead_percent =
      static_cast<double>(grid_spans) * doc.disabled_scope_ns /
      (doc.disabled_cpu_seconds * 1e9) * 100.0;

  // Transfer section. Two deterministic sub-measurements plus one timed one:
  // the scheduler driven directly through back-to-back worst-case repairs
  // (measured ceiling vs the paper's analytic 86400 / delta_repair), and one
  // traced transfer-enabled cell for the round/transfers phase cost and the
  // lifetime enqueue/complete/cancel counters.
  {
    doc.transfer_link = "dsl-2009";
    const util::Result<net::LinkProfile> link =
        transfer::FindLinkProfile(doc.transfer_link);
    if (!link.ok()) {
      std::cerr << "bench_trajectory: " << link.status().ToString() << "\n";
      return 1;
    }
    const bench::RepairCeiling ceiling =
        bench::MeasureRepairCeiling(*link, /*jobs=*/12);
    doc.transfer_analytic_repairs_per_day =
        ceiling.model.MaxRepairsPerDay(ceiling.model.k());
    doc.transfer_measured_repairs_per_day = ceiling.measured_per_day;

    // One transfer-enabled traced cell. 400 peers regardless of --quick:
    // below ~300 peers initial placement cannot complete, so no transfer
    // job would ever run and every counter would read zero.
    sweep::SweepSpec cell = CanonicalGrid(/*quick=*/true);
    cell.repair_thresholds = {cell.repair_thresholds.front()};
    cell.base.peers = 400;
    cell.base.rounds = 300;
    cell.base.options.transfer_enabled = true;
    cell.base.options.transfer_link = doc.transfer_link;
    trace::TraceSession tsession(topts);
    tsession.Install();
    (void)TimeGrid(cell, ropts);
    trace::TraceSession::Uninstall();
    for (const auto& c : tsession.CounterStats()) {
      if (c.name == "transfer/enqueued") doc.transfer_enqueued = c.value;
      if (c.name == "transfer/completed") doc.transfer_completed = c.value;
      if (c.name == "transfer/cancelled") doc.transfer_cancelled = c.value;
      if (c.name == "transfer/queue_depth_peak")
        doc.transfer_queue_depth_peak = c.value;
    }
    for (const auto& p : tsession.PhaseStats()) {
      if (p.name == "round/transfers") {
        doc.transfer_phase_ms = static_cast<double>(p.total_ns) * 1e-6;
      }
    }
  }

  // Optional CI artifact: one traced cell with spans retained, rendered in
  // whichever format the extension selects (sinks.h).
  if (!trace_out.empty()) {
    sweep::SweepSpec one = CanonicalGrid(/*quick=*/true);
    one.repair_thresholds = {one.repair_thresholds.front()};
    trace::TraceSession::Options aopts;
    aopts.max_spans_per_thread = 1u << 16;  // bounded artifact size
    trace::TraceSession artifact(aopts);
    artifact.Install();
    (void)TimeGrid(one, ropts);
    trace::TraceSession::Uninstall();
    if (auto st = trace::WriteTraceFile(artifact, trace_out); !st.ok()) {
      std::cerr << st.ToString() << "\n";
      return 1;
    }
    std::fprintf(stderr, "# trace artifact written to %s\n",
                 trace_out.c_str());
  }

  // Every grid, cell and artifact run of this process is done: the peak
  // covers all of them.
  doc.peak_rss_mb = PeakRssMiB();

  trace::WriteSummary(*session, std::cerr);
  std::fprintf(stderr,
               "# wall %.3fs | %.0f peer-rounds/s | peak RSS %.1f MiB | trace "
               "overhead %+.2f%% cpu | disabled TRACE_SCOPE %.2f ns (%.3f%% of "
               "this grid)\n",
               doc.wall_seconds, doc.peer_rounds_per_second, doc.peak_rss_mb,
               doc.overhead_percent, doc.disabled_scope_ns,
               doc.disabled_overhead_percent);

  if (out_path.empty()) {
    WriteBenchJson(doc, std::cout);
  } else {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "bench_trajectory: cannot open " << out_path << "\n";
      return 1;
    }
    WriteBenchJson(doc, out);
    std::fprintf(stderr, "# wrote %s\n", out_path.c_str());
  }
  return 0;
}
