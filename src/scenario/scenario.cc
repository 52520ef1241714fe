#include "scenario/scenario.h"

#include <chrono>
#include <cstdint>
#include <memory>

#include "sim/engine.h"
#include "trace/trace.h"
#include "util/logging.h"

namespace p2p {
namespace scenario {

util::Status Scenario::Validate() const {
  if (rounds < 1) {
    return util::Status::InvalidArgument("rounds must be >= 1, got " +
                                         std::to_string(rounds));
  }
  if (rounds > INT32_MAX) {
    // BackupNetwork stores partnership formation rounds in 32 bits.
    return util::Status::InvalidArgument(
        "rounds must be <= " + std::to_string(INT32_MAX) +
        " (partnership rounds are 32-bit), got " + std::to_string(rounds));
  }
  if (auto selection = metrics::ResolveMetricSelection(metrics);
      !selection.ok()) {
    return selection.status();
  }
  P2P_RETURN_IF_ERROR(population.Validate());
  backup::SystemOptions resolved = options;
  resolved.num_peers = peers;
  P2P_RETURN_IF_ERROR(resolved.Validate());
  // Compiling the workload also proves the population never dips below the
  // simulation floor at this scale.
  util::Result<std::vector<backup::PopulationAdjustment>> compiled =
      CompileWorkload(workload, peers);
  return compiled.status();
}

bool operator==(const Scenario& a, const Scenario& b) {
  return a.name == b.name && a.peers == b.peers && a.rounds == b.rounds &&
         a.seed == b.seed && a.population == b.population &&
         a.workload == b.workload && a.options == b.options &&
         a.observers == b.observers && a.metrics == b.metrics;
}

Outcome RunScenario(const Scenario& scenario, const RunOptions& run) {
  TRACE_SCOPE("scenario/run");
  // DETLINT-ALLOW(nondet): wall_ms measures host runtime for the report; it never feeds simulation state
  const auto start = std::chrono::steady_clock::now();

  sim::EngineOptions eopts;
  eopts.seed = scenario.seed;
  eopts.end_round = scenario.rounds;
  sim::Engine engine(eopts);

  util::Result<churn::ProfileSet> profiles = scenario.population.Compile();
  if (!profiles.ok()) {
    P2P_LOG_ERROR("invalid population: %s",
                  profiles.status().ToString().c_str());
  }
  P2P_CHECK(profiles.ok());

  backup::SystemOptions options = scenario.options;
  options.num_peers = scenario.peers;

  util::Result<std::vector<backup::PopulationAdjustment>> workload =
      CompileWorkload(scenario.workload, scenario.peers);
  if (!workload.ok()) {
    P2P_LOG_ERROR("invalid workload: %s",
                  workload.status().ToString().c_str());
  }
  P2P_CHECK(workload.ok());

  Outcome out;
  // The constructor seeds every peer and enqueues the whole initial
  // placement storm: attribute it separately from the steady-state rounds.
  std::unique_ptr<backup::BackupNetwork> network;
  {
    TRACE_SCOPE("scenario/setup");
    network = std::make_unique<backup::BackupNetwork>(
        &engine, &*profiles, options, std::move(*workload));
    for (const auto& [name, age] : scenario.observers) {
      network->AddObserver(name, age);
    }
  }
  if (run.check_invariants) {
    // Registered after the network's own hook, so each check sees a settled
    // round. Every 97 rounds keeps smoke runs fast yet frequent enough to
    // catch drift close to the perturbation that caused it.
    engine.AddRoundHook([&network](sim::Round now) {
      if (now % 97 == 0) network->CheckInvariants();
    });
  }

  {
    TRACE_SCOPE("scenario/rounds");
    engine.Run();
  }
  if (run.check_invariants) network->CheckInvariants();

  {
    TRACE_SCOPE("scenario/report");
    // Flush the monitor's always-on query statistics (kept as plain member
    // counters; Observe is far too hot for per-call TRACE_COUNTER bumps).
    const auto& qs = network->monitor().query_stats();
    TRACE_COUNTER("monitor/observe", qs.observe_calls);
    // Same pattern for the candidate sampler: every index draw lands in
    // exactly one of these buckets (draws == rejects + accepted; the owner
    // and its partners are pre-excluded before any draw, counted per
    // episode). The dup / not-live / offline rejects of the pre-index
    // sampler are structurally impossible now and are retired, not zero.
    const auto& ps = network->pool_stats();
    TRACE_COUNTER("repair/pool_draws", ps.draws);
    TRACE_COUNTER("repair/pool_partner_excluded", ps.index_partner_excluded);
    TRACE_COUNTER("repair/pool_index_exhausted", ps.index_exhausted);
    TRACE_COUNTER("repair/pool_reject_quota_full", ps.reject_quota_full);
    TRACE_COUNTER("repair/pool_reject_acceptance", ps.reject_acceptance);
    TRACE_COUNTER("repair/pool_accepted", ps.accepted);
    TRACE_COUNTER("repair/score_memo_hits", ps.score_memo_hits);
    TRACE_COUNTER("repair/score_evals", ps.score_evals);
    // Transfer-scheduler lifetime counters (same flush-once pattern; Tick
    // keeps them as plain members).
    if (const transfer::TransferScheduler* ts = network->transfer()) {
      const transfer::SchedulerStats& stats = ts->stats();
      TRACE_COUNTER("transfer/enqueued",
                    static_cast<int64_t>(stats.enqueued));
      TRACE_COUNTER("transfer/completed",
                    static_cast<int64_t>(stats.completed));
      TRACE_COUNTER("transfer/cancelled",
                    static_cast<int64_t>(stats.cancelled));
      TRACE_COUNTER("transfer/queue_depth_peak", stats.queue_depth_peak);
      TRACE_COUNTER("transfer/bytes_downloaded",
                    static_cast<int64_t>(stats.bytes_downloaded));
      TRACE_COUNTER("transfer/bytes_uploaded",
                    static_cast<int64_t>(stats.bytes_uploaded));
    }
    out.report = network->metrics().BuildReport(scenario.rounds);
    out.series = network->metrics().category_series();
    out.observers = network->metrics().observers();
    out.population = network->ComputePopulationStats();
    out.final_population = network->LivePopulation();
  }
  // DETLINT-ALLOW(nondet): wall_ms measures host runtime for the report; it never feeds simulation state
  const auto finish = std::chrono::steady_clock::now();
  out.wall_seconds = std::chrono::duration<double>(finish - start).count();
  return out;
}

}  // namespace scenario
}  // namespace p2p
