// Micro-benchmark M4: simulator substrate throughput - calendar queue event
// rates, whole-network rounds per second at a small scale, the
// availability-monitor query path the estimator-driven placement leans on,
// and the repair episode's stages (pool, selection ranking, whole episode).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "backup/hotpath_probe.h"
#include "backup/network.h"
#include "churn/profile.h"
#include "core/selection.h"
#include "monitor/availability_monitor.h"
#include "scenario/population.h"
#include "sim/engine.h"
#include "sim/event_queue.h"
#include "util/rng.h"

namespace {

using namespace p2p;

// One bounded draw: the unit of the churn and shuffle streams.
void BM_RngUniformInt(benchmark::State& state) {
  util::Rng rng(1);
  int64_t acc = 0;
  for (auto _ : state) {
    acc += rng.UniformInt(0, 24999);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngUniformInt);

void BM_CalendarQueueScheduleDrain(benchmark::State& state) {
  const int events_per_round = static_cast<int>(state.range(0));
  sim::CalendarQueue<uint64_t> queue;
  sim::Round now = 0;
  util::Rng rng(1);
  for (auto _ : state) {
    for (int i = 0; i < events_per_round; ++i) {
      queue.Schedule(now + 1 + static_cast<sim::Round>(rng.UniformInt(0, 63)),
                     static_cast<uint64_t>(i));
    }
    uint64_t acc = 0;
    queue.DrainInto(now, [&acc](uint64_t v) { acc += v; });
    benchmark::DoNotOptimize(acc);
    ++now;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          events_per_round);
}
BENCHMARK(BM_CalendarQueueScheduleDrain)->Arg(64)->Arg(1024);

void BM_NetworkRoundsPerSecond(benchmark::State& state) {
  const uint32_t peers = static_cast<uint32_t>(state.range(0));
  sim::EngineOptions eopts;
  eopts.seed = 7;
  eopts.end_round = INT32_MAX;  // the network's round bound
  sim::Engine engine(eopts);
  const auto profiles = *scenario::PopulationSpec::Paper().Compile();
  backup::SystemOptions opts;
  opts.num_peers = peers;
  backup::BackupNetwork network(&engine, &profiles, opts);
  // Warm-up: let the initial placement storm settle.
  for (int i = 0; i < 200; ++i) engine.Step();
  for (auto _ : state) {
    engine.Step();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["repairs"] =
      static_cast<double>(network.metrics().repairs());
}
BENCHMARK(BM_NetworkRoundsPerSecond)->Arg(1000)->Arg(5000)->Unit(
    benchmark::kMicrosecond);

// Builds a monitor whose one peer has `sessions` closed sessions inside the
// 90-day window - the worst case the estimator path queries every episode.
monitor::AvailabilityMonitor SessionHeavyMonitor(int sessions,
                                                 sim::Round* now_out) {
  monitor::AvailabilityMonitor mon(1);
  mon.RecordJoin(0, 0);
  sim::Round now = 0;
  for (int s = 0; s < sessions; ++s) {
    mon.RecordConnect(0, now);
    mon.RecordDisconnect(0, now + 1);
    now += 2;
  }
  *now_out = now;
  return mon;
}

// The window query the estimators ask per candidate. Session histories used
// to be rescanned end to end on every call (O(sessions in window)); the
// prefix-summed sessions answer in O(log sessions), so throughput should
// stay flat as the per-peer session count grows.
void BM_MonitorAvailabilityQuery(benchmark::State& state) {
  sim::Round now = 0;
  const auto mon = SessionHeavyMonitor(static_cast<int>(state.range(0)), &now);
  const sim::Round window = 90 * sim::kRoundsPerDay;
  double acc = 0.0;
  for (auto _ : state) {
    acc += mon.AvailabilityOver(0, window, now);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MonitorAvailabilityQuery)->Arg(16)->Arg(256)->Arg(1024);

// The selection ranking of one episode on a synthetic pool: shuffle, packed
// keys, nth_element and a sort of the front. Ages are drawn wide, and the
// age-rank score saturates at the horizon, so old candidates tie on score
// and the age and shuffle tie-breaks both decide. The shapes are a
// steady-state maintenance repair (66 -> 22) and the initial-placement
// storm (768 -> 256). Choose leaves the pool as it found it, so every
// iteration ranks the same pool.
void BM_SelectionChoose(benchmark::State& state) {
  const size_t size = static_cast<size_t>(state.range(0));
  const int take = static_cast<int>(state.range(1));
  util::Rng fill(3);
  std::vector<core::Candidate> pool(size);
  for (size_t i = 0; i < size; ++i) {
    pool[i].id = static_cast<uint32_t>(i);
    pool[i].age = fill.UniformInt(0, 200 * sim::kRoundsPerDay);
    pool[i].score = static_cast<double>(
        std::min<sim::Round>(pool[i].age, 90 * sim::kRoundsPerDay));
  }
  const core::OldestFirstSelection selection;
  util::Rng rng(1);
  std::vector<uint32_t> out;
  out.reserve(static_cast<size_t>(take));
  for (auto _ : state) {
    out.clear();
    selection.Choose(&pool, take, &rng, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SelectionChoose)->Args({66, 22})->Args({768, 256});

// A warmed-up steady-state world for episode-level benches: paper churn
// profiles, population `peers`, run far enough past bootstrap that partner
// sets, quotas, and scratch capacities reflect the steady state.
struct WarmWorld {
  explicit WarmWorld(uint32_t peers)
      : profiles(*scenario::PopulationSpec::Paper().Compile()) {
    eopts.seed = 7;
    eopts.end_round = INT32_MAX;  // the network's round bound
    engine = std::make_unique<sim::Engine>(eopts);
    backup::SystemOptions opts;
    opts.num_peers = peers;
    opts.k = 16;
    opts.m = 16;
    opts.repair_threshold = 24;
    opts.quota_blocks = 48;
    network =
        std::make_unique<backup::BackupNetwork>(engine.get(), &profiles, opts);
    for (int i = 0; i < 400; ++i) engine->Step();
  }

  backup::PeerId NextRepairable(backup::PeerId after) const {
    const uint32_t n = network->options().num_peers;
    for (uint32_t step = 0; step < n; ++step) {
      const backup::PeerId id = (after + 1 + step) % n;
      if (network->IsLive(id) && network->IsOnline(id) &&
          network->IsBackedUp(id) && network->AliveBlocks(id) > 12) {
        return id;
      }
    }
    return 0;
  }

  sim::EngineOptions eopts;
  churn::ProfileSet profiles;
  std::unique_ptr<sim::Engine> engine;
  std::unique_ptr<backup::BackupNetwork> network;
};

// The candidate-sampling pass in isolation: partner pre-exclusion, index
// draw (segment-aware partial Fisher-Yates), quota market, acceptance,
// estimator scoring - into the network's scratch pool.
void BM_BuildPool(benchmark::State& state) {
  WarmWorld world(static_cast<uint32_t>(state.range(0)));
  backup::HotPathProbe probe(world.network.get());
  backup::PeerId owner = world.NextRepairable(0);
  const int64_t draws_before = world.network->pool_stats().draws;
  int64_t pooled = 0;
  for (auto _ : state) {
    owner = world.NextRepairable(owner);
    pooled += probe.BuildPool(owner, 8);
    benchmark::DoNotOptimize(pooled);
  }
  const auto& ps = world.network->pool_stats();
  state.SetItemsProcessed(ps.draws - draws_before);  // draws/s: hot-path unit
  state.counters["pool_per_episode"] =
      benchmark::Counter(static_cast<double>(pooled) /
                         static_cast<double>(state.iterations()));
}
BENCHMARK(BM_BuildPool)->Arg(1000)->Arg(5000);

// A full repair episode against the steady-state world: sever ten
// partnerships (organic-loss path, quota released), flag, then repair -
// evaluate, pool, score, rank, place.
void BM_RepairEpisode(benchmark::State& state) {
  WarmWorld world(static_cast<uint32_t>(state.range(0)));
  backup::HotPathProbe probe(world.network.get());
  backup::PeerId owner = world.NextRepairable(0);
  for (auto _ : state) {
    owner = world.NextRepairable(owner);
    probe.SeverPartners(owner, 10);
    probe.RunRepair(owner);
  }
  state.SetItemsProcessed(state.iterations());
  world.network->CheckInvariants();
}
BENCHMARK(BM_RepairEpisode)->Arg(1000)->Arg(5000)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
