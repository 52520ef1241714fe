// Verifies the allocation-free claim of the repair hot path (README "Hot
// path"): once the simulated world is warm - every scratch buffer, calendar
// ring slot, and partner list at its high-water capacity - repair episodes
// run without touching the heap. The test overrides the global allocator for
// this binary, warms a paper-profile world, then drives the hot path both
// directly (HotPathProbe, strict zero) and through whole engine rounds
// (bounded residual that must not scale with episodes or draws), and checks
// that a warm transfer tick does not allocate either.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "backup/hotpath_probe.h"
#include "backup/network.h"
#include "backup/options.h"
#include "churn/profile.h"
#include "scenario/population.h"
#include "sim/engine.h"
#include "transfer/scheduler.h"

// Sanitizer builds own the allocator: ASan interposes malloc for poisoning
// and quarantine, TSan for happens-before tracking, and both allocate
// internally on paths that re-enter this binary's operator new. Overriding
// the global allocator under them both fights the interceptors and skews
// the counts with sanitizer-internal traffic, so the override and the
// allocation-count assertions compile out; the structural assertions
// (capacity identity, invariants) still run. GCC defines __SANITIZE_*
// macros; clang exposes __has_feature.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define P2P_ALLOC_COUNTING_DISABLED 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define P2P_ALLOC_COUNTING_DISABLED 1
#endif
#endif

#if defined(P2P_ALLOC_COUNTING_DISABLED)
#define P2P_SKIP_IF_NO_ALLOC_COUNTING() \
  GTEST_SKIP() << "allocation counting disabled under ASan/TSan (the "      \
                  "sanitizer owns the allocator); structural suites still " \
                  "cover this path"
#else
#define P2P_SKIP_IF_NO_ALLOC_COUNTING() \
  do {                                  \
  } while (false)
#endif

namespace {

std::atomic<int64_t> g_allocs{0};
std::atomic<bool> g_counting{false};

#if !defined(P2P_ALLOC_COUNTING_DISABLED)
void* CountedAlloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
#endif  // !defined(P2P_ALLOC_COUNTING_DISABLED)

}  // namespace

#if !defined(P2P_ALLOC_COUNTING_DISABLED)
void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   size ? size : 1)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#endif  // !defined(P2P_ALLOC_COUNTING_DISABLED)

namespace p2p {
namespace backup {
namespace {

// Paper churn profiles at a population small enough for a CI-speed run but
// large enough that the measurement windows are dense in episodes.
SystemOptions WarmOptions() {
  SystemOptions opts;
  opts.num_peers = 400;
  opts.k = 16;
  opts.m = 16;
  opts.repair_threshold = 24;
  opts.quota_blocks = 48;
  return opts;
}

// Runs `engine` until round `upto`; the world is "warm" once initial
// placement plus a few hundred churned rounds have pushed every reusable
// buffer to its working-set size.
void WarmUp(sim::Engine* engine, sim::Round upto) {
  while (engine->now() < upto && engine->Step()) {
  }
}

PeerId FindRepairablePeer(const BackupNetwork& network, PeerId after) {
  for (PeerId id = after; id < network.options().num_peers; ++id) {
    if (network.IsLive(id) && network.IsOnline(id) && network.IsBackedUp(id) &&
        network.AliveBlocks(id) > 12) {
      return id;
    }
  }
  ADD_FAILURE() << "no repairable peer found";
  return 0;
}

TEST(HotPathAllocTest, BuildPoolAndSelectionAreAllocationFree) {
  P2P_SKIP_IF_NO_ALLOC_COUNTING();
  const auto profiles = *scenario::PopulationSpec::Paper().Compile();
  sim::EngineOptions eopts;
  eopts.seed = 7;
  eopts.end_round = 500;
  sim::Engine engine(eopts);
  BackupNetwork network(&engine, &profiles, WarmOptions());
  WarmUp(&engine, 400);

  HotPathProbe probe(&network);
  std::vector<uint32_t> chosen;
  chosen.reserve(32);
  // One warm call fixes the scratch-pool capacity for this episode size.
  PeerId owner = FindRepairablePeer(network, 0);
  probe.BuildPool(owner, 8);
  probe.Choose(8, &chosen);

  g_allocs.store(0);
  g_counting.store(true);
  int64_t pooled = 0;
  for (int i = 0; i < 200; ++i) {
    owner = FindRepairablePeer(network, (owner + 1) % 300);
    pooled += probe.BuildPool(owner, 8);
    chosen.clear();
    probe.Choose(8, &chosen);
  }
  g_counting.store(false);
  ASSERT_GT(pooled, 1000);
  // The tentpole claim, strict: sampling + scoring + ranking never allocate.
  EXPECT_EQ(g_allocs.load(), 0);
}

TEST(HotPathAllocTest, StormShapedEpisodesAreAllocationFree) {
  // The largest ranking an episode does: at the paper's k = m = 128 an
  // initial placement (every episode of the round-0 storm) ranks a
  // 3 x 256 = 768-candidate pool for 256 blocks. Once one episode of that
  // shape has sized the scratch, sampling, the rank permutation and the
  // packed rank keys stay off the heap.
  P2P_SKIP_IF_NO_ALLOC_COUNTING();
  const auto profiles = *scenario::PopulationSpec::Paper().Compile();
  sim::EngineOptions eopts;
  eopts.seed = 5;
  eopts.end_round = 100;
  sim::Engine engine(eopts);
  SystemOptions opts;
  opts.num_peers = 3000;
  BackupNetwork network(&engine, &profiles, opts);
  WarmUp(&engine, 24);

  HotPathProbe probe(&network);
  std::vector<uint32_t> chosen;
  chosen.reserve(256);
  PeerId owner = FindRepairablePeer(network, 0);
  ASSERT_EQ(probe.BuildPool(owner, 256), 768);
  probe.Choose(256, &chosen);

  g_allocs.store(0);
  g_counting.store(true);
  int64_t pooled = 0;
  for (int i = 0; i < 20; ++i) {
    owner = FindRepairablePeer(network, (owner + 1) % 300);
    pooled += probe.BuildPool(owner, 256);
    chosen.clear();
    probe.Choose(256, &chosen);
  }
  g_counting.store(false);
  ASSERT_EQ(pooled, 20 * 768);
  EXPECT_EQ(chosen.size(), 256u);
  EXPECT_EQ(g_allocs.load(), 0);
}

TEST(HotPathAllocTest, SteadyStateEpisodesAreAllocationFree) {
  P2P_SKIP_IF_NO_ALLOC_COUNTING();
  const auto profiles = *scenario::PopulationSpec::Paper().Compile();
  sim::EngineOptions eopts;
  eopts.seed = 11;
  eopts.end_round = 500;
  sim::Engine engine(eopts);
  BackupNetwork network(&engine, &profiles, WarmOptions());
  WarmUp(&engine, 400);

  HotPathProbe probe(&network);
  // Warm pass: a few full episodes (sever -> repair) settle any capacity
  // that organic churn left below this episode shape's working set.
  PeerId owner = 0;
  for (int i = 0; i < 30; ++i) {
    owner = FindRepairablePeer(network, (owner + 1) % 300);
    probe.SeverPartners(owner, 10);
    probe.RunRepair(owner);
  }

  g_allocs.store(0);
  g_counting.store(true);
  for (int i = 0; i < 40; ++i) {
    owner = FindRepairablePeer(network, (owner + 1) % 300);
    probe.SeverPartners(owner, 10);
    probe.RunRepair(owner);
  }
  g_counting.store(false);
  // Zero expected. The allowance of 2 covers the one legitimate residual:
  // a placement can push some host's client list past its all-time high
  // water, growing that vector. That cost is per-high-water-mark, not
  // per-episode.
  EXPECT_LE(g_allocs.load(), 2);
  network.CheckInvariants();
}

TEST(HotPathAllocTest, IndexMaintenanceNeverReallocates) {
  // The eligible-candidate index is reserved to the id-space bound at
  // construction, so CandInsert/CandRemove/CandSwap - including a mass exit
  // that empties a third of it and a join wave that refills it - never touch
  // the heap. Capacity identity across the storm is the witness: a single
  // reallocation anywhere would change it.
  const auto profiles = *scenario::PopulationSpec::Paper().Compile();
  sim::EngineOptions eopts;
  eopts.seed = 13;
  eopts.end_round = 900;
  sim::Engine engine(eopts);
  std::vector<PopulationAdjustment> workload;
  workload.push_back(PopulationAdjustment{300, 0, 150});
  workload.push_back(PopulationAdjustment{500, 150, 0});
  workload.push_back(PopulationAdjustment{700, 0, 100});
  BackupNetwork network(&engine, &profiles, WarmOptions(), workload);
  const size_t cap_at_birth = network.candidate_index().capacity();
  ASSERT_GE(cap_at_birth, 400u + 150u);  // reserve() covers every join slot
  WarmUp(&engine, 400);

  // The alloc-counted probe episodes of the tests above plus this storm
  // cover the index end to end: sampling swaps in BuildPool (counted
  // strictly zero there) and maintenance swaps here.
  while (engine.Step()) {
  }
  EXPECT_EQ(network.candidate_index().capacity(), cap_at_birth);
  network.CheckInvariants();
}

TEST(HotPathAllocTest, RoundLoopAllocationsDoNotScaleWithEpisodes) {
  P2P_SKIP_IF_NO_ALLOC_COUNTING();
  const auto profiles = *scenario::PopulationSpec::Paper().Compile();
  sim::EngineOptions eopts;
  eopts.seed = 7;
  eopts.end_round = 1400;
  sim::Engine engine(eopts);
  BackupNetwork network(&engine, &profiles, WarmOptions());
  // Warm past a full lap of the 1024-slot calendar rings: until every slot
  // has been pushed to at least once, first-ever pushes still grow ring
  // buffers and would be misread as steady-state allocations.
  WarmUp(&engine, 1100);

  const int64_t episodes_before = network.metrics().repairs();
  const int64_t draws_before = network.pool_stats().draws;
  g_allocs.store(0);
  g_counting.store(true);
  while (engine.Step()) {
  }
  g_counting.store(false);

  const int64_t episodes = network.metrics().repairs() - episodes_before;
  const int64_t draws = network.pool_stats().draws - draws_before;
  // The window must actually exercise the hot path...
  ASSERT_GT(episodes, 50);
  ASSERT_GT(draws, 1000);
  // ...without per-episode or per-draw heap traffic. The residual belongs
  // to subsystems outside the repair path - first pushes into far-future
  // departure ring slots; the default age-rank estimator keeps no monitor,
  // so no session history grows - and stays a small multiple of rounds,
  // orders of magnitude under draws.
  const int64_t allocs = g_allocs.load();
  EXPECT_LT(allocs, 300 * 4) << "episodes=" << episodes << " draws=" << draws;
  EXPECT_LT(allocs, draws / 25) << "episodes=" << episodes;
  network.CheckInvariants();
}

// Eight downloads share two sources (a third is offline), so each takes
// several rounds. Once the first tick has taken the scheduler's per-tick
// scratch to its high-water capacity, later ticks touch no heap.
class SharedSources : public transfer::PeerDirectory {
 public:
  bool Online(transfer::PeerId id) const override { return id != 10; }
  void AppendSources(transfer::PeerId,
                     std::vector<transfer::PeerId>* out) const override {
    out->insert(out->end(), {8, 9, 10});
  }
};

TEST(HotPathAllocTest, SteadyStateTransferTicksAreAllocationFree) {
  P2P_SKIP_IF_NO_ALLOC_COUNTING();
  transfer::TransferScheduler sched(net::LinkProfile::Dsl2009(),
                                    /*id_capacity=*/16,
                                    /*archive_bytes=*/128ull << 20,
                                    /*k=*/128, /*m=*/128);
  const SharedSources directory;
  for (transfer::PeerId owner = 0; owner < 8; ++owner) {
    sched.Enqueue(owner, 1, /*initial=*/false, /*upload_blocks=*/128, 0);
  }
  std::vector<transfer::TransferCompletion> done;
  done.reserve(8);
  sched.Tick(1, directory, &done);  // warm the scratch

  const double downloaded = sched.stats().bytes_downloaded;
  g_allocs.store(0);
  g_counting.store(true);
  for (sim::Round now = 2; now <= 4; ++now) sched.Tick(now, directory, &done);
  g_counting.store(false);

  EXPECT_EQ(g_allocs.load(), 0);
  EXPECT_GT(sched.stats().bytes_downloaded, downloaded);
  EXPECT_TRUE(done.empty());  // still downloading: every tick did full work
}

}  // namespace
}  // namespace backup
}  // namespace p2p
