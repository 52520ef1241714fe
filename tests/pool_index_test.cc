// The equivalence argument for the eligible-candidate index (README "Hot
// path"): replacing BuildPool's rejection sampler with partial Fisher-Yates
// over an incrementally maintained index changed the place_rng_ draw
// sequence, so these tests pin what must NOT have changed.
//
//  * Statistical identity: per-candidate selection frequencies match a
//    faithful in-test reimplementation of the historical rejection sampler
//    within binomial confidence bounds on a frozen world - both samplers
//    draw uniform without-replacement samples of the same eligible set.
//  * Brute-force oracle: after randomized transition storms (mass exits,
//    join waves, organic churn), the index contents equal a full
//    eligibility recompute from the public peer state, with the online
//    partition boundary exact. CheckInvariants additionally cross-checks
//    the position map at every checkpoint (wiredtiger-style long-run
//    invariant discipline).
//  * Lockstep determinism: identically seeded worlds produce identical
//    index orderings, identical pools, and identical generator states.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "backup/hotpath_probe.h"
#include "backup/network.h"
#include "backup/options.h"
#include "churn/profile.h"
#include "scenario/population.h"
#include "sim/engine.h"
#include "util/rng.h"

namespace p2p {
namespace backup {
namespace {

SystemOptions PoolOptions() {
  SystemOptions opts;
  opts.num_peers = 300;
  opts.k = 16;
  opts.m = 16;
  opts.repair_threshold = 20;
  opts.quota_blocks = 48;
  return opts;
}

void RunTo(sim::Engine* engine, sim::Round upto) {
  while (engine->now() < upto && engine->Step()) {
  }
}

PeerId FindOwner(const BackupNetwork& network) {
  for (PeerId id = 0; id < network.options().num_peers; ++id) {
    if (network.IsLive(id) && network.IsOnline(id) && network.IsBackedUp(id)) {
      return id;
    }
  }
  ADD_FAILURE() << "no live online backed-up owner";
  return 0;
}

TEST(PoolIndexTest, SelectionFrequenciesMatchRejectionSampler) {
  // Freeze a churned world, then sample many pools for one owner with (a)
  // the production index sampler and (b) a faithful reimplementation of the
  // pre-index rejection sampler (uniform draws over the id space, epoch
  // dup-marking, eligibility filters) on its own generator. Acceptance and
  // the quota market are disabled and the quota is never full, so both
  // reduce to uniform without-replacement samples over the same set: live,
  // online (timeout visibility), not the owner, not a current partner.
  // Per-candidate inclusion counts must agree within binomial noise.
  SystemOptions opts = PoolOptions();
  opts.use_acceptance = false;
  opts.quota_blocks = 100'000;  // hosted never reaches the quota boundary
  const auto profiles = *scenario::PopulationSpec::Paper().Compile();
  sim::EngineOptions eopts;
  eopts.seed = 17;
  eopts.end_round = 600;
  sim::Engine engine(eopts);
  BackupNetwork network(&engine, &profiles, opts);
  RunTo(&engine, 500);

  HotPathProbe probe(&network);
  const PeerId owner = FindOwner(network);
  const int needed = 8;
  const int target_pool =
      std::max(needed, static_cast<int>(std::ceil(opts.pool_factor * needed)));
  const int64_t max_draws =
      static_cast<int64_t>(opts.sample_attempt_factor) * target_pool;
  const uint32_t slots = opts.num_peers;  // no workload: ids == initial slots

  // The frozen world's eligible set and the owner's exclusion marks, both
  // constant across episodes (BuildPool pools, it never places).
  std::vector<bool> excluded(slots, false);
  excluded[owner] = true;
  for (PeerId partner : probe.PartnerIds(owner)) excluded[partner] = true;
  std::vector<bool> eligible(slots, false);
  int64_t eligible_count = 0;
  for (PeerId id = 0; id < slots; ++id) {
    eligible[id] = network.IsLive(id) && network.IsOnline(id);
    if (eligible[id] && !excluded[id]) ++eligible_count;
  }
  ASSERT_GT(eligible_count, 3 * target_pool);  // pools never run the set dry

  const int kEpisodes = 4000;
  std::vector<int64_t> count_index(slots, 0);
  std::vector<int64_t> count_reject(slots, 0);

  for (int t = 0; t < kEpisodes; ++t) {
    const int pooled = probe.BuildPool(owner, needed);
    ASSERT_EQ(pooled, target_pool);  // eligible_count >> target: always fills
    for (const core::Candidate& cand : *probe.scratch_pool()) {
      ++count_index[cand.id];
    }
  }

  util::Rng ref_rng(0xfeedbeef);
  std::vector<uint32_t> mark(slots, 0);
  uint32_t epoch = 0;
  for (int t = 0; t < kEpisodes; ++t) {
    ++epoch;
    mark[owner] = epoch;
    for (PeerId id = 0; id < slots; ++id) {
      if (excluded[id]) mark[id] = epoch;
    }
    int64_t draws = 0;
    int pooled = 0;
    while (draws < max_draws && pooled < target_pool) {
      ++draws;
      const PeerId c = static_cast<PeerId>(
          ref_rng.UniformInt(0, static_cast<int64_t>(slots) - 1));
      if (mark[c] == epoch) continue;  // dup (or excluded)
      mark[c] = epoch;
      if (!eligible[c]) continue;  // not live / not online
      ++pooled;
      ++count_reject[c];
    }
  }

  // Both count vectors are Binomial(kEpisodes, p) per candidate with the
  // same p = target_pool / eligible_count; their difference has variance
  // 2 * kEpisodes * p * (1 - p). A 6-sigma per-candidate gate across ~270
  // candidates has essentially zero false-positive mass while catching any
  // systematic bias (a skipped segment, an off-by-one span) immediately.
  int64_t total_index = 0, total_reject = 0;
  for (PeerId id = 0; id < slots; ++id) {
    if (!eligible[id] || excluded[id]) {
      EXPECT_EQ(count_index[id], 0) << "ineligible id " << id << " pooled";
      EXPECT_EQ(count_reject[id], 0);
      continue;
    }
    total_index += count_index[id];
    total_reject += count_reject[id];
    const double p_hat =
        static_cast<double>(count_index[id] + count_reject[id]) /
        (2.0 * kEpisodes);
    const double sigma =
        std::sqrt(2.0 * kEpisodes * p_hat * (1.0 - p_hat)) + 1e-9;
    const double z =
        std::abs(static_cast<double>(count_index[id] - count_reject[id])) /
        sigma;
    EXPECT_LT(z, 6.0) << "id " << id << ": index " << count_index[id]
                      << " vs rejection " << count_reject[id];
  }
  // Aggregate sanity: both samplers pooled candidates at the same rate.
  EXPECT_EQ(total_index, static_cast<int64_t>(kEpisodes) * target_pool);
  EXPECT_NEAR(static_cast<double>(total_reject),
              static_cast<double>(total_index),
              0.01 * static_cast<double>(total_index));
}

TEST(PoolIndexTest, IndexMatchesFullEligibilityRecomputeUnderStorms) {
  // Transition storms: mass exits vacate slots, join waves refill fresh
  // ones, and organic churn toggles sessions throughout. At staggered
  // checkpoints the index must equal a from-scratch recompute of the
  // eligible set, with the online prefix exact - the brute-force oracle for
  // the O(1) swap-with-last maintenance.
  const auto profiles = *scenario::PopulationSpec::Paper().Compile();
  sim::EngineOptions eopts;
  eopts.seed = 23;
  eopts.end_round = 500;
  sim::Engine engine(eopts);
  std::vector<PopulationAdjustment> workload;
  workload.push_back(PopulationAdjustment{50, 0, 60});
  workload.push_back(PopulationAdjustment{80, 40, 0});
  workload.push_back(PopulationAdjustment{120, 30, 50});
  workload.push_back(PopulationAdjustment{160, 0, 40});
  BackupNetwork network(&engine, &profiles, PoolOptions(), workload);
  const uint32_t normal_slots = PoolOptions().num_peers + 40 + 30;

  const sim::Round checkpoints[] = {1, 49, 51, 81, 121, 161, 300, 500};
  for (sim::Round at : checkpoints) {
    RunTo(&engine, at);
    network.CheckInvariants();  // position map + partition, internally

    const std::vector<PeerId>& index = network.candidate_index();
    const uint32_t online = network.candidate_online_count();
    ASSERT_LE(online, index.size());

    // Full recompute from public state: membership and partition.
    std::vector<bool> in_index(normal_slots, false);
    for (uint32_t pos = 0; pos < index.size(); ++pos) {
      const PeerId id = index[pos];
      ASSERT_LT(id, normal_slots);
      ASSERT_FALSE(in_index[id]) << "id " << id << " twice in the index";
      in_index[id] = true;
      EXPECT_TRUE(network.IsLive(id));
      EXPECT_EQ(pos < online, network.IsOnline(id))
          << "id " << id << " on the wrong side of the online boundary";
    }
    uint32_t live_count = 0;
    for (PeerId id = 0; id < normal_slots; ++id) {
      if (network.IsLive(id)) {
        ++live_count;
        EXPECT_TRUE(in_index[id]) << "live id " << id << " missing";
      }
    }
    EXPECT_EQ(index.size(), live_count);
    EXPECT_EQ(static_cast<int64_t>(live_count), network.LivePopulation());
  }
}

TEST(PoolIndexTest, IdenticallySeededWorldsStayInLockstep) {
  // Same seed, same steps, same probe episodes: the index ordering (scars
  // of every swap included), the sampled pools, and the placement-stream
  // state must all be identical - the determinism contract the re-rolled
  // goldens stand on.
  const auto profiles = *scenario::PopulationSpec::Paper().Compile();
  auto make = [&](sim::Engine* engine) {
    return std::make_unique<BackupNetwork>(engine, &profiles, PoolOptions());
  };
  sim::EngineOptions eopts;
  eopts.seed = 29;
  eopts.end_round = 400;
  sim::Engine ea(eopts), eb(eopts);
  auto na = make(&ea);
  auto nb = make(&eb);
  RunTo(&ea, 300);
  RunTo(&eb, 300);

  HotPathProbe pa(na.get()), pb(nb.get());
  EXPECT_EQ(na->candidate_index(), nb->candidate_index());
  EXPECT_EQ(na->candidate_online_count(), nb->candidate_online_count());

  const PeerId owner = FindOwner(*na);
  for (int episode = 0; episode < 50; ++episode) {
    const int got_a = pa.BuildPool(owner, 8);
    const int got_b = pb.BuildPool(owner, 8);
    ASSERT_EQ(got_a, got_b);
    const auto& pool_a = *pa.scratch_pool();
    const auto& pool_b = *pb.scratch_pool();
    for (size_t i = 0; i < pool_a.size(); ++i) {
      ASSERT_EQ(pool_a[i].id, pool_b[i].id) << "episode " << episode;
      ASSERT_EQ(pool_a[i].score, pool_b[i].score);
    }
    util::Rng sa = *pa.place_rng();
    util::Rng sb = *pb.place_rng();
    for (int w = 0; w < 4; ++w) ASSERT_EQ(sa.NextU64(), sb.NextU64());
  }
  EXPECT_EQ(na->candidate_index(), nb->candidate_index());
  na->CheckInvariants();
  nb->CheckInvariants();
}

}  // namespace
}  // namespace backup
}  // namespace p2p
