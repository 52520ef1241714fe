// The bandwidth-constrained transfer scheduler: link registry resolution,
// single-job phase timing against the section-2.2.4 cost model, fair-share
// contention, pause/stall/cancel semantics, a randomized property test
// (per-round capacity bounds + byte conservation on every link profile),
// and the scenario-level plumbing (text round-trip, invariant-checked run).

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "scenario/registry.h"
#include "scenario/scenario.h"
#include "scenario/text.h"
#include "transfer/link.h"
#include "transfer/scheduler.h"

namespace p2p {
namespace transfer {
namespace {

constexpr uint64_t kArchiveBytes = 128ull << 20;  // 128 MB
constexpr int kK = 128;
constexpr int kM = 128;

// A scripted world: per-peer online bits and per-owner source lists. The
// call counters let a test hold Tick() to one walk of each source list.
class FakeDirectory : public PeerDirectory {
 public:
  explicit FakeDirectory(uint32_t peers) : online_(peers, 1), sources_(peers) {}

  bool Online(PeerId id) const override {
    ++online_calls_;
    return online_[id] != 0;
  }
  void AppendSources(PeerId owner,
                     std::vector<PeerId>* out) const override {
    ++append_calls_;
    sources_returned_ += static_cast<int64_t>(sources_[owner].size());
    out->insert(out->end(), sources_[owner].begin(), sources_[owner].end());
  }
  void ResetCounters() {
    online_calls_ = append_calls_ = sources_returned_ = 0;
  }

  std::vector<uint8_t> online_;
  std::vector<std::vector<PeerId>> sources_;
  mutable int64_t online_calls_ = 0;
  mutable int64_t append_calls_ = 0;
  mutable int64_t sources_returned_ = 0;
};

TransferScheduler MakeScheduler(const net::LinkProfile& link, uint32_t peers) {
  return TransferScheduler(link, peers, kArchiveBytes, kK, kM);
}

TEST(LinkRegistryTest, NamesInRegistrationOrder) {
  const std::vector<std::string> names = LinkProfileNames();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "dsl-2009");
  EXPECT_EQ(names[1], "dsl-modern");
  EXPECT_EQ(names[2], "ftth");
}

TEST(LinkRegistryTest, FindResolvesPaperProfile) {
  const util::Result<net::LinkProfile> link = FindLinkProfile("dsl-2009");
  ASSERT_TRUE(link.ok());
  EXPECT_DOUBLE_EQ(link->download_bytes_per_s, 256.0 * 1024.0);
  EXPECT_DOUBLE_EQ(link->upload_bytes_per_s, 32.0 * 1024.0);
}

TEST(LinkRegistryTest, UnknownNameListsRegistry) {
  const util::Result<net::LinkProfile> link = FindLinkProfile("isdn-1999");
  ASSERT_FALSE(link.ok());
  EXPECT_NE(link.status().message().find("isdn-1999"), std::string::npos);
  EXPECT_NE(link.status().message().find("dsl-2009"), std::string::npos);
  EXPECT_NE(link.status().message().find("ftth"), std::string::npos);
}

TEST(TransferSchedulerTest, InitialJobUploadsWithoutDownloadPhase) {
  TransferScheduler sched =
      MakeScheduler(net::LinkProfile::Dsl2009(), /*peers=*/4);
  FakeDirectory directory(4);
  const double up_cap = sched.uplink_bytes_per_round();

  sched.Enqueue(/*owner=*/0, /*incarnation=*/7, /*initial=*/true,
                /*upload_blocks=*/kK, /*now=*/0);
  EXPECT_TRUE(sched.HasJob(0));
  EXPECT_EQ(sched.QueueDepth(), 1);

  std::vector<TransferCompletion> done;
  sched.Tick(1, directory, &done);
  // 128 x 1 MB does not fit in one round of 32 kB/s uplink.
  EXPECT_TRUE(done.empty());
  EXPECT_DOUBLE_EQ(sched.stats().bytes_uploaded, up_cap);
  EXPECT_DOUBLE_EQ(sched.stats().bytes_downloaded, 0.0);

  sched.Tick(2, directory, &done);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].owner, 0u);
  EXPECT_EQ(done[0].incarnation, 7u);
  EXPECT_TRUE(done[0].initial);
  EXPECT_EQ(done[0].download_rounds, 0);
  EXPECT_FALSE(sched.HasJob(0));
  EXPECT_DOUBLE_EQ(sched.stats().bytes_uploaded,
                   static_cast<double>(sched.block_bytes()) * kK);
}

TEST(TransferSchedulerTest, MaintenanceJobDownloadsThenUploads) {
  constexpr uint32_t kPeers = 130;
  TransferScheduler sched = MakeScheduler(net::LinkProfile::Dsl2009(), kPeers);
  FakeDirectory directory(kPeers);
  for (PeerId src = 1; src <= 128; ++src) directory.sources_[0].push_back(src);

  sched.Enqueue(/*owner=*/0, /*incarnation=*/1, /*initial=*/false,
                /*upload_blocks=*/kK, /*now=*/0);
  std::vector<TransferCompletion> done;
  sched.Tick(1, directory, &done);
  // With 128 idle sources the download is downlink-bound: 512 s out of the
  // 3600 s round, so it finishes in round 1 and the upload phase starts in
  // the same round with the leftover budget.
  EXPECT_TRUE(done.empty());
  EXPECT_DOUBLE_EQ(sched.stats().bytes_downloaded,
                   static_cast<double>(sched.block_bytes()) * kK);
  EXPECT_GT(sched.stats().bytes_uploaded, 0.0);
  EXPECT_LE(sched.uplink_used()[0],
            sched.uplink_bytes_per_round() * (1.0 + 1e-9));

  sched.Tick(2, directory, &done);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_FALSE(done[0].initial);
  EXPECT_EQ(done[0].download_rounds, 1);  // enqueued round 0, finished round 1
}

// A job runs in whole one-hour rounds, and the owner's next job starts the
// round after its predecessor completes, so back-to-back full repairs run at
// exactly 24 / ceil(delta_repair / 3600 s) per day on every link - never above
// the analytic 86400 / delta_repair. On dsl-2009 (delta_repair = 4,608 s)
// that is 12/day against the paper's 18.75: the whole gap is quantization.
TEST(TransferSchedulerTest, BackToBackRepairsRunAtTheRoundQuantizedCeiling) {
  constexpr uint32_t kPeers = 130;
  constexpr int kJobs = 6;
  for (const std::string& name : LinkProfileNames()) {
    SCOPED_TRACE(name);
    const util::Result<net::LinkProfile> link = FindLinkProfile(name);
    ASSERT_TRUE(link.ok());
    TransferScheduler sched = MakeScheduler(*link, kPeers);
    FakeDirectory directory(kPeers);
    for (PeerId src = 1; src <= 128; ++src) {
      directory.sources_[0].push_back(src);
    }

    sim::Round now = 0;
    std::vector<TransferCompletion> done;
    for (int job = 0; job < kJobs; ++job) {
      sched.Enqueue(0, 1, /*initial=*/false, kK, now);
      while (sched.HasJob(0)) {
        done.clear();
        sched.Tick(++now, directory, &done);
      }
    }

    const net::RepairCostModel model(*link, kArchiveBytes, kK, kM);
    const double rounds_per_repair =
        std::ceil(model.RepairSeconds(kK) / 3600.0);
    EXPECT_EQ(static_cast<double>(now), kJobs * rounds_per_repair);
    const double measured = 24.0 * kJobs / static_cast<double>(now);
    EXPECT_DOUBLE_EQ(measured, 24.0 / rounds_per_repair);
    EXPECT_LE(measured, model.MaxRepairsPerDay(kK) + 1e-9);
  }
}

TEST(TransferSchedulerTest, FairShareSplitsASharedSourceUplink) {
  TransferScheduler sched =
      MakeScheduler(net::LinkProfile::Dsl2009(), /*peers=*/4);
  FakeDirectory directory(4);
  directory.sources_[1] = {0};
  directory.sources_[2] = {0};

  sched.Enqueue(1, 1, /*initial=*/false, kK, 0);
  sched.Enqueue(2, 1, /*initial=*/false, kK, 0);
  std::vector<TransferCompletion> done;
  sched.Tick(1, directory, &done);

  const double up_cap = sched.uplink_bytes_per_round();
  // Source 0 serves both downloads: its uplink is exactly saturated and
  // split evenly, regardless of enqueue order.
  EXPECT_DOUBLE_EQ(sched.uplink_used()[0], up_cap);
  EXPECT_DOUBLE_EQ(sched.downlink_used()[1], up_cap / 2.0);
  EXPECT_DOUBLE_EQ(sched.downlink_used()[2], up_cap / 2.0);
}

TEST(TransferSchedulerTest, OfflineOwnerPausesWithoutConsumingCapacity) {
  TransferScheduler sched =
      MakeScheduler(net::LinkProfile::Dsl2009(), /*peers=*/4);
  FakeDirectory directory(4);
  directory.online_[0] = 0;

  sched.Enqueue(0, 1, /*initial=*/true, kK, 0);
  std::vector<TransferCompletion> done;
  sched.Tick(1, directory, &done);
  EXPECT_TRUE(done.empty());
  EXPECT_TRUE(sched.HasJob(0));
  EXPECT_DOUBLE_EQ(sched.stats().bytes_uploaded, 0.0);
  EXPECT_DOUBLE_EQ(sched.last_tick().used_bytes, 0.0);

  // Back online: progress resumes.
  directory.online_[0] = 1;
  sched.Tick(2, directory, &done);
  EXPECT_GT(sched.stats().bytes_uploaded, 0.0);
}

TEST(TransferSchedulerTest, DownloadStallsWithNoOnlineSource) {
  TransferScheduler sched =
      MakeScheduler(net::LinkProfile::Dsl2009(), /*peers=*/4);
  FakeDirectory directory(4);
  directory.sources_[0] = {1, 2};
  directory.online_[1] = 0;
  directory.online_[2] = 0;

  sched.Enqueue(0, 1, /*initial=*/false, kK, 0);
  std::vector<TransferCompletion> done;
  sched.Tick(1, directory, &done);
  EXPECT_TRUE(done.empty());
  EXPECT_DOUBLE_EQ(sched.stats().bytes_downloaded, 0.0);
  EXPECT_DOUBLE_EQ(sched.stats().bytes_uploaded, 0.0);
}

// One Tick() walks each downloading job's source list once: AppendSources
// once per online downloading job, and Online once per job owner plus once
// per returned source. Shared, offline and paused cases included.
TEST(TransferSchedulerTest, TickWalksEachSourceListOnce) {
  TransferScheduler sched =
      MakeScheduler(net::LinkProfile::Dsl2009(), /*peers=*/8);
  FakeDirectory directory(8);
  directory.sources_[0] = {1, 2, 3};  // source 3 offline
  directory.sources_[4] = {1, 2};     // shares sources 1 and 2 with owner 0
  directory.sources_[6] = {1};        // owner 6 offline: paused
  directory.online_[3] = 0;
  directory.online_[6] = 0;

  sched.Enqueue(0, 1, /*initial=*/false, kK, 0);
  sched.Enqueue(4, 1, /*initial=*/false, kK, 0);
  sched.Enqueue(5, 1, /*initial=*/true, kK, 0);  // upload only
  sched.Enqueue(6, 1, /*initial=*/false, kK, 0);
  constexpr int64_t kJobs = 4;

  std::vector<TransferCompletion> done;
  sched.Tick(1, directory, &done);
  EXPECT_EQ(directory.append_calls_, 2);  // owners 0 and 4
  EXPECT_EQ(directory.sources_returned_, 5);
  EXPECT_EQ(directory.online_calls_, kJobs + directory.sources_returned_);
  EXPECT_GT(sched.downlink_used()[0], 0.0);
  EXPECT_GT(sched.downlink_used()[4], 0.0);
  EXPECT_DOUBLE_EQ(sched.downlink_used()[6], 0.0);
  EXPECT_DOUBLE_EQ(sched.uplink_used()[3], 0.0);
  // Sources 1 and 2 each serve two downloads: exactly saturated.
  EXPECT_DOUBLE_EQ(sched.uplink_used()[1], sched.uplink_bytes_per_round());
  EXPECT_DOUBLE_EQ(sched.uplink_used()[2], sched.uplink_bytes_per_round());
}

TEST(TransferSchedulerTest, CancelDropsTheJob) {
  TransferScheduler sched =
      MakeScheduler(net::LinkProfile::Dsl2009(), /*peers=*/4);
  FakeDirectory directory(4);

  sched.Enqueue(3, 1, /*initial=*/true, kK, 0);
  EXPECT_TRUE(sched.Cancel(3));
  EXPECT_FALSE(sched.Cancel(3));  // idempotent
  EXPECT_FALSE(sched.HasJob(3));
  EXPECT_EQ(sched.QueueDepth(), 0);
  EXPECT_EQ(sched.stats().cancelled, 1u);

  std::vector<TransferCompletion> done;
  sched.Tick(1, directory, &done);
  EXPECT_TRUE(done.empty());
}

// The satellite property test: under randomized job arrivals, source churn,
// and online churn, every link profile must (a) never move more uplink bytes
// per peer-round than the link's uplink capacity, nor more downlink bytes
// per owner-round than its downlink capacity, and (b) conserve bytes - once
// the queue drains, exactly the enqueued volume has moved.
TEST(TransferSchedulerTest, PropertyCapacityBoundsAndByteConservation) {
  constexpr uint32_t kPeers = 48;
  for (const std::string& name : LinkProfileNames()) {
    SCOPED_TRACE(name);
    const util::Result<net::LinkProfile> link = FindLinkProfile(name);
    ASSERT_TRUE(link.ok());
    TransferScheduler sched = MakeScheduler(*link, kPeers);
    FakeDirectory directory(kPeers);
    const double up_cap = sched.uplink_bytes_per_round();
    const double down_cap = sched.downlink_bytes_per_round();
    const double block = static_cast<double>(sched.block_bytes());

    std::mt19937 rng(1234);
    std::uniform_int_distribution<int> pick(0, kPeers - 1);
    std::uniform_int_distribution<int> blocks(1, kK + kM);
    std::bernoulli_distribution coin(0.5);

    double expected_down = 0.0;
    double expected_up = 0.0;
    sim::Round now = 0;
    std::vector<TransferCompletion> done;
    for (int tick = 0; tick < 240; ++tick) {
      for (int arrival = 0; arrival < 2; ++arrival) {
        const PeerId owner = static_cast<PeerId>(pick(rng));
        if (sched.HasJob(owner)) continue;
        const bool initial = coin(rng);
        const int up_blocks = blocks(rng);
        sched.Enqueue(owner, 1, initial, up_blocks, now);
        if (!initial) expected_down += block * kK;
        expected_up += block * up_blocks;
      }
      // World churn: flip one online bit, reshuffle one source list (self
      // and duplicate entries allowed - the scheduler must stay bounded).
      directory.online_[pick(rng)] ^= 1;
      std::vector<PeerId>& sources = directory.sources_[pick(rng)];
      sources.clear();
      for (int s = 0; s < 8; ++s) {
        sources.push_back(static_cast<PeerId>(pick(rng)));
      }
      done.clear();
      const int64_t jobs = sched.QueueDepth();
      directory.ResetCounters();
      sched.Tick(++now, directory, &done);
      // One walk per source list, self and duplicate sources included.
      ASSERT_LE(directory.append_calls_, jobs);
      ASSERT_LE(directory.online_calls_, jobs + directory.sources_returned_);
      for (uint32_t peer = 0; peer < kPeers; ++peer) {
        ASSERT_LE(sched.uplink_used()[peer], up_cap * (1.0 + 1e-9));
        ASSERT_LE(sched.downlink_used()[peer], down_cap * (1.0 + 1e-9));
      }
      ASSERT_LE(sched.last_tick().used_bytes,
                sched.last_tick().capacity_bytes * (1.0 + 1e-9) +
                    down_cap);  // owners' downloads ride on source uplinks
    }

    // Drain: everyone online with well-formed sources; the queue must empty
    // and the lifetime byte counters must match what was enqueued exactly.
    for (uint32_t peer = 0; peer < kPeers; ++peer) {
      directory.online_[peer] = 1;
      directory.sources_[peer] = {static_cast<PeerId>((peer + 1) % kPeers),
                                  static_cast<PeerId>((peer + 2) % kPeers),
                                  static_cast<PeerId>((peer + 3) % kPeers)};
    }
    int guard = 0;
    while (sched.QueueDepth() > 0 && ++guard < 50000) {
      done.clear();
      sched.Tick(++now, directory, &done);
    }
    EXPECT_EQ(sched.QueueDepth(), 0);
    EXPECT_EQ(sched.stats().completed, sched.stats().enqueued);
    EXPECT_EQ(sched.stats().cancelled, 0u);
    EXPECT_NEAR(sched.stats().bytes_downloaded, expected_down, 1.0);
    EXPECT_NEAR(sched.stats().bytes_uploaded, expected_up, 1.0);
  }
}

TEST(TransferScenarioTest, TextRoundTripCarriesTransferKeys) {
  const util::Result<scenario::Scenario> base = scenario::LoadScenario("paper");
  ASSERT_TRUE(base.ok());
  // Defaults render no transfer keys at all (byte-identity of old files).
  EXPECT_EQ(scenario::RenderScenarioText(*base).find("transfer."),
            std::string::npos);

  scenario::Scenario with_transfer = *base;
  with_transfer.options.transfer_enabled = true;
  with_transfer.options.transfer_link = "ftth";
  const std::string text = scenario::RenderScenarioText(with_transfer);
  EXPECT_NE(text.find("transfer.enabled = true"), std::string::npos);
  EXPECT_NE(text.find("transfer.link = ftth"), std::string::npos);

  const util::Result<scenario::Scenario> parsed =
      scenario::ParseScenarioText(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(*parsed == with_transfer);
}

TEST(TransferScenarioTest, UnknownLinkFailsValidation) {
  const util::Result<scenario::Scenario> base = scenario::LoadScenario("paper");
  ASSERT_TRUE(base.ok());
  scenario::Scenario bad = *base;
  bad.options.transfer_enabled = true;
  bad.options.transfer_link = "isdn-1999";
  const util::Status status = bad.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("isdn-1999"), std::string::npos);
}

TEST(TransferScenarioTest, RunsUnderInvariantsAndReportsTransferProbes) {
  const util::Result<scenario::Scenario> base = scenario::LoadScenario("paper");
  ASSERT_TRUE(base.ok());
  scenario::Scenario s = *base;
  s.peers = 350;
  s.rounds = 400;
  s.options.transfer_enabled = true;
  s.options.transfer_link = "dsl-2009";
  ASSERT_TRUE(s.Validate().ok());

  scenario::RunOptions run;
  run.check_invariants = true;
  const scenario::Outcome outcome = scenario::RunScenario(s, run);
  const metrics::MetricValue* utilization =
      outcome.report.Find("uplink_utilization");
  ASSERT_NE(utilization, nullptr);
  EXPECT_GE(utilization->scalar, 0.0);
  EXPECT_LE(utilization->scalar, 1.0);
  EXPECT_NE(outcome.report.Find("time_to_backup_mean"), nullptr);
  EXPECT_NE(outcome.report.Find("time_to_backup_p99"), nullptr);
  EXPECT_NE(outcome.report.Find("time_to_restore_mean"), nullptr);
  EXPECT_NE(outcome.report.Find("time_to_restore_p99"), nullptr);
  EXPECT_NE(outcome.report.Find("data_loss_window"), nullptr);
}

}  // namespace
}  // namespace transfer
}  // namespace p2p
