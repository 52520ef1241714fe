// Availability monitor tests: the queries the backup protocol relies on,
// the estimator snapshot API, and the prefix-summed window accounting
// (checked against a brute-force per-round oracle).

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "monitor/availability_monitor.h"
#include "util/rng.h"

namespace p2p {
namespace monitor {
namespace {

TEST(MonitorTest, LastSeenAndAge) {
  AvailabilityMonitor mon(4);
  mon.RecordJoin(1, 5);
  mon.RecordConnect(1, 5);
  EXPECT_EQ(mon.LastSeen(1, 8), 8);  // online now
  mon.RecordDisconnect(1, 9);
  EXPECT_EQ(mon.LastSeen(1, 30), 9);
  EXPECT_EQ(mon.Age(1, 30), 25);
}

TEST(MonitorTest, AvailabilityOverWindow) {
  AvailabilityMonitor mon(4);
  mon.RecordJoin(0, 0);
  mon.RecordConnect(0, 0);
  mon.RecordDisconnect(0, 50);   // online [0, 50)
  mon.RecordConnect(0, 75);      // online [75, 100)
  const double avail = mon.AvailabilityOver(0, 100, 100);
  EXPECT_NEAR(avail, (50 + 25) / 100.0, 1e-9);
}

TEST(MonitorTest, AvailabilityIgnoresHistoryBeyondWindow) {
  AvailabilityMonitor mon(4);
  mon.RecordJoin(0, 0);
  mon.RecordConnect(0, 0);
  mon.RecordDisconnect(0, 10);  // old session
  EXPECT_DOUBLE_EQ(mon.AvailabilityOver(0, 50, 100), 0.0);
}

TEST(MonitorTest, OngoingSessionCounted) {
  AvailabilityMonitor mon(2);
  mon.RecordJoin(0, 0);
  mon.RecordConnect(0, 90);
  EXPECT_NEAR(mon.AvailabilityOver(0, 20, 100), 0.5, 1e-9);  // online 10 of 20
}

TEST(MonitorTest, RejoinResetsHistory) {
  AvailabilityMonitor mon(2);
  mon.RecordJoin(0, 0);
  mon.RecordConnect(0, 0);
  mon.RecordDeparture(0, 50);
  mon.RecordJoin(0, 100);  // id recycled
  EXPECT_EQ(mon.Age(0, 110), 10);
  EXPECT_DOUBLE_EQ(mon.AvailabilityOver(0, 100, 110), 0.0);
}

TEST(MonitorTest, WindowClampedToHistoryBound) {
  AvailabilityMonitor mon(2, /*history_window=*/100);
  mon.RecordJoin(0, 0);
  mon.RecordConnect(0, 0);
  // Query for more than the retention window clamps to 100 rounds: the peer
  // was online for the 50 rounds that exist, out of a 100-round window.
  EXPECT_NEAR(mon.AvailabilityOver(0, 10'000, 50), 0.5, 1e-9);
}

TEST(MonitorTest, IdRecyclingFullyResetsHistory) {
  // A departed id handed to a fresh peer must carry nothing over: not the
  // age, not the last-seen stamp, not a single session of availability.
  AvailabilityMonitor mon(2);
  mon.RecordJoin(0, 0);
  mon.RecordConnect(0, 0);
  mon.RecordDisconnect(0, 30);
  mon.RecordConnect(0, 40);
  mon.RecordDeparture(0, 80);

  mon.RecordJoin(0, 100);  // id recycled for a brand-new machine
  EXPECT_EQ(mon.Age(0, 100), 0);
  EXPECT_EQ(mon.Age(0, 150), 50);
  EXPECT_EQ(mon.LastSeen(0, 150), -1);  // never seen online
  EXPECT_DOUBLE_EQ(mon.AvailabilityOver(0, 100, 150), 0.0);
  const auto fresh = mon.Observe(0, 100, 150);
  EXPECT_EQ(fresh.age, 50);
  EXPECT_DOUBLE_EQ(fresh.availability, 0.0);
  EXPECT_EQ(fresh.rounds_since_seen, 50);  // its whole (new) age

  // The new incarnation accumulates availability from scratch: 20 online
  // rounds out of the 100-round window, none inherited from the old peer.
  mon.RecordConnect(0, 160);
  mon.RecordDisconnect(0, 180);
  EXPECT_NEAR(mon.AvailabilityOver(0, 100, 200), 0.2, 1e-12);
}

TEST(MonitorTest, ObserveReportsTheFullTriple) {
  AvailabilityMonitor mon(2, /*history_window=*/100);
  mon.RecordJoin(0, 0);
  mon.RecordConnect(0, 0);
  mon.RecordDisconnect(0, 60);

  const auto offline = mon.Observe(0, 100, 100);
  EXPECT_EQ(offline.age, 100);
  EXPECT_NEAR(offline.availability, 0.6, 1e-12);
  EXPECT_EQ(offline.rounds_since_seen, 40);

  mon.RecordConnect(0, 110);
  const auto online = mon.Observe(0, 100, 120);
  EXPECT_EQ(online.age, 120);
  EXPECT_EQ(online.rounds_since_seen, 0);  // online right now
  // Window (20, 120]: online [20, 60) and [110, 120).
  EXPECT_NEAR(online.availability, 0.5, 1e-12);
}

TEST(MonitorTest, ObserveMemoInvalidatedByEvents) {
  AvailabilityMonitor mon(2, /*history_window=*/100);
  mon.RecordJoin(0, 0);
  mon.RecordConnect(0, 0);
  // Two queries in one round hit the memo; an event between them must not
  // leak the stale entry.
  EXPECT_NEAR(mon.Observe(0, 50, 50).availability, 1.0, 1e-12);
  EXPECT_NEAR(mon.Observe(0, 50, 50).availability, 1.0, 1e-12);
  mon.RecordDisconnect(0, 50);
  EXPECT_EQ(mon.Observe(0, 50, 50).rounds_since_seen, 0);
  // A different window in the same round is computed, not served stale.
  mon.RecordConnect(0, 75);
  EXPECT_NEAR(mon.Observe(0, 100, 100).availability, 0.75, 1e-12);
  EXPECT_NEAR(mon.Observe(0, 25, 100).availability, 1.0, 1e-12);
}

TEST(MonitorTest, PrefixSummedWindowsMatchBruteForceOracle) {
  // Random session histories, queried at random times over random windows:
  // the binary-search-plus-prefix-sum fast path must agree exactly with a
  // per-round recount of the same schedule.
  util::Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const sim::Round history_window = 50 + rng.UniformInt(0, 400);
    AvailabilityMonitor mon(1, history_window);
    std::vector<bool> online_at;  // oracle: round -> was peer online
    mon.RecordJoin(0, 0);
    sim::Round now = 0;
    bool online = false;
    for (int event = 0; event < 60; ++event) {
      now += 1 + rng.UniformInt(0, 60);
      if (online) {
        mon.RecordDisconnect(0, now);
      } else {
        mon.RecordConnect(0, now);
      }
      while (static_cast<sim::Round>(online_at.size()) < now) {
        online_at.push_back(online);
      }
      online = !online;

      const sim::Round window = 1 + rng.UniformInt(0, now + 10);
      const sim::Round effective = std::min(window, history_window);
      int64_t expect = 0;
      for (sim::Round r = std::max<sim::Round>(0, now - effective); r < now;
           ++r) {
        if (online_at[static_cast<size_t>(r)]) ++expect;
      }
      const double got = mon.AvailabilityOver(0, window, now);
      ASSERT_NEAR(got,
                  static_cast<double>(expect) / static_cast<double>(effective),
                  1e-12)
          << "trial=" << trial << " now=" << now << " window=" << window;
    }
  }
}

TEST(MonitorTest, LongRecycledHistoriesMatchBruteForceOracle) {
  // Session histories live in a vector whose dead prefix is compacted once
  // it reaches half the buffer, and a recycled id keeps that buffer. Drive
  // one id through long histories - many compactions per incarnation, ids
  // departed and rejoined with a used buffer, zero-length sessions after
  // gaps longer than the window (every session pruned, so the running
  // total restarts at 0) - and check every query against a per-round
  // recount.
  util::Rng rng(2024);
  for (int trial = 0; trial < 12; ++trial) {
    const sim::Round history_window = 20 + rng.UniformInt(0, 180);
    AvailabilityMonitor mon(1, history_window);
    std::vector<bool> online_at;  // oracle: round -> was peer online
    sim::Round now = 0;
    sim::Round joined = 0;
    sim::Round last_seen = -1;
    bool online = false;
    int recycles = 0;
    int full_prunes = 0;
    mon.RecordJoin(0, 0);
    const auto advance = [&](sim::Round gap) {
      now += gap;
      while (static_cast<sim::Round>(online_at.size()) < now) {
        online_at.push_back(online);
      }
    };
    for (int event = 0; event < 3000; ++event) {
      const int64_t roll = rng.UniformInt(0, 99);
      if (roll < 2) {
        // Departure, then the id is handed to a fresh peer.
        advance(rng.UniformInt(0, 10));
        mon.RecordDeparture(0, now);
        online = false;
        advance(1 + rng.UniformInt(0, 10));
        mon.RecordJoin(0, now);
        joined = now;
        last_seen = -1;
        ++recycles;
      } else if (roll < 6 && !online) {
        // Silent past the whole window, then a zero-length session: the
        // disconnect prunes every stored session.
        advance(history_window + 1 + rng.UniformInt(0, 40));
        mon.RecordConnect(0, now);
        mon.RecordDisconnect(0, now);
        last_seen = now;
        ++full_prunes;
      } else {
        advance(roll < 12 ? 0 : 1 + rng.UniformInt(0, 15));  // 0: same round
        if (online) {
          mon.RecordDisconnect(0, now);
          last_seen = now;
        } else {
          mon.RecordConnect(0, now);
        }
        online = !online;
      }

      const sim::Round window = 1 + rng.UniformInt(0, 2 * history_window);
      const sim::Round effective = std::min(window, history_window);
      int64_t expect = 0;
      for (sim::Round r = std::max(joined, now - effective); r < now; ++r) {
        if (online_at[static_cast<size_t>(r)]) ++expect;
      }
      const double want =
          static_cast<double>(expect) / static_cast<double>(effective);
      ASSERT_NEAR(mon.AvailabilityOver(0, window, now), want, 1e-12)
          << "trial=" << trial << " event=" << event << " now=" << now;
      const sim::Round seen = online ? now : last_seen;
      ASSERT_EQ(mon.LastSeen(0, now), seen) << "event=" << event;
      const core::PeerObservation obs = mon.Observe(0, window, now);
      ASSERT_EQ(obs.age, now - joined);
      ASSERT_NEAR(obs.availability, want, 1e-12);
      ASSERT_EQ(obs.rounds_since_seen, seen < 0 ? now - joined : now - seen);
    }
    EXPECT_GT(recycles, 20) << "trial=" << trial;
    EXPECT_GT(full_prunes, 20) << "trial=" << trial;
  }
}

}  // namespace
}  // namespace monitor
}  // namespace p2p
