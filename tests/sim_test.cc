// Simulation engine tests: calendar queue semantics, determinism, hooks.

#include <gtest/gtest.h>

#include "sim/clock.h"
#include "sim/engine.h"
#include "sim/event_queue.h"

namespace p2p {
namespace sim {
namespace {

TEST(ClockTest, Conversions) {
  EXPECT_EQ(DaysToRounds(1), 24);
  EXPECT_EQ(MonthsToRounds(3), 3 * 30 * 24);
  EXPECT_EQ(YearsToRounds(1), 8760);
  EXPECT_DOUBLE_EQ(RoundsToDays(48), 2.0);
}

// The events DrainInto delivers for round `at`, in delivery order.
std::vector<int> DrainAll(CalendarQueue<int>* q, Round at) {
  std::vector<int> out;
  q->DrainInto(at, [&out](int v) { out.push_back(v); });
  return out;
}

TEST(CalendarQueueTest, FifoWithinRound) {
  CalendarQueue<int> q;
  q.Schedule(0, 1);
  q.Schedule(0, 2);
  q.Schedule(1, 3);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(DrainAll(&q, 0), (std::vector<int>{1, 2}));
  EXPECT_EQ(DrainAll(&q, 1), (std::vector<int>{3}));
  EXPECT_EQ(q.size(), 0u);
}

TEST(CalendarQueueTest, GrowsBeyondInitialHorizon) {
  CalendarQueue<int> q(4);
  q.Schedule(0, 0);
  q.Schedule(100, 100);   // forces growth
  q.Schedule(3, 3);
  EXPECT_EQ(DrainAll(&q, 0), (std::vector<int>{0}));
  EXPECT_TRUE(DrainAll(&q, 1).empty());
  EXPECT_TRUE(DrainAll(&q, 2).empty());
  EXPECT_EQ(DrainAll(&q, 3), (std::vector<int>{3}));
  for (Round r = 4; r < 100; ++r) EXPECT_TRUE(DrainAll(&q, r).empty());
  EXPECT_EQ(DrainAll(&q, 100), (std::vector<int>{100}));
}

TEST(CalendarQueueTest, GrowPreservesEventsAfterWrap) {
  CalendarQueue<int> q(4);
  // Advance the base so the ring has wrapped before growing.
  for (Round r = 0; r < 6; ++r) {
    q.Schedule(r, static_cast<int>(r));
    EXPECT_EQ(DrainAll(&q, r).size(), 1u);
  }
  q.Schedule(7, 7);
  q.Schedule(8, 8);
  q.Schedule(64, 64);  // grow with pending events at wrapped indices
  EXPECT_TRUE(DrainAll(&q, 6).empty());
  EXPECT_EQ(DrainAll(&q, 7), (std::vector<int>{7}));
  EXPECT_EQ(DrainAll(&q, 8), (std::vector<int>{8}));
  for (Round r = 9; r < 64; ++r) EXPECT_TRUE(DrainAll(&q, r).empty());
  EXPECT_EQ(DrainAll(&q, 64), (std::vector<int>{64}));
}

TEST(CalendarQueueTest, DrainIntoAllowsReschedulingWhileDraining) {
  CalendarQueue<int> q(4);
  q.Schedule(0, 5);
  std::vector<int> seen;
  q.DrainInto(0, [&](int v) {
    seen.push_back(v);
    if (v == 5) q.Schedule(2, 6);  // schedule from inside the callback
  });
  EXPECT_EQ(seen, (std::vector<int>{5}));
  q.DrainInto(1, [&](int) { FAIL(); });
  q.DrainInto(2, [&](int v) { seen.push_back(v); });
  EXPECT_EQ(seen, (std::vector<int>{5, 6}));
}

TEST(EngineTest, RunsToEndRound) {
  EngineOptions opts;
  opts.end_round = 10;
  Engine engine(opts);
  int rounds = 0;
  engine.AddRoundHook([&](Round) { ++rounds; });
  engine.Run();
  EXPECT_EQ(rounds, 10);
  EXPECT_EQ(engine.now(), 10);
  EXPECT_FALSE(engine.Step());  // past the end
}

TEST(EngineTest, HooksRunInRegistrationOrder) {
  EngineOptions opts;
  opts.end_round = 1;
  Engine engine(opts);
  std::vector<int> order;
  engine.AddRoundHook([&](Round) { order.push_back(1); });
  engine.AddRoundHook([&](Round) { order.push_back(2); });
  engine.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EngineTest, StreamsAreStableAndDeterministic) {
  EngineOptions opts;
  opts.seed = 77;
  Engine a(opts), b(opts);
  util::Rng* s1 = a.Stream(1);
  const uint64_t first = s1->NextU64();
  // Registering more streams must not invalidate or perturb stream 1.
  for (uint64_t p = 2; p < 30; ++p) a.Stream(p);
  util::Rng* s1_again = a.Stream(1);
  EXPECT_EQ(s1, s1_again);
  EXPECT_EQ(b.Stream(1)->NextU64(), first);
}

TEST(EngineTest, ShuffleDeterministicPerSeed) {
  EngineOptions opts;
  opts.seed = 5;
  Engine a(opts), b(opts);
  std::vector<uint32_t> va{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<uint32_t> vb = va;
  a.ShuffleForRound(&va);
  b.ShuffleForRound(&vb);
  EXPECT_EQ(va, vb);
}

}  // namespace
}  // namespace sim
}  // namespace p2p
