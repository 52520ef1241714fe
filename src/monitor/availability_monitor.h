// The availability monitoring protocol the paper assumes (section 2.1):
// "we assume the existence of a secure monitoring protocol for peer
// availability: any peer can query the availability of any other peer for a
// given period of time, for example the last 90 days."
//
// In the simulation the monitor is fed connect/disconnect/join/departure
// events and answers the queries the backup protocol needs: when was a peer
// last seen, how old is it, and what fraction of a recent window was it
// online. Session histories are stored per peer with running online
// totals and pruned lazily, so event cost is proportional to churn and a
// window query costs O(log sessions) (a binary search plus prefix-sum
// arithmetic), not a scan of the whole window.
//
// Only an estimator whose ReadsMonitor() is true consumes the monitor:
// BackupNetwork feeds it and asks for the full observation triple (age,
// availability, rounds since seen) through Observe, at most once per
// (peer, round) behind its per-round score memo. Under an age-only
// estimator the network builds the monitor with capacity 0 and never
// feeds or queries it.

#ifndef P2P_MONITOR_AVAILABILITY_MONITOR_H_
#define P2P_MONITOR_AVAILABILITY_MONITOR_H_

#include <cstdint>
#include <vector>

#include "core/lifetime_estimator.h"
#include "sim/clock.h"

namespace p2p {
namespace monitor {

/// Peer identifier (dense, assigned by the network).
using PeerId = uint32_t;

/// \brief Per-population availability bookkeeping.
class AvailabilityMonitor {
 public:
  /// `capacity` is the maximum number of peer ids; `history_window` bounds
  /// how far back availability queries may look (default 90 days, the
  /// paper's example query).
  explicit AvailabilityMonitor(uint32_t capacity,
                               sim::Round history_window = 90 * sim::kRoundsPerDay);

  /// \name Event feed (called by the network).
  /// @{
  /// Registers a peer joining at `now` (initially offline).
  void RecordJoin(PeerId peer, sim::Round now);
  /// Marks the peer online from `now`.
  void RecordConnect(PeerId peer, sim::Round now);
  /// Marks the peer offline from `now`.
  void RecordDisconnect(PeerId peer, sim::Round now);
  /// Marks a definitive departure; the id may later be recycled via
  /// RecordJoin, which resets all history.
  void RecordDeparture(PeerId peer, sim::Round now);
  /// @}

  /// \name Queries (what the secure monitoring protocol would answer).
  /// @{
  /// Last round the peer was seen online (== now when online); -1 if never.
  sim::Round LastSeen(PeerId peer, sim::Round now) const;
  /// Rounds since first connection - the age `s` in the acceptance function.
  sim::Round Age(PeerId peer, sim::Round now) const;
  /// Fraction of (now - window, now] the peer was online, in [0, 1].
  double AvailabilityOver(PeerId peer, sim::Round window, sim::Round now) const;
  /// @}

  /// \name Estimator snapshots.
  /// @{
  /// The full observation triple for one peer: age, availability over
  /// `window`, rounds since last seen (the peer's whole age if never seen).
  core::PeerObservation Observe(PeerId peer, sim::Round window,
                                sim::Round now) const;
  /// @}

  /// History window bound.
  sim::Round history_window() const { return history_window_; }

  /// Always-on query statistics: Observe() is the placement hot path (tens
  /// of millions of calls per grid), so instead of per-call TRACE_COUNTER
  /// bumps it keeps plain member counters (one add each) that callers flush
  /// into a trace session once per run (scenario.cc does).
  struct QueryStats {
    int64_t observe_calls = 0;
    // Always 0: Observe keeps no memo (the network's per-round score memo
    // sits in front of it). Kept because e2ebench/driver.cc reads it.
    int64_t memo_hits = 0;
  };
  const QueryStats& query_stats() const { return query_stats_; }

 private:
  /// One closed online session [start, end), plus the running total of
  /// online rounds in every closed session up to and including this one
  /// since the peer joined. The total is monotone and survives pruning, so
  /// a window query binary-searches the first intersecting session and
  /// reads the rest off the prefix sums.
  struct Session {
    sim::Round start = 0;
    sim::Round end = 0;
    int64_t cum_online = 0;
  };

  struct PeerHistory {
    sim::Round first_seen = -1;
    sim::Round online_since = -1;  // -1 when offline
    sim::Round last_seen = -1;     // last round online (end of last session)
    bool departed = false;
    // sessions[pruned, size()) are the closed sessions intersecting the
    // history window; the dead prefix before `pruned` is compacted away
    // once it is at least half the vector, so a session moves O(1) times
    // amortized and the buffer never shrinks (a recycled id reuses it).
    uint32_t pruned = 0;
    std::vector<Session> sessions;
  };

  void Prune(PeerHistory* h, sim::Round now) const;

  sim::Round history_window_;
  std::vector<PeerHistory> peers_;
  mutable QueryStats query_stats_;
};

}  // namespace monitor
}  // namespace p2p

#endif  // P2P_MONITOR_AVAILABILITY_MONITOR_H_
