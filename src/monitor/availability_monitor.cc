#include "monitor/availability_monitor.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace p2p {
namespace monitor {

AvailabilityMonitor::AvailabilityMonitor(uint32_t capacity,
                                         sim::Round history_window)
    : history_window_(history_window), peers_(capacity) {}

void AvailabilityMonitor::RecordJoin(PeerId peer, sim::Round now) {
  P2P_CHECK(peer < peers_.size());
  PeerHistory& h = peers_[peer];
  std::vector<Session> sessions = std::move(h.sessions);
  sessions.clear();  // keeps the capacity for the new incarnation
  h = PeerHistory();
  h.sessions = std::move(sessions);
  h.first_seen = now;
}

void AvailabilityMonitor::RecordConnect(PeerId peer, sim::Round now) {
  PeerHistory& h = peers_[peer];
  P2P_CHECK(!h.departed);
  if (h.first_seen < 0) h.first_seen = now;
  if (h.online_since < 0) h.online_since = now;
  h.last_seen = now;
}

void AvailabilityMonitor::RecordDisconnect(PeerId peer, sim::Round now) {
  PeerHistory& h = peers_[peer];
  if (h.online_since >= 0) {
    if (now > h.online_since) {
      const int64_t prev =
          h.sessions.empty() ? 0 : h.sessions.back().cum_online;
      h.sessions.push_back(
          Session{h.online_since, now, prev + (now - h.online_since)});
    }
    h.last_seen = now;  // online through the end of the previous round
    h.online_since = -1;
    Prune(&h, now);
  }
}

void AvailabilityMonitor::RecordDeparture(PeerId peer, sim::Round now) {
  RecordDisconnect(peer, now);
  peers_[peer].departed = true;
}

sim::Round AvailabilityMonitor::LastSeen(PeerId peer, sim::Round now) const {
  const PeerHistory& h = peers_[peer];
  if (h.online_since >= 0) return now;
  return h.last_seen;
}

sim::Round AvailabilityMonitor::Age(PeerId peer, sim::Round now) const {
  const PeerHistory& h = peers_[peer];
  if (h.first_seen < 0) return 0;
  return now - h.first_seen;
}

double AvailabilityMonitor::AvailabilityOver(PeerId peer, sim::Round window,
                                             sim::Round now) const {
  P2P_CHECK(window > 0);
  window = std::min(window, history_window_);
  const sim::Round lo = now - window;
  const PeerHistory& h = peers_[peer];
  int64_t online = 0;
  // Binary search for the first closed session that ends inside the window;
  // everything from there on contributes, read off the prefix sums. Only
  // that first session can straddle `lo`, so one clip suffices.
  const auto it = std::lower_bound(
      h.sessions.begin() + h.pruned, h.sessions.end(), lo,
      [](const Session& s, sim::Round bound) { return s.end <= bound; });
  if (it != h.sessions.end()) {
    const int64_t before =
        it->cum_online - (it->end - it->start);  // closed sessions before it
    online += h.sessions.back().cum_online - before;
    online -= std::max<sim::Round>(0, lo - it->start);
  }
  if (h.online_since >= 0) {
    online += now - std::max(h.online_since, lo);
  }
  return static_cast<double>(online) / static_cast<double>(window);
}

core::PeerObservation AvailabilityMonitor::Observe(PeerId peer,
                                                   sim::Round window,
                                                   sim::Round now) const {
  ++query_stats_.observe_calls;
  core::PeerObservation obs;
  obs.age = Age(peer, now);
  obs.availability = AvailabilityOver(peer, window, now);
  const sim::Round seen = LastSeen(peer, now);
  obs.rounds_since_seen = seen < 0 ? obs.age : now - seen;
  return obs;
}

void AvailabilityMonitor::Prune(PeerHistory* h, sim::Round now) const {
  const sim::Round lo = now - history_window_;
  std::vector<Session>& sessions = h->sessions;
  while (h->pruned < sessions.size() && sessions[h->pruned].end <= lo) {
    ++h->pruned;
  }
  // Compacting whenever the dead prefix is at least half the vector also
  // empties it when every session is dead, so the next session's running
  // total restarts at 0 (RecordDisconnect reads it off back()).
  if (h->pruned > 0 && 2 * static_cast<size_t>(h->pruned) >= sessions.size()) {
    sessions.erase(sessions.begin(), sessions.begin() + h->pruned);
    h->pruned = 0;
  }
}

}  // namespace monitor
}  // namespace p2p
