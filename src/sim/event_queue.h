// Calendar event queue: O(1) schedule and drain for events keyed by round.
//
// The backup network schedules tens of millions of small POD events
// (departures, session toggles, timeout probes) per paper-scale run; a
// binary heap of std::function would dominate the runtime. This queue is a
// ring of plain vectors indexed by round, growing its horizon on demand.

#ifndef P2P_SIM_EVENT_QUEUE_H_
#define P2P_SIM_EVENT_QUEUE_H_

#include <cassert>
#include <vector>

#include "sim/clock.h"

namespace p2p {
namespace sim {

/// \brief Calendar queue of POD events of type `E`.
///
/// Events are scheduled at absolute rounds >= the current round and drained
/// once per round in FIFO order within the round. Draining advances the
/// queue's internal clock; rounds must be drained in increasing order.
template <typename E>
class CalendarQueue {
 public:
  /// Creates a queue starting at round 0 with an initial horizon.
  explicit CalendarQueue(Round initial_horizon = 1024)
      : base_(0), slots_(NextPow2(initial_horizon)) {}

  /// Schedules `event` at absolute round `at` (>= current round).
  void Schedule(Round at, E event) {
    assert(at >= base_);
    const Round offset = at - base_;
    if (offset >= static_cast<Round>(slots_.size())) Grow(offset + 1);
    slots_[Index(at)].push_back(std::move(event));
    ++size_;
  }

  /// Drains the events scheduled for round `at`, in FIFO order, via
  /// callback; `at` must be the current round (rounds are consumed in
  /// order). The slot is detached first, so callbacks may safely Schedule()
  /// into this queue (at rounds > `at`) while draining; the drained
  /// vector's capacity is recycled.
  template <typename Fn>
  void DrainInto(Round at, Fn&& fn) {
    assert(at == base_);
    drain_scratch_.clear();
    drain_scratch_.swap(slots_[Index(at)]);
    size_ -= drain_scratch_.size();
    ++base_;
    for (E& e : drain_scratch_) fn(e);
    // Hand the slot its own buffer back (unless a callback scheduled a full
    // horizon ahead into it, which keeps the swapped-in buffer instead).
    // Without this, each slot inherits the capacity of whatever round was
    // drained before it; under clustered schedules (diurnal reconnect
    // waves) the busy slots then regrow from a small buffer every lap of
    // the ring, which shows up as steady-state allocations in the round
    // loop. With it, every slot converges on its own high-water capacity.
    auto& slot = slots_[Index(at)];
    if (slot.empty() && slot.capacity() < drain_scratch_.capacity()) {
      drain_scratch_.clear();
      slot.swap(drain_scratch_);
    }
  }

  /// Total number of pending events.
  size_t size() const { return size_; }

 private:
  static size_t NextPow2(Round v) {
    size_t p = 1;
    while (p < static_cast<size_t>(v)) p <<= 1;
    return p;
  }

  size_t Index(Round at) const {
    return static_cast<size_t>(at) & (slots_.size() - 1);
  }

  void Grow(Round needed) {
    const size_t new_size = NextPow2(needed);
    std::vector<std::vector<E>> fresh(new_size);
    for (size_t i = 0; i < slots_.size(); ++i) {
      // Re-home every pending slot at its new index.
      const Round at = base_ + RelativeOffset(i);
      if (!slots_[i].empty()) {
        fresh[static_cast<size_t>(at) & (new_size - 1)] = std::move(slots_[i]);
      }
    }
    slots_ = std::move(fresh);
  }

  // Offset of physical slot i relative to base_ in the old ring.
  Round RelativeOffset(size_t i) const {
    const size_t base_idx = Index(base_);
    return static_cast<Round>((i + slots_.size() - base_idx) & (slots_.size() - 1));
  }

  Round base_;
  size_t size_ = 0;
  std::vector<std::vector<E>> slots_;
  std::vector<E> drain_scratch_;
};

}  // namespace sim
}  // namespace p2p

#endif  // P2P_SIM_EVENT_QUEUE_H_
