// The round-based simulation engine (PeerSim mould, paper section 3.1):
// "in a round, each peer is given the opportunity to execute some code ...
// execution is sequential ... the order of peers is chosen randomly at each
// round."
//
// The engine owns the clock, named deterministic RNG streams, and the
// per-round hook list. Protocols keep their own typed CalendarQueues
// (sim/event_queue.h) for their events.

#ifndef P2P_SIM_ENGINE_H_
#define P2P_SIM_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/clock.h"
#include "util/rng.h"

namespace p2p {
namespace sim {

/// Engine configuration.
struct EngineOptions {
  /// Master seed; every derived stream is a pure function of it.
  uint64_t seed = 42;
  /// The simulation stops before executing this round.
  Round end_round = 50'000;  ///< paper: 50,000 rounds (~5.7 years)
};

/// \brief Deterministic round-based discrete simulator.
class Engine {
 public:
  explicit Engine(const EngineOptions& options);

  /// Current round (the one being executed, or the next to execute).
  Round now() const { return now_; }

  /// Configured final round (exclusive).
  Round end_round() const { return options_.end_round; }

  /// Registers a hook invoked once per round, in registration order.
  void AddRoundHook(std::function<void(Round)> hook);

  /// Returns a deterministic RNG stream for the given purpose id. The same
  /// (seed, purpose) pair always yields the same stream, so adding a new
  /// subsystem does not perturb existing ones.
  util::Rng* Stream(uint64_t purpose);

  /// Executes one round: runs the round hooks. Returns false when
  /// end_round has been reached (nothing executed).
  bool Step();

  /// Runs Step() until end_round.
  void Run();

  /// Shuffles `ids` in place with the scheduling stream: the per-round
  /// random peer order mandated by the paper.
  void ShuffleForRound(std::vector<uint32_t>* ids);

 private:
  // Reserved internal stream purposes (high ids to avoid collisions).
  static constexpr uint64_t kScheduleStream = ~0ull;

  EngineOptions options_;
  Round now_ = 0;
  std::vector<std::function<void(Round)>> hooks_;
  // unique_ptr keeps handed-out Rng* stable as new streams are registered.
  std::vector<std::pair<uint64_t, std::unique_ptr<util::Rng>>> streams_;
};

}  // namespace sim
}  // namespace p2p

#endif  // P2P_SIM_ENGINE_H_
