#include "sim/engine.h"

#include "util/logging.h"

namespace p2p {
namespace sim {

Engine::Engine(const EngineOptions& options) : options_(options) {
  P2P_CHECK(options.end_round >= 0);
}

void Engine::AddRoundHook(std::function<void(Round)> hook) {
  hooks_.push_back(std::move(hook));
}

util::Rng* Engine::Stream(uint64_t purpose) {
  for (auto& [id, rng] : streams_) {
    if (id == purpose) return rng.get();
  }
  streams_.emplace_back(
      purpose, std::make_unique<util::Rng>(util::DeriveStream(options_.seed, purpose)));
  return streams_.back().second.get();
}

bool Engine::Step() {
  if (now_ >= options_.end_round) return false;
  for (auto& hook : hooks_) hook(now_);
  ++now_;
  return true;
}

void Engine::Run() {
  while (Step()) {
  }
}

void Engine::ShuffleForRound(std::vector<uint32_t>* ids) {
  Stream(kScheduleStream)->Shuffle(ids);
}

}  // namespace sim
}  // namespace p2p
