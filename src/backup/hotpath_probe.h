// DETLINT-ALLOW(reach): tests and bench_micro_sim drive single repair episodes through it
// Test/bench backdoor into the repair hot path. BuildPool and RunRepair are
// private by design - production callers go through the round loop - but the
// micro benches (bench/bench_micro_sim.cpp) and the allocation-free tests
// need to drive single episodes against a populated steady-state world.
// Everything here preserves the network's invariants: partners are severed
// through RemovePartnerAt and repairs flagged through FlagForRepair, exactly
// like organic block loss.

#ifndef P2P_BACKUP_HOTPATH_PROBE_H_
#define P2P_BACKUP_HOTPATH_PROBE_H_

#include <vector>

#include "backup/network.h"

namespace p2p {
namespace backup {

struct HotPathProbe {
  explicit HotPathProbe(BackupNetwork* network) : net(network) {}

  /// Runs the candidate-sampling pass for `owner` into the network's own
  /// scratch pool (the buffer RunRepair uses); returns the pool size.
  int BuildPool(PeerId owner, int needed) {
    return net->BuildPool(owner, needed, &net->scratch_pool_);
  }

  /// The scratch pool BuildPool filled (valid until the next episode).
  std::vector<core::Candidate>* scratch_pool() { return &net->scratch_pool_; }

  /// Severs up to `count` partnerships of `owner` (host side releases quota,
  /// like organic loss) and flags it for repair. Returns how many were cut.
  int SeverPartners(PeerId owner, int count) {
    int cut = 0;
    while (cut < count && !net->partners_[owner].empty()) {
      net->RemovePartnerAt(
          owner, static_cast<uint32_t>(net->partners_[owner].size()) - 1);
      ++cut;
    }
    net->FlagForRepair(owner);
    return cut;
  }

  /// Runs one repair episode for `owner` at the engine's current round.
  void RunRepair(PeerId owner) { net->RunRepair(owner, net->engine_->now()); }

  /// Full selection stage on the current scratch pool (ranking consumes the
  /// placement stream exactly like RunRepair does).
  void Choose(int d, std::vector<uint32_t>* out) {
    net->selection_->Choose(&net->scratch_pool_, d, net->place_rng_, out);
  }

  /// The placement stream itself, for tests that compare or replay it draw
  /// for draw (Rng is a copyable value: copy it to snapshot, assign back to
  /// restore).
  util::Rng* place_rng() { return net->place_rng_; }

  /// Host ids of `owner`'s current partners (the exclusion set BuildPool
  /// epoch-marks); lets reference samplers in tests mirror the real one.
  std::vector<PeerId> PartnerIds(PeerId owner) const {
    std::vector<PeerId> out;
    out.reserve(net->partners_[owner].size());
    for (const auto& link : net->partners_[owner]) out.push_back(link.host);
    return out;
  }

  BackupNetwork* net;
};

}  // namespace backup
}  // namespace p2p

#endif  // P2P_BACKUP_HOTPATH_PROBE_H_
