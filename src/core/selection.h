// Partner selection strategies: given the pool of mutually-accepting
// candidates, decide who receives the d new blocks.
//
// The paper sorts the pool by stability ("Nodes are selected according to
// their stability ... the protocol uses the ages of the peers in the system
// to sort them"). Stability is an estimator verdict (lifetime_estimator.h):
// every candidate carries the score the configured estimator assigned it,
// and the strategies rank by (score, age) - under the default age-rank
// estimator that ordering is exactly the paper's oldest-first. Alternatives
// serve as baselines in the ablation benches: uniform random
// (estimator-oblivious) and youngest-first (adversarial).

#ifndef P2P_CORE_SELECTION_H_
#define P2P_CORE_SELECTION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/clock.h"
#include "util/rng.h"

namespace p2p {
namespace core {

/// A placement candidate: id, the age the monitor reports for it, and the
/// stability score the configured lifetime estimator assigned (nonnegative,
/// arbitrary scale; ties are refined by age, then broken randomly). Ages
/// lie in [0, INT32_MAX]: the network bounds every run by INT32_MAX rounds.
struct Candidate {
  uint32_t id = 0;
  sim::Round age = 0;
  double score = 0.0;
};

/// \brief Chooses up to d candidates from a pool.
class SelectionStrategy {
 public:
  virtual ~SelectionStrategy() = default;

  /// Selects min(d, pool.size()) candidate ids into `out` (appended in
  /// selection order). May reorder `pool`. `rng` breaks ties / randomizes.
  virtual void Choose(std::vector<Candidate>* pool, int d, util::Rng* rng,
                      std::vector<uint32_t>* out) const = 0;

  /// Display name.
  virtual std::string name() const = 0;
};

/// Shuffle-then-rank: orders the pool by estimator score, age refining
/// score ties and a random shuffle breaking the rest, and takes the front.
/// The two rank strategies below differ only in the direction. Choose
/// leaves `pool` as it found it.
class RankSelection : public SelectionStrategy {
 public:
  void Choose(std::vector<Candidate>* pool, int d, util::Rng* rng,
              std::vector<uint32_t>* out) const override;

 protected:
  /// `best_first`: highest score (and oldest) first, else lowest first.
  explicit RankSelection(bool best_first) : best_first_(best_first) {}

 private:
  bool best_first_;
  // Ranking scratch, reused across calls like WeightedRandomSelection's
  // weights_: the shuffled index permutation and one packed rank key per
  // candidate (selection.cc documents the key layout).
  mutable std::vector<uint32_t> order_;
  mutable std::vector<__uint128_t> keys_;
};

/// Sorts by estimator score descending (age refines score ties, the rest
/// broken randomly so equal newcomers do not all dogpile onto the lowest
/// peer id). Under the age-rank estimator this is the paper's oldest-first.
class OldestFirstSelection : public RankSelection {
 public:
  OldestFirstSelection() : RankSelection(/*best_first=*/true) {}
  std::string name() const override { return "oldest-first"; }
};

/// Uniform random selection from the pool.
class RandomSelection : public SelectionStrategy {
 public:
  void Choose(std::vector<Candidate>* pool, int d, util::Rng* rng,
              std::vector<uint32_t>* out) const override;
  std::string name() const override { return "random"; }
};

/// Sorts by score ascending; the pessimal counterpart of the paper's scheme.
class YoungestFirstSelection : public RankSelection {
 public:
  YoungestFirstSelection() : RankSelection(/*best_first=*/false) {}
  std::string name() const override { return "youngest-first"; }
};

/// Age-weighted random selection: candidate i is drawn with probability
/// proportional to (age_i + 1)^exponent, without replacement. Exponent 0 is
/// uniform random; large exponents approach oldest-first. The continuum
/// between the paper's scheme and its age-oblivious baseline; weights stay
/// on the raw age (estimator-oblivious) by design, so the knob's meaning is
/// identical whatever estimator scores the pool.
class WeightedRandomSelection : public SelectionStrategy {
 public:
  explicit WeightedRandomSelection(double age_exponent);
  void Choose(std::vector<Candidate>* pool, int d, util::Rng* rng,
              std::vector<uint32_t>* out) const override;
  std::string name() const override { return "weighted-random"; }
  double age_exponent() const { return age_exponent_; }

 private:
  double age_exponent_;
  // Per-pick weight scratch, reused across calls so the repair hot path
  // stays allocation-free once the capacity high-water mark is reached. A
  // selection instance belongs to exactly one BackupNetwork (one simulated
  // world, one thread), so a mutable member is race-free.
  mutable std::vector<double> weights_;
};

// Instantiation from declarative specs lives in strategy_registry.h; the
// closed SelectionKind enum and its silent-fallback FromName parser are gone.

}  // namespace core
}  // namespace p2p

#endif  // P2P_CORE_SELECTION_H_
