#include "core/selection.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <numeric>

namespace p2p {
namespace core {
namespace {

// Selection scratch code: every Choose below runs once per repair episode
// on the allocation-free path (tests/hotpath_alloc_test.cc). `out`,
// `order_`, `keys_` and `weights_` are caller-owned / member scratch at
// high-water capacity.
// DETLINT: hot-path-begin

// Order-preserving bits of a score: unsigned comparison of the results
// agrees with `<` on the doubles (scores are never NaN). -0.0 is folded into
// +0.0 first, because the two compare equal as doubles and must tie here.
uint64_t ScoreBits(double score) {
  const double folded = score == 0.0 ? 0.0 : score;
  uint64_t bits;
  std::memcpy(&bits, &folded, sizeof bits);
  return (bits >> 63) != 0 ? ~bits : bits | (uint64_t{1} << 63);
}

size_t TakeCount(const std::vector<Candidate>& pool, int d) {
  return std::min<size_t>(static_cast<size_t>(std::max(d, 0)), pool.size());
}

// Every chosen id leaves selection through here.
void Append(std::vector<uint32_t>* out, uint32_t id) {
  // DETLINT-ALLOW(hot-path-alloc): out is the caller's member scratch (scratch_chosen_), at high-water capacity once warm
  out->push_back(id);
}

// The `take` smallest keys under `less`, in order, at the front of `keys`.
template <typename Less>
void RankFront(std::vector<__uint128_t>* keys, size_t take, Less less) {
  const auto front = keys->begin() + static_cast<std::ptrdiff_t>(take);
  std::nth_element(keys->begin(), front, keys->end(), less);
  std::sort(keys->begin(), front, less);
}

}  // namespace

// Shuffle-then-rank gives a deterministic random tie-break. Ranking is by
// estimator score with age refining score ties: since every estimator is
// monotone in age, this reduces to the historical pure-age ordering
// whenever the score is a function of age alone (e.g. the default
// age-rank), and exact (score, age) ties keep the shuffled order.
//
// The reference is a std::stable_sort of the shuffled pool (stable sorts
// allocate, which the repair loop forbids). Three steps give its exact
// order without moving a Candidate:
//  * Shuffle a permutation of pool indices instead of the pool. The
//    Fisher-Yates draws do not depend on the values, so it is the same
//    permutation with the same draws.
//  * Pack each candidate into one 128-bit key: score bits (64), age (32),
//    post-shuffle position (32, complemented when best-first so that the
//    earlier position still wins ties in descending order). Positions are
//    distinct, so the key is a total order that extends (score, age) by
//    "ties keep their shuffled position" - which is what stability means.
//  * Under a total order the front `take` keys and their order are unique,
//    so nth_element plus a sort of the front returns the stable_sort
//    prefix, at O(pool + take log take).
void RankSelection::Choose(std::vector<Candidate>* pool, int d, util::Rng* rng,
                           std::vector<uint32_t>* out) const {
  const size_t size = pool->size();
  const size_t take = TakeCount(*pool, d);
  order_.resize(size);
  std::iota(order_.begin(), order_.end(), 0u);
  rng->Shuffle(&order_);
  keys_.resize(size);
  const uint32_t pos_mask = best_first_ ? UINT32_MAX : 0u;
  for (size_t i = 0; i < size; ++i) {
    const Candidate& c = (*pool)[order_[i]];
    assert(c.age >= 0 && c.age <= INT32_MAX);
    const uint64_t low = (static_cast<uint64_t>(c.age) << 32) |
                         (static_cast<uint32_t>(i) ^ pos_mask);
    keys_[i] = (static_cast<__uint128_t>(ScoreBits(c.score)) << 64) | low;
  }
  if (best_first_) {
    RankFront(&keys_, take, std::greater<__uint128_t>());
  } else {
    RankFront(&keys_, take, std::less<__uint128_t>());
  }
  for (size_t r = 0; r < take; ++r) {
    const uint32_t pos = static_cast<uint32_t>(keys_[r]) ^ pos_mask;
    Append(out, (*pool)[order_[pos]].id);
  }
}

void RandomSelection::Choose(std::vector<Candidate>* pool, int d, util::Rng* rng,
                             std::vector<uint32_t>* out) const {
  rng->Shuffle(pool);
  const size_t take = TakeCount(*pool, d);
  for (size_t i = 0; i < take; ++i) Append(out, (*pool)[i].id);
}

WeightedRandomSelection::WeightedRandomSelection(double age_exponent)
    : age_exponent_(age_exponent) {}

void WeightedRandomSelection::Choose(std::vector<Candidate>* pool, int d,
                                     util::Rng* rng,
                                     std::vector<uint32_t>* out) const {
  const size_t take = TakeCount(*pool, d);
  if (take == 0) return;
  // One weight per candidate; +1 so age-0 newcomers stay selectable at any
  // exponent. Weights use the raw age, not the estimator score: this
  // strategy is the deliberate age-continuum knob between random and
  // oldest-first (and raw age keeps it byte-identical across estimators and
  // to its pre-estimator behaviour past the saturation horizon). Each pick
  // walks the prefix sums and swap-removes the winner - O(pool * d), fine
  // at pool sizes of a few hundred.
  std::vector<double>& weights = weights_;  // member scratch: allocation-free
  weights.resize(pool->size());             // once warm (capacity persists)
  double total = 0.0;
  for (size_t i = 0; i < pool->size(); ++i) {
    weights[i] = std::pow(static_cast<double>((*pool)[i].age) + 1.0,
                          age_exponent_);
    total += weights[i];
  }
  size_t live = pool->size();
  for (size_t pick = 0; pick < take; ++pick) {
    size_t chosen = live - 1;  // fallback against FP drift in `total`
    const double r = rng->UniformDouble(0.0, std::max(total, 0.0));
    double acc = 0.0;
    for (size_t i = 0; i < live; ++i) {
      acc += weights[i];
      if (r < acc) {
        chosen = i;
        break;
      }
    }
    Append(out, (*pool)[chosen].id);
    total -= weights[chosen];
    --live;
    std::swap((*pool)[chosen], (*pool)[live]);
    std::swap(weights[chosen], weights[live]);
  }
}
// DETLINT: hot-path-end

}  // namespace core
}  // namespace p2p
