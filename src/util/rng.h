// Deterministic pseudo-random number generation.
//
// Simulations must be exactly reproducible from a master seed, and different
// subsystems (churn, placement, scheduling, ...) must not perturb each other's
// random streams when one of them draws more or fewer numbers. `Rng` is a
// xoshiro256** generator; `DeriveStream` deterministically derives independent
// child generators from (seed, stream-id) pairs via SplitMix64.

#ifndef P2P_UTIL_RNG_H_
#define P2P_UTIL_RNG_H_

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <vector>

namespace p2p {
namespace util {

/// Advances a SplitMix64 state and returns the next output; used for seeding.
uint64_t SplitMix64(uint64_t* state);

/// \brief Deterministic xoshiro256** PRNG with distribution helpers.
///
/// Not cryptographically secure. All helpers consume a bounded number of raw
/// draws so streams stay aligned across platforms.
class Rng {
 public:
  /// Seeds the generator; equal seeds yield equal sequences on all platforms.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);

  /// Returns the next raw 64-bit output. Inline: the repair sampler draws
  /// hundreds of millions of candidates per grid, so the generator must
  /// compile into its caller's loop (the state dependency chain, not call
  /// overhead, should be the cost).
  uint64_t NextU64() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Returns a double uniform in [0, 1) with 53 random bits.
  double NextDouble() {
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  /// Returns true with probability `p` (clamped to [0, 1]).
  bool Bernoulli(double p) {
    if (p <= 0.0) {
      NextDouble();  // keep the stream aligned regardless of p
      return false;
    }
    if (p >= 1.0) {
      NextDouble();
      return true;
    }
    return NextDouble() < p;
  }

  /// Returns an integer uniform in the inclusive range [lo, hi].
  int64_t UniformInt(int64_t lo, int64_t hi) {
    assert(lo <= hi);
    const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    if (span == 0) return static_cast<int64_t>(NextU64());  // full 64 bits
    // Multiply-shift bounded draw (Lemire); one extra draw on rare
    // rejections. The rejection floor is only computed (a hardware divide)
    // when the cheap l < span pre-check fires.
    uint64_t x = NextU64();
    __uint128_t m = static_cast<__uint128_t>(x) * span;
    uint64_t l = static_cast<uint64_t>(m);
    if (l < span) {
      const uint64_t floor = (0 - span) % span;
      while (l < floor) {
        x = NextU64();
        m = static_cast<__uint128_t>(x) * span;
        l = static_cast<uint64_t>(m);
      }
    }
    return lo + static_cast<int64_t>(m >> 64);
  }

  /// Returns an integer uniform in [0, bound) for bound >= 1. Exactly
  /// UniformInt(0, bound - 1) - same values, same NextU64 consumption
  /// (RngTest locks the identity) - under the name a shrinking-span
  /// consumer reads naturally. The bound changes every call (a partial
  /// Fisher-Yates span shrinks by one per draw); the divide behind the
  /// `l < bound` pre-check fires with probability bound / 2^64, effectively
  /// never at simulation population sizes.
  uint64_t UniformBounded(uint64_t bound) {
    assert(bound != 0);
    uint64_t x = NextU64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    uint64_t l = static_cast<uint64_t>(m);
    if (l < bound) {
      const uint64_t floor = (0 - bound) % bound;
      while (l < floor) {
        x = NextU64();
        m = static_cast<__uint128_t>(x) * bound;
        l = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Partial Fisher-Yates: permutes `v` so its first `k` elements are a
  /// uniform without-replacement sample of all of `v` in uniformly random
  /// order (`k` is clamped to the size). Draw-for-draw identical to the
  /// manual `swap(v[i], v[i + UniformInt(0, size-1-i)])` loop, so callers
  /// that batch-select then act (e.g. a correlated departure wave) consume
  /// the stream exactly like the historical interleaved form.
  template <typename T>
  void ShufflePrefix(std::vector<T>* v, size_t k) {
    const size_t size = v->size();
    if (k > size) k = size;
    for (size_t i = 0; i < k; ++i) {
      // A span of 1 still draws (UniformBounded(1) consumes one NextU64,
      // exactly like UniformInt(0, 0)): stream alignment over cleverness.
      const size_t j = i + static_cast<size_t>(UniformBounded(size - i));
      std::swap((*v)[i], (*v)[j]);
    }
  }

  /// Returns a double uniform in [lo, hi).
  double UniformDouble(double lo, double hi);

  /// Returns an exponential variate with the given mean (> 0).
  double Exponential(double mean);

  /// Returns a geometric variate in {1, 2, ...} with the given mean (>= 1):
  /// the length of a run whose per-step stop probability is 1/mean.
  int64_t Geometric(double mean);

  /// Returns a Pareto variate with minimum `scale` (> 0) and tail exponent
  /// `shape` (> 0): P(X > x) = (scale/x)^shape for x >= scale.
  double Pareto(double scale, double shape);

  /// Fisher-Yates shuffles `v` in place.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
};

/// Derives an independent 64-bit seed from a master seed and a stream id;
/// distinct (seed, stream) pairs yield statistically independent values.
/// This is the one seed-mixing discipline of the codebase: Engine streams
/// and sweep replicate seeds both come from here.
uint64_t DeriveSeed(uint64_t master_seed, uint64_t stream_id);

/// Derives an independent child generator seeded with DeriveSeed().
Rng DeriveStream(uint64_t master_seed, uint64_t stream_id);

}  // namespace util
}  // namespace p2p

#endif  // P2P_UTIL_RNG_H_
