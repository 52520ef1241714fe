#include "util/rng.h"

namespace p2p {
namespace util {
namespace {

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Rng::Rng(uint64_t seed) {
  // xoshiro256** must not start from the all-zero state; SplitMix64 seeding
  // guarantees that and decorrelates nearby seeds.
  uint64_t sm = seed;
  for (auto& w : s_) w = SplitMix64(&sm);
}

double Rng::UniformDouble(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Rng::Exponential(double mean) {
  assert(mean > 0.0);
  double u;
  do {
    u = NextDouble();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

int64_t Rng::Geometric(double mean) {
  assert(mean >= 1.0);
  if (mean == 1.0) {
    NextDouble();
    return 1;
  }
  const double p = 1.0 / mean;
  double u;
  do {
    u = NextDouble();
  } while (u <= 0.0);
  // Inverse CDF of the {1,2,...} geometric distribution.
  const int64_t v = static_cast<int64_t>(std::ceil(std::log(u) / std::log1p(-p)));
  return v < 1 ? 1 : v;
}

double Rng::Pareto(double scale, double shape) {
  assert(scale > 0.0 && shape > 0.0);
  double u;
  do {
    u = NextDouble();
  } while (u <= 0.0);
  return scale * std::pow(u, -1.0 / shape);
}

uint64_t DeriveSeed(uint64_t master_seed, uint64_t stream_id) {
  // Mix the stream id through SplitMix64 twice so that consecutive ids do not
  // produce correlated seeds.
  uint64_t sm = master_seed ^ (0x5851f42d4c957f2dull * (stream_id + 1));
  const uint64_t a = SplitMix64(&sm);
  const uint64_t b = SplitMix64(&sm);
  return a ^ Rotl(b, 29);
}

Rng DeriveStream(uint64_t master_seed, uint64_t stream_id) {
  return Rng(DeriveSeed(master_seed, stream_id));
}

}  // namespace util
}  // namespace p2p
