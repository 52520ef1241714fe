#include "util/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace p2p {
namespace util {

void RunningStat::Add(double x) {
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStat::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

Histogram::Histogram(double lo, double hi, int bins) : lo_(lo) {
  assert(lo < hi && bins >= 1);
  width_ = (hi - lo) / bins;
  counts_.assign(static_cast<size_t>(bins) + 2, 0);
}

void Histogram::Add(double x) {
  ++count_;
  if (x < lo_) {
    ++counts_.front();
    return;
  }
  const int b = static_cast<int>((x - lo_) / width_);
  if (b >= bins()) {
    ++counts_.back();
    return;
  }
  ++counts_[static_cast<size_t>(b) + 1];
}

double Histogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count_);
  double cum = static_cast<double>(counts_.front());
  if (cum >= target && counts_.front() > 0) return lo_;
  for (int i = 0; i < bins(); ++i) {
    const double c = static_cast<double>(bucket(i));
    if (cum + c >= target) {
      const double frac = c == 0 ? 0.0 : (target - cum) / c;
      return bucket_lo(i) + frac * width_;
    }
    cum += c;
  }
  return bucket_lo(bins());  // everything left is overflow
}

}  // namespace util
}  // namespace p2p
