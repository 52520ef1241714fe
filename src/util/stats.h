// Streaming statistics: running moments, quantile estimation, histograms and
// time-series accumulators used by the metrics layer and the benches.

#ifndef P2P_UTIL_STATS_H_
#define P2P_UTIL_STATS_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace p2p {
namespace util {

/// \brief Single-pass mean / variance / extrema accumulator (Welford).
class RunningStat {
 public:
  /// Adds one observation.
  void Add(double x);

  /// Number of observations added so far.
  int64_t count() const { return count_; }
  /// Mean of the observations; 0 when empty.
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  /// Unbiased sample variance; 0 with fewer than two observations.
  double variance() const;
  /// Square root of variance().
  double stddev() const;
  /// Smallest observation; +inf when empty.
  double min() const { return min_; }
  /// Largest observation; -inf when empty.
  double max() const { return max_; }
  /// Sum of all observations.
  double sum() const { return sum_; }

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// \brief Fixed-width linear histogram over [lo, hi) with under/overflow bins.
class Histogram {
 public:
  /// Creates `bins` equal-width buckets spanning [lo, hi); requires lo < hi
  /// and bins >= 1.
  Histogram(double lo, double hi, int bins);

  /// Records one observation.
  void Add(double x);

  /// Total number of recorded observations.
  int64_t count() const { return count_; }
  /// Count of the bucket with index `i` in [0, bins).
  int64_t bucket(int i) const { return counts_[static_cast<size_t>(i) + 1]; }
  /// Observations below `lo`.
  int64_t underflow() const { return counts_.front(); }
  /// Observations at or above `hi`.
  int64_t overflow() const { return counts_.back(); }
  /// Number of regular buckets.
  int bins() const { return static_cast<int>(counts_.size()) - 2; }
  /// Lower edge of bucket `i`.
  double bucket_lo(int i) const { return lo_ + width_ * i; }

  /// Estimates quantile `q` in [0,1] by linear interpolation within buckets.
  double Quantile(double q) const;

 private:
  double lo_;
  double width_;
  int64_t count_ = 0;
  std::vector<int64_t> counts_;  // [underflow, b0..b{n-1}, overflow]
};

}  // namespace util
}  // namespace p2p

#endif  // P2P_UTIL_STATS_H_
