// Per-category accounting of population, repairs and losses - the numbers
// behind every figure of the paper's evaluation.
//
// Population counts are maintained incrementally (peers announce entering /
// advancing / leaving categories), and integrated once per round into
// peer-rounds, so normalized rates ("per 1000 peers") never require a scan.

#ifndef P2P_METRICS_ACCOUNTING_H_
#define P2P_METRICS_ACCOUNTING_H_

#include <array>
#include <cstdint>
#include <vector>

#include "metrics/categories.h"
#include "sim/clock.h"
#include "util/logging.h"

namespace p2p {
namespace metrics {

/// Immutable snapshot of one category's accumulators.
struct CategorySnapshot {
  int64_t population = 0;      ///< current number of peers in the category
  double peer_rounds = 0.0;    ///< integral of population over time
  int64_t repairs = 0;         ///< repair operations triggered
  int64_t losses = 0;          ///< archives lost (alive < k)
};

/// \brief Tracks the four categories of one simulation run.
class CategoryAccounting {
 public:
  CategoryAccounting() = default;

  /// \name Population events.
  /// @{
  void PeerEntered(AgeCategory c) { ++counts_[Idx(c)]; }
  void PeerLeft(AgeCategory c) { --counts_[Idx(c)]; }
  void PeerAdvanced(AgeCategory from, AgeCategory to) {
    --counts_[Idx(from)];
    ++counts_[Idx(to)];
  }
  /// @}

  /// Integrates current populations; call exactly once per round.
  void AccumulateRound() {
    for (int c = 0; c < kCategoryCount; ++c) {
      peer_rounds_[static_cast<size_t>(c)] +=
          static_cast<double>(counts_[static_cast<size_t>(c)]);
    }
    ++rounds_;
  }

  /// \name Outcome events.
  /// @{
  void RecordRepair(AgeCategory c) { ++repairs_[Idx(c)]; }
  void RecordLoss(AgeCategory c) { ++losses_[Idx(c)]; }
  /// @}

  /// Snapshot of one category.
  CategorySnapshot Snapshot(AgeCategory c) const;

  /// Rounds integrated so far.
  int64_t rounds() const { return rounds_; }

  /// Repairs per 1000 category-peers per day; 0 when the category was empty.
  double RepairsPer1000PerDay(AgeCategory c) const;

  /// Losses per 1000 category-peers per day.
  double LossesPer1000PerDay(AgeCategory c) const;

  /// Mean population of the category over the run.
  double MeanPopulation(AgeCategory c) const;

 private:
  static size_t Idx(AgeCategory c) { return static_cast<size_t>(c); }

  double RatePer1000PerDay(const std::array<int64_t, kCategoryCount>& events,
                           AgeCategory c) const;

  std::array<int64_t, kCategoryCount> counts_{};
  std::array<double, kCategoryCount> peer_rounds_{};
  std::array<int64_t, kCategoryCount> repairs_{};
  std::array<int64_t, kCategoryCount> losses_{};
  int64_t rounds_ = 0;
};

/// \brief Uniformly-sampled time series, one value per sampling interval.
class TimeSeries {
 public:
  /// Samples every `interval` rounds (default: daily); `interval` must be
  /// positive (the sampling grid is anchored at its multiples).
  explicit TimeSeries(sim::Round interval = sim::kRoundsPerDay)
      : interval_(interval) {
    P2P_CHECK(interval_ > 0);
  }

  /// Offers the current value; recorded when `now` crosses a sample point.
  /// Sample points are the fixed grid 0, interval, 2*interval, ...: when a
  /// point is crossed late, the late sample is recorded once and the next
  /// point stays on the grid instead of drifting to `now + interval`.
  void Offer(sim::Round now, double value) {
    if (now < next_sample_) return;
    samples_.emplace_back(now, value);
    next_sample_ = (now / interval_ + 1) * interval_;
  }

  /// Forces a final sample (end of run); when a sample was already taken at
  /// `now`, it is overwritten rather than duplicated.
  void Flush(sim::Round now, double value) {
    if (!samples_.empty() && samples_.back().first == now) {
      samples_.back().second = value;
      return;
    }
    samples_.emplace_back(now, value);
  }

  /// Recorded (round, value) pairs.
  const std::vector<std::pair<sim::Round, double>>& samples() const {
    return samples_;
  }

 private:
  sim::Round interval_;
  sim::Round next_sample_ = 0;
  std::vector<std::pair<sim::Round, double>> samples_;
};

}  // namespace metrics
}  // namespace p2p

#endif  // P2P_METRICS_ACCOUNTING_H_
