#include "metrics/accounting.h"

namespace p2p {
namespace metrics {

CategorySnapshot CategoryAccounting::Snapshot(AgeCategory c) const {
  CategorySnapshot s;
  s.population = counts_[Idx(c)];
  s.peer_rounds = peer_rounds_[Idx(c)];
  s.repairs = repairs_[Idx(c)];
  s.losses = losses_[Idx(c)];
  return s;
}

double CategoryAccounting::RatePer1000PerDay(
    const std::array<int64_t, kCategoryCount>& events, AgeCategory c) const {
  const double pr = peer_rounds_[Idx(c)];
  if (pr <= 0.0) return 0.0;
  const double per_peer_round = static_cast<double>(events[Idx(c)]) / pr;
  return per_peer_round * 1000.0 * static_cast<double>(sim::kRoundsPerDay);
}

double CategoryAccounting::RepairsPer1000PerDay(AgeCategory c) const {
  return RatePer1000PerDay(repairs_, c);
}

double CategoryAccounting::LossesPer1000PerDay(AgeCategory c) const {
  return RatePer1000PerDay(losses_, c);
}

double CategoryAccounting::MeanPopulation(AgeCategory c) const {
  if (rounds_ == 0) return 0.0;
  return peer_rounds_[Idx(c)] / static_cast<double>(rounds_);
}

}  // namespace metrics
}  // namespace p2p
