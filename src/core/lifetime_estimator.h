// Lifetime estimation from observable peer behaviour - the paper's "new
// criteria, the age, to estimate the reliability of a peer", generalized to
// a pluggable estimator family.
//
// The protocol needs a ranking ("the longer a node has been in the system,
// the more stable it will be considered"); an estimator maps what the
// availability monitor can observe about a peer - its age, its recent
// uptime, how long since it was last seen - to a stability score, and the
// selection strategies rank placement candidates by that score.
//
// Four estimators are registered (strategy_registry.h):
//   age-rank              score = min(age, horizon); the paper's criterion.
//   pareto-residual       expected residual lifetime under Pareto lifetimes
//                         (the paper's analytic justification for age-rank).
//   empirical-residual    per-run histogram CDF of observed departure ages,
//                         learned online as the simulation runs.
//   availability-weighted age rank discounted by recent uptime, in the
//                         spirit of Dell'Amico et al.'s adaptive redundancy.
// The first three read only the age (ReadsMonitor() is false), so a run
// using one of them keeps no availability monitor at all.
//
// Scores are nonnegative with arbitrary scale: only the induced ranking
// matters to selection. Every estimator must be monotone nondecreasing in
// age at fixed availability (property-tested for every registered spec), so
// ranking by score refines - never contradicts - the paper's age ordering.

#ifndef P2P_CORE_LIFETIME_ESTIMATOR_H_
#define P2P_CORE_LIFETIME_ESTIMATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "sim/clock.h"

namespace p2p {
namespace core {

/// \brief What the availability monitor reports about one placement
/// candidate: the estimator input.
struct PeerObservation {
  /// Rounds since the peer joined (the paper's age criterion).
  sim::Round age = 0;
  /// Fraction of a recent window the peer was online, in [0, 1].
  double availability = 0.0;
  /// Rounds since the peer was last seen online; 0 while online.
  sim::Round rounds_since_seen = 0;
};

/// \brief Maps an observation to a stability score (monotone nondecreasing
/// in age at fixed availability; arbitrary nonnegative scale).
class LifetimeEstimator {
 public:
  virtual ~LifetimeEstimator() = default;

  /// Stability score; larger means expected to stay longer.
  virtual double StabilityScore(const PeerObservation& obs) const = 0;

  /// Whether StabilityScore reads anything of the observation beyond `age`.
  /// When false the network scores each candidate from its age alone (the
  /// other fields left at 0) and neither feeds nor asks the availability
  /// monitor. Defaults to true, the full monitor path; an estimator may
  /// return false only if its score is a function of `obs.age` and its own
  /// ObserveDeparture state.
  virtual bool ReadsMonitor() const { return true; }

  /// Expected remaining lifetime in rounds given the observation (may be an
  /// upper-bound heuristic). Nothing in the simulator calls it: it states
  /// each estimator's model, and the unit tests pin it.
  virtual double ExpectedResidualRounds(const PeerObservation& obs) const = 0;

  /// Online-learning hook: the network reports every definitive departure
  /// with the departed peer's final age. Parametric estimators ignore it;
  /// empirical-residual builds its departure-age histogram from it.
  virtual void ObserveDeparture(sim::Round /*age_at_departure*/) {}

  /// Display name.
  virtual std::string name() const = 0;
};

/// The paper's criterion: score = min(age, L). Peers older than the horizon
/// are "not much different" from each other.
class AgeRankEstimator : public LifetimeEstimator {
 public:
  explicit AgeRankEstimator(sim::Round horizon = 90 * sim::kRoundsPerDay);
  double StabilityScore(const PeerObservation& obs) const override;
  bool ReadsMonitor() const override { return false; }
  double ExpectedResidualRounds(const PeerObservation& obs) const override;
  std::string name() const override { return "age-rank"; }

 private:
  sim::Round horizon_;
};

/// Residual lifetime under Pareto(scale, shape) lifetimes: for shape > 1,
/// E[T | T > a] = shape/(shape-1) * max(a, scale), so the residual grows
/// linearly with age - the formal version of the paper's fidelity property.
class ParetoResidualEstimator : public LifetimeEstimator {
 public:
  ParetoResidualEstimator(double scale_rounds, double shape);
  double StabilityScore(const PeerObservation& obs) const override;
  bool ReadsMonitor() const override { return false; }
  double ExpectedResidualRounds(const PeerObservation& obs) const override;
  std::string name() const override { return "pareto-residual"; }

 private:
  double scale_;
  double shape_;
};

/// Nonparametric online estimator: a histogram of observed departure ages
/// (`buckets` buckets of `bucket_rounds` each, last bucket open-ended),
/// updated by ObserveDeparture as the run progresses. The score is the
/// interpolated empirical CDF at the candidate's age - how much of the
/// observed departure-age distribution the peer has already outlived - plus
/// a [0, 1) age-rank tie-break so the estimator degenerates to the paper's
/// criterion before any departure has been observed.
class EmpiricalResidualEstimator : public LifetimeEstimator {
 public:
  EmpiricalResidualEstimator(int buckets, sim::Round bucket_rounds,
                             sim::Round horizon);
  double StabilityScore(const PeerObservation& obs) const override;
  bool ReadsMonitor() const override { return false; }
  double ExpectedResidualRounds(const PeerObservation& obs) const override;
  void ObserveDeparture(sim::Round age_at_departure) override;
  std::string name() const override { return "empirical-residual"; }

  /// Departures observed so far (tests, reports).
  int64_t observed_departures() const { return total_; }

 private:
  /// Interpolated count of observed departures at ages <= age; monotone
  /// nondecreasing and continuous in age. O(1) per call off the lazily
  /// rebuilt prefix sums (scoring runs per candidate in the placement hot
  /// path; the histogram only changes on departures).
  double CdfCount(sim::Round age) const;

  sim::Round bucket_rounds_;
  sim::Round horizon_;
  std::vector<int64_t> counts_;    // departures per age bucket
  std::vector<int64_t> age_sums_;  // sum of departure ages per bucket
  int64_t total_ = 0;
  // counts_ summed over buckets strictly below each index; rebuilt on the
  // first score after a departure.
  mutable std::vector<int64_t> counts_below_;
  mutable bool prefix_stale_ = false;
};

/// Age rank discounted by measured recent uptime: score =
/// min(age, horizon) * (floor + (1 - floor) * availability)^exponent.
/// Among equally old peers the monitor's recent-uptime signal breaks the
/// tie toward the machines that are actually reachable - availability-aware
/// placement in the spirit of Dell'Amico et al.
class AvailabilityWeightedEstimator : public LifetimeEstimator {
 public:
  AvailabilityWeightedEstimator(sim::Round horizon, double exponent,
                                double floor);
  double StabilityScore(const PeerObservation& obs) const override;
  double ExpectedResidualRounds(const PeerObservation& obs) const override;
  std::string name() const override { return "availability-weighted"; }

 private:
  double Weight(double availability) const;

  sim::Round horizon_;
  double exponent_;
  double floor_;
};

}  // namespace core
}  // namespace p2p

#endif  // P2P_CORE_LIFETIME_ESTIMATOR_H_
