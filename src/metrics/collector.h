// The instrumentation surface of one simulation run. BackupNetwork emits
// typed events into a Collector (repair started, archive lost, block
// uploaded, departure, timeout, partnership severed, repair flag raised /
// cleared, round tick) instead of bumping bespoke counters, and the
// collector owns every accumulator behind the registered probes
// (metrics/registry.h): the per-category accounting, the observer results,
// the daily category series, and the probe state the closed pre-registry
// structs could not express (repair bandwidth, time-to-repair, partnership
// lifetimes, vulnerability time). BuildReport() distills it all into a
// generic RunReport keyed by the registry.
//
// Collecting is unconditional and cheap (counter bumps and O(1) vector
// writes); metric *selection* is a rendering concern of the report layer,
// so changing the selection can never perturb a simulation.

#ifndef P2P_METRICS_COLLECTOR_H_
#define P2P_METRICS_COLLECTOR_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "metrics/accounting.h"
#include "metrics/categories.h"
#include "metrics/run_report.h"
#include "sim/clock.h"
#include "util/stats.h"

namespace p2p {
namespace metrics {

/// \brief A measurement peer with frozen age (paper, section 4.2.2):
/// "An observer is a special peer, whose age does not increase ... Other
/// peers cannot choose an observer as a partner, but the observer can choose
/// other peers as partners, without however consuming their quota."
struct ObserverResult {
  std::string name;
  sim::Round frozen_age = 0;
  int64_t repairs = 0;
  int64_t losses = 0;
  TimeSeries cumulative_repairs;
};

/// One daily sample of the per-category accumulators (drives Figures 2/4).
struct CategorySample {
  sim::Round round = 0;
  std::array<int64_t, kCategoryCount> cumulative_losses{};
  std::array<int64_t, kCategoryCount> cumulative_repairs{};
  std::array<double, kCategoryCount> mean_population{};
};

/// \brief Owns all result state of one run; fed by BackupNetwork.
class Collector {
 public:
  /// `id_capacity` bounds the peer-id space (open repair episodes are
  /// tracked per id); `sample_interval` paces the time series.
  Collector(uint32_t id_capacity, sim::Round sample_interval);

  /// \name Instrumentation interface (the network emits these).
  /// @{
  void PeerEntered(AgeCategory c) { accounting_.PeerEntered(c); }
  void PeerAdvanced(AgeCategory from, AgeCategory to) {
    accounting_.PeerAdvanced(from, to);
  }
  /// A definitive departure: category bookkeeping plus the departure count;
  /// an open repair episode of `id` is dropped (the archive is gone, so it
  /// can never complete).
  void OnDeparture(uint32_t id, AgeCategory c);
  /// `severed` partnerships written off by the timeout rule at once.
  void OnTimeout(int64_t severed) { timeouts_ += severed; }
  /// A repair episode started for a normal peer of category `c`.
  void OnRepairStart(AgeCategory c);
  /// A repair episode started for observer `index`.
  void OnObserverRepair(size_t index);
  /// A normal peer of category `c` lost its archive.
  void OnLoss(AgeCategory c);
  /// Observer `index` lost its archive.
  void OnObserverLoss(size_t index);
  /// `blocks` blocks were actually placed (maintenance bandwidth).
  void OnUpload(int64_t blocks) { blocks_uploaded_ += blocks; }
  /// `id` fell below the repair trigger (needs_repair false -> true).
  /// Callers exclude observer peers: like the category accounting, the
  /// episode probes measure the system, not the measurement instruments.
  void OnRepairFlagged(uint32_t id, sim::Round now);
  /// `id`'s flag cleared (episode completed or the policy declined after
  /// the peer recovered): one time-to-repair / vulnerability episode.
  /// `initial` marks the completion of an initial placement (the episode
  /// additionally feeds the time-to-backup probes).
  void OnRepairCleared(uint32_t id, sim::Round now, bool initial = false);
  /// The download phase of a maintenance transfer took `rounds` rounds:
  /// one restore-path sample (the k blocks needed to decode crossed the
  /// owner's downlink).
  void OnRestore(sim::Round rounds);
  /// One round of uplink accounting from the transfer scheduler: `used`
  /// bytes moved out of `capacity` bytes available on loaded uplinks.
  void OnUplinkSample(double used, double capacity);
  /// A partnership that lived `lifetime` rounds was severed (observer-owned
  /// partnerships excluded by the caller).
  void OnPartnershipEnded(sim::Round lifetime);
  /// End-of-round hook: integrates category populations and samples the
  /// series; call exactly once per round, after the round's events.
  void OnRoundTick(sim::Round now);
  /// @}

  /// Registers an observer slot; returns its index (the network maps peer
  /// ids above the normal range onto these).
  size_t AddObserver(std::string name, sim::Round frozen_age);

  /// \name Running totals (tests, diagnostics, mid-run peeks).
  /// @{
  int64_t repairs() const { return repairs_; }
  int64_t losses() const { return losses_; }
  int64_t blocks_uploaded() const { return blocks_uploaded_; }
  int64_t departures() const { return departures_; }
  int64_t timeouts() const { return timeouts_; }
  const CategoryAccounting& accounting() const { return accounting_; }
  const std::vector<ObserverResult>& observers() const { return observers_; }
  const std::vector<CategorySample>& category_series() const {
    return series_;
  }
  /// @}

  /// Distills every probe into a RunReport (one entry per metric, table
  /// order). `end_round` is the number of simulated rounds; it normalizes
  /// the bandwidth rate and truncates still-open vulnerability episodes.
  RunReport BuildReport(sim::Round end_round) const;

 private:
  sim::Round sample_interval_;
  sim::Round next_sample_ = 0;

  CategoryAccounting accounting_;
  std::vector<ObserverResult> observers_;
  std::vector<CategorySample> series_;

  int64_t repairs_ = 0;
  int64_t losses_ = 0;
  int64_t blocks_uploaded_ = 0;
  int64_t departures_ = 0;
  int64_t timeouts_ = 0;

  // Round each id's open repair episode started at; -1 = not flagged.
  std::vector<sim::Round> flag_round_;
  util::RunningStat repair_durations_;
  // Fixed-size duration histogram behind time_to_repair_p99: O(1) memory
  // however many episodes a paper-scale run produces (durations past the
  // cap land in the overflow bucket and report the cap).
  util::Histogram repair_duration_hist_;
  int64_t vulnerability_rounds_ = 0;
  // Longest single closed episode (data_loss_window; open episodes are
  // folded in at report time).
  sim::Round longest_episode_ = 0;

  // Transfer-path probes: initial placements (time-to-backup), maintenance
  // download phases (time-to-restore), and uplink accounting.
  util::RunningStat backup_durations_;
  util::Histogram backup_duration_hist_;
  util::RunningStat restore_durations_;
  util::Histogram restore_duration_hist_;
  double uplink_used_sum_ = 0.0;
  double uplink_capacity_sum_ = 0.0;

  util::RunningStat partnership_lifetimes_;

  // Per-interval maintenance bandwidth (blocks/day), sampled with the
  // category series.
  TimeSeries bandwidth_series_;
  int64_t bandwidth_sampled_uploads_ = 0;
  sim::Round bandwidth_sampled_at_ = -1;
};

}  // namespace metrics
}  // namespace p2p

#endif  // P2P_METRICS_COLLECTOR_H_
