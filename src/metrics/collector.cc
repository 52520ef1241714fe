#include "metrics/collector.h"

#include <algorithm>

#include "util/logging.h"

namespace p2p {
namespace metrics {
namespace {

// Time-to-repair histogram geometry: 1-round buckets to ~170 days; longer
// episodes land in the overflow bucket and quantiles report the cap.
constexpr double kEpisodeHistogramCap = 4096.0;
constexpr int kEpisodeHistogramBins = 4096;

}  // namespace

Collector::Collector(uint32_t id_capacity, sim::Round sample_interval)
    : sample_interval_(sample_interval),
      flag_round_(id_capacity, -1),
      repair_duration_hist_(0.0, kEpisodeHistogramCap, kEpisodeHistogramBins),
      backup_duration_hist_(0.0, kEpisodeHistogramCap, kEpisodeHistogramBins),
      restore_duration_hist_(0.0, kEpisodeHistogramCap, kEpisodeHistogramBins),
      bandwidth_series_(sample_interval) {
  P2P_CHECK(sample_interval_ > 0);
}

void Collector::OnDeparture(uint32_t id, AgeCategory c) {
  ++departures_;
  accounting_.PeerLeft(c);
  // The departed archive can never finish its repair: drop the open episode
  // rather than crediting it with a bogus completion.
  flag_round_[id] = -1;
}

void Collector::OnRepairStart(AgeCategory c) {
  ++repairs_;
  accounting_.RecordRepair(c);
}

void Collector::OnObserverRepair(size_t index) {
  ++repairs_;
  ++observers_[index].repairs;
}

void Collector::OnLoss(AgeCategory c) {
  ++losses_;
  accounting_.RecordLoss(c);
}

void Collector::OnObserverLoss(size_t index) {
  ++losses_;
  ++observers_[index].losses;
}

void Collector::OnRepairFlagged(uint32_t id, sim::Round now) {
  if (flag_round_[id] < 0) flag_round_[id] = now;
}

void Collector::OnRepairCleared(uint32_t id, sim::Round now, bool initial) {
  if (flag_round_[id] < 0) return;
  const sim::Round duration = now - flag_round_[id];
  flag_round_[id] = -1;
  repair_durations_.Add(static_cast<double>(duration));
  repair_duration_hist_.Add(static_cast<double>(duration));
  vulnerability_rounds_ += duration;
  longest_episode_ = std::max(longest_episode_, duration);
  if (initial) {
    backup_durations_.Add(static_cast<double>(duration));
    backup_duration_hist_.Add(static_cast<double>(duration));
  }
}

void Collector::OnRestore(sim::Round rounds) {
  restore_durations_.Add(static_cast<double>(rounds));
  restore_duration_hist_.Add(static_cast<double>(rounds));
}

void Collector::OnUplinkSample(double used, double capacity) {
  uplink_used_sum_ += used;
  uplink_capacity_sum_ += capacity;
}

void Collector::OnPartnershipEnded(sim::Round lifetime) {
  partnership_lifetimes_.Add(static_cast<double>(lifetime));
}

void Collector::OnRoundTick(sim::Round now) {
  accounting_.AccumulateRound();
  if (now < next_sample_) return;
  next_sample_ = now + sample_interval_;
  CategorySample sample;
  sample.round = now;
  for (int c = 0; c < kCategoryCount; ++c) {
    const auto cat = static_cast<AgeCategory>(c);
    const auto snap = accounting_.Snapshot(cat);
    sample.cumulative_losses[static_cast<size_t>(c)] = snap.losses;
    sample.cumulative_repairs[static_cast<size_t>(c)] = snap.repairs;
    sample.mean_population[static_cast<size_t>(c)] =
        accounting_.MeanPopulation(cat);
  }
  series_.push_back(sample);
  for (ObserverResult& obs : observers_) {
    obs.cumulative_repairs.Offer(now, static_cast<double>(obs.repairs));
  }
  // Maintenance bandwidth over the elapsed interval, normalized to
  // blocks/day. The first tick (round 0) covers exactly that one round.
  const sim::Round elapsed = now - bandwidth_sampled_at_;
  const double rate =
      static_cast<double>(blocks_uploaded_ - bandwidth_sampled_uploads_) *
      static_cast<double>(sim::kRoundsPerDay) / static_cast<double>(elapsed);
  bandwidth_series_.Offer(now, rate);
  bandwidth_sampled_uploads_ = blocks_uploaded_;
  bandwidth_sampled_at_ = now;
}

size_t Collector::AddObserver(std::string name, sim::Round frozen_age) {
  ObserverResult r;
  r.name = std::move(name);
  r.frozen_age = frozen_age;
  r.cumulative_repairs = TimeSeries(sample_interval_);
  observers_.push_back(std::move(r));
  return observers_.size() - 1;
}

RunReport Collector::BuildReport(sim::Round end_round) const {
  const double rounds = static_cast<double>(std::max<sim::Round>(end_round, 1));

  ComputedProbes p;
  p.repairs = static_cast<double>(repairs_);
  p.losses = static_cast<double>(losses_);
  p.blocks_uploaded = static_cast<double>(blocks_uploaded_);
  p.departures = static_cast<double>(departures_);
  p.timeouts = static_cast<double>(timeouts_);
  p.repair_bandwidth = static_cast<double>(blocks_uploaded_) *
                       static_cast<double>(sim::kRoundsPerDay) / rounds;
  p.time_to_repair_mean = repair_durations_.mean();
  p.time_to_repair_p99 = repair_duration_hist_.Quantile(0.99);
  p.partnership_lifetime_mean = partnership_lifetimes_.mean();
  int64_t vulnerability = vulnerability_rounds_;
  sim::Round longest = longest_episode_;
  for (const sim::Round flagged : flag_round_) {
    if (flagged >= 0) {
      const sim::Round open = std::max<sim::Round>(end_round - flagged, 0);
      vulnerability += open;
      longest = std::max(longest, open);
    }
  }
  p.vulnerability_rounds = static_cast<double>(vulnerability);
  p.data_loss_window = static_cast<double>(longest);
  p.time_to_backup_mean = backup_durations_.mean();
  p.time_to_backup_p99 = backup_duration_hist_.Quantile(0.99);
  p.time_to_restore_mean = restore_durations_.mean();
  p.time_to_restore_p99 = restore_duration_hist_.Quantile(0.99);
  p.uplink_utilization =
      uplink_capacity_sum_ > 0.0 ? uplink_used_sum_ / uplink_capacity_sum_ : 0.0;
  int64_t final_population = 0;
  for (int c = 0; c < kCategoryCount; ++c) {
    const auto cat = static_cast<AgeCategory>(c);
    const auto i = static_cast<size_t>(c);
    const CategorySnapshot snap = accounting_.Snapshot(cat);
    p.repairs_1k[i] = accounting_.RepairsPer1000PerDay(cat);
    p.losses_1k[i] = accounting_.LossesPer1000PerDay(cat);
    p.cum_repairs[i] = static_cast<double>(snap.repairs);
    p.cum_losses[i] = static_cast<double>(snap.losses);
    p.mean_population[i] = accounting_.MeanPopulation(cat);
    final_population += snap.population;
  }
  p.final_population = static_cast<double>(final_population);

  RunReport report;
  // One entry per metric, table order, each read from its row's field.
  for (const MetricDescriptor* d : ListMetrics()) {
    if (d->per_category) {
      report.Add(d, p.*d->per_category_field);
    } else {
      report.Add(d, p.*d->scalar_field);
    }
  }
  // The series' last grid sample may predate the end of the run: flush the
  // partial tail interval so integrating the series matches the scalar.
  TimeSeries bandwidth = bandwidth_series_;
  const sim::Round last_round = end_round - 1;
  if (last_round > bandwidth_sampled_at_) {
    const double tail_rate =
        static_cast<double>(blocks_uploaded_ - bandwidth_sampled_uploads_) *
        static_cast<double>(sim::kRoundsPerDay) /
        static_cast<double>(last_round - bandwidth_sampled_at_);
    bandwidth.Flush(last_round, tail_rate);
  }
  report.AddSeries(FindMetric("repair_bandwidth"), std::move(bandwidth));
  return report;
}

}  // namespace metrics
}  // namespace p2p
