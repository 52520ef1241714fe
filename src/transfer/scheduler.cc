#include "transfer/scheduler.h"

#include <algorithm>
#include <cassert>

#include "trace/trace.h"

namespace p2p {
namespace transfer {

namespace {
constexpr double kSecondsPerRound = 3600.0;  // 1 round = 1 hour.
}  // namespace

TransferScheduler::TransferScheduler(const net::LinkProfile& link,
                                     uint32_t id_capacity,
                                     uint64_t archive_bytes, int k, int m)
    : model_(link, archive_bytes, k, m),
      up_cap_(link.upload_bytes_per_s * kSecondsPerRound),
      down_cap_(link.download_bytes_per_s * kSecondsPerRound),
      has_job_(id_capacity, 0),
      load_(id_capacity, 0.0),
      uplink_used_(id_capacity, 0.0),
      downlink_used_(id_capacity, 0.0) {}

void TransferScheduler::Enqueue(PeerId owner, uint32_t incarnation,
                                bool initial, int upload_blocks,
                                sim::Round now) {
  TRACE_SCOPE("transfer/enqueue");
  assert(owner < has_job_.size());
  assert(!has_job_[owner] && "one transfer job per owner");
  TransferJob job;
  job.id = next_job_id_++;
  job.owner = owner;
  job.incarnation = incarnation;
  job.initial = initial;
  job.down_remaining =
      initial ? 0.0
              : static_cast<double>(model_.block_bytes()) * model_.k();
  job.up_remaining =
      static_cast<double>(model_.block_bytes()) * upload_blocks;
  job.enqueued = now;
  jobs_.push_back(job);
  has_job_[owner] = 1;
  ++stats_.enqueued;
  stats_.queue_depth_peak =
      std::max(stats_.queue_depth_peak, QueueDepth());
}

bool TransferScheduler::Cancel(PeerId owner) {
  if (owner >= has_job_.size() || !has_job_[owner]) return false;
  for (size_t i = 0; i < jobs_.size(); ++i) {
    if (jobs_[i].owner == owner) {
      jobs_.erase(jobs_.begin() + static_cast<ptrdiff_t>(i));
      break;
    }
  }
  has_job_[owner] = 0;
  ++stats_.cancelled;
  return true;
}

void TransferScheduler::AddLoad(PeerId id, double amount) {
  if (load_[id] == 0.0) touched_.push_back(id);
  load_[id] += amount;
}

void TransferScheduler::Tick(sim::Round now, const PeerDirectory& directory,
                             std::vector<TransferCompletion>* done) {
  TRACE_SCOPE("transfer/tick");
  ++stats_.ticks;
  for (PeerId id : touched_) {
    load_[id] = 0.0;
    uplink_used_[id] = 0.0;
    downlink_used_[id] = 0.0;
  }
  touched_.clear();
  last_tick_ = TickSample{};
  if (jobs_.empty()) return;

  // Pass 0: count this round's uplink consumers per peer. A job with upload
  // bytes pending reserves one share of its owner's uplink (even while still
  // downloading, so an intra-round phase switch cannot oversubscribe a source
  // that is also an owner); a job in download phase additionally loads each
  // online source's uplink. Offline owners are paused and consume nothing.
  // Each job with an online owner is listed in tick_jobs_, and a downloading
  // job's online sources are kept, in source order, in the flat sources_
  // scratch, so pass 1 asks the directory nothing (its answers hold for the
  // whole tick).
  tick_jobs_.clear();
  sources_.clear();
  for (uint32_t i = 0; i < jobs_.size(); ++i) {
    const TransferJob& job = jobs_[i];
    if (!directory.Online(job.owner)) continue;
    if (job.up_remaining > 0.0) AddLoad(job.owner, 1.0);
    size_t kept = sources_.size();
    if (job.down_remaining > 0.0) {
      directory.AppendSources(job.owner, &sources_);
      for (size_t s = kept; s < sources_.size(); ++s) {
        const PeerId src = sources_[s];
        if (directory.Online(src)) {
          AddLoad(src, 1.0);
          sources_[kept++] = src;
        }
      }
      sources_.resize(kept);
    }
    tick_jobs_.push_back(TickJob{i, static_cast<uint32_t>(kept)});
  }

  // Pass 1: move bytes, strictly in job (enqueue) order. Rates derive only
  // from the load lanes, so the order never changes what a job receives.
  double tick_used = 0.0;
  uint32_t sources_begin = 0;
  for (const TickJob& tick_job : tick_jobs_) {
    TransferJob& job = jobs_[tick_job.job];
    const uint32_t begin = sources_begin;
    const uint32_t end = tick_job.sources_end;
    sources_begin = end;
    double budget = 1.0;  // Fraction of the round still available to the job.
    if (job.down_remaining > 0.0) {
      double sum_shares = 0.0;
      for (uint32_t s = begin; s < end; ++s) {
        sum_shares += up_cap_ / load_[sources_[s]];
      }
      if (sum_shares <= 0.0) continue;  // No online source: stall.
      const double rate = std::min(down_cap_, sum_shares);
      const double scale = rate / sum_shares;
      double used_fraction;  // of the round
      double moved;
      if (rate * budget >= job.down_remaining) {
        moved = job.down_remaining;
        used_fraction = moved / rate;
        job.down_remaining = 0.0;
        job.download_done = now;
      } else {
        moved = rate * budget;
        used_fraction = budget;
        job.down_remaining -= moved;
      }
      budget -= used_fraction;
      stats_.bytes_downloaded += moved;
      tick_used += moved;
      downlink_used_[job.owner] += moved;
      for (uint32_t s = begin; s < end; ++s) {
        const PeerId src = sources_[s];
        uplink_used_[src] += (up_cap_ / load_[src]) * scale * used_fraction;
      }
    }
    if (job.down_remaining == 0.0 && job.up_remaining > 0.0 && budget > 0.0) {
      // A download that finished this round starts uploading immediately with
      // the leftover time budget; its uplink share was already reserved in
      // pass 0, so the owner's per-round uplink cap holds exactly.
      const double rate = up_cap_ / std::max(load_[job.owner], 1.0);
      const double moved = std::min(rate * budget, job.up_remaining);
      job.up_remaining -= moved;
      stats_.bytes_uploaded += moved;
      tick_used += moved;
      uplink_used_[job.owner] += moved;
    }
  }

  last_tick_.used_bytes = tick_used;
  last_tick_.capacity_bytes = static_cast<double>(touched_.size()) * up_cap_;

  // Harvest completions in job order, erasing order-preserving.
  size_t keep = 0;
  for (size_t i = 0; i < jobs_.size(); ++i) {
    TransferJob& job = jobs_[i];
    if (job.down_remaining <= 0.0 && job.up_remaining <= 0.0) {
      TransferCompletion completion;
      completion.owner = job.owner;
      completion.incarnation = job.incarnation;
      completion.initial = job.initial;
      completion.enqueued = job.enqueued;
      completion.download_rounds =
          job.download_done >= 0 ? job.download_done - job.enqueued : 0;
      done->push_back(completion);
      has_job_[job.owner] = 0;
      ++stats_.completed;
      continue;
    }
    if (keep != i) jobs_[keep] = jobs_[i];
    ++keep;
  }
  jobs_.resize(keep);
}

}  // namespace transfer
}  // namespace p2p
