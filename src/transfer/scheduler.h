// The bandwidth-constrained transfer scheduler: turns a repair episode into a
// queued multi-round transfer job on the paper's section-2.2.4 link model.
//
// A maintenance job first downloads the k blocks needed for decoding from its
// online partners (download phase), then uploads the d regenerated blocks
// (upload phase). An initial-backup job skips the download phase. Jobs on the
// same link contend: each round, a source peer's uplink is split fair-share
// among everything it serves that round — a job of its own with upload bytes
// pending counts as one consumer, and each online downloader it feeds counts
// as one more. A
// downloader's aggregate rate is further capped by its own downlink. When a
// download finishes mid-round the upload phase starts in the same round with
// the leftover time budget, so the composite matches the paper's
// delta_repair = delta_download + delta_upload accounting.
//
// Determinism: jobs are processed strictly in enqueue (job-id) order, no
// randomness is consumed anywhere, and all state lives in dense per-peer
// lanes — so CRN and thread-count invariance of the surrounding sweep hold
// for free.

#ifndef P2P_TRANSFER_SCHEDULER_H_
#define P2P_TRANSFER_SCHEDULER_H_

#include <cstdint>
#include <vector>

#include "net/bandwidth.h"
#include "sim/clock.h"

namespace p2p {
namespace transfer {

using PeerId = uint32_t;

/// \brief The scheduler's read-only view of the simulated world.
///
/// Implemented by `BackupNetwork`; tests supply fakes. Every answer must
/// stay constant for the whole of one Tick(): the scheduler reads each once
/// and reuses it. One Tick() calls AppendSources() at most once per job in
/// download phase and Online() once per job owner and at most once per
/// returned source.
class PeerDirectory {
 public:
  virtual ~PeerDirectory() = default;

  /// True iff the peer is live and online this round.
  virtual bool Online(PeerId id) const = 0;

  /// Appends the peers hosting blocks for `owner` (its download sources).
  /// May include offline peers; the scheduler filters with Online().
  virtual void AppendSources(PeerId owner, std::vector<PeerId>* out) const = 0;
};

/// \brief One queued transfer (at most one per owner).
struct TransferJob {
  uint64_t id = 0;               ///< Enqueue sequence number; processing order.
  PeerId owner = 0;
  uint32_t incarnation = 0;      ///< Owner incarnation at enqueue time.
  bool initial = false;          ///< Initial backup (no download phase).
  double down_remaining = 0.0;   ///< Bytes left in the download phase.
  double up_remaining = 0.0;     ///< Bytes left in the upload phase.
  sim::Round enqueued = 0;
  sim::Round download_done = -1; ///< Round the download phase finished, or -1.
};

/// \brief Delivered by Tick() when a job's last byte moves.
struct TransferCompletion {
  PeerId owner = 0;
  uint32_t incarnation = 0;
  bool initial = false;
  sim::Round enqueued = 0;
  sim::Round download_rounds = 0;  ///< Rounds from enqueue to download done.
};

/// \brief Lifetime counters, flushed to trace counters by the scenario layer.
struct SchedulerStats {
  uint64_t enqueued = 0;
  uint64_t completed = 0;
  uint64_t cancelled = 0;
  uint64_t ticks = 0;
  double bytes_downloaded = 0.0;
  double bytes_uploaded = 0.0;
  int queue_depth_peak = 0;
};

/// \brief Uplink accounting for the most recent Tick().
struct TickSample {
  double used_bytes = 0.0;      ///< Uplink bytes moved (source + owner uploads).
  double capacity_bytes = 0.0;  ///< Uplink-round capacity of loaded peers.
};

/// \brief Fair-share multi-round transfer scheduler for one link profile.
class TransferScheduler {
 public:
  /// `id_capacity` bounds peer ids (dense lanes); `archive_bytes`/`k`/`m`
  /// define the block size via `net::RepairCostModel`.
  TransferScheduler(const net::LinkProfile& link, uint32_t id_capacity,
                    uint64_t archive_bytes, int k, int m);

  /// Queues a job for `owner` (which must not already have one). Maintenance
  /// jobs (`initial == false`) download k blocks then upload `upload_blocks`;
  /// initial jobs only upload.
  void Enqueue(PeerId owner, uint32_t incarnation, bool initial,
               int upload_blocks, sim::Round now);

  /// Drops `owner`'s job if present (departure / archive loss). Returns
  /// whether a job was dropped.
  bool Cancel(PeerId owner);

  bool HasJob(PeerId owner) const { return has_job_[owner]; }
  int QueueDepth() const { return static_cast<int>(jobs_.size()); }

  /// Advances every job by one round of link time; completions are appended
  /// to `done` in job order. Jobs whose owner is offline are paused; download
  /// jobs with no online source stall without consuming capacity.
  void Tick(sim::Round now, const PeerDirectory& directory,
            std::vector<TransferCompletion>* done);

  const SchedulerStats& stats() const { return stats_; }
  const TickSample& last_tick() const { return last_tick_; }

  /// Per-peer uplink bytes consumed in the most recent Tick() (dense by peer
  /// id); exposed for the no-oversubscription property test.
  const std::vector<double>& uplink_used() const { return uplink_used_; }
  /// Per-owner download bytes received in the most recent Tick().
  const std::vector<double>& downlink_used() const { return downlink_used_; }

  double uplink_bytes_per_round() const { return up_cap_; }
  double downlink_bytes_per_round() const { return down_cap_; }
  uint64_t block_bytes() const { return model_.block_bytes(); }
  const net::RepairCostModel& model() const { return model_; }

 private:
  void AddLoad(PeerId id, double amount);

  net::RepairCostModel model_;
  double up_cap_ = 0.0;    ///< Uplink bytes per round.
  double down_cap_ = 0.0;  ///< Downlink bytes per round.

  std::vector<TransferJob> jobs_;  ///< Enqueue order; erased order-preserving.
  std::vector<uint8_t> has_job_;   ///< Dense by owner id.
  uint64_t next_job_id_ = 0;

  // Per-tick scratch, dense by peer id, reset via `touched_`.
  std::vector<double> load_;
  std::vector<double> uplink_used_;
  std::vector<double> downlink_used_;
  std::vector<PeerId> touched_;

  // Pass 0's record for pass 1, reused at its high-water capacity so a
  // steady-state tick never allocates: each job whose owner is online, in
  // job order, and the online sources of the downloading ones, flat in
  // source order; a job's sources end where the next one's begin.
  struct TickJob {
    uint32_t job;          ///< Index into jobs_.
    uint32_t sources_end;  ///< End of this job's span in sources_.
  };
  std::vector<TickJob> tick_jobs_;
  std::vector<PeerId> sources_;

  SchedulerStats stats_;
  TickSample last_tick_;
};

}  // namespace transfer
}  // namespace p2p

#endif  // P2P_TRANSFER_SCHEDULER_H_
