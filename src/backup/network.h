// The simulated peer-to-peer backup network: the "state-of-the-art backup
// system" of paper section 2.2 running the lifetime-aware placement protocol
// of section 3.2 over the churn models of section 4.1.
//
// Implementation notes (performance):
//  * All high-frequency dynamics (session toggles, departures, partner
//    timeouts, category transitions) are calendar-queue events validated by
//    peer incarnation, so a round costs O(events), not O(peers).
//  * A partnership is a pair of cross-indexed links (owner side, host side)
//    with O(1) swap-removal; a host departing with hundreds of clients
//    severs all of them in linear time without scans.
//  * "alive blocks" of an owner is by construction the size of its partner
//    list: a block exists exactly while its partnership does.

#ifndef P2P_BACKUP_NETWORK_H_
#define P2P_BACKUP_NETWORK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "backup/options.h"
#include "churn/profile.h"
#include "core/acceptance.h"
#include "core/lifetime_estimator.h"
#include "core/maintenance_policy.h"
#include "core/selection.h"
#include "core/strategy_registry.h"
#include "metrics/collector.h"
#include "monitor/availability_monitor.h"
#include "sim/engine.h"
#include "sim/event_queue.h"
#include "transfer/scheduler.h"
#include "util/rng.h"

namespace p2p {
namespace backup {

/// Peer identifier; ids below the normal-slot capacity are normal peers,
/// ids above are observers.
using PeerId = uint32_t;

/// Upper bound on observers; sizes the id space above the normal slots.
constexpr uint32_t kMaxObservers = 64;

/// Most normal-peer id slots a network has: the initial population plus
/// one slot per scheduled join must fit below the observers' ids.
constexpr uint32_t kMaxNormalSlots = UINT32_MAX - kMaxObservers;

/// \brief One scheduled population perturbation, resolved to absolute
/// counts (compiled from a scenario workload; see scenario::CompileWorkload).
///
/// Applied at the start of round `at`, before any churn event of that round:
/// first `exits` uniformly chosen live peers depart definitively and are NOT
/// replaced, then `joins` fresh peers enter on previously unused id slots.
struct PopulationAdjustment {
  sim::Round at = 0;
  uint32_t joins = 0;
  uint32_t exits = 0;
};

/// Test/bench backdoor into the repair hot path (defined by the micro
/// benches and white-box tests that need to drive BuildPool/RunRepair in
/// isolation; production code must not use it).
struct HotPathProbe;

/// \brief The simulation network; attach to an Engine, add observers, run.
///
/// Results: the network does not own result structs of its own - it emits
/// typed events into a metrics::Collector (see metrics/collector.h), and
/// `metrics()` exposes that collector for totals, per-category accounting,
/// observer results, the daily series, and RunReport construction.
///
/// Hot-path layout (see README "Hot path"): candidate sampling runs on an
/// incrementally maintained dense eligible-candidate index (a partitioned
/// id array whose prefix is the live+online peers, swap-with-last updated
/// at every live/online transition), so a draw lands on an eligible peer by
/// construction - partial Fisher-Yates over the index replaces rejection
/// sampling over the id space. Dense lanes, each the only copy of its fact
/// (hosted blocks and join round), back the remaining per-draw filters,
/// every scratch buffer is a reused per-network member so a steady-state
/// repair episode performs zero heap allocations.
///
/// The network computes only what the configured strategies read. An
/// age-only estimator (LifetimeEstimator::ReadsMonitor() false, the
/// default `age-rank` among them) scores each candidate from its join-lane
/// age inside the draw loop, and the availability monitor stays empty. A
/// monitor-reading estimator gets a fed monitor and its scores memoized per
/// (peer, round). The per-peer loss-rate average is kept only for a policy
/// whose ReadsLossRate() is true.
class BackupNetwork {
 public:
  /// Wires the network into `engine` (registers the round hook). The engine
  /// and profile set must outlive the network. `workload` is an optional
  /// round-sorted list of population perturbations (join waves, correlated
  /// exits); id slots for every scheduled join are reserved up front, so the
  /// candidate-sampling sequence of a workload-free run is byte-identical to
  /// the historical constant-population behaviour.
  BackupNetwork(sim::Engine* engine, const churn::ProfileSet* profiles,
                const SystemOptions& options,
                std::vector<PopulationAdjustment> workload = {});

  /// Adds an observer with the given frozen age; call before the first
  /// engine step. Returns its index into observers().
  size_t AddObserver(const std::string& name, sim::Round frozen_age);

  /// \name Results.
  /// @{
  /// Every measurement of the run: totals, accounting, observers, series,
  /// and BuildReport() for the registry-backed RunReport.
  const metrics::Collector& metrics() const { return collector_; }

  /// Availability monitor (read side; query statistics live there). Under
  /// an estimator whose ReadsMonitor() is false it tracks no peer and its
  /// statistics stay 0.
  const monitor::AvailabilityMonitor& monitor() const { return monitor_; }
  /// @}

  /// \name Introspection (tests, invariant checks).
  /// @{
  uint32_t total_ids() const { return static_cast<uint32_t>(peers_.size()); }
  /// Live normal peers right now (excludes observers and vacated slots);
  /// equals num_peers until a workload adjustment fires.
  int64_t LivePopulation() const {
    return static_cast<int64_t>(cand_index_.size());
  }
  /// True while `id` denotes a member of the system (observers included).
  bool IsLive(PeerId id) const { return peers_[id].live; }
  bool IsOnline(PeerId id) const { return peers_[id].online; }
  bool IsBackedUp(PeerId id) const { return peers_[id].backed_up; }
  int AliveBlocks(PeerId id) const {
    return static_cast<int>(partners_[id].size());
  }
  int VisibleBlocks(PeerId id) const { return peers_[id].visible; }
  int HostedBlocks(PeerId id) const { return hosted_[id]; }
  sim::Round AgeOf(PeerId id) const;
  const SystemOptions& options() const { return options_; }
  /// The instantiated lifetime estimator (tests, reports).
  const core::LifetimeEstimator& estimator() const { return *estimator_; }
  /// Verifies every cross-index / quota / distinctness invariant; aborts on
  /// violation. O(population * partners); used by tests.
  void CheckInvariants() const;
  /// Population-wide state summary (diagnostics and tests).
  struct PopulationStats {
    double mean_partners = 0.0;  ///< mean owner-side partner count
    double mean_visible = 0.0;   ///< mean online partners per owner
    double mean_hosted = 0.0;    ///< mean quota consumption per host
    double online_fraction = 0.0;
    int64_t backed_up = 0;       ///< peers whose initial placement completed
  };
  PopulationStats ComputePopulationStats() const;
  /// Composition of one owner's current partner set (diagnostics).
  struct PartnerSetStats {
    int count = 0;
    double mean_nominal_availability = 0.0;  ///< profile availability
    double mean_age_days = 0.0;
    std::array<int, 8> profile_counts{};  ///< by profile index
  };
  PartnerSetStats ComputePartnerStats(PeerId owner) const;

  /// Always-on accounting of the candidate-sampling pass: every draw is
  /// attributed to exactly one outcome, so
  /// draws == reject_quota_full + reject_acceptance + accepted holds at all
  /// times - the quota market and the acceptance function are the only
  /// per-draw filters left. Since the eligible-candidate index landed
  /// (README "Hot path") a draw hits a live - and, in timeout mode, online -
  /// peer *by construction*, each episode draws each candidate at most once
  /// (partial Fisher-Yates samples without replacement), and the owner plus
  /// its current partners are swapped into the taken prefix of their
  /// segments before the first draw (index_partner_excluded counts those,
  /// per episode, not per draw). The historical reject_dup /
  /// reject_not_live / reject_offline buckets of the rejection sampler are
  /// therefore retired: those outcomes can no longer occur.
  /// Plain counters bumped in the hot loop; scenario reporting flushes them
  /// into the trace session once per run (the monitor QueryStats pattern).
  struct PoolStats {
    int64_t draws = 0;               ///< distinct candidates drawn from index
    int64_t index_partner_excluded = 0;  ///< pre-taken: self or a partner
    int64_t reject_quota_full = 0;   ///< no quota and no market displacement
    int64_t reject_acceptance = 0;   ///< failed the mutual acceptance draw
    int64_t accepted = 0;            ///< entered the candidate pool
    int64_t index_exhausted = 0;     ///< episodes that drained the whole lane
    int64_t score_memo_hits = 0;     ///< pool scores served from the memo
    int64_t score_evals = 0;         ///< pool scores computed fresh (every
                                     ///< score under an age-only estimator)
  };
  const PoolStats& pool_stats() const { return pool_stats_; }

  /// \name Eligible-candidate index introspection (tests, diagnostics).
  /// @{
  /// The dense candidate id array: every live normal peer exactly once,
  /// live+online peers in [0, candidate_online_count()), live+offline in
  /// the remainder. Entry order is arbitrary (it carries the scars of every
  /// swap-with-last update and partial shuffle) but deterministic.
  const std::vector<PeerId>& candidate_index() const { return cand_index_; }
  uint32_t candidate_online_count() const { return cand_online_; }
  /// @}

  /// The transfer scheduler when `options.transfer_enabled`, else null
  /// (instant mode). Stats are flushed to trace counters by the scenario
  /// layer.
  const transfer::TransferScheduler* transfer() const {
    return transfer_.get();
  }
  /// @}

 private:
  friend struct HotPathProbe;
  // A partnership is one Link in the owner's list plus one ClientLink in the
  // host's, each holding the index of its twin. Only the owner side carries
  // the formation round (RemovePartnerAt reads it for the lifetime probe);
  // it fits 32 bits because the constructor bounds end_round by INT32_MAX.
  // These two arrays are the bulk of a world's memory (README "Hot path").
  struct Link {
    PeerId host;     // the peer storing the block
    uint32_t back;   // index of the twin in clients_[host]
    int32_t formed;  // round the partnership was created (lifetime probe)
  };
  struct ClientLink {
    PeerId owner;    // the peer whose block this is
    uint32_t back;   // index of the twin in partners_[owner]
  };
  static_assert(sizeof(Link) == 12, "owner-side link must stay 12 bytes");
  static_assert(sizeof(ClientLink) == 8, "host-side link must stay 8 bytes");

  // A peer's join round and hosted blocks live in the dense lanes
  // join_lane_ and hosted_; whether it is an observer follows from its id
  // (IsObserver).
  struct PeerState {
    uint32_t profile = 0;
    uint32_t incarnation = 0;
    // Member of the system right now. False for join slots that have not
    // been activated yet and for slots vacated by a mass exit.
    bool live = false;
    sim::Round departure_round = sim::kNever;
    sim::Round next_toggle = sim::kNever;
    sim::Round offline_since = -1;
    sim::Round last_repair = -1;
    bool online = false;
    bool backed_up = false;
    bool needs_repair = false;
    bool in_repair_queue = false;
    bool episode_active = false;
    // Blocks placed by the current/most recent episode; sizes the upload
    // phase of the episode's transfer job.
    int episode_placed = 0;
    // Block level the active repair episode restores to (the policy's
    // restore_to verdict, clamped to [k, n]); n for initial placements.
    int episode_target = 0;
    sim::Round frozen_age = 0;  // observers only
    int visible = 0;            // partners online right now (instant mode)
    int observer_clients = 0;   // observer-owned blocks on this host
    // Join round of the youngest normal client; -1 none, -2 stale cache.
    sim::Round newest_client_join = -1;
    // Loss-rate EMA; fed only for a policy that reads it (reads_loss_rate_).
    double loss_rate = 0.0;
    sim::Round loss_rate_at = 0;
  };

  struct Event {
    PeerId id;
    uint32_t incarnation;
    sim::Round stamp;  // toggle: due round; timeout: offline_since; else 0
  };

  // --- lifecycle ---
  void BootstrapPopulation();
  void InitPeer(PeerId id, sim::Round now);
  /// `replace` keeps the population constant (the paper's model); workload
  /// mass exits pass false and leave the slot vacant.
  void DepartPeer(PeerId id, sim::Round now, bool replace = true);
  /// Executes one workload adjustment: exits, then joins.
  void ApplyAdjustment(const PopulationAdjustment& adj, sim::Round now);

  // --- round processing ---
  void OnRound(sim::Round now);
  void ProcessToggle(const Event& e, sim::Round now);
  void ProcessDeparture(const Event& e, sim::Round now);
  void ProcessTimeout(const Event& e, sim::Round now);
  void ProcessCategory(const Event& e, sim::Round now);
  void ProcessRepairs(sim::Round now);
  void RunRepair(PeerId id, sim::Round now);

  // --- transfer scheduling (transfer_enabled only) ---
  /// Advances the scheduler one round and applies completions.
  void ProcessTransfers(sim::Round now);
  /// A job's last byte moved: clear the repair flag, record metrics, re-flag
  /// if the world degraded while the transfer ran.
  void OnTransferComplete(const transfer::TransferCompletion& completion,
                          sim::Round now);

  // --- partnership maintenance ---
  void AddPartnership(PeerId owner, PeerId host);
  void RemovePartnerAt(PeerId owner, uint32_t index, bool release_quota = true);
  void SeverAsHost(PeerId host, sim::Round now);    // clients lose blocks
  /// Hosts free quota now, or with `ghost_quota` keep it consumed until the
  /// departure grace elapses.
  void SeverAsOwner(PeerId owner, sim::Round now, bool ghost_quota = false);
  void OnBlocksLost(PeerId owner, int count, sim::Round now);
  void HandleArchiveLoss(PeerId owner, sim::Round now);

  // --- repair helpers ---
  void FlagForRepair(PeerId id);
  void EnqueueRepair(PeerId id);
  int BuildPool(PeerId owner, int needed, std::vector<core::Candidate>* pool);
  void BumpLossRate(PeerId id, int events, sim::Round now);
  double ReadLossRate(PeerId id, sim::Round now) const;
  /// The quantity the repair policy watches: online partners in instant
  /// mode, non-written-off partners in timeout mode.
  int VisibleBasis(PeerId id) const;
  /// Evicts up to `count` offline partners to make room under the partner
  /// cap (instant mode). Returns the number evicted.
  int EvictOfflinePartners(PeerId owner, int count);
  /// Join round that orders peers by age for the quota market; observers
  /// rank by their frozen age.
  sim::Round EffectiveJoin(PeerId id) const;
  /// Age saturated at the horizon L: the market currency. Peers older than
  /// L are equivalent ("not much different") and can never displace each
  /// other.
  sim::Round MarketAge(PeerId id) const;
  /// Youngest (largest) effective join among `host`'s clients; -1 if none.
  /// Refreshes the lazy cache.
  sim::Round YoungestClientJoin(PeerId host);
  /// Quota-market eviction: drops the youngest client of `host` if it is
  /// strictly younger than `newer_than`. Returns true when a slot opened.
  bool TryEvictYoungestClient(PeerId host, sim::Round newer_than, sim::Round now);
  /// Places one block on `host`, evicting through the quota market if the
  /// host is full. Returns false when no capacity could be obtained.
  bool TryPlaceBlock(PeerId owner, PeerId host, sim::Round now);
  bool instant_visibility() const {
    return options_.visibility == VisibilityModel::kInstantOnline;
  }
  /// Observers take the ids above the normal-peer slots (AddObserver).
  bool IsObserver(PeerId id) const { return id >= normal_slots_; }

  metrics::AgeCategory CategoryAt(PeerId id, sim::Round now) const;

  sim::Engine* engine_;
  const churn::ProfileSet* profiles_;
  SystemOptions options_;
  // Normal-peer id slots: the initial population plus one reserved slot per
  // scheduled workload join. Observers live above this bound.
  uint32_t normal_slots_ = 0;
  uint32_t next_join_slot_ = 0;  // first never-used slot
  std::vector<PopulationAdjustment> workload_;
  size_t workload_next_ = 0;
  std::unique_ptr<core::SelectionStrategy> selection_;
  std::unique_ptr<core::MaintenancePolicy> policy_;
  std::unique_ptr<core::LifetimeEstimator> estimator_;
  core::AcceptanceFunction acceptance_;
  int flag_level_ = 0;     // visible level below which repair is evaluated
  int partner_cap_ = 0;    // instant mode: max partners per owner
  // What the strategies read, fixed at construction: the estimator's
  // ReadsMonitor() gates the monitor feed, the score memo and the
  // repair/score pass; the policy's ReadsLossRate() gates the loss-rate EMA.
  bool reads_monitor_ = true;
  bool reads_loss_rate_ = true;

  util::Rng* churn_rng_;
  util::Rng* place_rng_;

  std::vector<PeerState> peers_;
  std::vector<std::vector<Link>> partners_;       // owner -> hosts of its blocks
  std::vector<std::vector<ClientLink>> clients_;  // host -> owners it stores for

  sim::CalendarQueue<Event> toggles_;
  sim::CalendarQueue<Event> departures_;
  sim::CalendarQueue<Event> timeouts_;
  sim::CalendarQueue<Event> category_events_;
  sim::CalendarQueue<Event> quota_releases_;  // departure-grace quota ghosts

  std::vector<PeerId> repair_queue_;
  std::vector<PeerId> scratch_queue_;
  std::vector<PeerId> scratch_owners_;

  // --- repair hot path (candidate index, dense lanes, scratch, memo) ---
  // Eligible-candidate index: a dense partitioned id array holding every
  // live normal peer exactly once - [0, cand_online_) live AND online, the
  // rest live but offline - with cand_pos_ mapping id -> position
  // (kCandAbsent while not a member). The index is the only record of which
  // state it last saw, so SyncIndex diffs PeerState against it and applies
  // an O(1) boundary/last swap at the three sites that change live or
  // online (join, mass-exit vacate, online toggle). BuildPool samples
  // without replacement by partial Fisher-Yates over the index, so a draw
  // lands on an eligible peer by construction and the draw budget scales
  // with the eligible set, not the population.
  static constexpr uint32_t kCandAbsent = UINT32_MAX;
  // DETLINT: hot-path-begin
  void CandSwap(uint32_t a, uint32_t b) {
    if (a == b) return;
    std::swap(cand_index_[a], cand_index_[b]);
    cand_pos_[cand_index_[a]] = a;
    cand_pos_[cand_index_[b]] = b;
  }
  void CandInsert(PeerId id, bool online) {
    cand_pos_[id] = static_cast<uint32_t>(cand_index_.size());
    // DETLINT-ALLOW(hot-path-alloc): reserved to normal_slots_ at construction (network.cc); IndexMaintenanceNeverReallocates locks capacity identity
    cand_index_.push_back(id);  // never reallocates: reserved to normal_slots_
    if (online) {
      CandSwap(cand_pos_[id], cand_online_);
      ++cand_online_;
    }
  }
  void CandRemove(PeerId id) {
    uint32_t p = cand_pos_[id];
    if (p < cand_online_) {  // first retreat the online boundary over it
      CandSwap(p, cand_online_ - 1);
      --cand_online_;
      p = cand_online_;
    }
    CandSwap(p, static_cast<uint32_t>(cand_index_.size()) - 1);
    cand_index_.pop_back();
    cand_pos_[id] = kCandAbsent;
  }
  void CandSetOnline(PeerId id, bool online) {
    if (online) {
      CandSwap(cand_pos_[id], cand_online_);
      ++cand_online_;
    } else {
      CandSwap(cand_pos_[id], cand_online_ - 1);
      --cand_online_;
    }
  }

  /// Applies normal peer `id`'s live/online state to the candidate index,
  /// which still holds the state it last saw. Call after every change of
  /// live or online; a departure with an immediate replacement never leaves
  /// the index, so its slot does not move.
  void SyncIndex(PeerId id) {
    const PeerState& p = peers_[id];
    const uint32_t pos = cand_pos_[id];
    if (p.live != (pos != kCandAbsent)) {
      if (p.live) {
        CandInsert(id, p.online);
      } else {
        CandRemove(id);
      }
    } else if (p.live && p.online != (pos < cand_online_)) {
      CandSetOnline(id, p.online);
    }
  }
  // DETLINT: hot-path-end
  std::vector<PeerId> cand_index_;
  std::vector<uint32_t> cand_pos_;
  uint32_t cand_online_ = 0;
  // Per-peer lanes, each the only copy of its fact, so the sampling loop
  // touches dense arrays instead of a PeerState per draw. join_lane_ holds
  // every normal peer's join round (observers read 0 there and age by
  // frozen_age); hosted_ the quota its normal clients consume, ghost quota
  // of a departure grace included.
  std::vector<sim::Round> join_lane_;
  std::vector<int> hosted_;

  // Per-round stability-score memo, allocated only for a monitor-reading
  // estimator (empty otherwise: an age-only score is one call on a value
  // the draw loop already holds). Safe because every input of a score -
  // monitor history (RecordConnect/Disconnect/Join/Departure) and estimator
  // state (ObserveDeparture) - mutates only in the adjustment/churn phases,
  // which run strictly before the repairs phase that computes scores; within
  // one repairs phase a peer's score is constant.
  std::vector<sim::Round> score_round_;  // round the memo entry is valid for
  std::vector<double> score_val_;

  // Episode scratch, reused so steady-state repairs never allocate.
  std::vector<core::Candidate> scratch_pool_;
  std::vector<uint32_t> scratch_chosen_;

  PoolStats pool_stats_;

  // Transfer scheduling (null in instant mode). The directory adapter gives
  // the scheduler a read-only view of online state and partner links.
  class TransferDirectory : public transfer::PeerDirectory {
   public:
    explicit TransferDirectory(const BackupNetwork* net) : net_(net) {}
    // Jobs and their sources are always live normal peers (a departure
    // cancels the owner's job and severs its hosts), so the candidate index
    // holds their live and online state.
    bool Online(transfer::PeerId id) const override {
      return net_->cand_pos_[id] < net_->cand_online_;
    }
    void AppendSources(transfer::PeerId owner,
                       std::vector<transfer::PeerId>* out) const override {
      for (const Link& link : net_->partners_[owner]) out->push_back(link.host);
    }

   private:
    const BackupNetwork* net_;
  };
  std::unique_ptr<transfer::TransferScheduler> transfer_;
  std::vector<transfer::TransferCompletion> transfer_done_;  // Tick scratch.

  // Capacity 0 until the constructor body learns the estimator reads it.
  monitor::AvailabilityMonitor monitor_;
  metrics::Collector collector_;
};

}  // namespace backup
}  // namespace p2p

#endif  // P2P_BACKUP_NETWORK_H_
