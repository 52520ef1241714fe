#include "backup/network.h"

#include <algorithm>
#include <cmath>

#include "net/bandwidth.h"
#include "trace/trace.h"
#include "transfer/link.h"
#include "util/logging.h"

namespace p2p {
namespace backup {
namespace {

// Distinct RNG stream purposes (arbitrary fixed ids; see Engine::Stream).
constexpr uint64_t kChurnStream = 0x11;
constexpr uint64_t kPlacementStream = 0x22;

// Software prefetch for the two link walks that chase peer ids into cold
// per-peer arrays: SeverAsHost and an episode's placement loop (README "Hot
// path"). Each loop hints the lines it will touch kPrefetchAhead links
// ahead, which hides the memory latency behind the current link's work;
// SeverAsHost adds a second stage at twice that distance.
constexpr size_t kPrefetchAhead = 8;

inline void Prefetch(const void* line) { __builtin_prefetch(line); }

}  // namespace

namespace {

// Normal-peer id slots: the initial population plus one fresh slot per
// scheduled join (exited slots are never reused).
uint32_t NormalSlots(uint32_t num_peers,
                     const std::vector<PopulationAdjustment>& workload) {
  uint64_t slots = num_peers;
  for (const PopulationAdjustment& adj : workload) slots += adj.joins;
  P2P_CHECK(slots <= kMaxNormalSlots);
  return static_cast<uint32_t>(slots);
}

}  // namespace

BackupNetwork::BackupNetwork(sim::Engine* engine,
                             const churn::ProfileSet* profiles,
                             const SystemOptions& options,
                             std::vector<PopulationAdjustment> workload)
    : engine_(engine),
      profiles_(profiles),
      options_(options),
      normal_slots_(NormalSlots(options.num_peers, workload)),
      next_join_slot_(options.num_peers),
      workload_(std::move(workload)),
      acceptance_(options.acceptance_horizon),
      churn_rng_(engine->Stream(kChurnStream)),
      place_rng_(engine->Stream(kPlacementStream)),
      monitor_(0),
      collector_(normal_slots_ + kMaxObservers,
                 options.sample_interval > 0 ? options.sample_interval
                                             : sim::kRoundsPerDay) {
  const util::Status valid = options.Validate();
  if (!valid.ok()) {
    P2P_LOG_ERROR("invalid SystemOptions: %s", valid.ToString().c_str());
  }
  P2P_CHECK(valid.ok());
  // Link::formed stores a round in 32 bits (Scenario::Validate names this
  // bound for scenario runs).
  P2P_CHECK(engine->end_round() <= INT32_MAX);
  for (size_t i = 1; i < workload_.size(); ++i) {
    P2P_CHECK(workload_[i - 1].at <= workload_[i].at);  // round-sorted
  }
  const int n_total = options.k + options.m;
  core::StrategyEnv env;
  env.k = options.k;
  env.n = n_total;
  env.repair_threshold = options.repair_threshold;
  env.acceptance_horizon = options.acceptance_horizon;
  auto policy = core::PolicyRegistry::Make(options.policy, env);
  auto selection = core::SelectionRegistry::Make(options.selection, env);
  auto estimator = core::EstimatorRegistry::Make(options.estimator, env);
  // Validate() above vetted the specs against the registry; Make can still
  // reject a cross-parameter check once contextual defaults resolve against
  // this run's options, so name the reason before dying.
  if (!policy.ok()) {
    P2P_LOG_ERROR("policy spec '%s': %s", options.policy.ToString().c_str(),
                  policy.status().ToString().c_str());
  }
  if (!estimator.ok()) {
    P2P_LOG_ERROR("estimator spec '%s': %s",
                  options.estimator.ToString().c_str(),
                  estimator.status().ToString().c_str());
  }
  P2P_CHECK(policy.ok());
  P2P_CHECK(selection.ok());
  P2P_CHECK(estimator.ok());
  policy_ = std::move(*policy);
  selection_ = std::move(*selection);
  estimator_ = std::move(*estimator);
  flag_level_ = policy_->FlagLevel(options.k, n_total);
  partner_cap_ = static_cast<int>(options.max_partner_factor * n_total);
  reads_monitor_ = estimator_->ReadsMonitor();
  reads_loss_rate_ = policy_->ReadsLossRate();
  if (reads_monitor_) {
    monitor_ = monitor::AvailabilityMonitor(normal_slots_ + kMaxObservers);
  }

  if (options_.transfer_enabled) {
    const util::Result<net::LinkProfile> link =
        transfer::FindLinkProfile(options_.transfer_link);
    P2P_CHECK(link.ok());  // Validate() vetted the name above
    transfer_ = std::make_unique<transfer::TransferScheduler>(
        *link, normal_slots_ + kMaxObservers, net::kArchiveBytes, options_.k,
        options_.m);
  }

  peers_.resize(normal_slots_);
  partners_.resize(normal_slots_);
  clients_.resize(normal_slots_);
  // Hot-path lanes and scratch (README "Hot path"): zero join rounds and
  // hosted blocks are correct for the not-yet-live slots peers_.resize()
  // just created, and -1 marks every score-memo entry invalid (rounds start
  // at 0).
  join_lane_.assign(normal_slots_ + kMaxObservers, 0);
  hosted_.assign(normal_slots_ + kMaxObservers, 0);
  if (reads_monitor_) {
    score_round_.assign(normal_slots_ + kMaxObservers, -1);
    score_val_.assign(normal_slots_ + kMaxObservers, 0.0);
  }
  // Eligible-candidate index: empty until BootstrapPopulation below inserts
  // the initial members via SyncIndex. Reserved to the id-space bound so
  // CandInsert never reallocates - the zero-allocation episode guarantee
  // (hotpath_alloc_test) extends to index maintenance.
  cand_pos_.assign(normal_slots_, kCandAbsent);
  cand_index_.reserve(normal_slots_);

  BootstrapPopulation();
  engine_->AddRoundHook([this](sim::Round now) { OnRound(now); });
}

void BackupNetwork::BootstrapPopulation() {
  for (PeerId id = 0; id < options_.num_peers; ++id) {
    InitPeer(id, 0);
  }
}

size_t BackupNetwork::AddObserver(const std::string& name, sim::Round frozen_age) {
  P2P_CHECK(engine_->now() == 0);
  P2P_CHECK(collector_.observers().size() < kMaxObservers);
  const PeerId id = static_cast<PeerId>(peers_.size());
  peers_.emplace_back();
  partners_.emplace_back();
  clients_.emplace_back();
  PeerState& p = peers_.back();
  p.live = true;
  p.frozen_age = frozen_age;
  p.online = true;
  p.needs_repair = true;
  if (reads_monitor_) {
    monitor_.RecordJoin(id, 0);
    monitor_.RecordConnect(id, 0);
  }
  EnqueueRepair(id);
  return collector_.AddObserver(name, frozen_age);
}

void BackupNetwork::InitPeer(PeerId id, sim::Round now) {
  PeerState& p = peers_[id];
  const uint32_t incarnation = p.incarnation;  // bumped by DepartPeer
  p = PeerState();
  p.incarnation = incarnation;
  p.live = true;
  p.profile = profiles_->SampleIndex(churn_rng_);
  join_lane_[id] = now;
  hosted_[id] = 0;  // ghost quota of the previous incarnation dies with it

  const sim::Round lifetime =
      (*profiles_)[p.profile].lifetime.Sample(churn_rng_);
  if (lifetime != sim::kNever) {
    p.departure_round = now + lifetime;
    departures_.Schedule(p.departure_round, Event{id, incarnation, 0});
  }

  // A fresh peer starts online (the user just installed / reinstalled).
  p.online = true;
  if (reads_monitor_) {
    monitor_.RecordJoin(id, now);
    monitor_.RecordConnect(id, now);
  }
  const sim::Round on_len =
      profiles_->sessions(p.profile).SampleOnline(churn_rng_);
  p.next_toggle = now + on_len;
  toggles_.Schedule(p.next_toggle, Event{id, incarnation, p.next_toggle});

  collector_.PeerEntered(metrics::AgeCategory::kNewcomer);
  const sim::Round boundary = metrics::NextBoundary(0);
  if (boundary != sim::kNever) {
    category_events_.Schedule(now + boundary, Event{id, incarnation, 0});
  }

  // The initial placement is "a repair where d = n" (paper 3.2).
  p.needs_repair = true;
  collector_.OnRepairFlagged(id, now);
  EnqueueRepair(id);
  SyncIndex(id);
}

void BackupNetwork::DepartPeer(PeerId id, sim::Round now, bool replace) {
  PeerState& p = peers_[id];
  // The machine is gone; its queued transfer dies with it.
  if (transfer_) transfer_->Cancel(id);
  collector_.OnDeparture(id, CategoryAt(id, now));
  if (reads_monitor_) monitor_.RecordDeparture(id, now);
  // Online estimators learn the departure-age distribution as it unfolds.
  estimator_->ObserveDeparture(now - join_lane_[id]);

  // The machine is gone: every block it hosted disappears now.
  SeverAsHost(id, now);

  // Its own backup: partners learn of the departure and free the space -
  // immediately in the paper, after a grace period as future work.
  SeverAsOwner(id, now,
               /*ghost_quota=*/options_.departure_grace > 0 && !IsObserver(id));

  ++p.incarnation;  // invalidates every scheduled event of the old peer
  if (!replace) {
    // Workload exit: the slot stays vacant (dead slots are skipped by the
    // candidate sampler and are never reused).
    const uint32_t incarnation = p.incarnation;
    p = PeerState();
    p.incarnation = incarnation;
    hosted_[id] = 0;
    SyncIndex(id);
    return;
  }
  InitPeer(id, now);  // immediate replacement (paper 4.1)
}

void BackupNetwork::ApplyAdjustment(const PopulationAdjustment& adj,
                                    sim::Round now) {
  if (adj.exits > 0) {
    // A correlated departure wave: `exits` distinct live peers chosen
    // uniformly (partial Fisher-Yates over the live slot list, driven by
    // the churn stream so runs stay reproducible). Local vector: DepartPeer
    // clobbers the shared scratch buffers.
    std::vector<PeerId> live;
    live.reserve(cand_index_.size());
    for (PeerId id = 0; id < normal_slots_; ++id) {
      if (peers_[id].live) live.push_back(id);
    }
    P2P_CHECK(adj.exits <= live.size());
    // Batch-select then act: DepartPeer(replace=false) draws no churn
    // randomness, so shuffling the whole prefix first consumes the stream
    // exactly like the historical interleaved select/depart loop.
    churn_rng_->ShufflePrefix(&live, adj.exits);
    for (uint32_t i = 0; i < adj.exits; ++i) {
      DepartPeer(live[i], now, /*replace=*/false);
    }
  }
  for (uint32_t i = 0; i < adj.joins; ++i) {
    P2P_CHECK(next_join_slot_ < normal_slots_);
    InitPeer(next_join_slot_++, now);
  }
}

void BackupNetwork::OnRound(sim::Round now) {
  TRACE_SCOPE("round");
  {
    TRACE_SCOPE("round/adjustments");
    while (workload_next_ < workload_.size() &&
           workload_[workload_next_].at <= now) {
      ApplyAdjustment(workload_[workload_next_], now);
      ++workload_next_;
    }
  }
  {
    // One child span per calendar drain, never one per event.
    TRACE_SCOPE("round/churn");
    {
      TRACE_SCOPE("churn/departures");
      departures_.DrainInto(now,
                            [&](const Event& e) { ProcessDeparture(e, now); });
    }
    {
      TRACE_SCOPE("churn/toggles");
      toggles_.DrainInto(now, [&](const Event& e) { ProcessToggle(e, now); });
    }
    {
      TRACE_SCOPE("churn/timeouts");
      timeouts_.DrainInto(now,
                          [&](const Event& e) { ProcessTimeout(e, now); });
    }
    {
      TRACE_SCOPE("churn/quota_releases");
      quota_releases_.DrainInto(now, [&](const Event& e) {
        if (peers_[e.id].incarnation == e.incarnation && hosted_[e.id] > 0) {
          --hosted_[e.id];
        }
      });
    }
    {
      TRACE_SCOPE("churn/categories");
      category_events_.DrainInto(
          now, [&](const Event& e) { ProcessCategory(e, now); });
    }
  }
  if (transfer_) {
    TRACE_SCOPE("round/transfers");
    ProcessTransfers(now);
  }
  {
    TRACE_SCOPE("round/repairs");
    ProcessRepairs(now);
  }
  {
    TRACE_SCOPE("round/tick");
    collector_.OnRoundTick(now);
  }
}

void BackupNetwork::ProcessToggle(const Event& e, sim::Round now) {
  PeerState& p = peers_[e.id];
  if (p.incarnation != e.incarnation || p.next_toggle != now ||
      IsObserver(e.id)) {
    return;  // stale
  }
  const churn::SessionProcess& sessions = profiles_->sessions(p.profile);
  if (p.online) {
    p.online = false;
    p.offline_since = now;
    if (reads_monitor_) monitor_.RecordDisconnect(e.id, now);
    if (instant_visibility()) {
      // Every owner storing on this peer sees one fewer visible block.
      for (const ClientLink& c : clients_[e.id]) {
        PeerState& owner = peers_[c.owner];
        --owner.visible;
        if (owner.visible < flag_level_) FlagForRepair(c.owner);
      }
    } else {
      // If it stays unreachable past the timeout, partners presume
      // departure.
      timeouts_.Schedule(now + options_.partner_timeout + 1,
                         Event{e.id, p.incarnation, now});
    }
    const sim::Round off_len = sessions.SampleOffline(churn_rng_);
    p.next_toggle = now + off_len;
  } else {
    p.online = true;
    p.offline_since = -1;
    if (reads_monitor_) monitor_.RecordConnect(e.id, now);
    if (instant_visibility()) {
      for (const ClientLink& c : clients_[e.id]) ++peers_[c.owner].visible;
    }
    if (p.needs_repair) EnqueueRepair(e.id);
    const sim::Round on_len = sessions.SampleOnline(churn_rng_);
    p.next_toggle = now + on_len;
  }
  SyncIndex(e.id);
  toggles_.Schedule(p.next_toggle, Event{e.id, p.incarnation, p.next_toggle});
}

void BackupNetwork::ProcessDeparture(const Event& e, sim::Round now) {
  PeerState& p = peers_[e.id];
  if (p.incarnation != e.incarnation || p.departure_round != now) return;
  DepartPeer(e.id, now);
}

void BackupNetwork::ProcessTimeout(const Event& e, sim::Round now) {
  PeerState& p = peers_[e.id];
  if (p.incarnation != e.incarnation) return;   // departed meanwhile
  if (p.online || p.offline_since != e.stamp) return;  // reconnected since
  // Unreachable for more than partner_timeout rounds: every owner storing on
  // this peer writes the blocks off and will repair.
  collector_.OnTimeout(static_cast<int64_t>(clients_[e.id].size()));
  SeverAsHost(e.id, now);
}

void BackupNetwork::ProcessCategory(const Event& e, sim::Round now) {
  PeerState& p = peers_[e.id];
  if (p.incarnation != e.incarnation) return;
  const sim::Round age = now - join_lane_[e.id];
  const metrics::AgeCategory from = metrics::CategoryOf(age - 1);
  const metrics::AgeCategory to = metrics::CategoryOf(age);
  if (from != to) collector_.PeerAdvanced(from, to);
  const sim::Round next = metrics::NextBoundary(age);
  if (next != sim::kNever) {
    category_events_.Schedule(join_lane_[e.id] + next,
                              Event{e.id, e.incarnation, 0});
  }
}

void BackupNetwork::AddPartnership(PeerId owner, PeerId host) {
  const sim::Round now = engine_->now();
  partners_[owner].push_back(Link{host,
                                   static_cast<uint32_t>(clients_[host].size()),
                                   static_cast<int32_t>(now)});
  clients_[host].push_back(
      ClientLink{owner, static_cast<uint32_t>(partners_[owner].size()) - 1});
  PeerState& h = peers_[host];
  if (!IsObserver(owner)) {
    ++hosted_[host];
    h.newest_client_join = std::max(h.newest_client_join, join_lane_[owner]);
  } else {
    ++h.observer_clients;
  }
  if (instant_visibility() && h.online) ++peers_[owner].visible;
}

void BackupNetwork::RemovePartnerAt(PeerId owner, uint32_t index,
                                    bool release_quota) {
  const Link link = partners_[owner][index];
  const PeerId host = link.host;
  const uint32_t j = link.back;
  // Observer-owned partnerships are excluded from the lifetime probe, like
  // every other observer-side measurement.
  if (!IsObserver(owner)) {
    collector_.OnPartnershipEnded(engine_->now() - link.formed);
  }
  // Swap-remove the twin on the host side.
  if (j + 1 != clients_[host].size()) {
    const ClientLink moved = clients_[host].back();
    clients_[host][j] = moved;
    partners_[moved.owner][moved.back].back = j;
  }
  clients_[host].pop_back();
  // Swap-remove on the owner side.
  if (index + 1 != partners_[owner].size()) {
    const Link moved = partners_[owner].back();
    partners_[owner][index] = moved;
    clients_[moved.host][moved.back].back = index;
  }
  partners_[owner].pop_back();
  PeerState& h = peers_[host];
  if (!IsObserver(owner)) {
    if (release_quota && hosted_[host] > 0) --hosted_[host];
    if (join_lane_[owner] >= h.newest_client_join) {
      h.newest_client_join = -2;  // stale; recomputed lazily on demand
    }
  } else if (h.observer_clients > 0) {
    --h.observer_clients;
  }
  if (instant_visibility() && h.online && peers_[owner].visible > 0) {
    --peers_[owner].visible;
  }
}

// Pops the host's client list from the back and swap-removes each link from
// its owner's partner list, where each removal misses three times in a row:
// the removed slot, the partner list's last link (which moves into the
// hole), and that link's twin (whose back index is rewritten). A two-stage
// pipeline hides the chain: 2 * kPrefetchAhead links ahead it prefetches the
// removed slot and the last link; kPrefetchAhead links ahead it reads that
// last link, now cached, and prefetches its twin. The hints stay exact until
// used, because each owner appears once per host: no removal in between
// touches the partner list a hint read.
void BackupNetwork::SeverAsHost(PeerId host, sim::Round now) {
  scratch_owners_.clear();
  const std::vector<ClientLink>& clients = clients_[host];
  while (!clients.empty()) {
    const size_t size = clients.size();
    if (size > 2 * kPrefetchAhead) {
      const ClientLink& far = clients[size - 1 - 2 * kPrefetchAhead];
      const std::vector<Link>& links = partners_[far.owner];
      Prefetch(&links[far.back]);
      Prefetch(&links.back());
      Prefetch(&peers_[far.owner]);  // OnBlocksLost below
    }
    if (size > kPrefetchAhead) {
      const ClientLink& near = clients[size - 1 - kPrefetchAhead];
      const Link& last = partners_[near.owner].back();
      Prefetch(&clients_[last.host][last.back]);
    }
    const ClientLink c = clients.back();
    scratch_owners_.push_back(c.owner);
    RemovePartnerAt(c.owner, c.back);
  }
  for (PeerId owner : scratch_owners_) OnBlocksLost(owner, 1, now);
}

void BackupNetwork::SeverAsOwner(PeerId owner, sim::Round now,
                                 bool ghost_quota) {
  const std::vector<Link>& links = partners_[owner];
  while (!links.empty()) {
    const uint32_t last = static_cast<uint32_t>(links.size()) - 1;
    if (ghost_quota) {
      const PeerId host = links[last].host;
      quota_releases_.Schedule(now + options_.departure_grace,
                               Event{host, peers_[host].incarnation, 0});
    }
    RemovePartnerAt(owner, last, /*release_quota=*/!ghost_quota);
  }
}

void BackupNetwork::OnBlocksLost(PeerId owner, int count, sim::Round now) {
  PeerState& p = peers_[owner];
  if (reads_loss_rate_) BumpLossRate(owner, count, now);
  if (!instant_visibility()) {
    // Written-off blocks are gone for good: below k the archive cannot be
    // decoded any more.
    const int alive = static_cast<int>(partners_[owner].size());
    if (p.backed_up && alive < options_.k) {
      HandleArchiveLoss(owner, now);
      return;
    }
  }
  if (VisibleBasis(owner) < flag_level_ || p.episode_active) FlagForRepair(owner);
}

int BackupNetwork::VisibleBasis(PeerId id) const {
  return instant_visibility() ? peers_[id].visible
                              : static_cast<int>(partners_[id].size());
}

sim::Round BackupNetwork::EffectiveJoin(PeerId id) const {
  return IsObserver(id) ? engine_->now() - peers_[id].frozen_age
                        : join_lane_[id];
}

sim::Round BackupNetwork::MarketAge(PeerId id) const {
  return std::min(AgeOf(id), options_.acceptance_horizon);
}

sim::Round BackupNetwork::YoungestClientJoin(PeerId host) {
  PeerState& h = peers_[host];
  if (h.newest_client_join == -2) {
    h.newest_client_join = -1;
    for (const ClientLink& c : clients_[host]) {
      if (!IsObserver(c.owner)) {
        h.newest_client_join =
            std::max(h.newest_client_join, join_lane_[c.owner]);
      }
    }
  }
  sim::Round youngest = h.newest_client_join;
  if (h.observer_clients > 0) {
    for (const ClientLink& c : clients_[host]) {
      if (IsObserver(c.owner)) {
        youngest = std::max(youngest, EffectiveJoin(c.owner));
      }
    }
  }
  return youngest;
}

bool BackupNetwork::TryEvictYoungestClient(PeerId host, sim::Round newer_than,
                                           sim::Round now) {
  TRACE_SCOPE("repair/evict");
  auto& cl = clients_[host];
  int best = -1;
  sim::Round best_age = newer_than;  // the victim must be strictly younger
  for (uint32_t j = 0; j < cl.size(); ++j) {
    const sim::Round a = MarketAge(cl[j].owner);
    if (a < best_age) {
      best_age = a;
      best = static_cast<int>(j);
    }
  }
  if (best < 0) return false;
  const PeerId victim = cl[static_cast<size_t>(best)].owner;
  RemovePartnerAt(victim, cl[static_cast<size_t>(best)].back);
  OnBlocksLost(victim, 1, now);
  return true;
}

bool BackupNetwork::TryPlaceBlock(PeerId owner, PeerId host, sim::Round now) {
  if (hosted_[host] >= options_.quota_blocks) {
    if (!options_.quota_market) return false;
    const sim::Round owner_age = MarketAge(owner);
    if (IsObserver(owner)) {
      // Observers must experience the same market a real peer of their
      // frozen age would, but their phantom blocks must not displace real
      // ones: admissible only when an eviction would have been possible.
      const sim::Round youngest =
          std::min(engine_->now() - YoungestClientJoin(host),
                   options_.acceptance_horizon);
      if (youngest >= owner_age) return false;
      AddPartnership(owner, host);
      return true;
    }
    while (hosted_[host] >= options_.quota_blocks) {
      if (!TryEvictYoungestClient(host, owner_age, now)) return false;
    }
  }
  AddPartnership(owner, host);
  return true;
}

int BackupNetwork::EvictOfflinePartners(PeerId owner, int count) {
  int evicted = 0;
  auto& links = partners_[owner];
  for (uint32_t i = static_cast<uint32_t>(links.size()); i-- > 0;) {
    if (evicted >= count) break;
    if (!peers_[links[i].host].online) {
      RemovePartnerAt(owner, i);
      ++evicted;
    }
  }
  return evicted;
}

void BackupNetwork::HandleArchiveLoss(PeerId owner, sim::Round now) {
  PeerState& p = peers_[owner];
  // The archive a queued transfer was rebuilding no longer decodes; the
  // fresh initial placement below enqueues a new job when it completes.
  if (transfer_) transfer_->Cancel(owner);
  if (IsObserver(owner)) {
    collector_.OnObserverLoss(owner - normal_slots_);
  } else {
    collector_.OnLoss(CategoryAt(owner, now));
  }
  // The network copy is unrecoverable; the owner rebuilds the backup from
  // its local data: drop what is left and start a fresh initial placement.
  p.backed_up = false;
  p.episode_active = false;
  SeverAsOwner(owner, now);
  FlagForRepair(owner);
}

void BackupNetwork::FlagForRepair(PeerId id) {
  PeerState& p = peers_[id];
  // Observers are measurement instruments: like the category accounting,
  // the episode probes (time-to-repair, vulnerability) exclude them. Other
  // system metrics do move with an observer: it draws hosts from the
  // placement stream, and the `repairs` and `losses` totals count its
  // episodes.
  if (!p.needs_repair && !IsObserver(id)) {
    collector_.OnRepairFlagged(id, engine_->now());
  }
  p.needs_repair = true;
  if (p.online) EnqueueRepair(id);
}

void BackupNetwork::EnqueueRepair(PeerId id) {
  PeerState& p = peers_[id];
  if (p.in_repair_queue) return;
  p.in_repair_queue = true;
  repair_queue_.push_back(id);
}

void BackupNetwork::ProcessRepairs(sim::Round now) {
  scratch_queue_.clear();
  scratch_queue_.swap(repair_queue_);
  engine_->ShuffleForRound(&scratch_queue_);
  for (PeerId id : scratch_queue_) {
    PeerState& p = peers_[id];
    p.in_repair_queue = false;
    if (!p.needs_repair) continue;
    if (!p.online) continue;  // re-enqueued on reconnect
    RunRepair(id, now);
  }
}

void BackupNetwork::RunRepair(PeerId id, sim::Round now) {
  TRACE_SCOPE("repair/run");
  PeerState& p = peers_[id];
  const int n = options_.k + options_.m;

  // A transfer job for the previous episode is still moving bytes on the
  // link; further degradation is absorbed when the job completes (the
  // completion handler re-evaluates and re-flags).
  if (transfer_ && transfer_->HasJob(id)) return;

  // "The peer must first download k blocks to be able to decode the
  // original data": with fewer than k blocks reachable, the repair fails
  // and the archive is lost (paper 4.2.1 discussion of figure 2).
  if (instant_visibility() && p.backed_up && p.visible < options_.k) {
    HandleArchiveLoss(id, now);
  }

  if (!p.episode_active) {
    TRACE_SCOPE("repair/evaluate");
    const int basis = VisibleBasis(id);
    // Initial placements always target full redundancy; a policy verdict
    // below may lower the target for maintenance repairs.
    p.episode_target = n;
    if (p.backed_up) {
      core::MaintenanceContext ctx;
      ctx.k = options_.k;
      ctx.n = n;
      ctx.alive = basis;
      if (reads_loss_rate_) ctx.partner_loss_rate = ReadLossRate(id, now);
      ctx.rounds_since_repair =
          p.last_repair < 0 ? sim::kNever : now - p.last_repair;
      const core::MaintenanceDecision decision = policy_->Evaluate(ctx);
      if (!decision.trigger) {
        // Recovered above the trigger level (e.g. partners came back
        // online) before the repair started: nothing to do.
        p.needs_repair = false;
        if (!IsObserver(id)) collector_.OnRepairCleared(id, now);
        return;
      }
      // Honor the policy's redundancy verdict (adaptive-redundancy moves
      // it with the loss rate; every fixed-target policy returns n).
      p.episode_target = std::clamp(decision.restore_to, options_.k, n);
      if (instant_visibility()) {
        // Write the missing blocks off: the repair REPLACES the partners
        // that were unreachable when it was triggered ("replace the blocks
        // which have disappeared"; meta-data is updated accordingly).
        EvictOfflinePartners(id, n);
      }
    }
    // A peer that is not yet backed up always proceeds: the initial
    // placement is mandatory regardless of policy.
    p.episode_active = true;
    p.episode_placed = 0;
    if (IsObserver(id)) {
      TRACE_COUNTER("repair/observer_episodes", 1);
      collector_.OnObserverRepair(id - normal_slots_);
    } else {
      TRACE_COUNTER("repair/episodes", 1);
      collector_.OnRepairStart(CategoryAt(id, now));
    }
  }

  int needed = p.episode_target - static_cast<int>(partners_[id].size());
  if (needed > 0 && options_.max_blocks_per_round > 0) {
    needed = std::min(needed, options_.max_blocks_per_round);
  }
  if (needed > 0) {
    TRACE_SCOPE("repair/place");
    // Member scratch, not locals: a steady-state episode must not allocate
    // (both vectors keep their high-water capacity across episodes).
    BuildPool(id, needed, &scratch_pool_);
    scratch_chosen_.clear();
    {
      TRACE_SCOPE("repair/choose");
      selection_->Choose(&scratch_pool_, needed, place_rng_, &scratch_chosen_);
    }
    int64_t placed = 0;
    {
      // Parent of repair/evict, the quota-market eviction scan.
      TRACE_SCOPE("repair/try_place");
      const size_t chosen = scratch_chosen_.size();
      for (size_t i = 0; i < chosen; ++i) {
        if (i + kPrefetchAhead < chosen) {
          const PeerId ahead = scratch_chosen_[i + kPrefetchAhead];
          Prefetch(&peers_[ahead]);
          Prefetch(clients_[ahead].data() + clients_[ahead].size());
        }
        if (TryPlaceBlock(id, scratch_chosen_[i], now)) ++placed;
      }
    }
    collector_.OnUpload(placed);
    p.episode_placed += static_cast<int>(placed);
  }

  if (static_cast<int>(partners_[id].size()) >= p.episode_target) {
    p.episode_active = false;
    if (transfer_ && !IsObserver(id)) {
      // Placement chose the hosts; the bytes still have to move on the
      // link. The repair flag (and the vulnerability window) clears only
      // when the scheduler reports the job's last byte.
      transfer_->Enqueue(id, p.incarnation, /*initial=*/!p.backed_up,
                         p.episode_placed, now);
      return;
    }
    p.needs_repair = false;
    if (!IsObserver(id)) {
      collector_.OnRepairCleared(id, now, /*initial=*/!p.backed_up);
    }
    p.last_repair = now;
    p.backed_up = true;
    // The refreshed set may still sit under the trigger level (newly placed
    // partners can be offline until the upload completes): re-evaluate next
    // round rather than waiting for a further loss event.
    if (VisibleBasis(id) < flag_level_) FlagForRepair(id);
  } else {
    // Partial placement: keep trying in subsequent rounds.
    EnqueueRepair(id);
  }
}

void BackupNetwork::ProcessTransfers(sim::Round now) {
  transfer_done_.clear();
  const TransferDirectory directory(this);
  transfer_->Tick(now, directory, &transfer_done_);
  const transfer::TickSample& sample = transfer_->last_tick();
  if (sample.capacity_bytes > 0.0) {
    // Only rounds with uplink demand feed the utilization probe; idle
    // rounds say nothing about contention.
    collector_.OnUplinkSample(sample.used_bytes, sample.capacity_bytes);
  }
  for (const transfer::TransferCompletion& completion : transfer_done_) {
    // Cancel() on departure / archive loss makes stale completions
    // impossible, but the incarnation check keeps the event pattern uniform.
    if (peers_[completion.owner].incarnation != completion.incarnation) {
      continue;
    }
    OnTransferComplete(completion, now);
  }
}

void BackupNetwork::OnTransferComplete(
    const transfer::TransferCompletion& completion, sim::Round now) {
  TRACE_SCOPE("transfer/complete");
  PeerState& p = peers_[completion.owner];
  p.needs_repair = false;
  collector_.OnRepairCleared(completion.owner, now, completion.initial);
  if (!completion.initial) {
    // The download phase of a maintenance job is exactly a restore: the k
    // blocks needed to decode the archive crossed the owner's downlink.
    collector_.OnRestore(completion.download_rounds);
  }
  p.last_repair = now;
  p.backed_up = true;
  // The world may have degraded while the bytes moved: re-evaluate rather
  // than waiting for a further loss event.
  if (VisibleBasis(completion.owner) < flag_level_) {
    FlagForRepair(completion.owner);
  }
}

// DETLINT: hot-path-begin
int BackupNetwork::BuildPool(PeerId owner, int needed,
                             std::vector<core::Candidate>* pool) {
  TRACE_SCOPE("repair/pool");
  pool->clear();
  const int target_pool = std::max(
      needed, static_cast<int>(std::ceil(options_.pool_factor * needed)));
  const int64_t max_draws =
      static_cast<int64_t>(options_.sample_attempt_factor) * target_pool;
  const sim::Round now = engine_->now();
  const sim::Round owner_age = AgeOf(owner);
  const sim::Round owner_market_age = MarketAge(owner);  // round-constant
  pool->reserve(static_cast<size_t>(target_pool));

  // Sample without replacement straight off the eligible-candidate index:
  // a draw lands on a live - and, in timeout mode, online - peer by
  // construction, so the dup/not-live/offline rejects of the historical
  // rejection sampler cannot occur and the draw budget scales with the
  // eligible set, not the population. Instant mode admits offline
  // candidates because "the upload of generated blocks can be done later
  // as new partners become available" (paper 3.1) - its lane is the whole
  // index - while timeout mode draws only from the online prefix, where an
  // offline partner would start timing out immediately.
  //
  // The draw is a segment-aware partial Fisher-Yates: one UniformBounded
  // over the ids not yet taken, with each taken id compacted to the front
  // of its own segment so the [0, cand_online_) partition invariant
  // survives the shuffle (the index is a set; the reordering itself is
  // harmless). The owner and its current partners are pre-taken - swapped
  // into the taken prefix of their segment before the first draw - so a
  // draw can never land on them and no per-draw exclusion check runs; the
  // quota market and the acceptance function are the only per-draw filters.
  // Every remaining candidate is equally likely at every step, which is
  // exactly the distribution the rejection sampler produced over the same
  // non-excluded set (PoolIndexTest locks the statistical identity). The
  // acceptance draws interleave after each surviving candidate as before.
  // Counters accumulate in locals and flush once per episode. An age-only
  // estimator scores each accepted candidate right here, from the age the
  // acceptance draw already used; a monitor-reading one scores the whole
  // pool in the repair/score pass below.
  const uint32_t online_total = cand_online_;
  const uint32_t offline_total =
      instant_visibility()
          ? static_cast<uint32_t>(cand_index_.size()) - cand_online_
          : 0;
  uint32_t online_taken = 0;
  uint32_t offline_taken = 0;
  int64_t pre_excluded = 0;
  const auto pre_take = [&](PeerId id) {
    if (id >= normal_slots_) return;  // observer owner: never in the index
    const uint32_t pos = cand_pos_[id];
    if (pos == kCandAbsent) return;  // dead: not in the index
    if (pos < cand_online_) {
      CandSwap(pos, online_taken++);
      ++pre_excluded;
    } else if (offline_total != 0) {
      CandSwap(pos, cand_online_ + offline_taken++);
      ++pre_excluded;
    }  // offline partner in timeout mode: outside the drawn lane anyway
  };
  pre_take(owner);
  for (const Link& link : partners_[owner]) pre_take(link.host);
  uint32_t remaining =
      (online_total - online_taken) + (offline_total - offline_taken);
  const int* const hosted = hosted_.data();
  const int quota = options_.quota_blocks;
  const sim::Round* const join_lane = join_lane_.data();
  util::Rng* const rng = place_rng_;
  const bool use_acceptance = options_.use_acceptance;
  const bool quota_market = options_.quota_market;
  const core::LifetimeEstimator* const age_only =
      reads_monitor_ ? nullptr : estimator_.get();
  int64_t draws = 0, rej_quota_full = 0, rej_acceptance = 0, accepted = 0;

  int pool_count = 0;
  while (pool_count < target_pool && remaining > 0 && draws < max_draws) {
    ++draws;
    const uint32_t u = static_cast<uint32_t>(rng->UniformBounded(remaining));
    --remaining;
    PeerId c;
    if (u < online_total - online_taken) {
      CandSwap(online_taken + u, online_taken);
      c = cand_index_[online_taken++];
    } else {
      const uint32_t off = u - (online_total - online_taken);
      CandSwap(cand_online_ + offline_taken + off,
               cand_online_ + offline_taken);
      c = cand_index_[cand_online_ + offline_taken++];
    }
    if (hosted[c] >= quota) {
      // Full hosts stay in the market for peers older than their youngest
      // client (tit-for-tat displacement).
      if (!quota_market) {
        ++rej_quota_full;
        continue;
      }
      const sim::Round youngest = std::min(now - YoungestClientJoin(c),
                                           options_.acceptance_horizon);
      if (youngest >= owner_market_age) {
        ++rej_quota_full;
        continue;
      }
    }
    const sim::Round cand_age = now - join_lane[c];
    if (use_acceptance && !acceptance_.MutualAccept(owner_age, cand_age, rng)) {
      ++rej_acceptance;
      continue;
    }
    ++accepted;
    ++pool_count;
    const double score =
        age_only != nullptr
            ? age_only->StabilityScore(core::PeerObservation{cand_age, 0.0, 0})
            : 0.0;
    pool->push_back(core::Candidate{c, cand_age, score});
  }
  pool_stats_.draws += draws;
  pool_stats_.index_partner_excluded += pre_excluded;
  pool_stats_.reject_quota_full += rej_quota_full;
  pool_stats_.reject_acceptance += rej_acceptance;
  pool_stats_.accepted += accepted;
  if (remaining == 0 && pool_count < target_pool) {
    ++pool_stats_.index_exhausted;  // the whole lane was drawn and filtered
  }
  if (age_only != nullptr) {
    pool_stats_.score_evals += accepted;  // one fresh age-only score each
    return pool_count;
  }
  // A monitor-reading estimator gets one monitor snapshot pass per episode
  // over the whole pool: it ranks by what the monitoring protocol can
  // actually answer (age, recent uptime, last-seen). Scores are memoized
  // per (peer, round): every monitor event and estimator update lands in
  // the adjustment/churn phases that run strictly before this repairs
  // phase, so a peer pooled by many repairing owners in one round is
  // scored once.
  {
    TRACE_SCOPE("repair/score");
    for (core::Candidate& cand : *pool) {
      if (score_round_[cand.id] == now) {
        ++pool_stats_.score_memo_hits;
        cand.score = score_val_[cand.id];
        continue;
      }
      ++pool_stats_.score_evals;
      cand.score = estimator_->StabilityScore(
          monitor_.Observe(cand.id, monitor_.history_window(), now));
      score_round_[cand.id] = now;
      score_val_[cand.id] = cand.score;
    }
  }
  return static_cast<int>(pool->size());
}
// DETLINT: hot-path-end

void BackupNetwork::BumpLossRate(PeerId id, int events, sim::Round now) {
  PeerState& p = peers_[id];
  const double tau = static_cast<double>(options_.loss_rate_tau);
  const double decay =
      std::exp(-static_cast<double>(now - p.loss_rate_at) / tau);
  p.loss_rate = p.loss_rate * decay + static_cast<double>(events) / tau;
  p.loss_rate_at = now;
}

double BackupNetwork::ReadLossRate(PeerId id, sim::Round now) const {
  const PeerState& p = peers_[id];
  const double tau = static_cast<double>(options_.loss_rate_tau);
  return p.loss_rate * std::exp(-static_cast<double>(now - p.loss_rate_at) / tau);
}

sim::Round BackupNetwork::AgeOf(PeerId id) const {
  if (IsObserver(id)) return peers_[id].frozen_age;
  return engine_->now() - join_lane_[id];
}

metrics::AgeCategory BackupNetwork::CategoryAt(PeerId id, sim::Round now) const {
  return metrics::CategoryOf(now - join_lane_[id]);
}

BackupNetwork::PopulationStats BackupNetwork::ComputePopulationStats() const {
  PopulationStats s;
  for (PeerId id = 0; id < normal_slots_; ++id) {
    if (!peers_[id].live) continue;
    s.mean_partners += static_cast<double>(partners_[id].size());
    s.mean_visible += static_cast<double>(peers_[id].visible);
    s.mean_hosted += static_cast<double>(hosted_[id]);
    s.online_fraction += peers_[id].online ? 1.0 : 0.0;
    s.backed_up += peers_[id].backed_up ? 1 : 0;
  }
  const double p =
      cand_index_.empty() ? 1.0 : static_cast<double>(cand_index_.size());
  s.mean_partners /= p;
  s.mean_visible /= p;
  s.mean_hosted /= p;
  s.online_fraction /= p;
  return s;
}

BackupNetwork::PartnerSetStats BackupNetwork::ComputePartnerStats(
    PeerId owner) const {
  PartnerSetStats s;
  s.count = static_cast<int>(partners_[owner].size());
  if (s.count == 0) return s;
  for (const Link& link : partners_[owner]) {
    const PeerState& host = peers_[link.host];
    s.mean_nominal_availability += (*profiles_)[host.profile].availability;
    s.mean_age_days +=
        sim::RoundsToDays(engine_->now() - join_lane_[link.host]);
    if (host.profile < s.profile_counts.size()) {
      ++s.profile_counts[host.profile];
    }
  }
  s.mean_nominal_availability /= s.count;
  s.mean_age_days /= s.count;
  return s;
}

void BackupNetwork::CheckInvariants() const {
  const int n = options_.k + options_.m;
  const int bound = instant_visibility() ? partner_cap_ : n;
  std::vector<int> hosted_check(peers_.size(), 0);
  for (PeerId o = 0; o < peers_.size(); ++o) {
    if (!peers_[o].live) {
      // Vacant slot (reserved for a future join or emptied by a mass exit):
      // no memberships of any kind may linger.
      P2P_CHECK(partners_[o].empty());
      P2P_CHECK(clients_[o].empty());
      P2P_CHECK(!peers_[o].online);
      P2P_CHECK(hosted_[o] == 0);
      continue;
    }
    P2P_CHECK(static_cast<int>(partners_[o].size()) <= bound);
    if (instant_visibility()) {
      int visible_check = 0;
      for (const Link& link : partners_[o]) {
        if (peers_[link.host].online) ++visible_check;
      }
      P2P_CHECK(peers_[o].visible == visible_check);
    }
    for (uint32_t i = 0; i < partners_[o].size(); ++i) {
      const Link& link = partners_[o][i];
      P2P_CHECK(link.host < normal_slots_);  // hosts are normal peers
      P2P_CHECK(peers_[link.host].live);     // ...and members right now
      P2P_CHECK(link.back < clients_[link.host].size());
      const ClientLink& twin = clients_[link.host][link.back];
      P2P_CHECK(twin.owner == o && twin.back == i);
      if (!IsObserver(o)) ++hosted_check[link.host];
    }
    // Distinctness: no host appears twice for one owner.
    std::vector<PeerId> hosts;
    hosts.reserve(partners_[o].size());
    for (const Link& link : partners_[o]) hosts.push_back(link.host);
    std::sort(hosts.begin(), hosts.end());
    P2P_CHECK(std::adjacent_find(hosts.begin(), hosts.end()) == hosts.end());
  }
  // Eligible-candidate index oracle: the index must hold every live normal
  // peer exactly once with the online partition boundary exact and the
  // position map inverting the array; dead and observer ids must be absent.
  // SyncIndex maintains it by O(1) diffs at every live/online transition -
  // a miss here means a transition escaped the diff.
  P2P_CHECK(cand_pos_.size() == normal_slots_);
  P2P_CHECK(cand_index_.size() <= normal_slots_);  // reserve() bound holds
  P2P_CHECK(cand_online_ <= cand_index_.size());
  uint32_t live_normal_check = 0;
  for (PeerId id = 0; id < normal_slots_; ++id) {
    const uint32_t pos = cand_pos_[id];
    if (peers_[id].live) {
      ++live_normal_check;
      P2P_CHECK(pos < cand_index_.size());
      P2P_CHECK(cand_index_[pos] == id);
      P2P_CHECK((pos < cand_online_) == peers_[id].online);
    } else {
      P2P_CHECK(pos == kCandAbsent);
    }
  }
  P2P_CHECK(cand_index_.size() == live_normal_check);
  // Transfer bookkeeping: a queued job pins its owner - a live normal peer -
  // in the flagged, episode-closed state until completion.
  if (transfer_) {
    for (PeerId id = 0; id < peers_.size(); ++id) {
      if (!transfer_->HasJob(id)) continue;
      const PeerState& p = peers_[id];
      P2P_CHECK(p.live && !IsObserver(id));
      P2P_CHECK(!p.episode_active);
      P2P_CHECK(p.needs_repair);
    }
  }
  for (PeerId h = 0; h < peers_.size(); ++h) {
    if (options_.departure_grace == 0) {
      P2P_CHECK(hosted_[h] == hosted_check[h]);
    } else {
      P2P_CHECK(hosted_[h] >= hosted_check[h]);  // ghost quota allowed
    }
    P2P_CHECK(hosted_[h] <= options_.quota_blocks ||
              options_.quota_blocks == 0);
  }
}

}  // namespace backup
}  // namespace p2p
