// Configuration of the simulated peer-to-peer backup system. Defaults are
// the paper's evaluation parameters (sections 2.2.4 and 4.1).

#ifndef P2P_BACKUP_OPTIONS_H_
#define P2P_BACKUP_OPTIONS_H_

#include <cstdint>
#include <string>
#include <variant>

#include "core/strategy_spec.h"
#include "sim/clock.h"
#include "util/result.h"
#include "util/status.h"

namespace p2p {
namespace backup {

/// How "blocks visible in the system" (the repair-threshold quantity) is
/// counted.
enum class VisibilityModel {
  /// A block is visible while its host is connected right now. Matches the
  /// paper's simulation ("a peer may lose more than 5 blocks in a round if
  /// its partners are not very stable" - only temporary disconnections can
  /// move that fast). Partnerships are severed only by true departures; the
  /// partner set may grow beyond n, bounded by max_partner_factor.
  kInstantOnline,
  /// A block is visible until its host has been unreachable for
  /// partner_timeout rounds, after which it is written off (the protocol
  /// of paper section 2.2.3 as a deployable system would implement it).
  kTimeoutPresumed,
};

/// \brief All knobs of one simulation run.
struct SystemOptions {
  /// Population size kept constant by immediate replacement (paper: 25,000).
  uint32_t num_peers = 25'000;

  /// Erasure code data blocks (paper: k = 128).
  int k = 128;
  /// Erasure code redundancy blocks (paper: m = 128).
  int m = 128;

  /// Repair threshold k': repair when fewer blocks remain (paper: 132-180,
  /// focus 148).
  int repair_threshold = 148;

  /// Blocks a peer stores for others at most (paper: quota = 384).
  int quota_blocks = 384;

  /// Visibility semantics (see VisibilityModel). The timeout model with a
  /// 12-hour write-off over diurnal sessions is the calibration that
  /// reproduces the paper's figure shapes (see EXPERIMENTS.md).
  VisibilityModel visibility = VisibilityModel::kTimeoutPresumed;

  /// kTimeoutPresumed only: rounds a partner may stay unreachable before its
  /// blocks are presumed disappeared ("if a peer could not be connected
  /// during the threshold period, it is considered that the peer has
  /// definitively left").
  sim::Round partner_timeout = 12;

  /// kInstantOnline only: hard cap on a peer's partner count, as a multiple
  /// of n (repairs add partners while offline ones linger; the cap evicts
  /// the longest-idle offline partners when room is needed).
  double max_partner_factor = 2.0;

  /// Acceptance-function horizon L (paper: 90 days).
  sim::Round acceptance_horizon = 90 * sim::kRoundsPerDay;

  /// Apply the acceptance function when pooling candidates (disabling it is
  /// the "sort-only" ablation).
  bool use_acceptance = true;

  /// Partner selection strategy applied to the pool (paper: oldest-first).
  /// A registry-backed spec: `weighted-random{age_exponent=2}` etc.; see
  /// core/strategy_registry.h for the vocabulary.
  core::SelectionSpec selection;

  /// Repair-trigger policy (paper: fixed threshold at repair_threshold).
  /// Also a registry-backed spec: `proactive{batch_blocks=8}` etc. With no
  /// explicit `threshold` parameter, threshold-bearing policies follow
  /// `repair_threshold` above.
  core::PolicySpec policy;

  /// Lifetime estimator scoring placement candidates (paper: age rank).
  /// A registry-backed spec: `availability-weighted{exponent=2}` etc. With
  /// no explicit `horizon` parameter, horizon-bearing estimators follow
  /// `acceptance_horizon` above.
  core::EstimatorSpec estimator;

  /// Candidate pool size as a multiple of the blocks needed ("once the pool
  /// is big enough"); the selection strategy then picks from the pool.
  double pool_factor = 3.0;

  /// Bound on candidate draws per pool slot before giving up for the
  /// round. Since the eligible-candidate index landed a draw is never
  /// wasted on a dead/offline/duplicate id, so in practice the eligible
  /// set runs dry (index_exhausted) before this budget does; it remains
  /// the hard cap on quota-market/acceptance rejections per episode.
  int sample_attempt_factor = 8;

  /// Cap on blocks uploaded per owner per round; 0 = unlimited. The paper
  /// models a full repair (d < 128) as fitting in one round.
  int max_blocks_per_round = 0;

  /// Tit-for-tat quota market (paper 6: the scheme "may also be considered
  /// as a kind of tit-for-tat protocol"): a host whose quota is full still
  /// accepts a block from a peer older than its youngest current client, by
  /// dropping that youngest client's block. Old peers therefore keep
  /// displacing newcomers from the most stable hosts - the force that keeps
  /// maintenance permanently cheap for elders and permanently expensive for
  /// newcomers.
  bool quota_market = true;

  /// Future-work knob: delay between a definitive departure and the removal
  /// of its blocks (paper default: 0 = "blocks are immediately removed").
  sim::Round departure_grace = 0;

  /// Loss-rate EMA time constant for adaptive/proactive policies.
  sim::Round loss_rate_tau = 14 * sim::kRoundsPerDay;

  /// Sampling interval of the result time series.
  sim::Round sample_interval = sim::kRoundsPerDay;

  /// Bandwidth-constrained transfer scheduling (section 2.2.4). When false
  /// (the default, locked byte-identical by the goldens) repairs complete
  /// instantaneously as before; when true each repair episode becomes a
  /// queued multi-round transfer job on `transfer_link` and the repair flag
  /// clears only when the job's last byte moves.
  bool transfer_enabled = false;

  /// Link profile name for the transfer scheduler (see transfer/link.h:
  /// "dsl-2009", "dsl-modern", "ftth").
  std::string transfer_link = "dsl-2009";

  /// Checks every knob for consistency: the repair threshold must lie in
  /// [k, k + m], counts must be positive, timeouts and factors sane. The
  /// BackupNetwork constructor calls this and refuses to run on a bad
  /// configuration, so sweeps fail fast at expansion instead of silently
  /// simulating nonsense.
  util::Status Validate() const;
};

/// One scenario-file key and the SystemOptions member it sets. The member's
/// type selects how scenario text parses and renders the value
/// (scenario/text.cc).
struct OptionKey {
  const char* key;
  std::variant<int SystemOptions::*, sim::Round SystemOptions::*,
               double SystemOptions::*, bool SystemOptions::*,
               VisibilityModel SystemOptions::*, std::string SystemOptions::*,
               core::PolicySpec SystemOptions::*,
               core::SelectionSpec SystemOptions::*,
               core::EstimatorSpec SystemOptions::*>
      member;
};

/// Every SystemOptions knob except num_peers (a scenario's top-level
/// `peers` key), in canonical text order, each section's keys contiguous.
/// Scenario text, its rendering and operator== all loop over this table, so
/// a new knob is one row (detlint's [options] rule checks that every member
/// has exactly one).
inline constexpr OptionKey kOptionKeys[] = {
    {"options.k", &SystemOptions::k},
    {"options.m", &SystemOptions::m},
    {"options.repair_threshold", &SystemOptions::repair_threshold},
    {"options.quota_blocks", &SystemOptions::quota_blocks},
    {"options.visibility", &SystemOptions::visibility},
    {"options.partner_timeout", &SystemOptions::partner_timeout},
    {"options.max_partner_factor", &SystemOptions::max_partner_factor},
    {"options.acceptance_horizon", &SystemOptions::acceptance_horizon},
    {"options.use_acceptance", &SystemOptions::use_acceptance},
    {"options.selection", &SystemOptions::selection},
    {"options.policy", &SystemOptions::policy},
    {"options.estimator", &SystemOptions::estimator},
    {"options.pool_factor", &SystemOptions::pool_factor},
    {"options.sample_attempt_factor", &SystemOptions::sample_attempt_factor},
    {"options.max_blocks_per_round", &SystemOptions::max_blocks_per_round},
    {"options.quota_market", &SystemOptions::quota_market},
    {"options.departure_grace", &SystemOptions::departure_grace},
    {"options.loss_rate_tau", &SystemOptions::loss_rate_tau},
    {"options.sample_interval", &SystemOptions::sample_interval},
    {"transfer.enabled", &SystemOptions::transfer_enabled},
    {"transfer.link", &SystemOptions::transfer_link},
};

/// Whether `a` and `b` hold the same value for the knob of `row`.
bool SameOption(const OptionKey& row, const SystemOptions& a,
                const SystemOptions& b);

/// Equality of num_peers and every knob of kOptionKeys (scenario text
/// round-trips are verified with this).
bool operator==(const SystemOptions& a, const SystemOptions& b);
inline bool operator!=(const SystemOptions& a, const SystemOptions& b) {
  return !(a == b);
}

/// Lowercase token of a visibility model ("instant", "timeout"); used by
/// the scenario text format.
const char* VisibilityModelName(VisibilityModel model);

/// Inverse of VisibilityModelName; errors on unknown tokens.
util::Result<VisibilityModel> VisibilityModelFromName(const std::string& name);

}  // namespace backup
}  // namespace p2p

#endif  // P2P_BACKUP_OPTIONS_H_
