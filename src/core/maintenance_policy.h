// Maintenance (repair-trigger) policies.
//
// The paper's protocol uses a fixed repair threshold k' ("if the number of
// partners for an archive is below a threshold, the peer will trigger a
// repair"). Its future-work section proposes letting the threshold adapt to
// the peer's context, and cites proactive replication [10] (repairing at the
// measured churn rate) as a related alternative; both are implemented here
// and measured in bench_ablation_futurework.

#ifndef P2P_CORE_MAINTENANCE_POLICY_H_
#define P2P_CORE_MAINTENANCE_POLICY_H_

#include <algorithm>
#include <memory>
#include <string>

#include "sim/clock.h"

namespace p2p {
namespace core {

/// Inputs a policy may consult when deciding whether to repair.
struct MaintenanceContext {
  int k = 0;          ///< blocks needed to decode
  int n = 0;          ///< target number of placed blocks
  int alive = 0;      ///< blocks currently counted as in the system
  /// Partner departures (true or presumed) per round, smoothed over a recent
  /// window; 0 when unknown, and always 0 for a policy whose ReadsLossRate()
  /// is false (the network then keeps no loss-rate average).
  double partner_loss_rate = 0.0;
  /// Rounds since this peer's last repair finished (kNever if none yet).
  sim::Round rounds_since_repair = sim::kNever;
};

/// A policy's verdict for this round.
struct MaintenanceDecision {
  bool trigger = false;
  /// When triggering, place new blocks until `alive == restore_to`.
  int restore_to = 0;
};

/// \brief Decides when a peer repairs and how far it restores redundancy.
class MaintenancePolicy {
 public:
  virtual ~MaintenancePolicy() = default;

  /// Evaluates the policy for one archive in one round.
  virtual MaintenanceDecision Evaluate(const MaintenanceContext& ctx) const = 0;

  /// The visible-block level below which Evaluate could possibly trigger:
  /// the network flags a peer for evaluation only when its count drops under
  /// this level, so per-event flagging stays cheap. Must be an upper bound
  /// over every reachable context.
  virtual int FlagLevel(int k, int n) const = 0;

  /// Whether Evaluate reads MaintenanceContext::partner_loss_rate. When
  /// false the network keeps no per-peer loss-rate average and passes 0.
  /// Defaults to true; a policy may return false only if its verdict never
  /// depends on the loss rate.
  virtual bool ReadsLossRate() const { return true; }

  /// Display name.
  virtual std::string name() const = 0;
};

/// Repair when alive < threshold; restore to n. The paper's policy.
class FixedThresholdPolicy : public MaintenancePolicy {
 public:
  explicit FixedThresholdPolicy(int threshold);
  MaintenanceDecision Evaluate(const MaintenanceContext& ctx) const override;
  int FlagLevel(int /*k*/, int /*n*/) const override { return threshold_; }
  bool ReadsLossRate() const override { return false; }
  std::string name() const override { return "fixed-threshold"; }
  int threshold() const { return threshold_; }

 private:
  int threshold_;
};

/// Threshold = clamp(k + margin, floor, ceiling) where margin covers the
/// expected partner losses over `reaction_rounds` at the measured loss rate,
/// times a safety factor. Peers with stable partners converge to a low
/// threshold (fewer, larger repairs); peers bleeding partners raise it.
class AdaptiveThresholdPolicy : public MaintenancePolicy {
 public:
  struct Options {
    double safety_factor = 3.0;
    sim::Round reaction_rounds = 3 * sim::kRoundsPerDay;
    int floor_margin = 4;    ///< threshold >= k + floor_margin
    int ceiling_margin = 64; ///< threshold <= k + ceiling_margin
  };

  explicit AdaptiveThresholdPolicy(const Options& options);
  MaintenanceDecision Evaluate(const MaintenanceContext& ctx) const override;
  int FlagLevel(int k, int /*n*/) const override {
    return k + options_.ceiling_margin;
  }
  std::string name() const override { return "adaptive-threshold"; }

 private:
  Options options_;
};

/// Proactive repair in the style of Duminuco et al. [10]: top up missing
/// blocks in small batches as they go missing, so the repair cadence
/// follows the loss rate without measuring it and without waiting for a
/// threshold crossing; falls back to an emergency fixed threshold close to k.
class ProactivePolicy : public MaintenancePolicy {
 public:
  struct Options {
    int batch_blocks = 8;       ///< repair once this many blocks are missing
    int emergency_threshold = 136;  ///< always repair below this
  };

  explicit ProactivePolicy(const Options& options);
  MaintenanceDecision Evaluate(const MaintenanceContext& ctx) const override;
  int FlagLevel(int /*k*/, int n) const override {
    return std::max(options_.emergency_threshold, n - options_.batch_blocks + 1);
  }
  bool ReadsLossRate() const override { return false; }
  std::string name() const override { return "proactive"; }

 private:
  Options options_;
};

/// Adaptive redundancy in the style of Dell'Amico et al. ("Adaptive
/// Redundancy Management for Durable P2P Backup"): the repair trigger stays
/// a fixed threshold, but the redundancy target the repair restores to
/// moves with the measured partner loss rate. Stable partner sets get
/// small, cheap repairs just above the threshold; bleeding ones restore all
/// the way to n so the next crossing is far away.
class AdaptiveRedundancyPolicy : public MaintenancePolicy {
 public:
  struct Options {
    int threshold = 148;     ///< trigger level (alive < threshold repairs)
    double safety_factor = 2.0;
    /// The restored margin covers the expected losses over this window.
    sim::Round horizon_rounds = 14 * sim::kRoundsPerDay;
    int min_extra = 8;       ///< restore to at least threshold + min_extra
  };

  explicit AdaptiveRedundancyPolicy(const Options& options);
  MaintenanceDecision Evaluate(const MaintenanceContext& ctx) const override;
  int FlagLevel(int /*k*/, int /*n*/) const override {
    return options_.threshold;
  }
  std::string name() const override { return "adaptive-redundancy"; }

 private:
  Options options_;
};

// Instantiation from declarative specs lives in strategy_registry.h; the
// closed PolicyKind enum and its silent-fallback FromName parser are gone.

}  // namespace core
}  // namespace p2p

#endif  // P2P_CORE_MAINTENANCE_POLICY_H_
