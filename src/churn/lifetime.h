// Lifetime distributions: how long a peer stays in the system before leaving
// definitively. The paper's profile table uses bounded ranges; the Pareto
// law realizes the heavy-tailed lifetimes of [5] ("lifetimes in a
// peer-to-peer system follow a Pareto distribution") for ablation studies.

#ifndef P2P_CHURN_LIFETIME_H_
#define P2P_CHURN_LIFETIME_H_

#include <string>

#include "sim/clock.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/status.h"

namespace p2p {
namespace churn {

/// Which lifetime distribution a profile draws from.
enum class LifetimeKind {
  kUnlimited,    ///< never departs (paper's Durable)
  kUniform,      ///< uniform over [lo, hi] rounds (paper's range notation)
  kPareto,       ///< heavy-tailed Pareto(scale, shape): expected residual
                 ///< life grows linearly with age
  kExponential,  ///< memoryless control (age carries no information)
};

/// \brief Distribution of total peer lifetime, in rounds; parameters by kind
/// (see the factories).
struct LifetimeSpec {
  LifetimeKind kind = LifetimeKind::kUnlimited;
  sim::Round lo = 0;    ///< kUniform: lower bound (rounds)
  sim::Round hi = 0;    ///< kUniform: upper bound (rounds)
  double scale = 0.0;   ///< kPareto: minimum lifetime (rounds)
  double shape = 0.0;   ///< kPareto: tail exponent
  double mean = 0.0;    ///< kExponential: mean (rounds)

  static LifetimeSpec Unlimited();
  static LifetimeSpec Uniform(sim::Round lo, sim::Round hi);
  static LifetimeSpec Pareto(double scale_rounds, double shape);
  static LifetimeSpec Exponential(double mean_rounds);

  util::Status Validate() const;

  /// Draws a lifetime; sim::kNever means the peer never departs. Every kind
  /// consumes the stream, kUnlimited included, so streams stay aligned
  /// across profile mixes. Requires Validate().ok().
  sim::Round Sample(util::Rng* rng) const;

  /// Mean lifetime in rounds (sim::kNever for unbounded laws).
  double MeanRounds() const;

  friend bool operator==(const LifetimeSpec& a, const LifetimeSpec& b) {
    return a.kind == b.kind && a.lo == b.lo && a.hi == b.hi &&
           a.scale == b.scale && a.shape == b.shape && a.mean == b.mean;
  }
  friend bool operator!=(const LifetimeSpec& a, const LifetimeSpec& b) {
    return !(a == b);
  }
};

/// Token maps for the text format ("unlimited", "uniform", ...).
const char* LifetimeKindName(LifetimeKind kind);
util::Result<LifetimeKind> LifetimeKindFromName(const std::string& name);

}  // namespace churn
}  // namespace p2p

#endif  // P2P_CHURN_LIFETIME_H_
