#include "churn/lifetime.h"

#include <algorithm>

namespace p2p {
namespace churn {
namespace {

// A drawn lifetime in whole rounds: at least one, and sim::kNever at or past
// the last representable round.
sim::Round ToRounds(double v) {
  if (v >= static_cast<double>(sim::kNever)) return sim::kNever;
  return std::max<sim::Round>(1, static_cast<sim::Round>(v));
}

}  // namespace

LifetimeSpec LifetimeSpec::Unlimited() { return LifetimeSpec(); }

LifetimeSpec LifetimeSpec::Uniform(sim::Round lo, sim::Round hi) {
  LifetimeSpec s;
  s.kind = LifetimeKind::kUniform;
  s.lo = lo;
  s.hi = hi;
  return s;
}

LifetimeSpec LifetimeSpec::Pareto(double scale_rounds, double shape) {
  LifetimeSpec s;
  s.kind = LifetimeKind::kPareto;
  s.scale = scale_rounds;
  s.shape = shape;
  return s;
}

LifetimeSpec LifetimeSpec::Exponential(double mean_rounds) {
  LifetimeSpec s;
  s.kind = LifetimeKind::kExponential;
  s.mean = mean_rounds;
  return s;
}

util::Status LifetimeSpec::Validate() const {
  switch (kind) {
    case LifetimeKind::kUnlimited:
      return util::Status::OK();
    case LifetimeKind::kUniform:
      if (lo < 1 || hi < lo) {
        return util::Status::InvalidArgument(
            "uniform lifetime needs 1 <= lo <= hi, got [" + std::to_string(lo) +
            ", " + std::to_string(hi) + "]");
      }
      return util::Status::OK();
    case LifetimeKind::kPareto:
      if (scale <= 0.0 || shape <= 0.0) {
        return util::Status::InvalidArgument(
            "pareto lifetime needs scale > 0 and shape > 0");
      }
      return util::Status::OK();
    case LifetimeKind::kExponential:
      if (mean <= 0.0) {
        return util::Status::InvalidArgument(
            "exponential lifetime needs mean > 0");
      }
      return util::Status::OK();
  }
  return util::Status::InvalidArgument("unknown lifetime kind");
}

sim::Round LifetimeSpec::Sample(util::Rng* rng) const {
  switch (kind) {
    case LifetimeKind::kUnlimited:
      rng->NextDouble();
      return sim::kNever;
    case LifetimeKind::kUniform:
      return rng->UniformInt(lo, hi);
    case LifetimeKind::kPareto:
      return ToRounds(rng->Pareto(scale, shape));
    case LifetimeKind::kExponential:
      return ToRounds(rng->Exponential(mean));
  }
  return sim::kNever;
}

double LifetimeSpec::MeanRounds() const {
  switch (kind) {
    case LifetimeKind::kUnlimited:
      break;
    case LifetimeKind::kUniform:
      return 0.5 * (static_cast<double>(lo) + static_cast<double>(hi));
    case LifetimeKind::kPareto:
      if (shape <= 1.0) break;  // infinite mean
      return scale * shape / (shape - 1.0);
    case LifetimeKind::kExponential:
      return mean;
  }
  return static_cast<double>(sim::kNever);
}

const char* LifetimeKindName(LifetimeKind kind) {
  switch (kind) {
    case LifetimeKind::kUnlimited:
      return "unlimited";
    case LifetimeKind::kUniform:
      return "uniform";
    case LifetimeKind::kPareto:
      return "pareto";
    case LifetimeKind::kExponential:
      return "exponential";
  }
  return "unlimited";
}

util::Result<LifetimeKind> LifetimeKindFromName(const std::string& name) {
  if (name == "unlimited") return LifetimeKind::kUnlimited;
  if (name == "uniform") return LifetimeKind::kUniform;
  if (name == "pareto") return LifetimeKind::kPareto;
  if (name == "exponential") return LifetimeKind::kExponential;
  return util::Status::InvalidArgument("unknown lifetime kind: '" + name + "'");
}

}  // namespace churn
}  // namespace p2p
