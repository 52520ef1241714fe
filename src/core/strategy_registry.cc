#include "core/strategy_registry.h"

#include <deque>
#include <mutex>

#include "sim/clock.h"
#include "util/logging.h"

namespace p2p {
namespace core {
namespace {

ParamInfo IntParam(const std::string& name, int64_t def, double min_value,
                   double max_value, const std::string& help) {
  ParamInfo info;
  info.name = name;
  info.type = ParamType::kInt;
  info.def = ParamValue::Int(def);
  info.min_value = min_value;
  info.max_value = max_value;
  info.help = help;
  return info;
}

ParamInfo DoubleParam(const std::string& name, double def, double min_value,
                      double max_value, const std::string& help) {
  ParamInfo info;
  info.name = name;
  info.type = ParamType::kDouble;
  info.def = ParamValue::Double(def);
  info.min_value = min_value;
  info.max_value = max_value;
  info.help = help;
  return info;
}

// The repair threshold defaults to SystemOptions::repair_threshold, so a
// bare `fixed-threshold` reproduces the paper's configuration exactly.
ParamInfo ContextualThreshold(const std::string& help) {
  ParamInfo info = IntParam("threshold", 0, 1.0, 1 << 20, help);
  info.contextual_default = "repair_threshold";
  return info;
}

// Estimator horizons default to SystemOptions::acceptance_horizon, so a
// bare `age-rank` saturates exactly where the acceptance function does.
ParamInfo ContextualHorizon(const std::string& help) {
  ParamInfo info = IntParam("horizon", 0, 1.0, 1 << 20, help);
  info.contextual_default = "acceptance_horizon";
  return info;
}

void AddBuiltins(std::deque<PolicyDescriptor>* policies) {
  {
    PolicyDescriptor d;
    d.name = "fixed-threshold";
    d.summary = "repair when alive < threshold; restore to n (the paper)";
    d.params = {ContextualThreshold("trigger level k'")};
    d.make = [](const ResolvedParams& p, const StrategyEnv&) {
      return std::make_unique<FixedThresholdPolicy>(
          static_cast<int>(p.Int("threshold")));
    };
    policies->push_back(std::move(d));
  }
  {
    PolicyDescriptor d;
    d.name = "adaptive-threshold";
    d.summary = "threshold follows the measured partner loss rate "
                "(paper future work)";
    d.params = {
        DoubleParam("safety_factor", 3.0, 0.0, 1e6,
                    "multiplier on the expected losses"),
        IntParam("reaction_rounds", 3 * sim::kRoundsPerDay, 1, 1 << 20,
                 "rounds of expected losses the margin covers"),
        IntParam("floor_margin", 4, 0, 1 << 20, "threshold >= k + floor"),
        IntParam("ceiling_margin", 64, 0, 1 << 20, "threshold <= k + ceiling"),
    };
    d.check = [](const ResolvedParams& p) {
      if (p.Int("floor_margin") > p.Int("ceiling_margin")) {
        return util::Status::InvalidArgument(
            "adaptive-threshold: floor_margin " +
            std::to_string(p.Int("floor_margin")) + " > ceiling_margin " +
            std::to_string(p.Int("ceiling_margin")));
      }
      return util::Status::OK();
    };
    d.make = [](const ResolvedParams& p, const StrategyEnv&) {
      AdaptiveThresholdPolicy::Options o;
      o.safety_factor = p.Double("safety_factor");
      o.reaction_rounds = p.Int("reaction_rounds");
      o.floor_margin = static_cast<int>(p.Int("floor_margin"));
      o.ceiling_margin = static_cast<int>(p.Int("ceiling_margin"));
      return std::make_unique<AdaptiveThresholdPolicy>(o);
    };
    policies->push_back(std::move(d));
  }
  {
    PolicyDescriptor d;
    d.name = "proactive";
    d.summary = "top up missing blocks in small batches (Duminuco et al.)";
    d.params = {
        IntParam("batch_blocks", 8, 1, 1 << 20,
                 "repair once this many blocks are missing"),
        [] {
          ParamInfo info =
              IntParam("emergency_threshold", 0, 1, 1 << 20,
                       "always repair below this level");
          info.contextual_default = "repair_threshold";
          return info;
        }(),
    };
    d.make = [](const ResolvedParams& p, const StrategyEnv&) {
      ProactivePolicy::Options o;
      o.batch_blocks = static_cast<int>(p.Int("batch_blocks"));
      o.emergency_threshold = static_cast<int>(p.Int("emergency_threshold"));
      return std::make_unique<ProactivePolicy>(o);
    };
    policies->push_back(std::move(d));
  }
  {
    PolicyDescriptor d;
    d.name = "adaptive-redundancy";
    d.summary = "redundancy target follows the measured loss rate "
                "(Dell'Amico et al.)";
    d.params = {
        ContextualThreshold("trigger level"),
        DoubleParam("safety_factor", 2.0, 0.0, 1e6,
                    "multiplier on the expected losses"),
        IntParam("horizon_rounds", 14 * sim::kRoundsPerDay, 1, 1 << 20,
                 "rounds of losses the redundancy target must absorb"),
        IntParam("min_extra", 8, 1, 1 << 20,
                 "restore at least this far above the trigger level"),
    };
    d.make = [](const ResolvedParams& p, const StrategyEnv&) {
      AdaptiveRedundancyPolicy::Options o;
      o.threshold = static_cast<int>(p.Int("threshold"));
      o.safety_factor = p.Double("safety_factor");
      o.horizon_rounds = p.Int("horizon_rounds");
      o.min_extra = static_cast<int>(p.Int("min_extra"));
      return std::make_unique<AdaptiveRedundancyPolicy>(o);
    };
    policies->push_back(std::move(d));
  }
}

void AddBuiltins(std::deque<SelectionDescriptor>* selections) {
  {
    SelectionDescriptor d;
    d.name = "oldest-first";
    d.summary = "sort by age descending, random tie-break (the paper)";
    d.make = [](const ResolvedParams&, const StrategyEnv&) {
      return std::make_unique<OldestFirstSelection>();
    };
    selections->push_back(std::move(d));
  }
  {
    SelectionDescriptor d;
    d.name = "random";
    d.summary = "uniform over the pool (age-oblivious baseline)";
    d.make = [](const ResolvedParams&, const StrategyEnv&) {
      return std::make_unique<RandomSelection>();
    };
    selections->push_back(std::move(d));
  }
  {
    SelectionDescriptor d;
    d.name = "youngest-first";
    d.summary = "sort by age ascending (adversarial baseline)";
    d.make = [](const ResolvedParams&, const StrategyEnv&) {
      return std::make_unique<YoungestFirstSelection>();
    };
    selections->push_back(std::move(d));
  }
  {
    SelectionDescriptor d;
    d.name = "weighted-random";
    d.summary = "draw hosts with probability ~ (age+1)^age_exponent; 0 = "
                "uniform, large = oldest-first";
    d.params = {DoubleParam("age_exponent", 1.0, 0.0, 16.0,
                            "age weighting exponent")};
    d.make = [](const ResolvedParams& p, const StrategyEnv&) {
      return std::make_unique<WeightedRandomSelection>(
          p.Double("age_exponent"));
    };
    selections->push_back(std::move(d));
  }
}

void AddBuiltins(std::deque<EstimatorDescriptor>* estimators) {
  {
    EstimatorDescriptor d;
    d.name = "age-rank";
    d.summary = "score = min(age, horizon) (the paper)";
    d.params = {ContextualHorizon("age saturation horizon L, rounds")};
    d.make = [](const ResolvedParams& p, const StrategyEnv&) {
      return std::make_unique<AgeRankEstimator>(
          static_cast<sim::Round>(p.Int("horizon")));
    };
    estimators->push_back(std::move(d));
  }
  {
    EstimatorDescriptor d;
    d.name = "pareto-residual";
    d.summary = "expected residual lifetime under Pareto(scale, shape) "
                "lifetimes (the paper's analytic model)";
    d.params = {
        DoubleParam("scale", 24.0, 1.0, 1e9,
                    "Pareto scale (minimum lifetime), rounds"),
        DoubleParam("shape", 2.0, 0.01, 64.0,
                    "Pareto tail exponent; <= 1 is the infinite-mean regime"),
    };
    d.make = [](const ResolvedParams& p, const StrategyEnv&) {
      return std::make_unique<ParetoResidualEstimator>(p.Double("scale"),
                                                      p.Double("shape"));
    };
    estimators->push_back(std::move(d));
  }
  {
    EstimatorDescriptor d;
    d.name = "empirical-residual";
    d.summary = "departure-age histogram CDF learned online during the run";
    d.params = {
        IntParam("buckets", 90, 2, 1 << 16, "histogram buckets"),
        IntParam("bucket_rounds", sim::kRoundsPerDay, 1, 1 << 20,
                 "rounds per bucket (default one day)"),
        ContextualHorizon("age-rank tie-break horizon, rounds"),
    };
    d.make = [](const ResolvedParams& p, const StrategyEnv&) {
      return std::make_unique<EmpiricalResidualEstimator>(
          static_cast<int>(p.Int("buckets")),
          static_cast<sim::Round>(p.Int("bucket_rounds")),
          static_cast<sim::Round>(p.Int("horizon")));
    };
    estimators->push_back(std::move(d));
  }
  {
    EstimatorDescriptor d;
    d.name = "availability-weighted";
    d.summary = "age rank discounted by recent uptime (Dell'Amico et al.)";
    d.params = {
        ContextualHorizon("age saturation horizon, rounds"),
        DoubleParam("exponent", 1.0, 0.0, 16.0,
                    "uptime weight exponent; 0 = pure age-rank"),
        DoubleParam("floor", 0.05, 0.0, 1.0,
                    "minimum uptime weight (keeps fresh peers selectable)"),
    };
    d.make = [](const ResolvedParams& p, const StrategyEnv&) {
      return std::make_unique<AvailabilityWeightedEstimator>(
          static_cast<sim::Round>(p.Int("horizon")), p.Double("exponent"),
          p.Double("floor"));
    };
    estimators->push_back(std::move(d));
  }
}

// One family's descriptors. Stable-address storage (deque) so List/Find
// pointers stay valid across later registrations.
template <typename Strategy>
struct Family {
  std::mutex mutex;
  std::deque<StrategyDescriptor<Strategy>> descriptors;
};

template <typename Strategy>
Family<Strategy>& GetFamily() {
  static Family<Strategy>* family = [] {
    auto* fresh = new Family<Strategy>();
    AddBuiltins(&fresh->descriptors);
    return fresh;
  }();
  return *family;
}

}  // namespace

ResolvedParams::ResolvedParams(const std::vector<ParamInfo>& infos,
                               const ParamMap& given, const StrategyEnv& env) {
  for (const ParamInfo& info : infos) {
    const auto it = given.find(info.name);
    if (it != given.end()) {
      values_[info.name] = it->second;
    } else if (info.contextual_default == "repair_threshold") {
      values_[info.name] = ParamValue::Int(env.repair_threshold);
    } else if (info.contextual_default == "acceptance_horizon") {
      values_[info.name] = ParamValue::Int(env.acceptance_horizon);
    } else {
      P2P_CHECK(info.contextual_default.empty());
      values_[info.name] = info.def;
    }
  }
}

int64_t ResolvedParams::Int(const std::string& name) const {
  const auto it = values_.find(name);
  P2P_CHECK(it != values_.end() && it->second.type == ParamType::kInt);
  return it->second.int_value;
}

double ResolvedParams::Double(const std::string& name) const {
  const auto it = values_.find(name);
  P2P_CHECK(it != values_.end());
  return it->second.AsDouble();
}

template <typename Strategy>
std::vector<const StrategyDescriptor<Strategy>*>
StrategyRegistry<Strategy>::List() {
  Family<Strategy>& family = GetFamily<Strategy>();
  std::lock_guard<std::mutex> lock(family.mutex);
  std::vector<const Descriptor*> out;
  for (const Descriptor& d : family.descriptors) out.push_back(&d);
  return out;
}

template <typename Strategy>
const StrategyDescriptor<Strategy>* StrategyRegistry<Strategy>::Find(
    const std::string& name) {
  Family<Strategy>& family = GetFamily<Strategy>();
  std::lock_guard<std::mutex> lock(family.mutex);
  for (const Descriptor& d : family.descriptors) {
    if (d.name == name) return &d;
  }
  return nullptr;
}

template <typename Strategy>
void StrategyRegistry<Strategy>::Register(Descriptor descriptor) {
  P2P_CHECK(!descriptor.name.empty());
  P2P_CHECK(descriptor.make != nullptr);
  // The contextual-default vocabulary: the only SystemOptions knobs a
  // parameter default may follow today. Checked at registration so a typo'd
  // descriptor fails at startup, not at first instantiation mid-run.
  for (const ParamInfo& info : descriptor.params) {
    P2P_CHECK(info.contextual_default.empty() ||
              info.contextual_default == "repair_threshold" ||
              info.contextual_default == "acceptance_horizon");
  }
  Family<Strategy>& family = GetFamily<Strategy>();
  std::lock_guard<std::mutex> lock(family.mutex);
  // Duplicate check under the same lock as the insert, so two concurrent
  // registrations of one name cannot both slip past it.
  for (const Descriptor& d : family.descriptors) {
    P2P_CHECK(d.name != descriptor.name);
  }
  family.descriptors.push_back(std::move(descriptor));
}

template <typename Strategy>
util::Result<std::unique_ptr<Strategy>> StrategyRegistry<Strategy>::Make(
    const StrategySpec<Strategy>& spec, const StrategyEnv& env) {
  P2P_RETURN_IF_ERROR(spec.Validate());
  const Descriptor* descriptor = Find(spec.name);
  ResolvedParams resolved(descriptor->params, spec.params, env);
  // Validate() could only exercise the cross-parameter check against a
  // default env; re-run it here with the contextual defaults actually
  // resolved, so a check involving e.g. `threshold` sees the real value.
  if (descriptor->check) {
    P2P_RETURN_IF_ERROR(descriptor->check(resolved));
  }
  return descriptor->make(resolved, env);
}

template class StrategyRegistry<MaintenancePolicy>;
template class StrategyRegistry<SelectionStrategy>;
template class StrategyRegistry<LifetimeEstimator>;

}  // namespace core
}  // namespace p2p
