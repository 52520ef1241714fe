#include "core/strategy_spec.h"

#include <utility>
#include <vector>

#include "core/strategy_registry.h"
#include "util/text.h"

namespace p2p {
namespace core {
namespace {

// Token lexing delegates to util/text so the spec grammar and the scenario
// text format share one canonical-number discipline (their round-trip
// guarantees compose); these wrappers only add the error messages.

using util::TrimWhitespace;

util::Result<int64_t> ParseIntToken(const std::string& token,
                                    const std::string& what) {
  int64_t v = 0;
  if (!util::ParseInt64Token(token, &v)) {
    return util::Status::InvalidArgument("not an integer for " + what + ": '" +
                                         token + "'");
  }
  return v;
}

util::Result<double> ParseDoubleToken(const std::string& token,
                                      const std::string& what) {
  double v = 0.0;
  if (!util::ParseDoubleToken(token, &v)) {
    return util::Status::InvalidArgument("not a number for " + what + ": '" +
                                         token + "'");
  }
  return v;
}

// Splits `name{key=value,...}` into the name and raw (key, value) pairs.
util::Status SplitSpec(const std::string& text, std::string* name,
                       std::vector<std::pair<std::string, std::string>>* kv) {
  kv->clear();
  const std::string t = TrimWhitespace(text);
  if (t.empty()) {
    return util::Status::InvalidArgument("empty strategy spec");
  }
  const size_t open = t.find('{');
  if (open == std::string::npos) {
    if (t.find('}') != std::string::npos) {
      return util::Status::InvalidArgument("stray '}' in '" + t + "'");
    }
    *name = t;
    return util::Status::OK();
  }
  if (t.back() != '}') {
    return util::Status::InvalidArgument("missing '}' in '" + t + "'");
  }
  *name = TrimWhitespace(t.substr(0, open));
  if (name->empty()) {
    return util::Status::InvalidArgument("missing strategy name in '" + t +
                                         "'");
  }
  const std::string inner = t.substr(open + 1, t.size() - open - 2);
  if (inner.find('{') != std::string::npos ||
      inner.find('}') != std::string::npos) {
    return util::Status::InvalidArgument("nested braces in '" + t + "'");
  }
  if (TrimWhitespace(inner).empty()) return util::Status::OK();  // name{}
  size_t pos = 0;
  while (pos <= inner.size()) {
    size_t comma = inner.find(',', pos);
    if (comma == std::string::npos) comma = inner.size();
    const std::string item = TrimWhitespace(inner.substr(pos, comma - pos));
    if (item.empty()) {
      return util::Status::InvalidArgument("empty parameter in '" + t + "'");
    }
    const size_t eq = item.find('=');
    if (eq == std::string::npos) {
      return util::Status::InvalidArgument("expected key=value, got '" + item +
                                           "' in '" + t + "'");
    }
    const std::string key = TrimWhitespace(item.substr(0, eq));
    const std::string value = TrimWhitespace(item.substr(eq + 1));
    if (key.empty() || value.empty()) {
      return util::Status::InvalidArgument("empty key or value in '" + item +
                                           "'");
    }
    kv->emplace_back(key, value);
    pos = comma + 1;
    if (comma == inner.size()) break;
  }
  return util::Status::OK();
}

const ParamInfo* FindParamInfo(const std::vector<ParamInfo>& infos,
                               const std::string& name) {
  for (const ParamInfo& info : infos) {
    if (info.name == name) return &info;
  }
  return nullptr;
}

util::Status CheckRange(const ParamInfo& info, const ParamValue& value,
                        const std::string& strategy) {
  const double v = value.AsDouble();
  if (v < info.min_value || v > info.max_value) {
    return util::Status::InvalidArgument(
        strategy + ": parameter '" + info.name + "' = " + value.Render() +
        " outside [" + util::RenderShortestDouble(info.min_value) + ", " +
        util::RenderShortestDouble(info.max_value) + "]");
  }
  return util::Status::OK();
}

// Validation driven by the descriptor's parameter table. `kind` labels
// error messages ("policy", "selection", "estimator").
util::Status ValidateAgainst(const std::string& name, const ParamMap& params,
                             const std::vector<ParamInfo>& infos,
                             const std::string& kind) {
  for (const auto& [key, value] : params) {
    const ParamInfo* info = FindParamInfo(infos, key);
    if (info == nullptr) {
      return util::Status::InvalidArgument(kind + " '" + name +
                                           "' has no parameter '" + key + "'");
    }
    if (info->type != value.type) {
      return util::Status::InvalidArgument(
          kind + " '" + name + "': parameter '" + key + "' must be " +
          ParamTypeName(info->type));
    }
    P2P_RETURN_IF_ERROR(CheckRange(*info, value, name));
  }
  return util::Status::OK();
}

// Coerces raw key=value pairs to the declared parameter types.
util::Status CoerceParams(
    const std::string& name,
    const std::vector<std::pair<std::string, std::string>>& kv,
    const std::vector<ParamInfo>& infos, const std::string& kind,
    ParamMap* out) {
  for (const auto& [key, raw] : kv) {
    const ParamInfo* info = FindParamInfo(infos, key);
    if (info == nullptr) {
      return util::Status::InvalidArgument(kind + " '" + name +
                                           "' has no parameter '" + key + "'");
    }
    if (out->count(key) != 0) {
      return util::Status::InvalidArgument(kind + " '" + name +
                                           "': duplicate parameter '" + key +
                                           "'");
    }
    if (info->type == ParamType::kInt) {
      P2P_ASSIGN_OR_RETURN(const int64_t v,
                           ParseIntToken(raw, name + "." + key));
      (*out)[key] = ParamValue::Int(v);
    } else {
      P2P_ASSIGN_OR_RETURN(const double v,
                           ParseDoubleToken(raw, name + "." + key));
      (*out)[key] = ParamValue::Double(v);
    }
  }
  return util::Status::OK();
}

template <typename Strategy>
util::Result<const StrategyDescriptor<Strategy>*> FindDescriptor(
    const std::string& name) {
  const StrategyDescriptor<Strategy>* descriptor =
      StrategyRegistry<Strategy>::Find(name);
  if (descriptor == nullptr) {
    return util::Status::InvalidArgument(
        std::string("unknown ") + StrategyTraits<Strategy>::kLabel + ": '" +
        name + "'");
  }
  return descriptor;
}

}  // namespace

const char* ParamTypeName(ParamType type) {
  switch (type) {
    case ParamType::kInt:
      return "int";
    case ParamType::kDouble:
      return "double";
  }
  return "int";
}

ParamValue ParamValue::Int(int64_t v) {
  ParamValue p;
  p.type = ParamType::kInt;
  p.int_value = v;
  return p;
}

ParamValue ParamValue::Double(double v) {
  ParamValue p;
  p.type = ParamType::kDouble;
  p.double_value = v;
  return p;
}

double ParamValue::AsDouble() const {
  return type == ParamType::kInt ? static_cast<double>(int_value)
                                 : double_value;
}

std::string ParamValue::Render() const {
  return type == ParamType::kInt ? std::to_string(int_value)
                                 : util::RenderShortestDouble(double_value);
}

bool operator==(const ParamValue& a, const ParamValue& b) {
  if (a.type != b.type) return false;
  return a.type == ParamType::kInt ? a.int_value == b.int_value
                                   : a.double_value == b.double_value;
}

template <typename Strategy>
std::string StrategySpec<Strategy>::ToString() const {
  if (params.empty()) return name;
  std::string out = name + "{";
  bool first = true;
  for (const auto& [key, value] : params) {
    if (!first) out += ',';
    first = false;
    out += key;
    out += '=';
    out += value.Render();
  }
  out += '}';
  return out;
}

template <typename Strategy>
util::Status StrategySpec<Strategy>::Validate() const {
  P2P_ASSIGN_OR_RETURN(const StrategyDescriptor<Strategy>* descriptor,
                       FindDescriptor<Strategy>(name));
  P2P_RETURN_IF_ERROR(ValidateAgainst(name, params, descriptor->params,
                                      StrategyTraits<Strategy>::kLabel));
  if (descriptor->check) {
    P2P_RETURN_IF_ERROR(
        descriptor->check(ResolvedParams(descriptor->params, params, {})));
  }
  return util::Status::OK();
}

template <typename Strategy>
util::Result<StrategySpec<Strategy>> StrategySpec<Strategy>::Parse(
    const std::string& text) {
  StrategySpec spec;
  std::vector<std::pair<std::string, std::string>> kv;
  P2P_RETURN_IF_ERROR(SplitSpec(text, &spec.name, &kv));
  P2P_ASSIGN_OR_RETURN(const StrategyDescriptor<Strategy>* descriptor,
                       FindDescriptor<Strategy>(spec.name));
  P2P_RETURN_IF_ERROR(CoerceParams(spec.name, kv, descriptor->params,
                                   StrategyTraits<Strategy>::kLabel,
                                   &spec.params));
  P2P_RETURN_IF_ERROR(spec.Validate());
  return spec;
}

template struct StrategySpec<MaintenancePolicy>;
template struct StrategySpec<SelectionStrategy>;
template struct StrategySpec<LifetimeEstimator>;

}  // namespace core
}  // namespace p2p
