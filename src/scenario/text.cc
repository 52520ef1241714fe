#include "scenario/text.h"

#include <algorithm>
#include <climits>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <type_traits>
#include <variant>

#include "scenario/parse.h"

namespace p2p {
namespace scenario {
namespace {

using churn::LifetimeKind;
using churn::LifetimeSpec;
using churn::SessionKind;

util::Status Err(int line, const std::string& msg) {
  return util::Status::InvalidArgument("line " + std::to_string(line) + ": " +
                                       msg);
}

// Splits "uniform(1095d, 2555d)" into head "uniform" and trimmed argument
// tokens; a bare word has no arguments.
util::Status SplitCall(const std::string& value, std::string* head,
                       std::vector<std::string>* args) {
  args->clear();
  const size_t open = value.find('(');
  if (open == std::string::npos) {
    *head = Trim(value);
    return util::Status::OK();
  }
  if (value.back() != ')') {
    return util::Status::InvalidArgument("missing ')' in '" + value + "'");
  }
  *head = Trim(value.substr(0, open));
  const std::string inner = value.substr(open + 1, value.size() - open - 2);
  size_t pos = 0;
  while (pos <= inner.size()) {
    size_t comma = inner.find(',', pos);
    if (comma == std::string::npos) comma = inner.size();
    const std::string arg = Trim(inner.substr(pos, comma - pos));
    if (arg.empty()) {
      return util::Status::InvalidArgument("empty argument in '" + value + "'");
    }
    args->push_back(arg);
    pos = comma + 1;
    if (comma == inner.size()) break;
  }
  return util::Status::OK();
}

// A lifetime's mean or scale: rounds as a bare number, fractional or not,
// or a duration with a unit suffix as uniform(...) takes ("4mo" = 2880).
util::Result<double> ParseRounds(const std::string& token,
                                 const std::string& field) {
  util::Result<double> number = ParseDouble(token);
  if (number.ok()) return number;
  P2P_ASSIGN_OR_RETURN(const sim::Round rounds, ParseDuration(token, field));
  return static_cast<double>(rounds);
}

util::Result<LifetimeSpec> ParseLifetime(const std::string& value) {
  std::string head;
  std::vector<std::string> args;
  P2P_RETURN_IF_ERROR(SplitCall(value, &head, &args));
  P2P_ASSIGN_OR_RETURN(const LifetimeKind kind,
                       churn::LifetimeKindFromName(head));
  auto want = [&](size_t n) {
    return args.size() == n
               ? util::Status::OK()
               : util::Status::InvalidArgument(
                     head + " lifetime takes " + std::to_string(n) +
                     " argument(s), got " + std::to_string(args.size()));
  };
  switch (kind) {
    case LifetimeKind::kUnlimited: {
      P2P_RETURN_IF_ERROR(want(0));
      return LifetimeSpec::Unlimited();
    }
    case LifetimeKind::kUniform: {
      P2P_RETURN_IF_ERROR(want(2));
      P2P_ASSIGN_OR_RETURN(const sim::Round lo, ParseDuration(args[0]));
      P2P_ASSIGN_OR_RETURN(const sim::Round hi, ParseDuration(args[1]));
      return LifetimeSpec::Uniform(lo, hi);
    }
    case LifetimeKind::kPareto: {
      P2P_RETURN_IF_ERROR(want(2));
      P2P_ASSIGN_OR_RETURN(const double scale,
                           ParseRounds(args[0], "pareto scale"));
      P2P_ASSIGN_OR_RETURN(const double shape,
                           ParseDouble(args[1], "pareto shape"));
      return LifetimeSpec::Pareto(scale, shape);
    }
    case LifetimeKind::kExponential: {
      P2P_RETURN_IF_ERROR(want(1));
      P2P_ASSIGN_OR_RETURN(const double mean,
                           ParseRounds(args[0], "exponential mean"));
      return LifetimeSpec::Exponential(mean);
    }
  }
  return util::Status::InvalidArgument("unknown lifetime: '" + value + "'");
}

std::string RenderLifetime(const LifetimeSpec& spec) {
  switch (spec.kind) {
    case LifetimeKind::kUnlimited:
      return "unlimited";
    case LifetimeKind::kUniform:
      return "uniform(" + RenderDuration(spec.lo) + "," +
             RenderDuration(spec.hi) + ")";
    case LifetimeKind::kPareto:
      return "pareto(" + RenderDouble(spec.scale) + "," +
             RenderDouble(spec.shape) + ")";
    case LifetimeKind::kExponential:
      return "exponential(" + RenderDouble(spec.mean) + ")";
  }
  return "unlimited";
}

// "diurnal", "diurnal(1w)" (session cycle), or "bernoulli".
util::Status ParseSessions(const std::string& value, churn::Profile* profile) {
  std::string head;
  std::vector<std::string> args;
  P2P_RETURN_IF_ERROR(SplitCall(value, &head, &args));
  P2P_ASSIGN_OR_RETURN(profile->sessions, churn::SessionKindFromName(head));
  if (profile->sessions == SessionKind::kBernoulli) {
    if (!args.empty()) {
      return util::Status::InvalidArgument("bernoulli takes no arguments");
    }
    profile->session_cycle = sim::kRoundsPerDay;
    return util::Status::OK();
  }
  if (args.size() > 1) {
    return util::Status::InvalidArgument(
        "diurnal takes at most one argument (the session cycle)");
  }
  profile->session_cycle = sim::kRoundsPerDay;
  if (args.size() == 1) {
    P2P_ASSIGN_OR_RETURN(profile->session_cycle, ParseDuration(args[0]));
  }
  return util::Status::OK();
}

std::string RenderSessions(const churn::Profile& profile) {
  if (profile.sessions == SessionKind::kBernoulli) return "bernoulli";
  if (profile.session_cycle == sim::kRoundsPerDay) return "diurnal";
  return std::string("diurnal(") + RenderDuration(profile.session_cycle) + ")";
}

// The scenario-file key of a knob, or null.
const backup::OptionKey* FindOption(const std::string& key) {
  for (const backup::OptionKey& option : backup::kOptionKeys) {
    if (key == option.key) return &option;
  }
  return nullptr;
}

// The part of a knob's key before its first '.'.
std::string Section(const backup::OptionKey& option) {
  const std::string key = option.key;
  return key.substr(0, key.find('.'));
}

// Parses an option value with the lexer of its member's type. Integer and
// double errors name the key; a link name is checked by Scenario::Validate.
template <typename T>
util::Status ParseOption(const std::string& key, const std::string& value,
                         T* out) {
  if constexpr (std::is_same_v<T, int>) {
    P2P_ASSIGN_OR_RETURN(const int64_t v, ParseInt(value, key));
    if (v < INT_MIN || v > INT_MAX) {
      return util::Status::InvalidArgument(key + " out of int range: '" +
                                           value + "'");
    }
    *out = static_cast<int>(v);
  } else if constexpr (std::is_same_v<T, sim::Round>) {
    P2P_ASSIGN_OR_RETURN(*out, ParseDuration(value));
  } else if constexpr (std::is_same_v<T, double>) {
    P2P_ASSIGN_OR_RETURN(*out, ParseDouble(value, key));
  } else if constexpr (std::is_same_v<T, bool>) {
    P2P_ASSIGN_OR_RETURN(*out, ParseBool(value));
  } else if constexpr (std::is_same_v<T, backup::VisibilityModel>) {
    P2P_ASSIGN_OR_RETURN(*out, backup::VisibilityModelFromName(value));
  } else if constexpr (std::is_same_v<T, std::string>) {
    *out = value;
  } else {
    P2P_ASSIGN_OR_RETURN(*out, T::Parse(value));  // a strategy spec
  }
  return util::Status::OK();
}

// Renders an option value; the exact inverse of ParseOption.
template <typename T>
std::string RenderOption(const T& v) {
  if constexpr (std::is_same_v<T, int>) {
    return std::to_string(v);
  } else if constexpr (std::is_same_v<T, sim::Round>) {
    return RenderDuration(v);
  } else if constexpr (std::is_same_v<T, double>) {
    return RenderDouble(v);
  } else if constexpr (std::is_same_v<T, bool>) {
    return RenderBool(v);
  } else if constexpr (std::is_same_v<T, backup::VisibilityModel>) {
    return backup::VisibilityModelName(v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return v;
  } else {
    return v.ToString();  // a strategy spec
  }
}

// One `section.<index>.<field>` key split into its parts.
struct IndexedKey {
  int index = 0;
  std::string field;
};

util::Result<IndexedKey> SplitIndexed(const std::string& rest,
                                      const std::string& section) {
  const size_t dot = rest.find('.');
  if (dot == std::string::npos) {
    return util::Status::InvalidArgument(section +
                                         " keys look like: " + section +
                                         ".<index>.<field>");
  }
  // Only the canonical spelling: "00" or "+0" would name index 0 under a
  // key the duplicate check has not seen.
  const std::string token = rest.substr(0, dot);
  auto index = ParseInt(token, section + " index");
  if (!index.ok() || *index < 0 || *index > 4096 ||
      std::to_string(*index) != token) {
    return util::Status::InvalidArgument("bad " + section + " index '" +
                                         token + "'");
  }
  IndexedKey out;
  out.index = static_cast<int>(*index);
  out.field = rest.substr(dot + 1);
  return out;
}

// Checks that section indices run 0..n-1 with no gaps.
template <typename T>
util::Status CheckContiguous(const std::map<int, T>& entries,
                             const std::string& section) {
  int expected = 0;
  for (const auto& [index, unused] : entries) {
    (void)unused;
    if (index != expected) {
      return util::Status::InvalidArgument(
          section + " indices must be contiguous from 0; missing " + section +
          "." + std::to_string(expected));
    }
    ++expected;
  }
  return util::Status::OK();
}

}  // namespace

util::Result<Scenario> ParseScenarioText(const std::string& text) {
  Scenario scenario;
  scenario.name.clear();  // required key; the default would mask its absence

  std::map<int, churn::Profile> profiles;
  std::map<int, WorkloadEvent> events;
  std::map<int, std::pair<std::string, sim::Round>> observers;
  std::map<int, std::set<std::string>> profile_fields;
  std::map<int, std::set<std::string>> event_fields;
  std::map<int, std::set<std::string>> observer_fields;
  std::set<std::string> seen;

  std::istringstream is(text);
  std::string raw;
  int line = 0;
  while (std::getline(is, raw)) {
    ++line;
    const size_t hash = raw.find('#');
    if (hash != std::string::npos) raw = raw.substr(0, hash);
    const std::string stripped = Trim(raw);
    if (stripped.empty()) continue;
    const size_t eq = stripped.find('=');
    if (eq == std::string::npos) {
      return Err(line, "expected 'key = value', got '" + stripped + "'");
    }
    const std::string key = Trim(stripped.substr(0, eq));
    const std::string value = Trim(stripped.substr(eq + 1));
    if (key.empty()) return Err(line, "empty key");
    if (value.empty()) return Err(line, "empty value for '" + key + "'");
    if (!seen.insert(key).second) {
      return Err(line, "duplicate key '" + key + "'");
    }

    util::Status st = util::Status::OK();
    if (key == "name") {
      scenario.name = value;
    } else if (key == "metrics.select") {
      st = ParseStringList(value, &scenario.metrics);
    } else if (key == "peers") {
      auto v = ParseInt(value, key);
      if (v.ok() && (*v < 1 || *v > UINT32_MAX)) {
        st = util::Status::InvalidArgument("peers out of range: " + value);
      } else if (v.ok()) {
        scenario.peers = static_cast<uint32_t>(*v);
      } else {
        st = v.status();
      }
    } else if (key == "rounds") {
      auto v = ParseDuration(value);
      if (v.ok()) scenario.rounds = *v; else st = v.status();
    } else if (key == "seed") {
      auto v = ParseInt(value, key);
      if (v.ok() && *v >= 0) {
        scenario.seed = static_cast<uint64_t>(*v);
      } else if (v.ok()) {
        st = util::Status::InvalidArgument("seed must be >= 0");
      } else {
        st = v.status();
      }
    } else if (const backup::OptionKey* option = FindOption(key)) {
      st = std::visit(
          [&](auto member) {
            return ParseOption(key, value, &(scenario.options.*member));
          },
          option->member);
    } else if (key.rfind("options.", 0) == 0) {
      const std::string field = key.substr(8);
      st = util::Status::InvalidArgument(
          field == "num_peers" ? "population size is the top-level 'peers' key"
                               : "unknown option '" + field + "'");
    } else if (key.rfind("profile.", 0) == 0) {
      auto ik = SplitIndexed(key.substr(8), "profile");
      if (!ik.ok()) {
        st = ik.status();
      } else {
        churn::Profile& p = profiles[ik->index];
        profile_fields[ik->index].insert(ik->field);
        if (ik->field == "name") {
          p.name = value;
        } else if (ik->field == "proportion") {
          auto v = ParseDouble(value, key);
          if (v.ok()) p.proportion = *v; else st = v.status();
        } else if (ik->field == "availability") {
          auto v = ParseDouble(value, key);
          if (v.ok()) p.availability = *v; else st = v.status();
        } else if (ik->field == "lifetime") {
          auto v = ParseLifetime(value);
          if (v.ok()) p.lifetime = *v; else st = v.status();
        } else if (ik->field == "sessions") {
          st = ParseSessions(value, &p);
        } else {
          st = util::Status::InvalidArgument("unknown profile field '" +
                                             ik->field + "'");
        }
      }
    } else if (key.rfind("event.", 0) == 0) {
      auto ik = SplitIndexed(key.substr(6), "event");
      if (!ik.ok()) {
        st = ik.status();
      } else {
        WorkloadEvent& e = events[ik->index];
        event_fields[ik->index].insert(ik->field);
        if (ik->field == "kind") {
          auto v = WorkloadKindFromName(value);
          if (v.ok()) e.kind = *v; else st = v.status();
        } else if (ik->field == "at") {
          auto v = ParseDuration(value);
          if (v.ok()) e.at = *v; else st = v.status();
        } else if (ik->field == "fraction") {
          auto v = ParseDouble(value, key);
          if (v.ok()) e.fraction = *v; else st = v.status();
        } else if (ik->field == "duration") {
          auto v = ParseDuration(value);
          if (v.ok()) e.duration = *v; else st = v.status();
        } else {
          st = util::Status::InvalidArgument("unknown event field '" +
                                             ik->field + "'");
        }
      }
    } else if (key.rfind("observer.", 0) == 0) {
      auto ik = SplitIndexed(key.substr(9), "observer");
      if (!ik.ok()) {
        st = ik.status();
      } else {
        auto& obs = observers[ik->index];
        observer_fields[ik->index].insert(ik->field);
        if (ik->field == "name") {
          obs.first = value;
        } else if (ik->field == "age") {
          auto v = ParseDuration(value);
          if (v.ok()) obs.second = *v; else st = v.status();
        } else {
          st = util::Status::InvalidArgument("unknown observer field '" +
                                             ik->field + "'");
        }
      }
    } else {
      st = util::Status::InvalidArgument("unknown key '" + key + "'");
    }
    if (!st.ok()) return Err(line, st.message());
  }

  if (scenario.name.empty()) {
    return util::Status::InvalidArgument("scenario needs a 'name' key");
  }

  P2P_RETURN_IF_ERROR(CheckContiguous(profiles, "profile"));
  P2P_RETURN_IF_ERROR(CheckContiguous(events, "event"));
  P2P_RETURN_IF_ERROR(CheckContiguous(observers, "observer"));

  if (!profiles.empty()) {
    scenario.population.profiles.clear();
    for (const auto& [index, profile] : profiles) {
      for (const char* required :
           {"name", "proportion", "availability", "lifetime"}) {
        if (profile_fields[index].count(required) == 0) {
          return util::Status::InvalidArgument(
              "profile." + std::to_string(index) + " is missing '" + required +
              "'");
        }
      }
      scenario.population.profiles.push_back(profile);
    }
  }
  for (const auto& [index, event] : events) {
    for (const char* required : {"kind", "at", "fraction"}) {
      if (event_fields[index].count(required) == 0) {
        return util::Status::InvalidArgument(
            "event." + std::to_string(index) + " is missing '" + required +
            "'");
      }
    }
    scenario.workload.events.push_back(event);
  }
  for (const auto& [index, observer] : observers) {
    for (const char* required : {"name", "age"}) {
      if (observer_fields[index].count(required) == 0) {
        return util::Status::InvalidArgument(
            "observer." + std::to_string(index) + " is missing '" + required +
            "'");
      }
    }
    scenario.observers.push_back(observer);
  }

  P2P_RETURN_IF_ERROR(scenario.Validate());
  return scenario;
}

std::string RenderScenarioText(const Scenario& scenario) {
  std::ostringstream os;
  os << "# p2p-backup scenario (canonical form; see README 'Scenarios')\n";
  os << "name = " << scenario.name << "\n";
  os << "peers = " << scenario.peers << "\n";
  os << "rounds = " << RenderDuration(scenario.rounds) << "\n";
  os << "seed = " << scenario.seed << "\n";

  // One block per key section. The options block is always written, a
  // later section only when one of its knobs differs from SystemOptions{}:
  // the canonical form of a scenario without transfers has no transfer keys.
  const backup::SystemOptions& o = scenario.options;
  const backup::SystemOptions defaults;
  const auto& keys = backup::kOptionKeys;
  for (size_t begin = 0, end = 0; begin < std::size(keys); begin = end) {
    const std::string section = Section(keys[begin]);
    while (end < std::size(keys) && Section(keys[end]) == section) ++end;
    const bool differs = std::any_of(
        keys + begin, keys + end, [&](const backup::OptionKey& option) {
          return !backup::SameOption(option, o, defaults);
        });
    if (section != "options" && !differs) continue;
    os << "\n";
    for (size_t i = begin; i < end; ++i) {
      os << keys[i].key << " = "
         << std::visit([&](auto member) { return RenderOption(o.*member); },
                       keys[i].member)
         << "\n";
    }
  }

  // Metric selection (reports only): emitted when non-default, like a
  // ramp's duration - the canonical form of a default-selection scenario
  // carries no metrics.select line.
  if (!scenario.metrics.empty()) {
    os << "\n";
    os << "metrics.select = ";
    for (size_t i = 0; i < scenario.metrics.size(); ++i) {
      os << (i ? "," : "") << scenario.metrics[i];
    }
    os << "\n";
  }

  for (size_t i = 0; i < scenario.population.profiles.size(); ++i) {
    const churn::Profile& p = scenario.population.profiles[i];
    const std::string prefix = "profile." + std::to_string(i) + ".";
    os << "\n";
    os << prefix << "name = " << p.name << "\n";
    os << prefix << "proportion = " << RenderDouble(p.proportion) << "\n";
    os << prefix << "availability = " << RenderDouble(p.availability) << "\n";
    os << prefix << "lifetime = " << RenderLifetime(p.lifetime) << "\n";
    os << prefix << "sessions = " << RenderSessions(p) << "\n";
  }

  for (size_t i = 0; i < scenario.workload.events.size(); ++i) {
    const WorkloadEvent& e = scenario.workload.events[i];
    const std::string prefix = "event." + std::to_string(i) + ".";
    os << "\n";
    os << prefix << "kind = " << WorkloadKindName(e.kind) << "\n";
    os << prefix << "at = " << RenderDuration(e.at) << "\n";
    os << prefix << "fraction = " << RenderDouble(e.fraction) << "\n";
    if (e.kind == WorkloadKind::kRamp) {
      os << prefix << "duration = " << RenderDuration(e.duration) << "\n";
    }
  }

  for (size_t i = 0; i < scenario.observers.size(); ++i) {
    const std::string prefix = "observer." + std::to_string(i) + ".";
    os << "\n";
    os << prefix << "name = " << scenario.observers[i].first << "\n";
    os << prefix << "age = " << RenderDuration(scenario.observers[i].second)
       << "\n";
  }
  return os.str();
}

util::Result<Scenario> LoadScenarioFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return util::Status::NotFound("cannot open scenario file '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  util::Result<Scenario> parsed = ParseScenarioText(buffer.str());
  if (!parsed.ok()) {
    return util::Status::InvalidArgument(path + ": " +
                                         parsed.status().message());
  }
  return parsed;
}

}  // namespace scenario
}  // namespace p2p
