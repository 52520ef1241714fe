#include "scenario/parse.h"

#include <climits>
#include <cstring>

#include "util/text.h"

namespace p2p {
namespace scenario {
namespace {

struct Unit {
  const char* suffix;
  double rounds;
};

// Longest suffixes first so "mo" wins over a hypothetical bare "o"; "h" is
// the explicit spelling of the native unit (1 round = 1 hour).
constexpr Unit kUnits[] = {
    {"mo", static_cast<double>(sim::kRoundsPerMonth)},
    {"y", static_cast<double>(sim::kRoundsPerYear)},
    {"w", static_cast<double>(sim::kRoundsPerWeek)},
    {"d", static_cast<double>(sim::kRoundsPerDay)},
    {"h", static_cast<double>(sim::kRoundsPerHour)},
};

// " for options.k", or nothing when no field is named.
std::string ForField(const std::string& field) {
  return field.empty() ? "" : " for " + field;
}

}  // namespace

std::string Trim(const std::string& s) { return util::TrimWhitespace(s); }

util::Result<int64_t> ParseInt(const std::string& token,
                               const std::string& field) {
  const std::string t = Trim(token);
  if (t.empty()) {
    return util::Status::InvalidArgument("empty integer" + ForField(field));
  }
  int64_t v = 0;
  if (!util::ParseInt64Token(t, &v)) {
    return util::Status::InvalidArgument("not an integer" + ForField(field) +
                                         ": '" + t + "'");
  }
  return v;
}

util::Result<double> ParseDouble(const std::string& token,
                                 const std::string& field) {
  const std::string t = Trim(token);
  if (t.empty()) {
    return util::Status::InvalidArgument("empty number" + ForField(field));
  }
  double v = 0.0;
  if (!util::ParseDoubleToken(t, &v)) {
    return util::Status::InvalidArgument("not a number" + ForField(field) +
                                         ": '" + t + "'");
  }
  return v;
}

util::Result<bool> ParseBool(const std::string& token) {
  const std::string t = Trim(token);
  if (t == "true" || t == "1") return true;
  if (t == "false" || t == "0") return false;
  return util::Status::InvalidArgument("not a boolean: '" + t + "'");
}

util::Result<sim::Round> ParseDuration(const std::string& token,
                                       const std::string& field) {
  const std::string t = Trim(token);
  if (t.empty()) {
    return util::Status::InvalidArgument("empty duration" + ForField(field));
  }
  for (const Unit& unit : kUnits) {
    const size_t len = std::strlen(unit.suffix);
    if (t.size() > len && t.compare(t.size() - len, len, unit.suffix) == 0) {
      const std::string number = t.substr(0, t.size() - len);
      auto v = ParseDouble(number);
      if (!v.ok()) {
        return util::Status::InvalidArgument(
            "not a duration" + ForField(field) + ": '" + t + "'");
      }
      const double rounds = *v * unit.rounds;
      if (rounds < 0 || rounds > 9.0e15) {
        return util::Status::OutOfRange(
            "duration out of range" + ForField(field) + ": '" + t + "'");
      }
      return static_cast<sim::Round>(rounds + 0.5);
    }
  }
  auto v = ParseInt(t);
  if (!v.ok()) {
    return util::Status::InvalidArgument("not a duration" + ForField(field) +
                                         ": '" + t +
                                         "' (expected rounds or h/d/w/mo/y)");
  }
  if (*v < 0) {
    return util::Status::OutOfRange("duration must be >= 0" + ForField(field) +
                                    ": '" + t + "'");
  }
  return static_cast<sim::Round>(*v);
}

std::string RenderDuration(sim::Round rounds) {
  if (rounds > 0) {
    struct Render {
      sim::Round unit;
      const char* suffix;
    };
    // Largest unit first; "h" is identical to bare rounds, so it is never
    // emitted and bare rounds close the fallback.
    constexpr Render kRender[] = {{sim::kRoundsPerYear, "y"},
                                  {sim::kRoundsPerMonth, "mo"},
                                  {sim::kRoundsPerWeek, "w"},
                                  {sim::kRoundsPerDay, "d"}};
    for (const Render& r : kRender) {
      if (rounds % r.unit == 0) {
        return std::to_string(rounds / r.unit) + r.suffix;
      }
    }
  }
  return std::to_string(rounds);
}

std::string RenderDouble(double v) { return util::RenderShortestDouble(v); }

std::string RenderBool(bool v) { return v ? "true" : "false"; }

util::Status ParseIntList(const std::string& csv, std::vector<int>* out) {
  out->clear();
  size_t pos = 0;
  int element = 1;
  while (pos <= csv.size()) {
    size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) comma = csv.size();
    const std::string item = Trim(csv.substr(pos, comma - pos));
    if (item.empty()) {
      return util::Status::InvalidArgument(
          "empty element " + std::to_string(element) + " in int list '" + csv +
          "'");
    }
    auto v = ParseInt(item);
    if (!v.ok() || *v < INT_MIN || *v > INT_MAX) {
      return util::Status::InvalidArgument(
          "not an int: '" + item + "' (element " + std::to_string(element) +
          " of '" + csv + "')");
    }
    out->push_back(static_cast<int>(*v));
    pos = comma + 1;
    ++element;
    if (comma == csv.size()) break;
  }
  if (out->empty()) {
    return util::Status::InvalidArgument("empty int list");
  }
  return util::Status::OK();
}

util::Status ParseStringList(const std::string& csv,
                             std::vector<std::string>* out) {
  out->clear();
  size_t pos = 0;
  int element = 1;
  while (pos <= csv.size()) {
    size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) comma = csv.size();
    const std::string item = Trim(csv.substr(pos, comma - pos));
    if (item.empty()) {
      return util::Status::InvalidArgument(
          "empty element " + std::to_string(element) + " in list '" + csv +
          "'");
    }
    out->push_back(item);
    pos = comma + 1;
    ++element;
    if (comma == csv.size()) break;
  }
  if (out->empty()) {
    return util::Status::InvalidArgument("empty list");
  }
  return util::Status::OK();
}

util::Status ParseSpecList(const std::string& csv,
                           std::vector<std::string>* out) {
  out->clear();
  std::string current;
  int depth = 0;
  int element = 1;
  auto flush = [&]() {
    const std::string item = Trim(current);
    current.clear();
    if (item.empty()) {
      return util::Status::InvalidArgument(
          "empty element " + std::to_string(element) + " in list '" + csv +
          "'");
    }
    out->push_back(item);
    ++element;
    return util::Status::OK();
  };
  for (char ch : csv) {
    if (ch == '{') ++depth;
    if (ch == '}') --depth;
    if (depth < 0) {
      return util::Status::InvalidArgument("stray '}' in list '" + csv + "'");
    }
    if (ch == ',' && depth == 0) {
      P2P_RETURN_IF_ERROR(flush());
    } else {
      current.push_back(ch);
    }
  }
  if (depth != 0) {
    return util::Status::InvalidArgument("unbalanced '{' in list '" + csv +
                                         "'");
  }
  P2P_RETURN_IF_ERROR(flush());
  return util::Status::OK();
}

}  // namespace scenario
}  // namespace p2p
