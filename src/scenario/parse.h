// Shared token-level parsing and rendering for scenario text, sweep specs,
// and the bench/example command lines.
//
// One home for the list/number/duration lexers that used to be duplicated
// across sweep::ParseIntList and ad-hoc bench code. Error messages always
// name the offending token, so a 40-line scenario file fails with
// "not a duration: '90x' (element 3 of 'rounds')" instead of a bare errno.
//
// Durations are rounds (1 round = 1 hour) with optional unit suffixes:
//   "36"   36 rounds      "36h"  36 hours (same thing)
//   "90d"  90 days        "2w"   2 weeks
//   "3mo"  3 months       "1.5y" 1.5 years (fractional values round)
// Render is the inverse: the largest unit that divides the value exactly,
// so Parse(Render(r)) == r for every round count.

#ifndef P2P_SCENARIO_PARSE_H_
#define P2P_SCENARIO_PARSE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sim/clock.h"
#include "util/result.h"
#include "util/status.h"

namespace p2p {
namespace scenario {

/// Strips leading/trailing ASCII whitespace.
std::string Trim(const std::string& s);

/// Parses a decimal integer. A failure names the type, then `field` when
/// one is given: "not an integer for options.k: 'lots'".
util::Result<int64_t> ParseInt(const std::string& token,
                               const std::string& field = "");

/// Parses a finite floating-point number; a failure reads like ParseInt's:
/// "not a number for profile.0.availability: 'x'".
util::Result<double> ParseDouble(const std::string& token,
                                 const std::string& field = "");

/// Parses "true"/"false" (also "1"/"0").
util::Result<bool> ParseBool(const std::string& token);

/// Parses a duration with an optional unit suffix (see file comment); a
/// failure names `field` like ParseInt's.
util::Result<sim::Round> ParseDuration(const std::string& token,
                                       const std::string& field = "");

/// Renders `rounds` as the largest unit that divides it exactly ("90d",
/// "2w", "13140"); exact inverse of ParseDuration.
std::string RenderDuration(sim::Round rounds);

/// Renders `v` with the fewest digits that still parse back to the same
/// double (so text round-trips are exact).
std::string RenderDouble(double v);

/// Renders "true" / "false".
std::string RenderBool(bool v);

/// Parses "132,148,164" into integers. Replaces the old sweep::ParseIntList;
/// errors name the offending element and its position.
util::Status ParseIntList(const std::string& csv, std::vector<int>* out);

/// Splits "paper,flash-crowd" into trimmed non-empty tokens.
util::Status ParseStringList(const std::string& csv,
                             std::vector<std::string>* out);

/// Splits a comma-separated list of strategy-spec strings, honouring braces:
/// "fixed-threshold{threshold=140},proactive{batch_blocks=8,emergency_threshold=136}"
/// yields two tokens, not four. Errors on unbalanced braces and empty
/// elements, naming the offending token.
util::Status ParseSpecList(const std::string& csv,
                           std::vector<std::string>* out);

}  // namespace scenario
}  // namespace p2p

#endif  // P2P_SCENARIO_PARSE_H_
