// Simulation time base. One round represents one hour (paper, section 3.1):
// "In our simulations, each round represents one hour."

#ifndef P2P_SIM_CLOCK_H_
#define P2P_SIM_CLOCK_H_

#include <cstdint>

namespace p2p {
namespace sim {

/// Discrete simulation time, measured in rounds since simulation start.
using Round = int64_t;

/// A round that never arrives (used for "no scheduled event").
constexpr Round kNever = INT64_MAX;

/// \name Calendar conversions (1 round = 1 hour; months are 30 days as in
/// the paper's category boundaries).
/// @{
constexpr Round kRoundsPerHour = 1;
constexpr Round kRoundsPerDay = 24;
constexpr Round kRoundsPerWeek = 7 * kRoundsPerDay;
constexpr Round kRoundsPerMonth = 30 * kRoundsPerDay;
constexpr Round kRoundsPerYear = 365 * kRoundsPerDay;

constexpr Round DaysToRounds(double days) {
  return static_cast<Round>(days * kRoundsPerDay + 0.5);
}
constexpr Round MonthsToRounds(double months) {
  return static_cast<Round>(months * kRoundsPerMonth + 0.5);
}
constexpr Round YearsToRounds(double years) {
  return static_cast<Round>(years * kRoundsPerYear + 0.5);
}
constexpr double RoundsToDays(Round r) {
  return static_cast<double>(r) / kRoundsPerDay;
}
/// @}

}  // namespace sim
}  // namespace p2p

#endif  // P2P_SIM_CLOCK_H_
