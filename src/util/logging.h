// Error logging with printf-style formatting, plus CHECK macros for
// invariants that must hold in release builds.

#ifndef P2P_UTIL_LOGGING_H_
#define P2P_UTIL_LOGGING_H_

#include <cstdarg>
#include <cstdlib>

namespace p2p {
namespace util {

/// Emits one formatted "[ERROR] " line to stderr.
void Logf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Prints the failure and aborts; used by the P2P_CHECK macros.
[[noreturn]] void CheckFailed(const char* file, int line, const char* expr);

}  // namespace util
}  // namespace p2p

#define P2P_LOG_ERROR(...) ::p2p::util::Logf(__VA_ARGS__)

/// Aborts (in all build types) when `cond` is false. Use for invariants whose
/// violation would silently corrupt simulation results.
#define P2P_CHECK(cond)                                        \
  do {                                                         \
    if (!(cond)) ::p2p::util::CheckFailed(__FILE__, __LINE__, #cond); \
  } while (0)

#endif  // P2P_UTIL_LOGGING_H_
