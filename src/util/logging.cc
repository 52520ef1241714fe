#include "util/logging.h"

#include <cstdio>

namespace p2p {
namespace util {

void Logf(const char* fmt, ...) {
  std::fputs("[ERROR] ", stderr);
  va_list ap;
  va_start(ap, fmt);
  std::vfprintf(stderr, fmt, ap);
  va_end(ap);
  std::fputc('\n', stderr);
}

void CheckFailed(const char* file, int line, const char* expr) {
  std::fprintf(stderr, "CHECK failed at %s:%d: %s\n", file, line, expr);
  std::abort();
}

}  // namespace util
}  // namespace p2p
