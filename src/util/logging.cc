#include "util/logging.h"

#include <cstdio>

namespace p2p {
namespace util {
namespace {

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

}  // namespace

void Logf(LogLevel level, const char* fmt, ...) {
  std::fprintf(stderr, "[%s] ", LevelName(level));
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
