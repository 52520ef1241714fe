#include "util/status.h"

namespace p2p {
namespace util {

std::string_view CodeName(Status::Code code) {
  switch (code) {
    case Status::Code::kOk:
      return "ok";
    case Status::Code::kInvalidArgument:
      return "invalid argument";
    case Status::Code::kNotFound:
      return "not found";
    case Status::Code::kOutOfRange:
      return "out of range";
    case Status::Code::kUnavailable:
      return "unavailable";
  }
  return "unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out(CodeName(code_));
  out += ": ";
  out += message_;
  return out;
}

}  // namespace util
}  // namespace p2p
