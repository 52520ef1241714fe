// Status: the error model used across the library (RocksDB idiom).
//
// Library code does not throw exceptions. Fallible operations return a
// `Status`, or a `Result<T>` (see result.h) when they also produce a value.

#ifndef P2P_UTIL_STATUS_H_
#define P2P_UTIL_STATUS_H_

#include <string>
#include <string_view>
#include <utility>

namespace p2p {
namespace util {

/// \brief Outcome of a fallible operation.
///
/// A `Status` is either OK (the default) or carries an error code plus a
/// human-readable message. Statuses are cheap to copy when OK.
class Status {
 public:
  /// Error categories, deliberately coarse; the message carries detail.
  enum class Code {
    kOk = 0,
    kInvalidArgument,
    kNotFound,
    kOutOfRange,
    kUnavailable,
  };

  /// Constructs an OK status.
  Status() : code_(Code::kOk) {}

  /// \name Factory functions for each error category.
  /// @{
  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string_view msg) {
    return Status(Code::kInvalidArgument, msg);
  }
  static Status NotFound(std::string_view msg) { return Status(Code::kNotFound, msg); }
  static Status OutOfRange(std::string_view msg) {
    return Status(Code::kOutOfRange, msg);
  }
  static Status Unavailable(std::string_view msg) {
    return Status(Code::kUnavailable, msg);
  }
  /// @}

  /// Returns true iff the operation succeeded.
  bool ok() const { return code_ == Code::kOk; }

  /// Returns the error category.
  Code code() const { return code_; }

  /// Returns the error message; empty for OK statuses.
  const std::string& message() const { return message_; }

  /// \name Category predicates.
  /// @{
  bool IsInvalidArgument() const { return code_ == Code::kInvalidArgument; }
  bool IsNotFound() const { return code_ == Code::kNotFound; }
  bool IsOutOfRange() const { return code_ == Code::kOutOfRange; }
  bool IsUnavailable() const { return code_ == Code::kUnavailable; }
  /// @}

  /// Renders "OK" or "<category>: <message>" for logs and test failures.
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }
  friend bool operator!=(const Status& a, const Status& b) { return !(a == b); }

 private:
  Status(Code code, std::string_view msg) : code_(code), message_(msg) {}

  Code code_;
  std::string message_;
};

/// Returns the canonical lowercase name of a status code ("ok", "not found", ...).
std::string_view CodeName(Status::Code code);

}  // namespace util
}  // namespace p2p

/// Propagates a non-OK status to the caller; evaluates `expr` exactly once.
#define P2P_RETURN_IF_ERROR(expr)                  \
  do {                                             \
    ::p2p::util::Status _st = (expr);              \
    if (!_st.ok()) return _st;                     \
  } while (0)

#endif  // P2P_UTIL_STATUS_H_
