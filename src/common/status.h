#ifndef MIRABEL_COMMON_STATUS_H_
#define MIRABEL_COMMON_STATUS_H_

#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace mirabel {

/// Status codes used across the MIRABEL library. Modelled after the
/// Arrow/RocksDB idiom: library functions that can fail return a Status (or a
/// Result<T>, see result.h) instead of throwing exceptions.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kOutOfRange = 4,
  kFailedPrecondition = 5,
  kInternal = 6,
  kUnimplemented = 7,
  kTimeout = 8,
  kResourceExhausted = 9,
};

/// Returns a human-readable name for `code` (e.g. "InvalidArgument").
std::string_view StatusCodeToString(StatusCode code);

/// A Status carries either success ("OK") or an error code plus message.
/// [[nodiscard]]: a call whose Status is dropped fails the build
/// (-Werror=unused-result); an intended ignore is spelled `(void)call;`.
///
/// Usage:
///   Status s = offer.Validate();
///   if (!s.ok()) return s;
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  /// Factory helpers, one per error code.
  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Timeout(std::string msg) {
    return Status(StatusCode::kTimeout, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Formats as "OK" or "<Code>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

/// Propagates a non-OK Status to the caller. Evaluates `expr` once.
#define MIRABEL_RETURN_IF_ERROR(expr)                \
  do {                                               \
    ::mirabel::Status _st = (expr);                  \
    if (!_st.ok()) return _st;                       \
  } while (false)

}  // namespace mirabel

#endif  // MIRABEL_COMMON_STATUS_H_
