#ifndef MIRABEL_COMMON_RESULT_H_
#define MIRABEL_COMMON_RESULT_H_

#include <cassert>
#include <optional>
#include <utility>

#include "common/status.h"

namespace mirabel {

/// Result<T> holds either a value of type T or an error Status.
///
/// Usage:
///   Result<AggregatedFlexOffer> r = Aggregate(offers);
///   if (!r.ok()) return r.status();
///   Use(r.value());
/// [[nodiscard]] like Status.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Constructs a Result holding `value`. Intentionally implicit so that
  /// functions can `return value;`.
  Result(T value)  // NOLINT(google-explicit-constructor)
      : status_(Status::OK()), value_(std::move(value)) {}

  /// Constructs a Result holding a non-OK `status`. Intentionally implicit so
  /// that functions can `return Status::InvalidArgument(...)`.
  Result(Status status)  // NOLINT(google-explicit-constructor)
      : status_(std::move(status)) {
    assert(!status_.ok() && "Result(Status) requires a non-OK status");
  }

  Result(const Result&) = default;
  Result& operator=(const Result&) = default;
  Result(Result&&) = default;
  Result& operator=(Result&&) = default;

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// Accessors require ok(); checked by assert in debug builds.
  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the contained value or `fallback` when in error state.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

/// Assigns the value of a Result expression to `lhs`, or propagates the error
/// Status. `lhs` may include a declaration, e.g.
///   MIRABEL_ASSIGN_OR_RETURN(auto agg, Aggregate(offers));
#define MIRABEL_ASSIGN_OR_RETURN_IMPL(result_name, lhs, expr) \
  auto result_name = (expr);                                  \
  if (!result_name.ok()) return result_name.status();         \
  lhs = std::move(result_name).value()

#define MIRABEL_ASSIGN_OR_RETURN_CONCAT(x, y) x##y
#define MIRABEL_ASSIGN_OR_RETURN_NAME(x, y) \
  MIRABEL_ASSIGN_OR_RETURN_CONCAT(x, y)

#define MIRABEL_ASSIGN_OR_RETURN(lhs, expr)                            \
  MIRABEL_ASSIGN_OR_RETURN_IMPL(                                       \
      MIRABEL_ASSIGN_OR_RETURN_NAME(_result_, __LINE__), lhs, expr)

}  // namespace mirabel

#endif  // MIRABEL_COMMON_RESULT_H_
