// Result<T>: the payload-or-error return type of the CLASSIC library.
//
// Every fallible read entry point returns Result<T> (Status-plus-value,
// in the style of Apache Arrow / RocksDB) instead of a Status with an
// out-parameter; Status alone (util/status.h) is reserved for operations
// with no payload. Value-returning APIs include this header; it brings
// util/status.h with it.

#pragma once

#include <cassert>
#include <utility>
#include <variant>

#include "util/status.h"

namespace classic {

/// \brief Payload-or-error return type.
///
/// Holds either a value of type T or an error Status. Accessing the value
/// of an errored Result aborts in debug builds; callers are expected to
/// check ok() (or use the CLASSIC_ASSIGN_OR_RETURN macro).
template <typename T>
class Result {
 public:
  /// Implicit construction from a value.
  Result(T value) : data_(std::move(value)) {}  // NOLINT(google-explicit-constructor)

  /// Implicit construction from an error status. The status must not be OK.
  Result(Status status) : data_(std::move(status)) {  // NOLINT
    assert(!std::get<Status>(data_).ok());
  }

  bool ok() const { return std::holds_alternative<T>(data_); }

  /// \brief Returns the error status (OK if this Result holds a value).
  Status status() const {
    if (ok()) return Status::OK();
    return std::get<Status>(data_);
  }

  const T& ValueOrDie() const& {
    assert(ok());
    return std::get<T>(data_);
  }
  T& ValueOrDie() & {
    assert(ok());
    return std::get<T>(data_);
  }
  T&& ValueOrDie() && {
    assert(ok());
    return std::move(std::get<T>(data_));
  }

  const T& operator*() const& { return ValueOrDie(); }
  T& operator*() & { return ValueOrDie(); }
  const T* operator->() const { return &ValueOrDie(); }
  T* operator->() { return &ValueOrDie(); }

  /// \brief Returns the value, or `fallback` if this Result holds an error.
  T ValueOr(T fallback) const {
    if (ok()) return std::get<T>(data_);
    return fallback;
  }

 private:
  std::variant<Status, T> data_;
};

#define CLASSIC_CONCAT_IMPL(x, y) x##y
#define CLASSIC_CONCAT(x, y) CLASSIC_CONCAT_IMPL(x, y)

/// Assigns the value of a Result expression to `lhs`, or propagates the
/// error to the caller.
#define CLASSIC_ASSIGN_OR_RETURN(lhs, rexpr)                         \
  auto CLASSIC_CONCAT(_result_, __LINE__) = (rexpr);                 \
  if (!CLASSIC_CONCAT(_result_, __LINE__).ok())                      \
    return CLASSIC_CONCAT(_result_, __LINE__).status();              \
  lhs = std::move(CLASSIC_CONCAT(_result_, __LINE__)).ValueOrDie()

}  // namespace classic
