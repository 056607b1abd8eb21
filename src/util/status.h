// Status: the no-payload half of the CLASSIC error model.
//
// The core library does not throw exceptions; fallible operations return
// Status (no payload) or Result<T> (payload or error, util/result.h), in
// the style of Apache Arrow / RocksDB.

#pragma once

#include <string>
#include <utility>

namespace classic {

/// Machine-readable category of an error.
///
/// The categories mirror the ways a CLASSIC database can reject an
/// interaction: malformed expressions, unknown names, violated integrity
/// constraints, and inconsistent descriptions.
enum class StatusCode {
  kOk = 0,
  /// Syntactically malformed expression or argument.
  kInvalidArgument,
  /// Reference to a concept / role / individual not in the schema.
  kNotFound,
  /// Redefinition of an existing name.
  kAlreadyExists,
  /// Update rejected because it contradicts earlier assertions
  /// (the paper's integrity checking, Section 3.4).
  kInconsistent,
  /// Operation is valid but unsupported in this configuration.
  kNotImplemented,
  /// I/O failure in the storage layer.
  kIOError,
  /// Internal invariant violation; indicates a bug.
  kInternal,
};

/// \brief Returns a human-readable name for a status code.
const char* StatusCodeName(StatusCode code);

/// \brief Inverse of StatusCodeName ("NotFound" -> kNotFound); kInternal
/// for unknown names, so a decoded error is never silently dropped to OK.
/// The name set is part of the wire protocol (docs/PROTOCOL.md): answer
/// frames carry the status code by name.
StatusCode StatusCodeFromName(const std::string& name);

/// \brief Outcome of a fallible operation with no payload.
///
/// A default-constructed Status is OK. Error statuses carry a code and a
/// message. Status is cheap to copy for OK values (no allocation).
class Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  /// \brief Returns an OK status.
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
  static Status Inconsistent(std::string msg) {
    return Status(StatusCode::kInconsistent, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// \brief Returns "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool IsInvalidArgument() const {
    return code_ == StatusCode::kInvalidArgument;
  }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsAlreadyExists() const { return code_ == StatusCode::kAlreadyExists; }
  bool IsInconsistent() const { return code_ == StatusCode::kInconsistent; }
  bool IsIOError() const { return code_ == StatusCode::kIOError; }
  bool IsInternal() const { return code_ == StatusCode::kInternal; }

  /// \brief Prefixes the message with additional context, keeping the code.
  Status WithContext(const std::string& context) const {
    if (ok()) return *this;
    return Status(code_, context + ": " + message_);
  }

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Propagates a non-OK status to the caller.
#define CLASSIC_RETURN_NOT_OK(expr)                  \
  do {                                               \
    ::classic::Status _st = (expr);                  \
    if (!_st.ok()) return _st;                       \
  } while (0)

}  // namespace classic
