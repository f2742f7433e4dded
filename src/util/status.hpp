// Structured error taxonomy for the serving path.
//
// A refused admission or a failed job is not exceptional: that outcome
// is a *value* the caller inspects, not a stack unwind. Status names the
// terminal outcome of a query (each non-ok code lands in one counter
// bucket in ServiceStats, so the outcome breakdown reconciles exactly:
// submitted == computed + hits + rejected + failed), and Expected<T>
// carries either a payload or a non-ok Status through std::future
// without ever breaking a promise. Exceptions remain for contract
// violations (caller bugs); everything the *environment* can cause —
// shutdown, shard churn, a poisoned job — travels as a Status.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <variant>

#include "util/expects.hpp"

namespace veritas {

/// Terminal outcome of a serving-path operation. Every non-kOk code maps
/// to exactly one ServiceStats counter bucket (see veritas_service.hpp).
enum class StatusCode : std::uint8_t {
  kOk = 0,
  /// Admission refused the query: a failpoint forced rejection, or the
  /// service is shutting down. Nothing was computed; safe to retry later.
  kRejected,
  /// The named shard is not registered.
  kNotFound,
  /// Inference raised an exception; it was converted to this status at
  /// the lane boundary (the lane itself survives).
  kInternal,
};

/// Stable lowercase name for logs and counters.
inline const char* status_code_name(StatusCode code) noexcept {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kRejected: return "rejected";
    case StatusCode::kNotFound: return "not_found";
    case StatusCode::kInternal: return "internal";
  }
  return "unknown";
}

/// A status code plus a human-readable detail message. Value type,
/// cheap to move; the message is empty for kOk.
class Status {
 public:
  Status() = default;  // kOk
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status ok_status() { return Status(); }
  static Status rejected(std::string m) {
    return Status(StatusCode::kRejected, std::move(m));
  }
  static Status not_found(std::string m) {
    return Status(StatusCode::kNotFound, std::move(m));
  }
  static Status internal(std::string m) {
    return Status(StatusCode::kInternal, std::move(m));
  }

  bool ok() const noexcept { return code_ == StatusCode::kOk; }
  StatusCode code() const noexcept { return code_; }
  const std::string& message() const noexcept { return message_; }

  /// "code: message" (or just "code" when the message is empty).
  std::string to_string() const {
    std::string s = status_code_name(code_);
    if (!message_.empty()) s += ": " + message_;
    return s;
  }

  bool operator==(const Status& other) const = default;

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Either a T or a non-ok Status — the std::expected shape, buildable
/// without C++23. Accessing value() on an error throws ContractViolation
/// carrying the status text, so a caller that ignores failure semantics
/// still gets a diagnosable error instead of UB.
template <typename T>
class Expected {
 public:
  /// Implicit from a payload: the common return path stays `return result;`.
  Expected(T value) : state_(std::in_place_index<0>, std::move(value)) {}
  /// Implicit from a non-ok Status. A kOk status would be a lie (there is
  /// no value to go with it), so it is a contract violation.
  Expected(Status status) : state_(std::in_place_index<1>, std::move(status)) {
    VERITAS_EXPECTS(!std::get<1>(state_).ok());
  }

  bool ok() const noexcept { return state_.index() == 0; }
  explicit operator bool() const noexcept { return ok(); }

  /// kOk when a value is held, the carried error otherwise.
  Status status() const {
    return ok() ? Status::ok_status() : std::get<1>(state_);
  }

  T& value() & { return checked(); }
  const T& value() const& {
    return const_cast<Expected*>(this)->checked();
  }
  T&& value() && { return std::move(checked()); }

  T* operator->() { return &checked(); }
  const T* operator->() const {
    return &const_cast<Expected*>(this)->checked();
  }
  T& operator*() { return checked(); }
  const T& operator*() const {
    return const_cast<Expected*>(this)->checked();
  }

  /// The payload, or `fallback` when this holds an error.
  T value_or(T fallback) const& { return ok() ? std::get<0>(state_) : fallback; }

 private:
  T& checked() {
    if (!ok()) {
      throw ContractViolation("Expected::value() on error: " +
                              std::get<1>(state_).to_string());
    }
    return std::get<0>(state_);
  }

  std::variant<T, Status> state_;
};

}  // namespace veritas
