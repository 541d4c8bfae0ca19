// Status: recoverable-error handling without exceptions (RocksDB/Arrow
// idiom). Library entry points that can fail on bad input return Status or
// Result<T>; contract violations use PSO_CHECK.

#ifndef PSO_COMMON_STATUS_H_
#define PSO_COMMON_STATUS_H_

#include <string>
#include <utility>

namespace pso {

/// Error category for a failed operation.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kUnimplemented,
  kInternal,
  kInfeasible,  ///< An optimization/search problem has no feasible solution.
  kUnbounded,   ///< An optimization problem's objective is unbounded.
  /// A caller-imposed resource budget (decision limit, node cap) ran out
  /// before the operation reached an answer. Distinct from kInternal: the
  /// solver is healthy, the budget was just too small.
  kResourceExhausted,
};

/// Returns a human-readable name for `code` (e.g. "InvalidArgument").
const char* StatusCodeName(StatusCode code);

/// The result of an operation that can fail: a code plus a message.
///
/// A default-constructed Status is OK. Statuses are cheap to copy for the
/// OK case (empty message).
///
/// Class-level [[nodiscard]]: silently dropping a returned Status hides
/// the failure it reports, so every by-value return must be consumed
/// (checked, propagated, or explicitly cast to void with a comment).
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  /// Constructs a status with `code` and diagnostic `message`.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  /// Factory helpers for the common error categories.
  [[nodiscard]] static Status Ok() { return Status(); }
  [[nodiscard]] static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  [[nodiscard]] static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  [[nodiscard]] static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  [[nodiscard]] static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  [[nodiscard]] static Status Infeasible(std::string msg) {
    return Status(StatusCode::kInfeasible, std::move(msg));
  }
  [[nodiscard]] static Status Unbounded(std::string msg) {
    return Status(StatusCode::kUnbounded, std::move(msg));
  }
  [[nodiscard]] static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

}  // namespace pso

#endif  // PSO_COMMON_STATUS_H_
