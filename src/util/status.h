// Status and Result<T>: exception-free error handling in the style of
// RocksDB's Status / Arrow's Result. All fallible public APIs in this
// project return one of these two types.

#ifndef BLOBWORLD_UTIL_STATUS_H_
#define BLOBWORLD_UTIL_STATUS_H_

#include <cassert>
#include <cstdint>
#include <string>
#include <utility>
#include <variant>

namespace bw {

/// Error categories used across the library.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kCorruption,
  kNoSpace,
  kNotSupported,
  kInternal,
  kIoError,
  kUnavailable,
  kDataLoss,
  kAborted,
  kResourceExhausted,
};

/// Returns a human-readable name for a StatusCode ("OK", "InvalidArgument"...).
const char* StatusCodeName(StatusCode code);

/// Stable on-the-wire numbering for StatusCode, used by the network
/// protocol (src/net/wire.h) and any other surface that persists or
/// transmits status codes between processes. The enum declaration order
/// above is NOT a wire contract — this mapping is. Codes 0..63 are
/// reserved for StatusCode; 64+ belong to protocol layers (the net tier
/// defines its own verdicts there, e.g. quota-exceeded).
uint16_t StatusCodeToWire(StatusCode code);

/// Inverse of StatusCodeToWire. Unknown wire values (a newer peer, a
/// corrupted frame that passed its CRC) map to kInternal rather than
/// asserting, so a response can always be surfaced to the caller.
StatusCode StatusCodeFromWire(uint16_t wire);

/// True for codes that describe a transient condition where the same
/// operation, retried later (possibly after backoff or repair), may
/// succeed: kUnavailable (admission control, quarantined page, transient
/// I/O fault). Everything else — including kAborted, which means the
/// caller's own budget expired, and kResourceExhausted, which means a
/// finite resource (disk space, a bounded write queue) ran out — is
/// permanent from the retrier's point of view. kResourceExhausted is
/// deliberately not retryable at the read-path/retry-loop layer: backoff
/// cannot create disk space, so the in-line retry loop must surface it
/// immediately. It is *sheddable at admission* instead — the write path
/// rejects new work with it while degraded, and the client may resubmit
/// once the operator (or the disk-space watchdog clearing) restores
/// capacity.
constexpr bool IsRetryable(StatusCode code) {
  return code == StatusCode::kUnavailable;
}

/// Success-or-error result of an operation, carrying an error message on
/// failure. Cheap to copy on the success path (no allocation).
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status NoSpace(std::string msg) {
    return Status(StatusCode::kNoSpace, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(StatusCode::kNotSupported, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  /// Transient overload: the operation was refused by admission control
  /// (e.g. a full query queue) and may be retried later.
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  /// Durable state failed an integrity check (checksum mismatch on a
  /// page, WAL record, or snapshot): the bytes on disk are not the bytes
  /// that were written, and serving them would silently return wrong
  /// results. Unlike kCorruption (malformed logical structure), this is
  /// the storage engine's "detected bit rot / torn write" verdict.
  static Status DataLoss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }
  /// The operation was deliberately cut short by the caller's own limits
  /// (deadline watchdog, cancellation) rather than by the system being
  /// busy or broken. Retrying with the same limits will fail the same
  /// way, so kAborted is not retryable; the caller must raise its budget
  /// first.
  static Status Aborted(std::string msg) {
    return Status(StatusCode::kAborted, std::move(msg));
  }
  /// A finite system resource ran out: the disk is full (ENOSPC), a
  /// quota was exceeded, or the bounded write queue is shedding load.
  /// Unlike kNoSpace (a logical "this page/node has no room" condition
  /// the caller handles structurally, e.g. by splitting), this is an
  /// operational verdict about the machine. Not retryable by in-line
  /// retry loops — backoff does not free disk space — but sheddable at
  /// admission: submitters may resubmit after capacity is restored (the
  /// watchdog clears, space is freed, an operator intervenes).
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

  /// IsRetryable(code()) — see the free function above.
  bool IsRetryable() const { return ::bw::IsRetryable(code_); }

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_;
  std::string message_;
};

/// A value of type T or an error Status. Access to the value when the
/// result holds an error is a programming bug and asserts in debug builds.
template <typename T>
class Result {
 public:
  /// Implicit from value and from error Status, enabling
  /// `return value;` and `return Status::...;` in the same function.
  Result(T value) : repr_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status) : repr_(std::move(status)) {  // NOLINT
    assert(!std::get<Status>(repr_).ok() &&
           "Result must not be constructed from an OK status");
  }

  bool ok() const { return std::holds_alternative<T>(repr_); }

  const Status& status() const {
    static const Status kOk;
    if (ok()) return kOk;
    return std::get<Status>(repr_);
  }

  T& value() & {
    assert(ok());
    return std::get<T>(repr_);
  }
  const T& value() const& {
    assert(ok());
    return std::get<T>(repr_);
  }
  T&& value() && {
    assert(ok());
    return std::get<T>(std::move(repr_));
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

  /// Returns the value, or `fallback` if this holds an error.
  T ValueOr(T fallback) const {
    return ok() ? std::get<T>(repr_) : std::move(fallback);
  }

 private:
  std::variant<T, Status> repr_;
};

// Propagates a non-OK Status from an expression, RocksDB-style.
#define BW_RETURN_IF_ERROR(expr)                 \
  do {                                           \
    ::bw::Status _bw_status = (expr);            \
    if (!_bw_status.ok()) return _bw_status;     \
  } while (0)

// Evaluates a Result expression; on error returns its Status, otherwise
// assigns the value to `lhs` (which must be declared by the caller, e.g.
// `BW_ASSIGN_OR_RETURN(auto x, MakeX());`).
#define BW_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                             \
  if (!tmp.ok()) return tmp.status();            \
  lhs = std::move(tmp).value()
#define BW_ASSIGN_OR_RETURN_CONCAT(a, b) a##b
#define BW_ASSIGN_OR_RETURN_NAME(a, b) BW_ASSIGN_OR_RETURN_CONCAT(a, b)
#define BW_ASSIGN_OR_RETURN(lhs, expr) \
  BW_ASSIGN_OR_RETURN_IMPL(BW_ASSIGN_OR_RETURN_NAME(_bw_result_, __LINE__), \
                           lhs, expr)

/// Status overload of the code classifier, for call sites holding a
/// Status: `if (IsRetryable(status)) backoff_and_retry();`.
inline bool IsRetryable(const Status& status) {
  return IsRetryable(status.code());
}

}  // namespace bw

#endif  // BLOBWORLD_UTIL_STATUS_H_
