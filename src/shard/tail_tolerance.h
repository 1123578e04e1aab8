// Tail-tolerance primitives for the scatter-gather router: a
// per-backend circuit breaker fed by a streaming latency tracker, and
// the deadline-budget arithmetic that splits a query's remaining time
// across retry/hedge attempts. DESIGN.md §15 describes the policies;
// this header is deliberately router-agnostic so the pieces can be
// unit-tested with synthetic clocks.
//
// The breaker's job is to stop a *sick-but-alive* replica from being
// timed out on every query. The existing replica state machine only
// knows fail-stop (kDead via probe or fetch errors); a browned-out
// replica answers probes fine and still serves every fetch — just
// 200ms late. The breaker watches both error and latency-outlier
// signals and takes the replica out of the preference order:
//
//   kClosed    serving normally; consecutive errors or latency
//              outliers ("slow" = above max(outlier_floor_us,
//              outlier_factor × running p50)) trip it kOpen.
//   kOpen      routed around; after cooldown_us the next Allow()
//              admits exactly one trial and moves kHalfOpen.
//   kHalfOpen  one in-flight trial decides: a fast success closes the
//              breaker, an error or another outlier re-opens it (a
//              fresh cooldown starts).
//
// Breakers are advisory, never authoritative: the router consults them
// when *choosing among* replicas but will still use a breaker-open
// replica when it is the only one left. A breaker can therefore never
// manufacture unavailability — worst case it costs nothing.

#ifndef BLOBWORLD_SHARD_TAIL_TOLERANCE_H_
#define BLOBWORLD_SHARD_TAIL_TOLERANCE_H_

#include <cstdint>
#include <mutex>

#include "util/histogram.h"

namespace bw::shard {

struct BreakerOptions {
  /// Master switch; a disabled breaker reports kClosed forever.
  bool enabled = true;
  /// Consecutive transport errors that trip kClosed -> kOpen. Errors
  /// also mark the replica kDead through the existing state machine;
  /// the breaker matters for errors the probe immediately "cures"
  /// (flapping) and as the common trip path with slow outliers.
  uint32_t error_threshold = 3;
  /// Consecutive latency outliers that trip kClosed -> kOpen.
  uint32_t slow_threshold = 5;
  /// An operation is an outlier only above this floor, whatever the
  /// median says — micro-second jitter on an in-process replica is not
  /// a brownout.
  uint64_t outlier_floor_us = 10'000;
  /// ... and above outlier_factor × the tracker's running p50.
  double outlier_factor = 4.0;
  /// Outlier detection arms only after this many recorded samples, so
  /// a cold tracker's meaningless p50 cannot trip the breaker.
  uint64_t min_samples = 16;
  /// kOpen -> kHalfOpen trial delay.
  uint64_t cooldown_us = 1'000'000;
};

enum class BreakerState : uint8_t { kClosed, kOpen, kHalfOpen };

/// Returns "closed"/"open"/"half-open".
const char* BreakerStateName(BreakerState state);

/// One backend's breaker + streaming latency tracker. Thread-safe; all
/// time is caller-provided steady microseconds so tests drive the
/// state machine with a synthetic clock.
class CircuitBreaker {
 public:
  explicit CircuitBreaker(BreakerOptions options) : options_(options) {}

  /// Records a completed operation (one shard fetch) against this
  /// backend and advances the state machine.
  void OnResult(bool ok, uint64_t latency_us, uint64_t now_us);

  /// Whether a normal (non-last-resort) attempt should use this
  /// backend. Transitions kOpen -> kHalfOpen (admitting exactly one
  /// trial) once the cooldown has passed.
  bool Allow(uint64_t now_us);

  BreakerState state() const;

  /// The hedge delay for this backend: its recent latency quantile,
  /// clamped to [floor, cap]; `fallback_us` until min_samples exist.
  uint64_t HedgeDelayUs(double quantile, uint64_t floor_us, uint64_t cap_us,
                        uint64_t fallback_us) const;

  /// Lifetime transition counters (for RouterStats aggregation).
  uint64_t opens() const;
  uint64_t half_opens() const;
  uint64_t closes() const;

  const LatencyHistogram& latency() const { return latency_; }

 private:
  /// Trip kClosed/kHalfOpen -> kOpen; caller holds mutex_.
  void TripLocked(uint64_t now_us);

  const BreakerOptions options_;
  LatencyHistogram latency_;

  mutable std::mutex mutex_;
  BreakerState state_ = BreakerState::kClosed;
  uint32_t consecutive_errors_ = 0;
  uint32_t consecutive_slow_ = 0;
  uint64_t opened_at_us_ = 0;
  bool trial_inflight_ = false;
  uint64_t opens_ = 0;
  uint64_t half_opens_ = 0;
  uint64_t closes_ = 0;
};

/// A query's remaining-time ledger. The router used to re-send the
/// *full* client deadline with every failover re-open, so a query with
/// a 100ms deadline could burn 100ms per attempt across replicas and
/// come back long after the client gave up. DeadlineBudget instead
/// splits what is actually left across the attempts that may still
/// run: attempt i of n gets remaining / n (never below floor_us while
/// any time remains), and when the budget cannot cover another
/// re-scatter the caller abandons the shard into the existing
/// fault-budget machinery — a degraded partial answer now instead of a
/// complete answer after the deadline.
class DeadlineBudget {
 public:
  /// total_us <= 0 means no deadline: every slice is "unlimited" (0 on
  /// the wire) and the budget never exhausts — old behavior exactly.
  DeadlineBudget(double total_us, uint64_t now_us)
      : total_us_(total_us > 0 ? static_cast<uint64_t>(total_us) : 0),
        start_us_(now_us) {}

  bool unlimited() const { return total_us_ == 0; }

  uint64_t remaining_us(uint64_t now_us) const {
    if (unlimited()) return 0;
    const uint64_t elapsed = now_us - start_us_;
    return elapsed >= total_us_ ? 0 : total_us_ - elapsed;
  }

  /// True when the budget cannot cover another attempt of at least
  /// floor_us — the caller should degrade rather than re-scatter.
  bool Exhausted(uint64_t now_us, uint64_t floor_us) const {
    if (unlimited()) return false;
    return remaining_us(now_us) < floor_us;
  }

  /// Deadline (us) to hand the next attempt when `attempts_left`
  /// eligible replicas could still be tried: remaining / attempts_left,
  /// floored so the last slices are not starved into uselessness.
  /// 0 (= no deadline) when the budget itself is unlimited.
  uint64_t SliceUs(uint64_t now_us, size_t attempts_left,
                   uint64_t floor_us) const {
    if (unlimited()) return 0;
    const uint64_t remaining = remaining_us(now_us);
    if (remaining == 0) return floor_us;
    if (attempts_left == 0) attempts_left = 1;
    uint64_t slice = remaining / attempts_left;
    if (slice < floor_us) slice = floor_us;
    return slice;
  }

 private:
  uint64_t total_us_;
  uint64_t start_us_;
};

}  // namespace bw::shard

#endif  // BLOBWORLD_SHARD_TAIL_TOLERANCE_H_
