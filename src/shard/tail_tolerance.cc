#include "shard/tail_tolerance.h"

namespace bw::shard {

const char* BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half-open";
  }
  return "unknown";
}

void CircuitBreaker::TripLocked(uint64_t now_us) {
  state_ = BreakerState::kOpen;
  opened_at_us_ = now_us;
  trial_inflight_ = false;
  consecutive_errors_ = 0;
  consecutive_slow_ = 0;
  ++opens_;
}

void CircuitBreaker::OnResult(bool ok, uint64_t latency_us, uint64_t now_us) {
  if (ok) latency_.Record(latency_us);
  if (!options_.enabled) return;

  // Outlier verdict outside the lock: the histogram is internally
  // atomic and a slightly stale p50 only shifts the threshold by one
  // sample.
  bool slow = false;
  if (ok && latency_.Count() >= options_.min_samples) {
    const uint64_t p50 = latency_.Percentile(0.50);
    uint64_t threshold =
        static_cast<uint64_t>(options_.outlier_factor *
                              static_cast<double>(p50));
    if (threshold < options_.outlier_floor_us) {
      threshold = options_.outlier_floor_us;
    }
    slow = latency_us > threshold;
  }

  std::lock_guard<std::mutex> lock(mutex_);
  switch (state_) {
    case BreakerState::kClosed:
      if (!ok) {
        consecutive_slow_ = 0;
        if (++consecutive_errors_ >= options_.error_threshold) {
          TripLocked(now_us);
        }
        return;
      }
      consecutive_errors_ = 0;
      if (slow) {
        if (++consecutive_slow_ >= options_.slow_threshold) {
          TripLocked(now_us);
        }
      } else {
        consecutive_slow_ = 0;
      }
      return;
    case BreakerState::kHalfOpen:
      // The single admitted trial decides; results from straggling
      // pre-trip operations (e.g. an abandoned hedge loser finishing
      // late) get the same vote — they are evidence about the same
      // backend.
      trial_inflight_ = false;
      if (ok && !slow) {
        state_ = BreakerState::kClosed;
        consecutive_errors_ = 0;
        consecutive_slow_ = 0;
        ++closes_;
      } else {
        TripLocked(now_us);
      }
      return;
    case BreakerState::kOpen:
      // Late results while open carry no new information.
      return;
  }
}

bool CircuitBreaker::Allow(uint64_t now_us) {
  if (!options_.enabled) return true;
  std::lock_guard<std::mutex> lock(mutex_);
  switch (state_) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen:
      if (now_us - opened_at_us_ >= options_.cooldown_us) {
        state_ = BreakerState::kHalfOpen;
        trial_inflight_ = true;
        ++half_opens_;
        return true;
      }
      return false;
    case BreakerState::kHalfOpen:
      if (trial_inflight_) return false;  // one probe at a time.
      trial_inflight_ = true;
      return true;
  }
  return true;
}

BreakerState CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_;
}

uint64_t CircuitBreaker::HedgeDelayUs(double quantile, uint64_t floor_us,
                                      uint64_t cap_us,
                                      uint64_t fallback_us) const {
  uint64_t delay = fallback_us;
  if (latency_.Count() >= options_.min_samples) {
    delay = latency_.Percentile(quantile);
  }
  if (delay < floor_us) delay = floor_us;
  if (delay > cap_us) delay = cap_us;
  return delay;
}

uint64_t CircuitBreaker::opens() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return opens_;
}

uint64_t CircuitBreaker::half_opens() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return half_opens_;
}

uint64_t CircuitBreaker::closes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closes_;
}

}  // namespace bw::shard
