// Timing decorators for the traced run of knn_wire_router. They wrap the
// program's two public seams without changing either: a net::Backend
// (what the wire server dispatches into) and a shard::ShardBackend /
// ShardFrontier (what the router scatters to). All spans use one
// steady clock, so client-side, server-side and shard-side timestamps
// from one process compare directly.

#ifndef BLOBWORLD_PERFBENCH_TIMING_H_
#define BLOBWORLD_PERFBENCH_TIMING_H_

#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/backend.h"
#include "shard/shard_backend.h"

namespace bw::perfbench {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Returns the time the calling thread spent inside decorated shard
/// calls since the previous call, and resets it. The router runs every
/// shard call of one query on the thread that called Router::Knn (with
/// one replica per shard no hedge executor is involved), so this splits
/// one query's time into router and shard parts.
double TakeShardMicros();

/// Non-owning decorator over one shard replica: OpenFrontier and every
/// call on the frontiers it opens (Next, Finish, and the frontier's
/// release) add their duration to the calling thread's shard time.
class TimedShardBackend : public shard::ShardBackend {
 public:
  /// `inner` must outlive the decorator.
  explicit TimedShardBackend(shard::ShardBackend* inner) : inner_(inner) {}

  Result<std::unique_ptr<shard::ShardFrontier>> OpenFrontier(
      const geom::Vec& query, const service::StreamOptions& limits) override;
  Result<service::QueryResponse> Range(const geom::Vec& query, double radius,
                                       uint32_t deadline_us) override {
    return inner_->Range(query, radius, deadline_us);
  }
  Result<service::MutationOutcome> Insert(const geom::Vec& point,
                                          uint64_t rid) override {
    return inner_->Insert(point, rid);
  }
  Result<service::MutationOutcome> Remove(const geom::Vec& point,
                                          uint64_t rid) override {
    return inner_->Remove(point, rid);
  }
  Status Probe() override { return inner_->Probe(); }
  std::string DebugName() const override { return inner_->DebugName(); }

 private:
  shard::ShardBackend* inner_;
};

/// Server-side span of one k-NN request.
struct BackendSpan {
  Clock::time_point enter;  // entry into the decorated Backend::Knn.
  Clock::time_point exit;   // its return.
  double shard_us = 0;      // time inside decorated shard calls.
  bool valid = false;
};

/// Server-side spans keyed by query point. The benchmark gives each
/// query index to one client, so a key has at most one request in
/// flight; points that occur twice in the query set are not recorded.
class SpanTable {
 public:
  explicit SpanTable(const std::vector<geom::Vec>& queries);

  /// Records the span of the request for `query` (unknown or ambiguous
  /// points are ignored).
  void Put(const geom::Vec& query, const BackendSpan& span);
  /// The last span recorded for query index `index`.
  BackendSpan Get(size_t index) const;

 private:
  static std::string Key(const geom::Vec& v);

  std::unordered_map<std::string, long> index_;  // -1 = ambiguous.
  mutable std::mutex mutex_;
  std::vector<BackendSpan> spans_;  // guarded by mutex_.
};

/// Non-owning decorator over a wire backend: records each Knn's span
/// into a SpanTable and forwards everything else.
class TimedBackend : public net::Backend {
 public:
  /// `inner` and `spans` must outlive the decorator.
  TimedBackend(net::Backend* inner, SpanTable* spans)
      : inner_(inner), spans_(spans) {}

  size_t dim() const override { return inner_->dim(); }
  uint32_t features() const override { return inner_->features(); }
  std::string peer_name() const override { return inner_->peer_name(); }
  Result<service::QueryResponse> Knn(
      const geom::Vec& query, const service::StreamOptions& stream) override;
  Result<service::QueryResponse> Range(const geom::Vec& query, double radius,
                                       uint32_t deadline_us) override {
    return inner_->Range(query, radius, deadline_us);
  }
  Result<service::MutationOutcome> Insert(const geom::Vec& point,
                                          uint64_t rid) override {
    return inner_->Insert(point, rid);
  }
  Result<service::MutationOutcome> Remove(const geom::Vec& point,
                                          uint64_t rid) override {
    return inner_->Remove(point, rid);
  }
  std::vector<std::pair<std::string, double>> StatsFields() const override {
    return inner_->StatsFields();
  }
  net::HealthReply Health() const override { return inner_->Health(); }

 private:
  net::Backend* inner_;
  SpanTable* spans_;
};

}  // namespace bw::perfbench

#endif  // BLOBWORLD_PERFBENCH_TIMING_H_
