// One replica of one shard, as the router sees it: a handle that can
// fetch the shard's best-first answer, execute range queries and
// mutations, and answer a cheap health probe. Two implementations,
// both of which open a frontier over an answer that is already whole:
//
//   LocalShardBackend  — an in-process QueryService (tests, bench, and
//                        single-binary fleets). The answer is one
//                        QueryService::RunStream on the caller's thread,
//                        which holds the shard's tree lock for that
//                        search only.
//   RemoteShardBackend — a bwserver endpoint over net::Client. The
//                        answer is one Client::Knn reply, which the
//                        server computed whole; connections are pooled
//                        and reused after every complete reply.
//
// Thread-safety: the router calls these from every server dispatch
// thread concurrently. LocalShardBackend is safe because QueryService
// is; RemoteShardBackend hands each caller its own pooled connection
// (net::Client itself is single-threaded by contract).

#ifndef BLOBWORLD_SHARD_SHARD_BACKEND_H_
#define BLOBWORLD_SHARD_SHARD_BACKEND_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "geom/vec.h"
#include "gist/tree.h"
#include "net/client.h"
#include "service/query_service.h"
#include "util/random.h"
#include "util/status.h"

namespace bw::shard {

/// One shard answer in (distance, rid) order (gist::NeighborLess), one
/// result per Next(), nullopt at the end. The router drains it whole
/// and then calls Finish(); degraded accounting is valid afterward.
class ShardFrontier {
 public:
  virtual ~ShardFrontier() = default;

  /// Next neighbor, nullopt at the end. An error means the replica
  /// failed (transport loss, fail-stop): the router discards the
  /// answer and fetches it again from another replica.
  virtual Result<std::optional<gist::Neighbor>> Next() = 0;

  /// The answer's terminal verdict; an error fails the whole answer.
  /// Call once, after Next() returned nullopt;
  /// degraded()/pages_skipped()/truncated() are valid afterward.
  virtual Status Finish() = 0;

  virtual bool degraded() const = 0;
  virtual uint64_t pages_skipped() const = 0;
  virtual bool truncated() const = 0;
};

/// One replica's full request surface.
class ShardBackend {
 public:
  virtual ~ShardBackend() = default;

  virtual Result<std::unique_ptr<ShardFrontier>> OpenFrontier(
      const geom::Vec& query, const service::StreamOptions& limits) = 0;

  virtual Result<service::QueryResponse> Range(const geom::Vec& query,
                                               double radius,
                                               uint32_t deadline_us) = 0;

  virtual Result<service::MutationOutcome> Insert(const geom::Vec& point,
                                                  uint64_t rid) = 0;
  virtual Result<service::MutationOutcome> Remove(const geom::Vec& point,
                                                  uint64_t rid) = 0;

  /// Cheap liveness probe (the health-probe thread's primitive).
  virtual Status Probe() = 0;

  /// Human-readable replica identity ("local:0/1", "10.0.0.2:7070").
  virtual std::string DebugName() const = 0;

  // --- Replica catch-up ---------------------------------------------------
  // The router's catch-up driver speaks these against both ends: reads
  // (position, WAL tail, snapshot chunk, checksum) against the healthy
  // source, writes (apply WAL batch / snapshot chunk) against the
  // lagging target. Defaults refuse so a backend without a durable
  // store degrades to "operator rebuild", never to silent divergence.

  virtual Result<service::CatchupPosition> CatchupPosition() {
    return Status::NotSupported("replica does not serve catch-up");
  }
  virtual Result<service::WalTail> ReadWalTail(uint64_t after_tag,
                                               size_t max_batches,
                                               size_t max_bytes) {
    (void)after_tag;
    (void)max_batches;
    (void)max_bytes;
    return Status::NotSupported("replica does not serve catch-up");
  }
  virtual Status ApplyWalBatch(const storage::ShippedBatch& batch) {
    (void)batch;
    return Status::NotSupported("replica does not serve catch-up");
  }
  virtual Result<service::SnapshotChunk> ReadSnapshotChunk(
      uint32_t start_page, size_t max_bytes) {
    (void)start_page;
    (void)max_bytes;
    return Status::NotSupported("replica does not serve catch-up");
  }
  virtual Status ApplySnapshotChunk(const service::SnapshotChunk& chunk,
                                    bool first, bool last) {
    (void)chunk;
    (void)first;
    (void)last;
    return Status::NotSupported("replica does not serve catch-up");
  }
  virtual Result<service::TreeSum> TreeChecksum() {
    return Status::NotSupported("replica does not serve catch-up");
  }
};

// ---------------------------------------------------------------------------
// In-process replica
// ---------------------------------------------------------------------------

class LocalShardBackend : public ShardBackend {
 public:
  /// The service must outlive the backend.
  explicit LocalShardBackend(service::QueryService* service,
                             std::string name = "local")
      : service_(service), name_(std::move(name)) {}

  Result<std::unique_ptr<ShardFrontier>> OpenFrontier(
      const geom::Vec& query, const service::StreamOptions& limits) override;
  Result<service::QueryResponse> Range(const geom::Vec& query, double radius,
                                       uint32_t deadline_us) override;
  Result<service::MutationOutcome> Insert(const geom::Vec& point,
                                          uint64_t rid) override;
  Result<service::MutationOutcome> Remove(const geom::Vec& point,
                                          uint64_t rid) override;
  Status Probe() override;
  std::string DebugName() const override { return name_; }

  Result<service::CatchupPosition> CatchupPosition() override;
  Result<service::WalTail> ReadWalTail(uint64_t after_tag, size_t max_batches,
                                       size_t max_bytes) override;
  Status ApplyWalBatch(const storage::ShippedBatch& batch) override;
  Result<service::SnapshotChunk> ReadSnapshotChunk(uint32_t start_page,
                                                   size_t max_bytes) override;
  Status ApplySnapshotChunk(const service::SnapshotChunk& chunk, bool first,
                            bool last) override;
  Result<service::TreeSum> TreeChecksum() override;

  /// Fault injection: while set, every call fails with Unavailable,
  /// each fetch (OpenFrontier) included — an in-process fail-stop for
  /// the failover tests and the chaos harness, no sockets needed.
  void set_failed(bool failed) {
    failed_.store(failed, std::memory_order_relaxed);
  }

  /// Brownout injection: while nonzero, every fetch (OpenFrontier)
  /// sleeps this long before it searches — the replica stays alive and
  /// correct, just slow, which is exactly the failure mode probes
  /// cannot see and the hedge/breaker machinery exists for.
  void set_delay_us(uint64_t delay_us) {
    delay_us_.store(delay_us, std::memory_order_relaxed);
  }

 private:
  /// Unavailable while set_failed(true) holds.
  Status Alive() const;

  service::QueryService* service_;
  std::string name_;
  std::atomic<bool> failed_{false};
  std::atomic<uint64_t> delay_us_{0};
};

// ---------------------------------------------------------------------------
// Remote replica (a bwserver endpoint)
// ---------------------------------------------------------------------------

/// Bounded, deadline-aware retries for *idempotent* remote calls:
/// probes, reads, catch-up pulls, and WAL-batch applies (idempotent via
/// the target's tag check) — never Insert/Remove, whose replay could
/// double-apply. Attempt n sleeps backoff_us * 2^n, capped at
/// max_backoff_us, plus a deterministic jitter drawn from a
/// JitterStream seeded by jitter_seed mixed with the backend's
/// endpoint (so two backends under the same policy draw distinct but
/// pinned schedules), and gives up early rather than sleep past the
/// caller's deadline.
/// Retries fire only on transport-shaped failures (IoError,
/// Unavailable, ResourceExhausted): a semantic verdict (NotFound,
/// InvalidArgument, NotSupported) is the answer, not a flaky link.
struct RetryPolicy {
  size_t max_attempts = 4;  // 1 = no retries.
  uint64_t backoff_us = 100;
  uint64_t max_backoff_us = 5000;
  uint64_t jitter_seed = 0x9e3779b97f4a7c15ull;
};

class RemoteShardBackend : public ShardBackend {
 public:
  RemoteShardBackend(std::string host, uint16_t port,
                     net::ClientOptions client_options = net::ClientOptions(),
                     size_t max_idle_connections = 4);

  Result<std::unique_ptr<ShardFrontier>> OpenFrontier(
      const geom::Vec& query, const service::StreamOptions& limits) override;
  Result<service::QueryResponse> Range(const geom::Vec& query, double radius,
                                       uint32_t deadline_us) override;
  Result<service::MutationOutcome> Insert(const geom::Vec& point,
                                          uint64_t rid) override;
  Result<service::MutationOutcome> Remove(const geom::Vec& point,
                                          uint64_t rid) override;
  Status Probe() override;
  std::string DebugName() const override;

  Result<service::CatchupPosition> CatchupPosition() override;
  Result<service::WalTail> ReadWalTail(uint64_t after_tag, size_t max_batches,
                                       size_t max_bytes) override;
  Status ApplyWalBatch(const storage::ShippedBatch& batch) override;
  Result<service::SnapshotChunk> ReadSnapshotChunk(uint32_t start_page,
                                                   size_t max_bytes) override;
  Status ApplySnapshotChunk(const service::SnapshotChunk& chunk, bool first,
                            bool last) override;
  Result<service::TreeSum> TreeChecksum() override;

  /// Retry schedule for idempotent calls (see RetryPolicy). Set before
  /// handing the backend to the router.
  void set_retry_policy(RetryPolicy policy) {
    retry_ = policy;
    jitter_.Reseed(policy.jitter_seed ^ EndpointSalt());
  }

 private:
  /// Pops an idle pooled connection or dials a fresh one.
  Result<std::unique_ptr<net::Client>> Acquire();
  /// Returns a connection to the pool — only if it is idle (no reply
  /// outstanding, not poisoned); otherwise it just closes.
  void Release(std::unique_ptr<net::Client> client);

  /// True for status codes worth another attempt (transport-shaped).
  static bool Retryable(const Status& status);
  /// Sleeps out attempt `attempt`'s backoff; false when the schedule is
  /// exhausted or the next sleep would cross `deadline_us` (0 = none).
  bool BackoffOrGiveUp(size_t attempt, uint64_t elapsed_us,
                       uint64_t deadline_us);
  /// FNV-1a over host:port — the per-backend salt mixed into the
  /// jitter seed.
  uint64_t EndpointSalt() const;

  /// Runs `op` (a fresh connection per attempt) under the retry
  /// schedule. `op` takes net::Client& and returns Result<T>.
  template <typename Op>
  auto WithRetries(uint64_t deadline_us, Op&& op)
      -> decltype(op(std::declval<net::Client&>()));

  std::string host_;
  uint16_t port_;
  net::ClientOptions client_options_;
  size_t max_idle_connections_;
  RetryPolicy retry_;
  JitterStream jitter_;
  std::mutex mutex_;
  std::vector<std::unique_ptr<net::Client>> idle_;
};

}  // namespace bw::shard

#endif  // BLOBWORLD_SHARD_SHARD_BACKEND_H_
