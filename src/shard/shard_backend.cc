#include "shard/shard_backend.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <thread>
#include <utility>

namespace bw::shard {

namespace {

/// Uniform status extraction so WithRetries can wrap ops returning
/// either Status or Result<T> (Result::status() is kOk when ok).
inline const Status& StatusOf(const Status& status) { return status; }
template <typename T>
const Status& StatusOf(const Result<T>& result) {
  return result.status();
}

}  // namespace

namespace {

// ---------------------------------------------------------------------------
// LocalFrontier: a shard's finished answer, served one result per Next(),
// plus fault-injection hooks so failover tests can fail-stop or brown
// out an in-process replica mid-stream without sockets.
// ---------------------------------------------------------------------------

class LocalFrontier : public ShardFrontier {
 public:
  using Clock = std::chrono::steady_clock;

  /// `deadline` is Clock::time_point::max() for none.
  LocalFrontier(service::QueryResponse answer, Clock::time_point deadline,
                std::shared_ptr<std::atomic<bool>> failed,
                std::shared_ptr<std::atomic<uint64_t>> delay_us)
      : answer_(std::move(answer)),
        deadline_(deadline),
        failed_(std::move(failed)),
        delay_us_(std::move(delay_us)) {}

  Result<std::optional<gist::Neighbor>> Next() override {
    if (failed_->load(std::memory_order_relaxed)) {
      return Status::Unavailable("replica fail-stopped (injected)");
    }
    // Injected brownout: alive and correct, just slow (per frame).
    const uint64_t delay = delay_us_->load(std::memory_order_relaxed);
    if (delay > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(delay));
    }
    if (next_ == answer_.neighbors.size()) {
      return std::optional<gist::Neighbor>();
    }
    // A result the caller pulls past the stream's deadline is refused
    // like a fetch past it: the stream ends with the prefix served so
    // far, flagged truncated.
    if (deadline_ != Clock::time_point::max() && Clock::now() >= deadline_) {
      answer_.metrics.truncated = true;
      next_ = answer_.neighbors.size();
      return std::optional<gist::Neighbor>();
    }
    return std::optional<gist::Neighbor>(answer_.neighbors[next_++]);
  }

  Status Finish() override { return Status::OK(); }

  bool degraded() const override { return answer_.degraded(); }
  uint64_t pages_skipped() const override {
    return answer_.metrics.pages_skipped;
  }
  bool truncated() const override { return answer_.metrics.truncated; }

 private:
  service::QueryResponse answer_;
  size_t next_ = 0;
  Clock::time_point deadline_;
  std::shared_ptr<std::atomic<bool>> failed_;
  std::shared_ptr<std::atomic<uint64_t>> delay_us_;
};

}  // namespace

// ---------------------------------------------------------------------------
// RemoteFrontier: one in-flight streamed k-NN on a pooled connection.
// (Namespace scope, not anonymous: it is a friend of RemoteShardBackend.)
// ---------------------------------------------------------------------------

class RemoteFrontier : public ShardFrontier {
 public:
  RemoteFrontier(RemoteShardBackend* owner, std::unique_ptr<net::Client> client,
                 uint64_t request_id)
      : owner_(owner), client_(std::move(client)), request_id_(request_id) {}

  ~RemoteFrontier() override {
    // An unfinished or poisoned stream leaves the connection non-idle;
    // Release closes it instead of pooling it.
    if (client_ != nullptr) owner_->Release(std::move(client_));
  }

  Result<std::optional<gist::Neighbor>> Next() override {
    return client_->NextResult(request_id_);
  }

  Status Finish() override {
    if (finished_) return final_status_;
    finished_ = true;
    Result<net::QueryReply> reply = client_->FinishQuery(request_id_);
    if (!reply.ok()) {
      final_status_ = reply.status();
      return final_status_;
    }
    degraded_ = reply->degraded;
    truncated_ = reply->truncated;
    pages_skipped_ = reply->pages_skipped;
    final_status_ = reply->status;  // wire verdict (quota, shed, ...).
    owner_->Release(std::move(client_));
    return final_status_;
  }

  bool degraded() const override { return degraded_; }
  uint64_t pages_skipped() const override { return pages_skipped_; }
  bool truncated() const override { return truncated_; }

 private:
  RemoteShardBackend* owner_;
  std::unique_ptr<net::Client> client_;
  uint64_t request_id_;
  bool finished_ = false;
  Status final_status_;
  bool degraded_ = false;
  bool truncated_ = false;
  uint64_t pages_skipped_ = 0;
};

// ---------------------------------------------------------------------------
// LocalShardBackend
// ---------------------------------------------------------------------------

Result<std::unique_ptr<ShardFrontier>> LocalShardBackend::OpenFrontier(
    const geom::Vec& query, const service::StreamOptions& limits) {
  if (failed_->load(std::memory_order_relaxed)) {
    return Status::Unavailable("replica fail-stopped (injected)");
  }
  const LocalFrontier::Clock::time_point opened = LocalFrontier::Clock::now();
  // The whole shard answer, on this thread: the shard's tree lock is
  // held for this one search and released before the router opens the
  // next shard.
  BW_ASSIGN_OR_RETURN(service::QueryResponse answer,
                      service_->RunStream(query, limits));
  const LocalFrontier::Clock::time_point deadline =
      limits.deadline_us > 0
          ? opened + std::chrono::microseconds(
                         static_cast<int64_t>(limits.deadline_us))
          : LocalFrontier::Clock::time_point::max();
  return std::unique_ptr<ShardFrontier>(new LocalFrontier(
      std::move(answer), deadline, failed_, delay_us_));
}

Result<service::QueryResponse> LocalShardBackend::Range(const geom::Vec& query,
                                                        double radius,
                                                        uint32_t deadline_us) {
  if (failed_->load(std::memory_order_relaxed)) {
    return Status::Unavailable("replica fail-stopped (injected)");
  }
  if (deadline_us > 0) {
    service::StreamOptions stream;
    stream.budget_radius = radius;
    stream.deadline_us = static_cast<double>(deadline_us);
    BW_ASSIGN_OR_RETURN(service::QueryService::ResponseFuture future,
                        service_->SubmitStream(query, stream));
    return future.get();
  }
  BW_ASSIGN_OR_RETURN(service::QueryService::ResponseFuture future,
                      service_->SubmitRange(query, radius));
  return future.get();
}

Result<service::MutationOutcome> LocalShardBackend::Insert(
    const geom::Vec& point, uint64_t rid) {
  if (failed_->load(std::memory_order_relaxed)) {
    return Status::Unavailable("replica fail-stopped (injected)");
  }
  BW_ASSIGN_OR_RETURN(service::QueryService::MutationFuture future,
                      service_->SubmitInsert(point, rid));
  return future.get();
}

Result<service::MutationOutcome> LocalShardBackend::Remove(
    const geom::Vec& point, uint64_t rid) {
  if (failed_->load(std::memory_order_relaxed)) {
    return Status::Unavailable("replica fail-stopped (injected)");
  }
  BW_ASSIGN_OR_RETURN(service::QueryService::MutationFuture future,
                      service_->SubmitDelete(point, rid));
  return future.get();
}

Status LocalShardBackend::Probe() {
  if (failed_->load(std::memory_order_relaxed)) {
    return Status::Unavailable("replica fail-stopped (injected)");
  }
  return Status::OK();
}

// A fail-stopped replica serves no catch-up either: the injected fault
// models a dead process, and a dead process cannot ship or apply WAL.

Result<service::CatchupPosition> LocalShardBackend::CatchupPosition() {
  if (failed_->load(std::memory_order_relaxed)) {
    return Status::Unavailable("replica fail-stopped (injected)");
  }
  return service_->Position();
}

Result<service::WalTail> LocalShardBackend::ReadWalTail(uint64_t after_tag,
                                                        size_t max_batches,
                                                        size_t max_bytes) {
  if (failed_->load(std::memory_order_relaxed)) {
    return Status::Unavailable("replica fail-stopped (injected)");
  }
  return service_->ReadWalTail(after_tag, max_batches, max_bytes);
}

Status LocalShardBackend::ApplyWalBatch(const storage::ShippedBatch& batch) {
  if (failed_->load(std::memory_order_relaxed)) {
    return Status::Unavailable("replica fail-stopped (injected)");
  }
  return service_->ApplyWalBatch(batch);
}

Result<service::SnapshotChunk> LocalShardBackend::ReadSnapshotChunk(
    uint32_t start_page, size_t max_bytes) {
  if (failed_->load(std::memory_order_relaxed)) {
    return Status::Unavailable("replica fail-stopped (injected)");
  }
  return service_->ReadSnapshotChunk(start_page, max_bytes);
}

Status LocalShardBackend::ApplySnapshotChunk(
    const service::SnapshotChunk& chunk, bool first, bool last) {
  if (failed_->load(std::memory_order_relaxed)) {
    return Status::Unavailable("replica fail-stopped (injected)");
  }
  return service_->ApplySnapshotChunk(chunk, first, last);
}

Result<service::TreeSum> LocalShardBackend::TreeChecksum() {
  if (failed_->load(std::memory_order_relaxed)) {
    return Status::Unavailable("replica fail-stopped (injected)");
  }
  return service_->TreeChecksum();
}

// ---------------------------------------------------------------------------
// RemoteShardBackend
// ---------------------------------------------------------------------------

RemoteShardBackend::RemoteShardBackend(std::string host, uint16_t port,
                                       net::ClientOptions client_options,
                                       size_t max_idle_connections)
    : host_(std::move(host)),
      port_(port),
      client_options_(client_options),
      max_idle_connections_(max_idle_connections) {
  jitter_.Reseed(retry_.jitter_seed ^ EndpointSalt());
}

uint64_t RemoteShardBackend::EndpointSalt() const {
  uint64_t hash = 0xcbf29ce484222325ull;  // FNV-1a offset basis.
  const std::string endpoint = DebugName();
  for (const char c : endpoint) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string RemoteShardBackend::DebugName() const {
  return host_ + ":" + std::to_string(port_);
}

Result<std::unique_ptr<net::Client>> RemoteShardBackend::Acquire() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!idle_.empty()) {
      std::unique_ptr<net::Client> client = std::move(idle_.back());
      idle_.pop_back();
      return client;
    }
  }
  return net::Client::Connect(host_, port_, client_options_);
}

void RemoteShardBackend::Release(std::unique_ptr<net::Client> client) {
  if (client == nullptr || !client->idle()) return;  // poisoned/mid-stream.
  std::lock_guard<std::mutex> lock(mutex_);
  if (idle_.size() < max_idle_connections_) idle_.push_back(std::move(client));
}

// ---------------------------------------------------------------------------
// Retry machinery (idempotent calls only; see RetryPolicy)
// ---------------------------------------------------------------------------

bool RemoteShardBackend::Retryable(const Status& status) {
  switch (status.code()) {
    case StatusCode::kIoError:            // transport loss / timeout.
    case StatusCode::kUnavailable:        // shed / draining / write-stalled.
    case StatusCode::kResourceExhausted:  // dispatch queue or quota: back off.
      return true;
    default:
      return false;
  }
}

bool RemoteShardBackend::BackoffOrGiveUp(size_t attempt, uint64_t elapsed_us,
                                         uint64_t deadline_us) {
  if (attempt + 1 >= retry_.max_attempts) return false;
  uint64_t backoff = retry_.backoff_us;
  for (size_t i = 0; i < attempt && backoff < retry_.max_backoff_us; ++i) {
    backoff *= 2;
  }
  if (backoff > retry_.max_backoff_us) backoff = retry_.max_backoff_us;
  // Deterministic jitter from the backend's seeded JitterStream
  // (policy seed ⊕ endpoint salt): up to +50%, so a fleet of routers
  // hammering one recovering server desynchronizes without any global
  // clock — and a chaos test pins the whole schedule from the seed.
  backoff += jitter_.NextBelow(backoff / 2 + 1);
  if (deadline_us > 0 && elapsed_us + backoff >= deadline_us) return false;
  std::this_thread::sleep_for(std::chrono::microseconds(backoff));
  return true;
}

template <typename Op>
auto RemoteShardBackend::WithRetries(uint64_t deadline_us, Op&& op)
    -> decltype(op(std::declval<net::Client&>())) {
  using R = decltype(op(std::declval<net::Client&>()));
  const auto start = std::chrono::steady_clock::now();
  for (size_t attempt = 0;; ++attempt) {
    Result<std::unique_ptr<net::Client>> client = Acquire();
    R result = client.ok() ? op(**client) : R(client.status());
    if (StatusOf(result).ok()) {
      Release(std::move(*client));
      return result;
    }
    if (!Retryable(StatusOf(result))) return result;
    const uint64_t elapsed = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    if (!BackoffOrGiveUp(attempt, elapsed, deadline_us)) return result;
  }
}

Result<std::unique_ptr<ShardFrontier>> RemoteShardBackend::OpenFrontier(
    const geom::Vec& query, const service::StreamOptions& limits) {
  // Only the *open* (dial + submit) retries: once a stream exists, a
  // mid-stream failure is the router's count-skip failover to handle.
  const auto start = std::chrono::steady_clock::now();
  for (size_t attempt = 0;; ++attempt) {
    Result<std::unique_ptr<net::Client>> client = Acquire();
    Status verdict = client.status();
    if (client.ok()) {
      net::QueryLimits wire_limits;
      wire_limits.deadline_us = static_cast<uint32_t>(limits.deadline_us);
      wire_limits.budget_radius = limits.budget_radius;
      wire_limits.batch_size = frontier_batch_size_;
      // The wire's k is a positive u32: "no count limit" (0) and any
      // limit past it ask for UINT32_MAX, more than any shard holds.
      constexpr size_t kWireMaxK = std::numeric_limits<uint32_t>::max();
      const size_t k = limits.max_results == 0
                           ? kWireMaxK
                           : std::min(limits.max_results, kWireMaxK);
      Result<uint64_t> id = (*client)->SubmitKnn(query, k, wire_limits);
      if (id.ok()) {
        return std::unique_ptr<ShardFrontier>(
            new RemoteFrontier(this, std::move(*client), *id));
      }
      verdict = id.status();
    }
    if (!Retryable(verdict)) return verdict;
    const uint64_t elapsed = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    if (!BackoffOrGiveUp(attempt, elapsed,
                         static_cast<uint64_t>(limits.deadline_us))) {
      return verdict;
    }
  }
}

Result<service::QueryResponse> RemoteShardBackend::Range(
    const geom::Vec& query, double radius, uint32_t deadline_us) {
  return WithRetries(
      deadline_us,
      [&](net::Client& client) -> Result<service::QueryResponse> {
        Result<net::QueryReply> reply = client.Range(query, radius,
                                                     deadline_us);
        if (!reply.ok()) return reply.status();
        if (!reply->ok()) return reply->status;
        service::QueryResponse response;
        response.neighbors = std::move(reply->neighbors);
        response.metrics.pages_skipped = reply->pages_skipped;
        response.metrics.truncated = reply->truncated;
        response.metrics.latency_us = reply->server_latency_us;
        response.completeness = reply->degraded
                                    ? service::Completeness::kDegraded
                                    : service::Completeness::kComplete;
        return response;
      });
}

Result<service::MutationOutcome> RemoteShardBackend::Insert(
    const geom::Vec& point, uint64_t rid) {
  BW_ASSIGN_OR_RETURN(std::unique_ptr<net::Client> client, Acquire());
  Result<net::MutateReply> reply = client->Insert(point, rid);
  if (!reply.ok()) return reply.status();
  Release(std::move(client));
  if (!reply->ok()) return reply->status;
  service::MutationOutcome outcome;
  outcome.tag = reply->tag;
  return outcome;
}

Result<service::MutationOutcome> RemoteShardBackend::Remove(
    const geom::Vec& point, uint64_t rid) {
  BW_ASSIGN_OR_RETURN(std::unique_ptr<net::Client> client, Acquire());
  Result<net::MutateReply> reply = client->Remove(point, rid);
  if (!reply.ok()) return reply.status();
  Release(std::move(client));
  if (!reply->ok()) return reply->status;
  service::MutationOutcome outcome;
  outcome.tag = reply->tag;
  return outcome;
}

Status RemoteShardBackend::Probe() {
  Result<net::HealthReply> health = WithRetries(
      0, [](net::Client& client) { return client.Health(); });
  return health.status();
}

// Catch-up calls all ride the retry schedule: the reads are pure, and
// ApplyWalBatch / ApplySnapshotChunk are idempotent on the target (the
// tag check skips an already-applied batch; a re-written page image is
// the same bytes), so replaying a lost ack is safe.

Result<service::CatchupPosition> RemoteShardBackend::CatchupPosition() {
  return WithRetries(0,
                     [](net::Client& client) { return client.CatchupPos(); });
}

Result<service::WalTail> RemoteShardBackend::ReadWalTail(uint64_t after_tag,
                                                         size_t max_batches,
                                                         size_t max_bytes) {
  return WithRetries(0, [&](net::Client& client) {
    return client.PullWal(after_tag, static_cast<uint32_t>(max_batches),
                          static_cast<uint32_t>(max_bytes));
  });
}

Status RemoteShardBackend::ApplyWalBatch(const storage::ShippedBatch& batch) {
  Result<net::CatchupAck> ack = WithRetries(
      0, [&](net::Client& client) { return client.ApplyWal(batch); });
  return ack.status();
}

Result<service::SnapshotChunk> RemoteShardBackend::ReadSnapshotChunk(
    uint32_t start_page, size_t max_bytes) {
  return WithRetries(0, [&](net::Client& client) {
    return client.PullSnapshot(start_page, static_cast<uint32_t>(max_bytes));
  });
}

Status RemoteShardBackend::ApplySnapshotChunk(
    const service::SnapshotChunk& chunk, bool first, bool last) {
  Result<net::CatchupAck> ack = WithRetries(0, [&](net::Client& client) {
    return client.ApplySnapshot(chunk, first, last);
  });
  return ack.status();
}

Result<service::TreeSum> RemoteShardBackend::TreeChecksum() {
  return WithRetries(0,
                     [](net::Client& client) { return client.TreeSum(); });
}

}  // namespace bw::shard
