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

/// A shard's finished answer, served one result per Next(): what both
/// backends' OpenFrontier returns.
class AnswerFrontier : public ShardFrontier {
 public:
  explicit AnswerFrontier(service::QueryResponse answer)
      : answer_(std::move(answer)) {}

  Result<std::optional<gist::Neighbor>> Next() override {
    if (next_ == answer_.neighbors.size()) {
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
};

Result<std::unique_ptr<ShardFrontier>> Frontier(
    Result<service::QueryResponse> answer) {
  if (!answer.ok()) return answer.status();
  return std::unique_ptr<ShardFrontier>(
      new AnswerFrontier(std::move(*answer)));
}

/// A wire query reply as the service's response; a server-side verdict
/// (quota, shedding, bad request) becomes the error.
Result<service::QueryResponse> ToResponse(Result<net::QueryReply> reply) {
  if (!reply.ok()) return reply.status();
  if (!reply->ok()) return reply->status;
  service::QueryResponse response;
  response.neighbors = std::move(reply->neighbors);
  response.metrics.pages_skipped = reply->pages_skipped;
  response.metrics.truncated = reply->truncated;
  response.metrics.latency_us = reply->server_latency_us;
  response.completeness = reply->degraded ? service::Completeness::kDegraded
                                          : service::Completeness::kComplete;
  return response;
}

}  // namespace

// ---------------------------------------------------------------------------
// LocalShardBackend
// ---------------------------------------------------------------------------

Status LocalShardBackend::Alive() const {
  if (failed_.load(std::memory_order_relaxed)) {
    return Status::Unavailable("replica fail-stopped (injected)");
  }
  return Status::OK();
}

Result<std::unique_ptr<ShardFrontier>> LocalShardBackend::OpenFrontier(
    const geom::Vec& query, const service::StreamOptions& limits) {
  BW_RETURN_IF_ERROR(Alive());
  // Injected brownout: alive and correct, just slow (once per fetch).
  const uint64_t delay = delay_us_.load(std::memory_order_relaxed);
  if (delay > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(delay));
  }
  // The whole shard answer, on this thread: the shard's tree lock is
  // held for this one search and released before the router fetches
  // the next shard.
  return Frontier(service_->RunStream(query, limits));
}

Result<service::QueryResponse> LocalShardBackend::Range(const geom::Vec& query,
                                                        double radius,
                                                        uint32_t deadline_us) {
  BW_RETURN_IF_ERROR(Alive());
  // On this thread, like OpenFrontier: a full admission queue is load
  // on the service's workers, not a fault of this replica.
  service::StreamOptions stream;
  stream.budget_radius = radius;
  stream.deadline_us = static_cast<double>(deadline_us);
  return service_->RunStream(query, stream);
}

Result<service::MutationOutcome> LocalShardBackend::Insert(
    const geom::Vec& point, uint64_t rid) {
  BW_RETURN_IF_ERROR(Alive());
  BW_ASSIGN_OR_RETURN(service::QueryService::MutationFuture future,
                      service_->SubmitInsert(point, rid));
  return future.get();
}

Result<service::MutationOutcome> LocalShardBackend::Remove(
    const geom::Vec& point, uint64_t rid) {
  BW_RETURN_IF_ERROR(Alive());
  BW_ASSIGN_OR_RETURN(service::QueryService::MutationFuture future,
                      service_->SubmitDelete(point, rid));
  return future.get();
}

Status LocalShardBackend::Probe() { return Alive(); }

// A fail-stopped replica serves no catch-up either: the injected fault
// models a dead process, and a dead process cannot ship or apply WAL.

Result<service::CatchupPosition> LocalShardBackend::CatchupPosition() {
  BW_RETURN_IF_ERROR(Alive());
  return service_->Position();
}

Result<service::WalTail> LocalShardBackend::ReadWalTail(uint64_t after_tag,
                                                        size_t max_batches,
                                                        size_t max_bytes) {
  BW_RETURN_IF_ERROR(Alive());
  return service_->ReadWalTail(after_tag, max_batches, max_bytes);
}

Status LocalShardBackend::ApplyWalBatch(const storage::ShippedBatch& batch) {
  BW_RETURN_IF_ERROR(Alive());
  return service_->ApplyWalBatch(batch);
}

Result<service::SnapshotChunk> LocalShardBackend::ReadSnapshotChunk(
    uint32_t start_page, size_t max_bytes) {
  BW_RETURN_IF_ERROR(Alive());
  return service_->ReadSnapshotChunk(start_page, max_bytes);
}

Status LocalShardBackend::ApplySnapshotChunk(
    const service::SnapshotChunk& chunk, bool first, bool last) {
  BW_RETURN_IF_ERROR(Alive());
  return service_->ApplySnapshotChunk(chunk, first, last);
}

Result<service::TreeSum> LocalShardBackend::TreeChecksum() {
  BW_RETURN_IF_ERROR(Alive());
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
  if (client == nullptr || !client->idle()) return;  // poisoned/in flight.
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
    // A server's verdict (shed, quota) leaves the connection idle and
    // reusable; Release closes a poisoned one.
    if (client.ok()) Release(std::move(*client));
    if (StatusOf(result).ok()) return result;
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
  net::QueryLimits wire_limits;
  wire_limits.deadline_us = static_cast<uint32_t>(limits.deadline_us);
  wire_limits.budget_radius = limits.budget_radius;
  // The wire's k is a positive u32: "no count limit" (0) and any limit
  // past it ask for UINT32_MAX, more than any shard holds.
  constexpr size_t kWireMaxK = std::numeric_limits<uint32_t>::max();
  const size_t k = limits.max_results == 0
                       ? kWireMaxK
                       : std::min(limits.max_results, kWireMaxK);
  return Frontier(WithRetries(
      wire_limits.deadline_us, [&](net::Client& client) {
        return ToResponse(client.Knn(query, k, wire_limits));
      }));
}

Result<service::QueryResponse> RemoteShardBackend::Range(
    const geom::Vec& query, double radius, uint32_t deadline_us) {
  return WithRetries(deadline_us, [&](net::Client& client) {
    return ToResponse(client.Range(query, radius, deadline_us));
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
