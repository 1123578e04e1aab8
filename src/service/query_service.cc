#include "service/query_service.h"

#include <sys/statvfs.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <utility>

#include "pages/page_codec.h"
#include "pages/resident_reader.h"
#include "util/crc32.h"
#include "util/logging.h"

namespace bw::service {

namespace {

using Clock = std::chrono::steady_clock;

double MicrosSince(Clock::time_point since) {
  return std::chrono::duration<double, std::micro>(Clock::now() - since)
      .count();
}

/// Default disk-space probe: free bytes on the filesystem holding
/// `path`'s directory. 0 on probe failure — fail-safe: an unprobeable
/// disk reads as exhausted, which sheds writes instead of risking them.
uint64_t FreeBytesNear(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? std::string(".") : path.substr(0, slash);
  struct statvfs vfs;
  if (::statvfs(dir.c_str(), &vfs) != 0) return 0;
  return static_cast<uint64_t>(vfs.f_bavail) * vfs.f_frsize;
}

}  // namespace

QueryService::QueryService(const gist::Tree& tree, ServiceOptions options)
    : tree_(&tree), options_(options) {
  Start();
}

QueryService::QueryService(std::unique_ptr<core::BuiltIndex> index,
                           ServiceOptions options)
    : owned_index_(std::move(index)), options_(options) {
  BW_CHECK(owned_index_ != nullptr);
  tree_ = &owned_index_->tree();
  Start();
}

QueryService::QueryService(std::unique_ptr<core::DurableIndex> index,
                           ServiceOptions options)
    : owned_durable_(std::move(index)), options_(options) {
  BW_CHECK(owned_durable_ != nullptr);
  tree_ = &owned_durable_->tree();
  durable_ = owned_durable_.get();
  mutable_durable_ = owned_durable_.get();
  Start();
}

QueryService::QueryService(core::DurableIndex* index, ServiceOptions options)
    : options_(options) {
  BW_CHECK(index != nullptr);
  tree_ = &index->tree();
  durable_ = index;
  mutable_durable_ = index;
  Start();
}

void QueryService::Start() {
  BW_CHECK_GE(options_.num_workers, 1u);
  BW_CHECK_GE(options_.queue_capacity, 1u);
  paused_ = options_.start_paused;
  start_time_ = Clock::now();
  Publish();

  workers_.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back(&QueryService::WorkerLoop, this);
  }

  if (options_.write.enabled) {
    // Writes need a mutable durable index: the writer thread is the
    // store's single mutator (tree apply + commit + checkpoint cadence).
    BW_CHECK(mutable_durable_ != nullptr);
    BW_CHECK_GE(options_.write.batch_size, 1u);
    BW_CHECK_GE(options_.write.queue_capacity, 1u);
    if (!options_.write.free_space_probe) {
      const std::string wal_path = mutable_durable_->store().wal()->path();
      options_.write.free_space_probe = [wal_path] {
        return FreeBytesNear(wal_path);
      };
    }
    MirrorWalStats();
    writer_ = std::thread(&QueryService::WriterLoop, this);
  }
}

QueryService::~QueryService() { Shutdown(); }

void QueryService::Shutdown() {
  // Writer first: remaining admitted mutations get their final commit
  // (or a definitive shed) before query workers drain.
  {
    std::lock_guard<std::mutex> lock(write_mutex_);
    write_shutdown_ = true;
  }
  write_cv_.notify_all();
  if (writer_.joinable()) writer_.join();

  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) {
      // Already shut down (Shutdown is idempotent); workers are joined.
      return;
    }
    shutdown_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void QueryService::Pause() {
  std::lock_guard<std::mutex> lock(mutex_);
  paused_ = true;
}

void QueryService::Resume() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = false;
  }
  not_empty_.notify_all();
}

size_t QueryService::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

// ---------------------------------------------------------------------------
// Submission / admission control
// ---------------------------------------------------------------------------

namespace {

// The boundary check for every point and query a caller hands in: a
// NaN or infinite coordinate makes distances NaN or infinite, which no
// search or insert can order.
Status CheckFinite(const geom::Vec& point) {
  if (point.IsFinite()) return Status::OK();
  return Status::InvalidArgument("point has a NaN or infinite coordinate");
}

}  // namespace

// The same limits the wire decoders refuse (DecodeKnnRequest,
// DecodeRangeRequest): a NaN budget radius compares false with every
// distance, so it would stop nothing.
Status QueryService::CheckTask(const Task& task) {
  BW_RETURN_IF_ERROR(CheckFinite(task.query));
  if (task.kind == Kind::kRange) {
    if (!std::isfinite(task.radius) || task.radius < 0) {
      return Status::InvalidArgument(
          "range radius must be finite and non-negative");
    }
  } else if (std::isnan(task.stream.budget_radius)) {
    return Status::InvalidArgument("stream budget radius is NaN");
  }
  return Status::OK();
}

Result<QueryService::ResponseFuture> QueryService::Submit(Task task) {
  BW_RETURN_IF_ERROR(CheckTask(task));
  std::unique_lock<std::mutex> lock(mutex_);
  if (shutdown_) {
    return Status::Unavailable("query service is shut down");
  }
  if (queue_.size() >= options_.queue_capacity) {
    if (options_.overflow == OverflowPolicy::kReject) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return Status::Unavailable(
          "query queue full (capacity " +
          std::to_string(options_.queue_capacity) + "); retry later");
    }
    // Backpressure: the submitter waits for space.
    not_full_.wait(lock, [&] {
      return queue_.size() < options_.queue_capacity || shutdown_;
    });
    if (shutdown_) {
      return Status::Unavailable("query service shut down while waiting");
    }
  }
  task.enqueue_time = Clock::now();
  ResponseFuture future = task.promise.get_future();
  queue_.push_back(std::move(task));
  submitted_.fetch_add(1, std::memory_order_relaxed);
  lock.unlock();
  not_empty_.notify_one();
  return future;
}

Result<QueryService::ResponseFuture> QueryService::SubmitKnn(geom::Vec query,
                                                             size_t k) {
  StreamOptions stream;
  stream.max_results = k;
  // max_results = 0 sets no count limit; k = 0 asks for nothing, which
  // a negative radius returns without reading a node.
  if (k == 0) stream.budget_radius = -1;
  return SubmitStream(std::move(query), stream);
}

Result<QueryService::ResponseFuture> QueryService::SubmitRange(
    geom::Vec query, double radius) {
  Task task;
  task.kind = Kind::kRange;
  task.query = std::move(query);
  task.radius = radius;
  return Submit(std::move(task));
}

Result<QueryService::ResponseFuture> QueryService::SubmitStream(
    geom::Vec query, StreamOptions stream) {
  Task task;
  task.kind = Kind::kStream;
  task.query = std::move(query);
  task.stream = stream;
  return Submit(std::move(task));
}

QueryService::Response QueryService::Knn(const geom::Vec& query, size_t k) {
  auto future = SubmitKnn(query, k);
  if (!future.ok()) return future.status();
  return future->get();
}

QueryService::Response QueryService::RunStream(geom::Vec query,
                                               StreamOptions stream) {
  Task task;
  task.query = std::move(query);
  task.stream = stream;
  BW_RETURN_IF_ERROR(CheckTask(task));
  submitted_.fetch_add(1, std::memory_order_relaxed);
  return Run(task);
}

// ---------------------------------------------------------------------------
// Mutation submission / write admission control
// ---------------------------------------------------------------------------

Result<QueryService::MutationFuture> QueryService::SubmitMutation(
    Mutation mutation) {
  if (!options_.write.enabled) {
    return Status::InvalidArgument(
        "writes are not enabled on this service (ServiceWriteOptions)");
  }
  BW_RETURN_IF_ERROR(CheckFinite(mutation.point));
  std::unique_lock<std::mutex> lock(write_mutex_);
  // Shed-at-admission: every degraded verdict is delivered here, cheap
  // and immediate, so clients never enqueue work the service already
  // knows it cannot make durable.
  const auto shed_if_degraded = [&]() -> Status {
    if (write_shutdown_) {
      return Status::Unavailable("query service is shut down");
    }
    switch (write_state_.load(std::memory_order_relaxed)) {
      case WriteState::kFailed:
        writes_rejected_.fetch_add(1, std::memory_order_relaxed);
        return Status::IoError(
            "write path fail-stopped; this process serves reads only "
            "(crash-recover in a fresh process to resume writes)");
      case WriteState::kReadOnly:
        writes_rejected_.fetch_add(1, std::memory_order_relaxed);
        return Status::ResourceExhausted(
            "service is read-only (resource exhaustion); write shed — "
            "resubmit once capacity is restored");
      case WriteState::kServing:
        break;
    }
    return Status::OK();
  };
  BW_RETURN_IF_ERROR(shed_if_degraded());
  if (write_queue_.size() >= options_.write.queue_capacity) {
    if (options_.write.overflow == OverflowPolicy::kReject) {
      writes_rejected_.fetch_add(1, std::memory_order_relaxed);
      return Status::Unavailable(
          "mutation queue full (capacity " +
          std::to_string(options_.write.queue_capacity) + "); retry later");
    }
    // Backpressure, but never while degraded: a reader-only service
    // must not park submitters forever.
    write_cv_.wait(lock, [&] {
      return write_queue_.size() < options_.write.queue_capacity ||
             write_shutdown_ ||
             write_state_.load(std::memory_order_relaxed) !=
                 WriteState::kServing;
    });
    BW_RETURN_IF_ERROR(shed_if_degraded());
  }
  mutation.enqueue_time = Clock::now();
  MutationFuture future = mutation.promise.get_future();
  write_queue_.push_back(std::move(mutation));
  writes_submitted_.fetch_add(1, std::memory_order_relaxed);
  lock.unlock();
  write_cv_.notify_all();
  return future;
}

Result<QueryService::MutationFuture> QueryService::SubmitInsert(
    geom::Vec point, gist::Rid rid) {
  Mutation mutation;
  mutation.kind = MutationKind::kInsert;
  mutation.point = std::move(point);
  mutation.rid = rid;
  return SubmitMutation(std::move(mutation));
}

Result<QueryService::MutationFuture> QueryService::SubmitDelete(
    geom::Vec point, gist::Rid rid) {
  Mutation mutation;
  mutation.kind = MutationKind::kDelete;
  mutation.point = std::move(point);
  mutation.rid = rid;
  return SubmitMutation(std::move(mutation));
}

void QueryService::ResumeWrites() {
  {
    std::lock_guard<std::mutex> lock(write_mutex_);
    resume_requested_ = true;
  }
  write_cv_.notify_all();
}

// ---------------------------------------------------------------------------
// Writer thread
// ---------------------------------------------------------------------------

bool QueryService::FreeSpaceOk() const {
  if (options_.write.min_free_bytes == 0) return true;
  if (!options_.write.free_space_probe) return true;
  return options_.write.free_space_probe() >= options_.write.min_free_bytes;
}

void QueryService::MirrorWalStats() {
  const storage::Wal* wal = mutable_durable_->store().wal();
  wal_live_bytes_.store(wal->live_bytes(), std::memory_order_relaxed);
}

std::shared_ptr<const gist::TreeVersion> QueryService::Pin() const {
  std::lock_guard<std::mutex> lock(version_mutex_);
  return version_;
}

void QueryService::Publish() {
  // Publishers take turns (apply_mutex_, or Start before any thread), so
  // this unlocked read of version_ races only other reads.
  const uint64_t generation =
      version_ == nullptr ? 0 : version_->generation + 1;
  std::shared_ptr<const gist::TreeVersion> next =
      std::make_shared<const gist::TreeVersion>(tree_->Version(generation));
  {
    std::lock_guard<std::mutex> lock(version_mutex_);
    version_.swap(next);
  }
  // `next` now holds the prior version: it goes here or with its last
  // reader, freeing the pages no newer table holds.
}

Status QueryService::ApplyBatch(std::vector<Mutation>* todo) {
  const Clock::time_point picked = Clock::now();
  Status meta;
  {
    // Copy-on-write into the tree's pages, then one publication: no
    // query ever observes some-but-not-all of the batch, and none waits
    // for it.
    std::lock_guard<std::mutex> apply_lock(apply_mutex_);
    const Clock::time_point start = Clock::now();
    gist::Tree& tree = mutable_durable_->tree();
    for (Mutation& m : *todo) {
      m.queue_wait_us =
          std::chrono::duration<double, std::micro>(picked - m.enqueue_time)
              .count();
      m.apply_status = m.kind == MutationKind::kInsert
                           ? tree.Insert(m.point, m.rid)
                           : tree.Delete(m.point, m.rid);
    }
    // The meta page is published with the pages it describes, so a
    // version holds exactly the pages the batch's commit logs.
    meta = core::WriteTreeMeta(&mutable_durable_->store(), tree);
    if (meta.ok()) Publish();
    const double apply_us = MicrosSince(start);
    for (Mutation& m : *todo) m.apply_us = apply_us;
  }
  std::lock_guard<std::mutex> lock(write_mutex_);
  for (Mutation& m : *todo) pending_.push_back(std::move(m));
  todo->clear();
  return meta;
}

Status QueryService::CommitPendingBatch() {
  size_t batch_size = 0;
  {
    std::lock_guard<std::mutex> lock(write_mutex_);
    if (pending_.empty()) return Status::OK();
    batch_size = pending_.size();
  }
  // The batch is already published, so readers overlap the fsync; the
  // writer (this thread) is the only mutator, so the pages it encodes
  // are quiescent. The tag is the cumulative mutation count, so it lands
  // on the same value on every replica that applied the same writes
  // regardless of how those writes were grouped into batches — the
  // property replica catch-up compares positions with. A retried batch
  // recomputes the identical tag (last_commit_tag only advances on
  // durable commits).
  uint64_t tag = 0;
  {
    std::lock_guard<std::mutex> commit_lock(commit_mutex_);
    tag = mutable_durable_->store().last_commit_tag() + batch_size;
    BW_RETURN_IF_ERROR(mutable_durable_->store().CommitBatch(tag));
    MirrorWalStats();
  }
  std::vector<Mutation> batch;
  {
    std::lock_guard<std::mutex> lock(write_mutex_);
    batch.swap(pending_);
  }
  commit_batches_.fetch_add(1, std::memory_order_relaxed);
  for (Mutation& m : batch) {
    write_latency_histogram_.Record(
        static_cast<uint64_t>(MicrosSince(m.enqueue_time)));
    if (m.apply_status.ok()) {
      writes_acked_.fetch_add(1, std::memory_order_relaxed);
      MutationOutcome outcome;
      outcome.tag = tag;
      outcome.queue_wait_us = m.queue_wait_us;
      outcome.apply_us = m.apply_us;
      m.promise.set_value(outcome);
    } else {
      // The tree refused this one (e.g. NotFound delete); the batch
      // still committed for its siblings.
      writes_failed_.fetch_add(1, std::memory_order_relaxed);
      m.promise.set_value(m.apply_status);
    }
  }
  return Status::OK();
}

void QueryService::EnterReadOnly() {
  {
    std::lock_guard<std::mutex> lock(write_mutex_);
    if (write_state_.load(std::memory_order_relaxed) ==
        WriteState::kServing) {
      write_state_.store(WriteState::kReadOnly, std::memory_order_relaxed);
    }
  }
  write_cv_.notify_all();  // unpark kBlock submitters into a shed verdict.
}

void QueryService::ShedAllWrites(const Status& status) {
  std::vector<Mutation> doomed;
  {
    std::lock_guard<std::mutex> lock(write_mutex_);
    doomed.reserve(pending_.size() + write_queue_.size());
    for (Mutation& m : pending_) doomed.push_back(std::move(m));
    pending_.clear();
    while (!write_queue_.empty()) {
      doomed.push_back(std::move(write_queue_.front()));
      write_queue_.pop_front();
    }
  }
  write_cv_.notify_all();
  for (Mutation& m : doomed) {
    writes_failed_.fetch_add(1, std::memory_order_relaxed);
    m.promise.set_value(status);
  }
}

void QueryService::EnterFailed(const Status& cause) {
  {
    std::lock_guard<std::mutex> lock(write_mutex_);
    write_state_.store(WriteState::kFailed, std::memory_order_relaxed);
  }
  ShedAllWrites(cause);
}

void QueryService::WriterLoop() {
  for (;;) {
    std::vector<Mutation> todo;
    bool shutting_down = false;
    {
      std::unique_lock<std::mutex> lock(write_mutex_);
      const bool retrying =
          write_state_.load(std::memory_order_relaxed) ==
              WriteState::kReadOnly &&
          (!pending_.empty() || !write_queue_.empty());
      if (retrying) {
        // Timed wait: each expiry is one resume attempt (probe + retry
        // of the pending commit). ResumeWrites() short-circuits it.
        write_cv_.wait_for(lock, options_.write.retry_interval, [&] {
          return write_shutdown_ || resume_requested_;
        });
      } else {
        write_cv_.wait(lock, [&] {
          return write_shutdown_ || resume_requested_ ||
                 !write_queue_.empty();
        });
      }
      resume_requested_ = false;
      shutting_down = write_shutdown_;
      if (shutting_down && write_queue_.empty() && pending_.empty()) return;
      if (write_state_.load(std::memory_order_relaxed) ==
              WriteState::kServing &&
          pending_.empty()) {
        const size_t n =
            std::min(write_queue_.size(), options_.write.batch_size);
        for (size_t i = 0; i < n; ++i) {
          todo.push_back(std::move(write_queue_.front()));
          write_queue_.pop_front();
        }
        writer_applying_ = !todo.empty();
      }
    }
    write_cv_.notify_all();  // space freed for kBlock submitters.

    const WriteState state = write_state_.load(std::memory_order_relaxed);
    if (state == WriteState::kFailed) {
      // Nothing new can be admitted; anything still queued (a race with
      // the transition) must not dangle.
      ShedAllWrites(Status::IoError(
          "write path fail-stopped; mutation dropped without ack"));
      if (shutting_down) return;
      continue;
    }

    if (state == WriteState::kReadOnly) {
      bool resumed = false;
      if (FreeSpaceOk()) {
        const Status committed = CommitPendingBatch();
        if (committed.ok()) {
          {
            std::lock_guard<std::mutex> lock(write_mutex_);
            write_state_.store(WriteState::kServing,
                               std::memory_order_relaxed);
          }
          write_cv_.notify_all();
          resumed = true;
        } else if (committed.code() != StatusCode::kResourceExhausted) {
          EnterFailed(committed);
          continue;
        }
      }
      if (!resumed && shutting_down) {
        // Final verdict for anything still unacked: the process is
        // exiting while the disk is full. Ack would be a lie.
        ShedAllWrites(Status::ResourceExhausted(
            "service shut down while read-only; mutation was never "
            "durable"));
        return;
      }
      continue;
    }

    if (todo.empty()) continue;

    // The watchdog runs BEFORE the tree apply and the WAL append: a
    // near-full disk sheds the batch back into the queue and trips
    // read-only, instead of discovering ENOSPC halfway into a commit.
    if (!FreeSpaceOk()) {
      {
        std::lock_guard<std::mutex> lock(write_mutex_);
        for (auto it = todo.rbegin(); it != todo.rend(); ++it) {
          write_queue_.push_front(std::move(*it));
        }
        todo.clear();
        writer_applying_ = false;
      }
      EnterReadOnly();
      continue;
    }

    const Status applied = ApplyBatch(&todo);
    const Status committed = applied.ok() ? CommitPendingBatch() : applied;
    {
      // Whatever the verdict, the batch now lives somewhere visible: in
      // the log (committed) or back in pending_ (retryable failure).
      std::lock_guard<std::mutex> lock(write_mutex_);
      writer_applying_ = false;
    }
    if (committed.ok()) continue;
    if (committed.code() == StatusCode::kResourceExhausted) {
      // Clean out-of-space mid-commit: the batch stays pending (applied
      // in memory, tracking restored by the store) and is retried until
      // space returns. Its futures stay unresolved — ack means durable.
      EnterReadOnly();
      continue;
    }
    EnterFailed(committed);
  }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

void QueryService::WorkerLoop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      not_empty_.wait(lock, [&] {
        return shutdown_ || (!paused_ && !queue_.empty());
      });
      // Exit only once the queue is drained, so every admitted promise
      // is fulfilled; on shutdown draining proceeds even while paused.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    not_full_.notify_one();

    const double queue_wait_us = MicrosSince(task.enqueue_time);
    Response response = Run(task);
    if (response.ok()) response->metrics.queue_wait_us = queue_wait_us;
    task.promise.set_value(std::move(response));
  }
}

QueryService::Response QueryService::Run(Task& task) {
  // The version current at the start, pinned for the whole search: the
  // answer reflects a whole number of batches, and no write waits for it.
  Response response = Execute(task, *Pin());

  // Aggregate into the shared counters (relaxed: monitoring only).
  if (response.ok()) {
    const QueryMetrics& m = response->metrics;
    latency_histogram_.Record(static_cast<uint64_t>(m.latency_us));
    completed_.fetch_add(1, std::memory_order_relaxed);
    leaf_accesses_.fetch_add(m.leaf_accesses, std::memory_order_relaxed);
    internal_accesses_.fetch_add(m.internal_accesses,
                                 std::memory_order_relaxed);
    pool_hits_.fetch_add(m.pool_hits, std::memory_order_relaxed);
    if (m.truncated) {
      truncated_streams_.fetch_add(1, std::memory_order_relaxed);
    }
    if (response->degraded()) {
      degraded_responses_.fetch_add(1, std::memory_order_relaxed);
      pages_skipped_.fetch_add(m.pages_skipped, std::memory_order_relaxed);
    }
  } else {
    failed_.fetch_add(1, std::memory_order_relaxed);
  }
  return response;
}

QueryService::Response QueryService::Execute(
    Task& task, const gist::TreeVersion& version) {
  // A reader per query over the pinned version's pages: its counters are
  // this query's, and its deadline dies with it.
  pages::ResidentReader reader(tree_->file(), &version.pages);
  gist::AccessCounts traversal;
  // Per-query fault budget: how many unreadable subtrees this query may
  // absorb before failing. With budget 0 the first fault wins.
  gist::DegradedRead degraded;
  degraded.budget = options_.fault_budget;
  const Clock::time_point start = Clock::now();

  QueryResponse response;
  if (task.kind == Kind::kRange) {
    BW_ASSIGN_OR_RETURN(response.neighbors,
                        tree_->RangeSearch(version, task.query, task.radius,
                                           &traversal, &reader, &degraded));
  } else {
    const StreamOptions& limits = task.stream;
    // The reader's deadline refuses the first fetch past it, which ends
    // the search with its settled prefix.
    if (limits.deadline_us > 0) {
      reader.set_deadline(start + std::chrono::microseconds(static_cast<
                              int64_t>(limits.deadline_us)));
    }
    const size_t k = limits.max_results > 0
                         ? limits.max_results
                         : std::numeric_limits<size_t>::max();
    BW_ASSIGN_OR_RETURN(
        response.neighbors,
        tree_->KnnSearch(version, task.query, k, &traversal, &reader,
                         &degraded, limits.budget_radius,
                         &response.metrics.truncated));
  }

  response.metrics.latency_us = MicrosSince(start);
  response.metrics.internal_accesses = traversal.internal_accesses;
  response.metrics.leaf_accesses = traversal.leaf_accesses;
  response.metrics.pages_skipped = degraded.skipped.size();
  response.completeness = degraded.degraded() ? Completeness::kDegraded
                                              : Completeness::kComplete;
  response.metrics.pool_hits = reader.stats().hits;
  return response;
}

// ---------------------------------------------------------------------------
// Replica catch-up (WAL shipping + snapshot transfer; DESIGN.md §13)
// ---------------------------------------------------------------------------

namespace {

/// Shared refusal for the catch-up reads and applies: they describe (or
/// replace) exactly the committed state, so mutations that are admitted
/// but not yet durable — queued, pending retry, or mid-apply in the
/// writer — make the replica an unfit party until the writer drains.
Status WritesInFlight() {
  return Status::Unavailable(
      "local writes in flight; retry catch-up when the replica quiesces");
}

}  // namespace

std::shared_ptr<const gist::TreeVersion> QueryService::PinCommitted() const {
  // Pinned before the quiescence check: a batch the writer published
  // before the pin keeps writer_applying_ set until its commit, which
  // waits for the caller's commit_mutex_, so the check refuses it.
  std::shared_ptr<const gist::TreeVersion> version = Pin();
  std::lock_guard<std::mutex> lock(write_mutex_);
  if (!pending_.empty() || !write_queue_.empty() || writer_applying_) {
    return nullptr;
  }
  return version;
}

Result<CatchupPosition> QueryService::Position() const {
  if (durable_ == nullptr) {
    return Status::NotSupported(
        "replica catch-up requires a durable index");
  }
  CatchupPosition pos;
  pos.last_tag = durable_->store().last_commit_tag();
  pos.checkpoint_tag = durable_->store().checkpoint_tag();
  // The store's own table grows under the writer; the version's does not.
  pos.page_count = Pin()->pages.size();
  return pos;
}

Result<WalTail> QueryService::ReadWalTail(uint64_t after_tag,
                                          size_t max_batches,
                                          size_t max_bytes) {
  if (durable_ == nullptr) {
    return Status::NotSupported(
        "replica catch-up requires a durable index");
  }
  // commit_mutex_ pins the log: no commit can advance it and — more
  // importantly — no checkpoint can truncate it under the scan.
  std::lock_guard<std::mutex> commit_lock(commit_mutex_);
  const storage::DurableStore& store = durable_->store();
  WalTail tail;
  tail.last_tag = store.last_commit_tag();
  if (after_tag < store.checkpoint_tag()) {
    // The batches this target needs were folded into the base file and
    // truncated out of the log: past the horizon only a snapshot helps.
    tail.snapshot_needed = true;
    return tail;
  }
  if (mutable_durable_ != nullptr) {
    // Every acknowledged commit is already synced; this fsync fails on
    // a fail-stopped log, whose last commit record may sit in the file
    // without ever having been made durable, so it is never shipped.
    BW_RETURN_IF_ERROR(mutable_durable_->store().wal()->Sync());
  }
  BW_ASSIGN_OR_RETURN(
      storage::WalShipReadout readout,
      storage::ReadWalBatchesAfter(store.wal()->path(), after_tag,
                                   max_batches, max_bytes));
  tail.batches = std::move(readout.batches);
  tail.more = readout.more;
  return tail;
}

Status QueryService::ApplyWalBatch(const storage::ShippedBatch& batch) {
  if (mutable_durable_ == nullptr) {
    return Status::NotSupported(
        "applying shipped batches requires a mutable durable index");
  }
  std::lock_guard<std::mutex> commit_lock(commit_mutex_);
  storage::DurableStore& store = mutable_durable_->store();
  if (batch.tag <= store.last_commit_tag()) {
    // A batch this replica already holds: the retried pull of a reply
    // the network ate. Applying page images twice would be harmless,
    // but committing twice would burn a tag — skip cleanly instead.
    return Status::OK();
  }
  std::unique_lock<std::mutex> apply_lock(apply_mutex_);
  {
    std::lock_guard<std::mutex> lock(write_mutex_);
    if (!pending_.empty() || !write_queue_.empty() || writer_applying_) {
      return WritesInFlight();
    }
  }
  // Copy-on-write: until the publication below, queries read the
  // version before the batch.
  storage::DiskPageFile* disk = store.disk();
  for (const storage::ShippedRecord& rec : batch.records) {
    if (rec.type == storage::WalRecordType::kAlloc) {
      BW_RETURN_IF_ERROR(disk->EnsureAllocated(rec.page_id));
    } else if (rec.type == storage::WalRecordType::kPageImage) {
      BW_RETURN_IF_ERROR(disk->ApplyPageImage(rec.page_id,
                                              rec.payload.data(),
                                              rec.payload.size()));
    } else {
      return Status::InvalidArgument(
          "shipped batch holds a non-redo record");
    }
  }
  BW_RETURN_IF_ERROR(
      core::RefreshTreeFromMeta(&store, &mutable_durable_->tree()));
  Publish();
  apply_lock.unlock();
  // Commit the shipped images as this replica's own WAL batch carrying
  // the source's tag. Not DurableIndex::Commit: the meta page rode
  // along in the shipped images and the tree was just refreshed *from*
  // it — re-serializing would write the same bytes at best.
  BW_RETURN_IF_ERROR(store.CommitBatch(batch.tag));
  catchup_batches_applied_.fetch_add(1, std::memory_order_relaxed);
  MirrorWalStats();
  return Status::OK();
}

Result<SnapshotChunk> QueryService::ReadSnapshotChunk(uint32_t start_page,
                                                      size_t max_bytes) {
  if (durable_ == nullptr) {
    return Status::NotSupported(
        "replica catch-up requires a durable index");
  }
  std::lock_guard<std::mutex> commit_lock(commit_mutex_);
  const std::shared_ptr<const gist::TreeVersion> version = PinCommitted();
  if (version == nullptr) return WritesInFlight();
  if (!durable_->store().disk()->suspect_pages().empty()) {
    return Status::Unavailable(
        "quarantined pages make this replica an unfit snapshot source");
  }
  SnapshotChunk chunk;
  chunk.tag = durable_->store().last_commit_tag();
  chunk.total_pages = version->pages.size();
  chunk.start_page = start_page;
  if (start_page >= chunk.total_pages) {
    return Status::InvalidArgument("start_page past the end of the store");
  }
  size_t bytes = 0;
  std::vector<uint8_t> image;
  for (uint64_t id = start_page; id < chunk.total_pages; ++id) {
    pages::EncodePage(*version->pages[id], &image);
    // Always at least one page per chunk, so a tiny budget still makes
    // progress instead of spinning on an empty reply.
    if (!chunk.pages.empty() && bytes + image.size() > max_bytes) break;
    bytes += image.size();
    storage::ShippedRecord rec;
    rec.type = storage::WalRecordType::kPageImage;
    rec.page_id = static_cast<pages::PageId>(id);
    rec.payload = image;
    chunk.pages.push_back(std::move(rec));
  }
  return chunk;
}

Status QueryService::ApplySnapshotChunk(const SnapshotChunk& chunk,
                                        bool first, bool last) {
  if (mutable_durable_ == nullptr) {
    return Status::NotSupported(
        "applying snapshot chunks requires a mutable durable index");
  }
  std::lock_guard<std::mutex> commit_lock(commit_mutex_);
  storage::DurableStore& store = mutable_durable_->store();
  std::unique_lock<std::mutex> apply_lock(apply_mutex_);
  {
    std::lock_guard<std::mutex> lock(write_mutex_);
    if (!pending_.empty() || !write_queue_.empty() || writer_applying_) {
      return WritesInFlight();
    }
  }
  storage::DiskPageFile* disk = store.disk();
  if (first && disk->page_count() > chunk.total_pages) {
    return Status::InvalidArgument(
        "this store holds more pages than the snapshot; page stores "
        "never shrink — rebuild the replica instead");
  }
  // From the first chunk to the last the store's own table mixes two
  // trees. The chunks apply copy-on-write and nothing is published
  // until the last, so queries keep reading the pre-restore version —
  // and keep doing so if the restore fails mid-way.
  for (const storage::ShippedRecord& rec : chunk.pages) {
    if (rec.type != storage::WalRecordType::kPageImage) {
      return Status::InvalidArgument(
          "snapshot chunk holds a non-page record");
    }
    BW_RETURN_IF_ERROR(disk->EnsureAllocated(rec.page_id));
    BW_RETURN_IF_ERROR(disk->ApplyPageImage(rec.page_id, rec.payload.data(),
                                            rec.payload.size()));
  }
  snapshot_chunks_applied_.fetch_add(1, std::memory_order_relaxed);
  if (!last) return Status::OK();
  BW_RETURN_IF_ERROR(
      core::RefreshTreeFromMeta(&store, &mutable_durable_->tree()));
  Publish();
  apply_lock.unlock();
  // One commit for the whole restore (it logs every shipped page), then
  // a checkpoint, which folds them into the base file and empties the
  // log again.
  BW_RETURN_IF_ERROR(store.CommitBatch(chunk.tag));
  BW_RETURN_IF_ERROR(store.Checkpoint());
  MirrorWalStats();
  return Status::OK();
}

Result<TreeSum> QueryService::TreeChecksum() const {
  if (durable_ == nullptr) {
    return Status::NotSupported(
        "replica catch-up requires a durable index");
  }
  std::lock_guard<std::mutex> commit_lock(commit_mutex_);
  const std::shared_ptr<const gist::TreeVersion> version = PinCommitted();
  if (version == nullptr) return WritesInFlight();
  if (!durable_->store().disk()->suspect_pages().empty()) {
    return Status::Unavailable(
        "quarantined pages poison the checksum; repair first");
  }
  TreeSum sum;
  sum.tag = durable_->store().last_commit_tag();
  sum.page_count = version->pages.size();
  uint32_t crc = 0;
  std::vector<uint8_t> image;
  for (const std::shared_ptr<pages::Page>& page : version->pages) {
    pages::EncodePage(*page, &image);
    crc = Crc32Extend(crc, image.data(), image.size());
  }
  sum.crc = crc;
  return sum;
}

// ---------------------------------------------------------------------------
// Monitoring
// ---------------------------------------------------------------------------

ServiceSnapshot QueryService::Snapshot() const {
  ServiceSnapshot snap;
  snap.submitted = submitted_.load(std::memory_order_relaxed);
  snap.rejected = rejected_.load(std::memory_order_relaxed);
  snap.completed = completed_.load(std::memory_order_relaxed);
  snap.failed = failed_.load(std::memory_order_relaxed);
  snap.truncated_streams = truncated_streams_.load(std::memory_order_relaxed);
  snap.degraded_responses =
      degraded_responses_.load(std::memory_order_relaxed);
  snap.pages_skipped = pages_skipped_.load(std::memory_order_relaxed);
  if (durable_ != nullptr) {
    const storage::DiskPageFile* disk = durable_->store().disk();
    snap.store_read_retries = disk->read_retries();
    snap.store_pages_quarantined = disk->health().quarantined_count();
    snap.store_quarantines_total = disk->health().total_quarantined();
    snap.store_repairs_total = disk->health().total_repaired();
  }
  snap.leaf_accesses = leaf_accesses_.load(std::memory_order_relaxed);
  snap.internal_accesses = internal_accesses_.load(std::memory_order_relaxed);
  snap.pool_hits = pool_hits_.load(std::memory_order_relaxed);
  snap.writes_enabled = options_.write.enabled;
  snap.write_state = write_state_.load(std::memory_order_relaxed);
  snap.write_degraded =
      snap.writes_enabled && snap.write_state != WriteState::kServing;
  {
    std::lock_guard<std::mutex> lock(write_mutex_);
    snap.write_queue_depth = write_queue_.size();
  }
  snap.writes_submitted = writes_submitted_.load(std::memory_order_relaxed);
  snap.writes_rejected = writes_rejected_.load(std::memory_order_relaxed);
  snap.writes_acked = writes_acked_.load(std::memory_order_relaxed);
  snap.writes_failed = writes_failed_.load(std::memory_order_relaxed);
  snap.commit_batches = commit_batches_.load(std::memory_order_relaxed);
  snap.generation = Pin()->generation;
  snap.wal_live_bytes = wal_live_bytes_.load(std::memory_order_relaxed);
  snap.catchup_batches_applied =
      catchup_batches_applied_.load(std::memory_order_relaxed);
  snap.snapshot_chunks_applied =
      snapshot_chunks_applied_.load(std::memory_order_relaxed);
  snap.mean_write_latency_us = write_latency_histogram_.Mean();
  snap.p50_write_latency_us = write_latency_histogram_.Percentile(0.50);
  snap.p99_write_latency_us = write_latency_histogram_.Percentile(0.99);
  snap.p999_write_latency_us = write_latency_histogram_.Percentile(0.999);
  snap.elapsed_seconds =
      std::chrono::duration<double>(Clock::now() - start_time_).count();
  snap.qps = snap.elapsed_seconds > 0
                 ? static_cast<double>(snap.completed) / snap.elapsed_seconds
                 : 0.0;
  snap.mean_latency_us = latency_histogram_.Mean();
  snap.p50_latency_us = latency_histogram_.Percentile(0.50);
  snap.p95_latency_us = latency_histogram_.Percentile(0.95);
  snap.p99_latency_us = latency_histogram_.Percentile(0.99);
  snap.p999_latency_us = latency_histogram_.Percentile(0.999);
  return snap;
}

}  // namespace bw::service
