// Concurrent query service over a shared read-only index: the serving
// tier the paper's Blobworld front end implies ("give me images until
// the user stops scrolling", many users at once) but the one-shot bench
// binaries never built. A fixed pool of worker threads executes k-NN,
// range, and streaming (count, radius, deadline) requests against one
// shared gist::Tree; a bounded submission queue applies admission control
// (reject-with-Status or block, configurable); every query returns
// latency + I/O metrics and the service aggregates them into a
// lock-cheap latency histogram and throughput snapshot.
//
// Concurrency model (see the audited contracts in gist/tree.h and
// pages/page_file.h): the tree, its extension, and the page file are
// shared and strictly read-only during serving. Every page is resident,
// so there is no cache in front of the store: each query reads through
// its own pages::ResidentReader (quarantine gate,
// range check, deadline check, then the const PeekNoIo path), which
// keeps deadline state and per-query counters private without a lock.
//
// Serving through faults: when the store underneath quarantines pages
// (see storage/page_health.h), queries carrying a fault budget
// (ServiceOptions::fault_budget) skip unreadable subtrees and return
// flagged, partial answers (QueryResponse::completeness = kDegraded)
// instead of failing — every returned neighbor is genuine, some may be
// missing. Stream deadlines are checked before every node fetch; the
// fetch a deadline refuses ends the stream with its settled prefix,
// flagged truncated.
//
// Serving through writes (ServiceWriteOptions::enabled over a mutable
// DurableIndex): a single writer thread drains a bounded mutation queue
// in batches, applies Insert/Delete to the shared tree under the
// exclusive side of a reader-writer lock, and makes each batch durable
// with one DurableIndex::Commit. Readers take the shared side per query,
// so they never observe a half-applied batch — between batches they see
// a consistent snapshot, and the generation counter in Snapshot() counts
// the handoffs. Commits run *outside* the exclusive section (the tree is
// quiescent while the writer is the only mutator), so reads overlap the
// fsync. A mutation's future resolves only once its batch is durable:
// ack implies recoverable.
//
// Write-side degradation (DESIGN.md §10): the service runs a three-state
// machine, kServing -> kReadOnly -> kFailed. A disk-space watchdog
// (min_free_bytes over an injectable probe) trips kReadOnly *before* the
// WAL append that would hit ENOSPC; a clean out-of-space failure from
// the store does the same after the fact. In kReadOnly new writes are
// shed with kResourceExhausted, queries serve normally, and the already
// applied-but-uncommitted batch is retried until space returns, then the
// service resumes on its own (or via ResumeWrites()). A fail-stopped fd
// (failed fsync, EIO, torn write — see storage/file_io.h) or DataLoss
// moves to kFailed: permanent for this process, writes fail, reads keep
// serving; only crash recovery in a fresh process resumes writes.

#ifndef BLOBWORLD_SERVICE_QUERY_SERVICE_H_
#define BLOBWORLD_SERVICE_QUERY_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "core/durable_index.h"
#include "core/index_factory.h"
#include "storage/wal_ship.h"
#include "gist/tree.h"
#include "util/histogram.h"
#include "util/status.h"

namespace bw::service {

/// What to do with a submission that finds the queue full.
enum class OverflowPolicy {
  kReject,  // fail fast with Status::Unavailable (default).
  kBlock,   // apply backpressure: block the submitter until space frees.
};

/// Write-path health of the service (see the state machine in the file
/// header and DESIGN.md §10). Reads serve in every state.
enum class WriteState {
  kServing,   // mutations admitted, applied, and committed normally.
  kReadOnly,  // resource exhaustion: new writes shed, pending batch
              // retried; auto-resumes when the space probe clears.
  kFailed,    // fail-stopped log or data loss: writes permanently shed
              // in this process; recovery in a fresh one resumes them.
};

/// Online mutation configuration. Writes require the service to front a
/// mutable DurableIndex (the `core::DurableIndex*` or owning-unique_ptr
/// constructors); enabling them on a bare tree or BuiltIndex aborts.
struct ServiceWriteOptions {
  /// Master switch: false (default) keeps the service strictly
  /// read-only — the pre-write-path contract.
  bool enabled = false;
  /// Maximum admitted-but-not-yet-applied mutations.
  size_t queue_capacity = 256;
  OverflowPolicy overflow = OverflowPolicy::kReject;
  /// Mutations applied + committed per batch (one fsync per batch, one
  /// reader-visible generation per batch).
  size_t batch_size = 16;
  /// Disk-space watchdog: once the probe reports fewer free bytes, the
  /// service trips kReadOnly *before* appending to the WAL, instead of
  /// discovering ENOSPC inside a commit. 0 disables the watchdog
  /// (a clean ENOSPC from the store still trips kReadOnly after the
  /// fact).
  uint64_t min_free_bytes = 0;
  /// Free-space probe for the watchdog; defaults to statvfs on the
  /// WAL's directory. Injectable so tests (and the chaos harness) can
  /// script exhaustion and recovery without filling a real disk.
  std::function<uint64_t()> free_space_probe;
  /// How often the writer retries the pending commit while kReadOnly.
  std::chrono::milliseconds retry_interval{10};
};

/// Service configuration.
struct ServiceOptions {
  /// Worker threads executing queries (>= 1).
  size_t num_workers = 4;
  /// Maximum queued (admitted but not yet executing) requests.
  size_t queue_capacity = 128;
  OverflowPolicy overflow = OverflowPolicy::kReject;
  /// Start with execution paused (requests are admitted and queued but
  /// not run until Resume()). Used by admission-control tests and for
  /// warm-up staging.
  bool start_paused = false;
  /// Per-query fault budget: how many unreadable subtrees one query may
  /// skip (returning a flagged, degraded answer) before failing outright.
  /// 0 (default) is fail-closed — the first read fault fails the query,
  /// exactly the pre-fault-tolerance behavior.
  size_t fault_budget = 0;
  /// Online write path (off by default; see ServiceWriteOptions).
  ServiceWriteOptions write;
};

/// Limits for a streaming request: nearest first, in (distance, rid)
/// order, as one gist::Tree::KnnSearch with the limits pushed down.
struct StreamOptions {
  /// Return at most this many results; 0 = no count limit.
  size_t max_results = 0;
  /// Return only results within this distance (`<=`): with no count
  /// limit, exactly the range answer. The search reads no node whose
  /// bound exceeds it, so a negative radius reads none. A NaN radius
  /// fails admission with InvalidArgument.
  double budget_radius = std::numeric_limits<double>::infinity();
  /// Wall-clock execution budget in microseconds, measured from the
  /// moment the stream starts executing; 0 = no deadline. It is checked
  /// before every node fetch (pages::ResidentReader). The fetch it
  /// refuses ends the search: the response holds the settled prefix,
  /// every result strictly nearer than the refused node's bound, with
  /// metrics.truncated set. That prefix is a prefix of the untruncated
  /// answer.
  double deadline_us = 0;
};

/// Per-query measurements, returned with every response.
struct QueryMetrics {
  double latency_us = 0;     // execution time on the worker.
  double queue_wait_us = 0;  // admission -> start of execution.
  uint64_t internal_accesses = 0;  // tree nodes visited, by level.
  uint64_t leaf_accesses = 0;
  /// Pages this query fetched: every page is resident, so each served
  /// fetch is a hit (internal_accesses + leaf_accesses on a healthy
  /// tree), and misses, evictions and contention are always 0.
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t pool_evictions = 0;
  uint64_t pool_contention = 0;
  /// Unreadable subtrees this query skipped under its fault budget.
  uint64_t pages_skipped = 0;
  /// Streaming only: the deadline refused a node fetch, so the answer
  /// is the settled prefix of the full one.
  bool truncated = false;
};

/// Whether a response covers the full answer set.
enum class Completeness {
  /// Every reachable page was read: the answer is exact.
  kComplete,
  /// One or more subtrees were skipped under the fault budget: the
  /// answer is a genuine subset of the true answer (every returned
  /// neighbor is real; some may be missing).
  kDegraded,
};

/// Results + metrics of one executed query.
struct QueryResponse {
  std::vector<gist::Neighbor> neighbors;
  QueryMetrics metrics;
  Completeness completeness = Completeness::kComplete;

  bool degraded() const { return completeness == Completeness::kDegraded; }
};

/// What a mutation's future resolves to once its batch is durable.
struct MutationOutcome {
  /// Commit tag of the batch that made this mutation durable: the
  /// cumulative count of mutations applied to this replica, so two
  /// replicas fed the same admission sequence converge on the same tag
  /// even if their writers grouped the mutations into different batches
  /// — which is what makes tags comparable across a fleet (the catch-up
  /// position, DESIGN.md §13). After a crash,
  /// RecoveryManager::Summary::last_commit_tag names the newest
  /// surviving batch, so acked tags <= it are exactly the recovered set.
  uint64_t tag = 0;
  double queue_wait_us = 0;  // admission -> writer picked the batch up.
  double apply_us = 0;       // tree apply time for this batch.
};

// ---------------------------------------------------------------------------
// Replica catch-up surface (DESIGN.md §13). A stale replica converges
// onto a healthy sibling by applying the sibling's committed WAL
// batches (tags above its own) — or, when the sibling's checkpoint
// already folded the needed batches away, by re-imaging every page from
// a snapshot and continuing with WAL batches from the snapshot's tag.
// ---------------------------------------------------------------------------

/// Where a replica stands, tag-wise (cheap; poll freely).
struct CatchupPosition {
  /// Newest durable commit tag (cumulative mutation count).
  uint64_t last_tag = 0;
  /// WAL-shipping horizon: batches at or below this tag are no longer
  /// in the log (folded by a checkpoint).
  uint64_t checkpoint_tag = 0;
  uint64_t page_count = 0;
};

/// Committed batches read back out of the live WAL for shipping.
struct WalTail {
  std::vector<storage::ShippedBatch> batches;
  /// The requested after_tag is below the checkpoint horizon: the WAL
  /// path cannot converge this target; take the snapshot path.
  bool snapshot_needed = false;
  /// Budget ran out with qualifying batches left; pull again.
  bool more = false;
  /// The source's newest durable tag at read time.
  uint64_t last_tag = 0;
};

/// One contiguous run of page images from a full-store snapshot.
struct SnapshotChunk {
  /// Source tag the images reflect; all chunks of one snapshot must
  /// carry the same tag or the target restarts from page 0.
  uint64_t tag = 0;
  uint64_t total_pages = 0;
  uint32_t start_page = 0;
  /// kPageImage records for pages [start_page, start_page + size()).
  std::vector<storage::ShippedRecord> pages;
};

/// Bit-identity handshake: CRC over every encoded page in id order,
/// valid only when compared at equal tags with writes quiescent.
struct TreeSum {
  uint64_t tag = 0;
  uint64_t page_count = 0;
  uint32_t crc = 0;
};

/// Aggregated service counters and latency distribution.
struct ServiceSnapshot {
  uint64_t submitted = 0;
  uint64_t rejected = 0;   // refused by admission control.
  uint64_t completed = 0;
  uint64_t failed = 0;     // executed but returned an error Status.
  uint64_t truncated_streams = 0;
  uint64_t degraded_responses = 0;   // completed with a partial answer.
  uint64_t pages_skipped = 0;        // subtrees skipped, summed.
  uint64_t leaf_accesses = 0;
  uint64_t internal_accesses = 0;
  uint64_t pool_hits = 0;         // QueryMetrics::pool_*, summed.
  uint64_t pool_misses = 0;
  uint64_t pool_evictions = 0;
  uint64_t pool_contention = 0;
  /// Mirrored from the served store's self-healing machinery when the
  /// service fronts a DurableIndex (all zero otherwise).
  uint64_t store_read_retries = 0;       // transient read faults absorbed.
  uint64_t store_pages_quarantined = 0;  // currently quarantined.
  uint64_t store_quarantines_total = 0;  // lifetime quarantine events.
  uint64_t store_repairs_total = 0;      // lifetime successful repairs.
  double elapsed_seconds = 0;  // since service start.
  double qps = 0;              // completed / elapsed_seconds.
  double mean_latency_us = 0;
  uint64_t p50_latency_us = 0;
  uint64_t p95_latency_us = 0;
  uint64_t p99_latency_us = 0;
  uint64_t p999_latency_us = 0;
  // --- Write path (meaningful only when writes are enabled) ------------
  bool writes_enabled = false;
  WriteState write_state = WriteState::kServing;
  /// True whenever the write path is not fully serving (kReadOnly or
  /// kFailed): the "degraded but answering" flag operators alert on.
  bool write_degraded = false;
  uint64_t write_queue_depth = 0;   // admitted, not yet applied.
  uint64_t writes_submitted = 0;
  uint64_t writes_rejected = 0;     // shed at admission (full/degraded).
  uint64_t writes_acked = 0;        // durable and future-resolved.
  uint64_t writes_failed = 0;       // resolved with an error status.
  uint64_t commit_batches = 0;      // durable batches this service made.
  /// Reader-visible snapshot handoffs: incremented once per applied
  /// batch, under the writer's exclusive lock.
  uint64_t generation = 0;
  /// Bytes in the WAL file, mirrored after each commit.
  uint64_t wal_live_bytes = 0;
  /// Catch-up: shipped WAL batches / snapshot chunks this replica has
  /// applied, and whether a snapshot restore is in flight right now
  /// (queries are shed while it is).
  uint64_t catchup_batches_applied = 0;
  uint64_t snapshot_chunks_applied = 0;
  bool snapshot_restoring = false;
  double mean_write_latency_us = 0;  // submission -> durable ack.
  uint64_t p50_write_latency_us = 0;
  uint64_t p99_write_latency_us = 0;
  uint64_t p999_write_latency_us = 0;
};

/// A thread-pool query executor over one shared read-only index.
///
///   auto built = bw::core::BuildIndex(vectors, build_options);
///   bw::service::QueryService service(std::move(*built), {});
///   auto future = service.SubmitKnn(query, 200);
///   if (future.ok()) { auto response = future->get(); ... }
///
/// Submit* methods are thread-safe and may be called from any number of
/// client threads. The returned future resolves to Result<QueryResponse>
/// once a worker has executed the query. The tree must not be mutated
/// while the service is alive.
class QueryService {
 public:
  using Response = Result<QueryResponse>;
  using ResponseFuture = std::future<Response>;
  using MutationResult = Result<MutationOutcome>;
  using MutationFuture = std::future<MutationResult>;

  /// Serves a tree owned by the caller (must outlive the service and
  /// stay unmodified).
  QueryService(const gist::Tree& tree, ServiceOptions options);

  /// Takes ownership of a built index and serves its tree.
  QueryService(std::unique_ptr<core::BuiltIndex> index,
               ServiceOptions options);

  /// Takes ownership of a durable (possibly crash-recovered) index and
  /// serves its tree. Without ServiceWriteOptions::enabled the store
  /// stays quiescent while serving (the read-only contract); with it,
  /// the service's writer thread is the store's single mutator.
  QueryService(std::unique_ptr<core::DurableIndex> index,
               ServiceOptions options);

  /// Serves a durable index owned by the caller (must outlive the
  /// service). The caller may run scrub/repair on the store's
  /// self-healing surface while the service serves — that is the
  /// intended degraded-serving + background-repair deployment, and the
  /// chaos soak harness's shape. With ServiceWriteOptions::enabled the
  /// caller must NOT mutate or commit the index itself: the writer
  /// thread owns the store's entire mutation side.
  QueryService(core::DurableIndex* index, ServiceOptions options);

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Drains the queue and joins all workers.
  ~QueryService();

  // --- Submission (thread-safe) ----------------------------------------
  //
  // A query with a NaN or infinite coordinate fails admission with
  // InvalidArgument: its distances could not be ordered. So do the
  // limits the wire decoders refuse: a NaN budget radius, and a range
  // radius that is NaN, infinite or negative.

  /// Exact k-nearest-neighbor request: a stream with max_results = k
  /// (k = 0 returns nothing).
  Result<ResponseFuture> SubmitKnn(geom::Vec query, size_t k);

  /// All points within `radius` of `query`.
  Result<ResponseFuture> SubmitRange(geom::Vec query, double radius);

  /// Streaming nearest-first request with count/radius/deadline limits.
  Result<ResponseFuture> SubmitStream(geom::Vec query, StreamOptions stream);

  /// Synchronous convenience wrapper around SubmitKnn.
  Response Knn(const geom::Vec& query, size_t k);

  /// Runs a stream on the calling thread and returns its whole answer:
  /// the in-process shard frontier the scatter-gather router merges.
  /// It bypasses the worker pool and its admission queue (the caller
  /// *is* the worker), and otherwise runs exactly as a worker does: the
  /// same validation, shared tree lock (held for this search only),
  /// restore shedding and accounting as SubmitStream.
  Response RunStream(geom::Vec query, StreamOptions stream);

  // --- Mutations (thread-safe; require ServiceWriteOptions::enabled) ----

  /// Admits one insert into the bounded mutation queue. The future
  /// resolves once the batch containing it is durable (ack == will
  /// survive a crash). Admission fails with InvalidArgument when writes
  /// are not enabled or the point has a NaN or infinite coordinate,
  /// Unavailable when the queue is full under kReject
  /// (retryable), kResourceExhausted while kReadOnly (resubmit after
  /// capacity returns), and IoError once kFailed.
  Result<MutationFuture> SubmitInsert(geom::Vec point, gist::Rid rid);

  /// Same admission contract; the future resolves with NotFound if the
  /// pair was absent (the batch still commits for its other mutations).
  Result<MutationFuture> SubmitDelete(geom::Vec point, gist::Rid rid);

  /// Current write-path state (relaxed read; exact after quiescence).
  WriteState write_state() const {
    return write_state_.load(std::memory_order_relaxed);
  }

  /// Nudges the writer to re-probe free space and retry the pending
  /// commit now instead of at the next retry interval. No-op unless
  /// kReadOnly.
  void ResumeWrites();

  // --- Replica catch-up (thread-safe; requires a durable index) ---------
  //
  // Source-side reads (Position/ReadWalTail/ReadSnapshotChunk/
  // TreeChecksum) serve from committed state and refuse (kUnavailable)
  // while writes are in flight where a torn view could leak. Target-side
  // applies (ApplyWalBatch/ApplySnapshotChunk) mutate the store outside
  // the writer thread and are only safe while the replica is out of the
  // router's write rotation — the driver's contract; a write that does
  // land mid-catch-up merely diverges the replica again (the checksum
  // handshake catches it), it cannot corrupt the store.

  /// Tag position of this replica (cheap poll).
  Result<CatchupPosition> Position() const;

  /// Reads committed batches with tag > after_tag from the live WAL,
  /// bounded by max_batches / max_bytes; sets snapshot_needed instead
  /// when after_tag is below the checkpoint horizon.
  Result<WalTail> ReadWalTail(uint64_t after_tag, size_t max_batches,
                              size_t max_bytes);

  /// Applies one shipped batch: redo records under the exclusive tree
  /// lock, meta refresh + generation bump, then a commit carrying the
  /// batch's tag. Batches at or below the current tag are skipped (OK)
  /// so retries are idempotent. Unavailable while local writes are in
  /// flight.
  Status ApplyWalBatch(const storage::ShippedBatch& batch);

  /// Reads one run of page images starting at start_page (~max_bytes
  /// budget, always at least one page). All chunks of one snapshot must
  /// report the same tag; a change means a write landed mid-snapshot —
  /// restart from page 0.
  Result<SnapshotChunk> ReadSnapshotChunk(uint32_t start_page,
                                          size_t max_bytes);

  /// Applies one snapshot chunk. `first` starts the restore (queries
  /// are shed until the restore finishes — the tree is torn between
  /// chunks); `last` refreshes the tree meta, commits at the chunk's
  /// tag, checkpoints, and resumes queries. FailedPrecondition if this
  /// store has more pages than the snapshot (page stores never shrink;
  /// such a replica needs an operator rebuild).
  Status ApplySnapshotChunk(const SnapshotChunk& chunk, bool first,
                            bool last);

  /// CRC over every encoded page in id order + the durable tag: the
  /// readmission handshake. Two replicas with equal tags and equal
  /// checksums are bit-identical. Unavailable while writes are in
  /// flight (the sum must describe exactly the committed state).
  Result<TreeSum> TreeChecksum() const;

  // --- Control ----------------------------------------------------------

  /// Stops dequeuing (in-flight queries finish; submissions still
  /// admitted). Idempotent.
  void Pause();
  /// Resumes execution after Pause() or start_paused.
  void Resume();
  /// Rejects new submissions, drains queued work, joins workers.
  /// Idempotent; called by the destructor.
  void Shutdown();

  // --- Introspection ----------------------------------------------------

  /// Requests admitted but not yet picked up by a worker.
  size_t queue_depth() const;
  size_t num_workers() const { return options_.num_workers; }
  const gist::Tree& tree() const { return *tree_; }

  /// Point-in-time aggregate of all per-query metrics recorded so far.
  /// Safe to call concurrently with serving; counters are relaxed
  /// atomics, so the view may lag in-flight queries by a few samples.
  ServiceSnapshot Snapshot() const;

 private:
  enum class Kind { kRange, kStream };

  struct Task {
    Kind kind = Kind::kStream;
    geom::Vec query;
    double radius = 0;     // kRange.
    StreamOptions stream;  // kStream.
    std::promise<Response> promise;
    std::chrono::steady_clock::time_point enqueue_time;
  };

  enum class MutationKind { kInsert, kDelete };

  struct Mutation {
    MutationKind kind = MutationKind::kInsert;
    geom::Vec point;
    gist::Rid rid = 0;
    std::promise<MutationResult> promise;
    std::chrono::steady_clock::time_point enqueue_time;
    double queue_wait_us = 0;
    double apply_us = 0;
    /// Set when the tree apply itself failed (e.g. NotFound for an
    /// absent delete): the promise resolves with this at commit time.
    Status apply_status;
  };

  void Start();
  /// InvalidArgument for a task no search can order (see Submission).
  static Status CheckTask(const Task& task);
  Result<ResponseFuture> Submit(Task task);
  void WorkerLoop();
  /// Runs one admitted task under the shared tree lock (shed while a
  /// snapshot restore is in flight) and folds its outcome into the
  /// service counters: the one execution path of WorkerLoop and
  /// RunStream.
  Response Run(Task& task);
  /// Runs one query through its own ResidentReader. Fills
  /// metrics.latency_us/accesses/pool counters; queue_wait_us is set by
  /// the caller.
  Response Execute(Task& task);

  // --- Write path (single writer thread) --------------------------------

  Result<MutationFuture> SubmitMutation(Mutation mutation);
  void WriterLoop();
  /// True when the space probe says the watchdog threshold is clear
  /// (or no watchdog is configured).
  bool FreeSpaceOk() const;
  /// Commits the applied-but-unacked batch; on success resolves every
  /// pending promise. Called with no tree lock held (the writer is the
  /// only mutator, so the pages it encodes are quiescent).
  Status CommitPendingBatch();
  /// Applies `todo` to the tree under the exclusive lock, moving each
  /// mutation into pending_ and bumping the generation.
  void ApplyBatch(std::vector<Mutation>* todo);
  /// Transitions + bookkeeping for a commit/watchdog verdict.
  void EnterReadOnly();
  void EnterFailed(const Status& cause);
  /// Fails every queued + pending mutation with `status` (used on
  /// kFailed and on shutdown while degraded).
  void ShedAllWrites(const Status& status);
  /// Mirrors the WAL's live bytes into an atomic Snapshot can read
  /// without racing the writer.
  void MirrorWalStats();

  std::unique_ptr<core::BuiltIndex> owned_index_;      // may be null.
  std::unique_ptr<core::DurableIndex> owned_durable_;  // may be null.
  const gist::Tree* tree_;
  /// The durable index being served, owned or not; null when serving a
  /// bare tree or BuiltIndex. Snapshot() mirrors its health counters.
  const core::DurableIndex* durable_ = nullptr;
  /// Mutable view of the same index; set by the DurableIndex
  /// constructors, required (checked) when writes are enabled.
  core::DurableIndex* mutable_durable_ = nullptr;
  ServiceOptions options_;

  /// Reader-writer lock around the tree: every query holds the shared
  /// side for its whole execution; the writer holds the exclusive side
  /// across the apply of one whole batch. This is what makes a batch
  /// atomic from a reader's point of view.
  mutable std::shared_mutex tree_mutex_;

  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<Task> queue_;
  bool paused_ = false;
  bool shutdown_ = false;

  std::vector<std::thread> workers_;

  // --- Write-path state (guarded by write_mutex_ unless atomic) --------
  mutable std::mutex write_mutex_;
  std::condition_variable write_cv_;
  std::deque<Mutation> write_queue_;
  /// Applied to the tree, not yet durable: the retryable pending batch.
  /// Non-empty only between a clean commit failure (or watchdog trip
  /// mid-batch) and the commit that finally lands it.
  std::vector<Mutation> pending_;
  bool write_shutdown_ = false;
  bool resume_requested_ = false;
  /// True from the moment the writer pops a batch off write_queue_
  /// until that batch's commit attempt returns: the window where
  /// in-flight mutations live in neither queue. The catch-up reads
  /// check it (with the queues) to decide the replica is quiescent.
  bool writer_applying_ = false;
  std::atomic<WriteState> write_state_{WriteState::kServing};
  std::thread writer_;

  /// Serializes every WAL-touching operation: the writer's commit, WAL
  /// tail reads (which sync and then scan the log file — a concurrent
  /// checkpoint would truncate it mid-read), shipped-batch
  /// applies, snapshot chunk reads, and tree checksums. Always acquired
  /// before tree_mutex_ when both are needed; the writer's tree apply
  /// takes tree_mutex_ alone, so the order cannot invert.
  mutable std::mutex commit_mutex_;
  /// Set between the first and last chunk of a snapshot restore: the
  /// tree is torn across chunks, so queries and streams are shed until
  /// the final chunk commits. Stays set if a restore fails mid-way —
  /// the replica is inconsistent until a snapshot completes.
  std::atomic<bool> snapshot_restoring_{false};

  // Aggregate metrics (relaxed atomics: hot-path increments never
  // contend on a lock).
  LatencyHistogram latency_histogram_;
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> truncated_streams_{0};
  std::atomic<uint64_t> degraded_responses_{0};
  std::atomic<uint64_t> pages_skipped_{0};
  std::atomic<uint64_t> leaf_accesses_{0};
  std::atomic<uint64_t> internal_accesses_{0};
  std::atomic<uint64_t> pool_hits_{0};
  LatencyHistogram write_latency_histogram_;
  std::atomic<uint64_t> writes_submitted_{0};
  std::atomic<uint64_t> writes_rejected_{0};
  std::atomic<uint64_t> writes_acked_{0};
  std::atomic<uint64_t> writes_failed_{0};
  std::atomic<uint64_t> commit_batches_{0};
  std::atomic<uint64_t> generation_{0};
  std::atomic<uint64_t> wal_live_bytes_{0};
  std::atomic<uint64_t> catchup_batches_applied_{0};
  std::atomic<uint64_t> snapshot_chunks_applied_{0};
  std::chrono::steady_clock::time_point start_time_;
};

}  // namespace bw::service

#endif  // BLOBWORLD_SERVICE_QUERY_SERVICE_H_
