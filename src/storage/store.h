// The durable storage engine's coordination layer: DurableStore ties a
// DiskPageFile (checksummed base file) to a Wal (redo log) and enforces
// the ARIES-lite protocol; CheckpointManager runs fuzzy checkpoints;
// RecoveryManager rebuilds a store from whatever bytes survived a crash.
//
// Protocol invariants (tested by the crash-injection harness):
//
//  1. WAL-first: a page's post-write image is appended to the WAL before
//     that page may be flushed to the base file (CommitBatch before
//     Checkpoint flush).
//  2. Batch atomicity: CommitBatch frames all changes since the previous
//     commit between the prior kCommit record and a new one. Recovery
//     applies only whole committed batches; a crash mid-batch rolls the
//     store back to the previous commit.
//  3. Checkpoint ordering: sync WAL -> flush dirty frames -> fsync ->
//     publish header (alternate slot, fsync) -> truncate WAL. A crash at
//     any point leaves either the old header + full WAL (redo repairs
//     torn frames) or the new header (stale WAL records are skipped by
//     their LSN filter).
//  4. Detection over trust: a checksum mismatch that redo cannot repair
//     (bit-flipped base frame with no WAL image, corrupt WAL record with
//     intact successors) surfaces as DataLoss instead of serving bytes
//     that were never written.

#ifndef BLOBWORLD_STORAGE_STORE_H_
#define BLOBWORLD_STORAGE_STORE_H_

#include <atomic>
#include <memory>
#include <string>

#include "storage/disk_page_file.h"
#include "storage/wal.h"
#include "util/status.h"

namespace bw::storage {

struct StoreOptions {
  size_t page_size = pages::kDefaultPageSize;
  /// Run a fuzzy checkpoint automatically every N committed batches;
  /// 0 = checkpoint only on explicit Checkpoint() calls.
  size_t checkpoint_every_commits = 0;
  FaultInjector* injector = nullptr;
  /// Transient-read retry policy forwarded to the DiskPageFile.
  ReadRetryPolicy read_retry;
  /// Recovery disposition for base pages whose frames fail their
  /// checksum and have no WAL redo image. false (default): recovery
  /// fails with DataLoss — the fail-closed contract PR 2 shipped with.
  /// true: such pages are quarantined instead, the store opens and
  /// serves degraded (traversals skip them), and the WAL is preserved —
  /// not folded into a checkpoint — so RepairQuarantined can still mine
  /// it for redo images.
  bool quarantine_unrepaired = false;
};

/// Runs the fuzzy-checkpoint protocol over a (DiskPageFile, Wal) pair.
class CheckpointManager {
 public:
  CheckpointManager(DiskPageFile* disk, Wal* wal, size_t every_commits)
      : disk_(disk), wal_(wal), every_commits_(every_commits) {}

  /// Makes everything logged so far durable in the base file and empties
  /// the WAL (protocol invariant 3 above). Unavailable while any page's
  /// memory copy is invalid (quarantined since Open, not yet repaired):
  /// truncating the WAL then would destroy the only redo images that can
  /// still heal those pages.
  Status Checkpoint();

  /// Checkpoints when the configured commit cadence is due; silently
  /// deferred while unrepaired quarantined pages pin the WAL.
  Status MaybeCheckpoint(uint64_t committed_batches);

  uint64_t checkpoints_taken() const { return checkpoints_; }

 private:
  DiskPageFile* disk_;
  Wal* wal_;
  size_t every_commits_;
  uint64_t checkpoints_ = 0;
};

/// A durable page store: the PageStore any index builds onto, plus the
/// commit/checkpoint surface that makes its state crash-recoverable.
/// Single-threaded on the mutation side, like every PageStore; the
/// concurrent read path (pages::ResidentReader over the resident
/// pages) is unchanged.
class DurableStore {
 public:
  /// Creates a fresh store (truncating both files).
  static Result<std::unique_ptr<DurableStore>> Create(
      const std::string& base_path, const std::string& wal_path,
      StoreOptions options);

  /// Adopts already-constructed parts; used by RecoveryManager. Prefer
  /// Create/Recover. `last_commit_tag` seeds both tag counters (after
  /// Create or a recovery the WAL starts empty-or-about-to-be-folded,
  /// so the checkpoint horizon and the newest tag coincide).
  DurableStore(std::unique_ptr<DiskPageFile> disk, std::unique_ptr<Wal> wal,
               StoreOptions options, uint64_t committed_batches,
               uint64_t last_commit_tag = 0);

  /// The substrate indexes build onto and serve from.
  pages::PageStore* pages() { return disk_.get(); }
  DiskPageFile* disk() { return disk_.get(); }
  const DiskPageFile* disk() const { return disk_.get(); }
  Wal* wal() { return wal_.get(); }
  const Wal* wal() const { return wal_.get(); }

  /// Logs everything changed since the previous commit (allocations,
  /// then full post-write page images) as one atomic WAL batch closed by
  /// a kCommit record carrying `tag`, then makes it durable with one WAL
  /// fsync before returning; a batch is recovered all-or-nothing. The tag
  /// of the newest durable batch is reported by recovery, so callers can
  /// use it to identify how much logical work survived a crash.
  /// A *clean* out-of-space failure (kResourceExhausted: the failing
  /// record landed nothing, and the batch's earlier records form a
  /// prefix with no kCommit) puts the drained dirty/allocation tracking
  /// back, so the same changes are re-logged by the next CommitBatch
  /// once space returns — the store stays consistent and retryable.
  /// Recovery either discards that prefix as an uncommitted tail or
  /// applies it ahead of the retried batch's identical images (page
  /// images are absolute, allocations idempotent). Any other failure means
  /// the log's fd has fail-stopped and only crash recovery can continue.
  Status CommitBatch(uint64_t tag);
  Status CommitBatch() { return CommitBatch(committed_batches_ + 1); }

  /// Forces the fuzzy checkpoint protocol now.
  Status Checkpoint() {
    BW_RETURN_IF_ERROR(checkpointer_.Checkpoint());
    checkpoint_tag_.store(last_commit_tag_.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
    return Status::OK();
  }

  /// What one RepairQuarantined() pass accomplished.
  struct RepairReport {
    /// Pages whose memory copy was valid: frame rewritten from memory.
    uint64_t repaired_from_memory = 0;
    /// Pages healed by re-reading a frame that was only transiently
    /// unreadable at Open.
    uint64_t repaired_from_disk = 0;
    /// Pages healed from the newest committed WAL redo image.
    uint64_t repaired_from_wal = 0;
    /// Pages still quarantined after the pass (no WAL image exists, or
    /// the rewrite could not be verified); later passes retry them.
    uint64_t unrepaired = 0;
  };

  /// On-demand repair: returns every quarantined page to service that
  /// can be healed, preferring the in-memory copy (disk rot under a
  /// valid page) and falling back to a WAL scan for pages quarantined at
  /// Open. Safe to run from a background thread while queries serve —
  /// it only rewrites frames of pages the health registry already gates
  /// and replaces page bytes only for pages that were never readable.
  Status RepairQuarantined(RepairReport* report = nullptr);

  uint64_t committed_batches() const { return committed_batches_; }
  const CheckpointManager& checkpointer() const { return checkpointer_; }

  // --- Catch-up surface (WAL shipping; see storage/wal_ship.h) ---------

  /// Application tag of the newest durable batch (0 before the first
  /// commit; adopted from the recovery summary after a crash). Atomic so
  /// a catch-up driver can poll position without the mutator's locks.
  uint64_t last_commit_tag() const {
    return last_commit_tag_.load(std::memory_order_relaxed);
  }

  /// Tag of the newest batch folded into the base file by a checkpoint:
  /// the WAL-shipping horizon. A target whose own tag is below this can
  /// no longer be caught up from this store's log — the batches it
  /// needs were truncated — and must take the snapshot path instead.
  uint64_t checkpoint_tag() const {
    return checkpoint_tag_.load(std::memory_order_relaxed);
  }

 private:
  /// Appends the batch's alloc/image/commit records and syncs them;
  /// factored out so CommitBatch can restore the drained tracking on a
  /// clean failure.
  Status AppendBatchRecords(const std::vector<pages::PageId>& allocs,
                            const std::vector<pages::PageId>& dirty,
                            uint64_t tag);

  std::unique_ptr<DiskPageFile> disk_;
  std::unique_ptr<Wal> wal_;
  StoreOptions options_;
  CheckpointManager checkpointer_;
  uint64_t committed_batches_ = 0;
  std::atomic<uint64_t> last_commit_tag_{0};
  std::atomic<uint64_t> checkpoint_tag_{0};
};

/// ARIES-lite redo recovery: rebuilds a DurableStore from the base file
/// and WAL left behind by a crash.
class RecoveryManager {
 public:
  struct Summary {
    uint64_t committed_batches = 0;  // whole batches redone from the WAL.
    uint64_t last_commit_tag = 0;    // tag of the newest durable batch.
    uint64_t records_applied = 0;    // alloc/page-image records redone.
    uint64_t records_discarded = 0;  // records of the uncommitted tail.
    bool wal_tail_truncated = false;  // torn tail detected and dropped.
    uint64_t recovered_lsn = 0;       // durable state as of this LSN.
    uint64_t pages_quarantined = 0;   // unrepaired suspects (tolerant mode).
  };

  /// Replays committed WAL batches over the checkpointed base, verifies
  /// every page checksum, then re-checkpoints so the returned store
  /// starts from a clean base and an empty log. A clean open (no batch
  /// applied, no record discarded, no torn tail, no suspect frame)
  /// writes nothing to either file. DataLoss if corruption
  /// is detected that redo cannot repair — unless
  /// StoreOptions::quarantine_unrepaired is set, in which case the store
  /// opens degraded with those pages quarantined and the WAL preserved
  /// for RepairQuarantined.
  static Result<std::unique_ptr<DurableStore>> Recover(
      const std::string& base_path, const std::string& wal_path,
      StoreOptions options, Summary* summary = nullptr);
};

}  // namespace bw::storage

#endif  // BLOBWORLD_STORAGE_STORE_H_
