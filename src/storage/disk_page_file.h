// The durable PageStore: file-backed pages with per-frame CRC32
// checksums. Pages stay resident in memory, in shared ownership with
// copy-on-write (the contract in pages/page_store.h, identical to
// pages::PageFile), but every page has a home frame in a base file,
// mutations are tracked for WAL logging, and checkpoints/recovery move
// state between memory and disk.
//
// Base file layout:
//
//   [header slot A: 64 B][header slot B: 64 B][frame 0][frame 1]...
//
// Headers are written alternately (ping-pong) with a monotonically
// increasing epoch and a CRC, so a crash mid-header-write can never
// brick the store: the other slot still holds the previous durable
// header. Each page frame is `page_size + 32` bytes:
//
//   [u32 encoded_len][page_codec image][u32 crc32 over len+image][pad]
//
// DiskPageFile does not log or checkpoint by itself — that is the job of
// storage::DurableStore / CheckpointManager / RecoveryManager, which
// drive the dirty-page tracking exposed here. Opening a base file never
// fails on a checksum mismatch alone: bad frames are parked in
// suspect_pages() so recovery can repair them from WAL redo images, and
// only an unrepaired suspect page is an error (see RecoveryManager).
//
// Self-healing read path (this layer's share of it):
//  - Every disk read goes through a bounded retry loop (exponential
//    backoff, deterministic jitter) so transient faults (kUnavailable
//    from File::ReadAt) are absorbed; only exhaustion or a permanent
//    verdict surfaces to the caller.
//  - A PageHealth registry tracks pages unfit to serve. Two ways in:
//    a frame that fails its CRC at Open (memory copy is also invalid —
//    only a WAL redo image can repair it), and a frame that fails
//    verification during Scrub() (disk rot under a still-valid memory
//    copy — RepairFromMemory rewrites the frame and releases the page).
//  - ReadHealth(id) is the serving path's gate: pages::ResidentReader
//    asks it before trusting the memory-resident page, so quarantine
//    turns into degraded (partial-but-flagged) query answers upstream.
//  - Repairs run on a caller's thread and write the repaired image in
//    place, into the page object the published version holds: readers
//    are gated off a quarantined page, and a copy would never reach
//    them. Catch-up's ApplyPageImage, by contrast, copies on write.

#ifndef BLOBWORLD_STORAGE_DISK_PAGE_FILE_H_
#define BLOBWORLD_STORAGE_DISK_PAGE_FILE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "pages/page_store.h"
#include "storage/file_io.h"
#include "storage/page_health.h"
#include "util/status.h"

namespace bw::storage {

/// Bounded retry for transient (kUnavailable) disk-read faults. Backoff
/// doubles per attempt up to max_backoff_us, plus a deterministic jitter
/// derived from (seed, page id, attempt) so concurrent retriers do not
/// march in lockstep yet every test run sleeps the same schedule.
struct ReadRetryPolicy {
  /// Total attempts per read, including the first (1 = no retry).
  int max_attempts = 4;
  /// Backoff before attempt k (k >= 2) is backoff_us << (k - 2), capped.
  uint32_t backoff_us = 100;
  uint32_t max_backoff_us = 5000;
  uint64_t jitter_seed = 0x9e3779b97f4a7c15ull;
};

struct DiskPageFileOptions {
  FaultInjector* injector = nullptr;
  ReadRetryPolicy read_retry;
};

/// What one Scrub() pass over the base file found and did.
struct ScrubReport {
  uint64_t frames_checked = 0;
  /// Frames newly quarantined this pass (CRC/decode failure on disk).
  uint64_t frames_quarantined = 0;
  /// Frames that could not be checked (transient faults outlasted the
  /// retry budget); not quarantined — the next pass will retry them.
  uint64_t frames_unreadable = 0;
};

class DiskPageFile final : public pages::PageStore {
 public:
  /// Creates a fresh, empty store at `path` (truncating any existing
  /// file) and makes its header durable.
  static Result<std::unique_ptr<DiskPageFile>> Create(
      const std::string& path, size_t page_size,
      DiskPageFileOptions options = DiskPageFileOptions());

  /// Opens an existing store and loads every page frame, verifying
  /// checksums. Frames that fail verification become empty pages listed
  /// in suspect_pages(); DataLoss only if no valid header survives.
  /// NotFound if `path` does not exist (nothing is created).
  static Result<std::unique_ptr<DiskPageFile>> Open(
      const std::string& path,
      DiskPageFileOptions options = DiskPageFileOptions());

  // --- PageStore surface (same accounting semantics as PageFile) -------

  size_t page_size() const override { return page_size_; }
  size_t page_count() const override { return pages_.size(); }
  pages::PageId Allocate() override;
  Result<pages::Page*> Read(pages::PageId id) override;
  Result<pages::Page*> Write(pages::PageId id) override;
  pages::Page* PeekNoIo(pages::PageId id) override;
  const pages::Page* PeekNoIo(pages::PageId id) const override;
  const pages::PageTable& page_table() const override { return pages_; }
  const pages::IoStats& stats() const override { return stats_; }
  void ResetStats() override {
    stats_.Reset();
    last_read_ = pages::kInvalidPageId;
  }

  /// Serving-path gate: OK for a healthy page, Unavailable while the
  /// page is quarantined pending repair. Thread-safe (lock-free when no
  /// page is quarantined); the range check is the reader's, against the
  /// table it reads.
  Status ReadHealth(pages::PageId id) const override;

  // --- Durability surface (driven by DurableStore and recovery) --------

  /// LSN recorded by the last durable checkpoint header.
  uint64_t checkpoint_lsn() const { return checkpoint_lsn_; }

  /// Drains the pages dirtied / ids allocated since the last drain
  /// (sorted). CommitBatch turns these into WAL records.
  std::vector<pages::PageId> TakeDirtySinceCommit();
  std::vector<pages::PageId> TakeAllocationsSinceCommit();

  /// Drains the set a fuzzy checkpoint must flush: every page dirtied or
  /// allocated since the previous checkpoint.
  std::vector<pages::PageId> TakeCheckpointDirty();

  /// Marks every page dirty-for-checkpoint (recovery uses this to
  /// re-establish a clean base from replayed state).
  void MarkAllDirtyForCheckpoint();

  /// Forgets pending commit tracking (recovery's replay applies images
  /// directly; they must not be re-logged).
  void ClearCommitTracking();

  /// Puts back ids drained by TakeAllocationsSinceCommit /
  /// TakeDirtySinceCommit after a commit that failed *cleanly* (out of
  /// disk space before any log byte landed). Without this the next
  /// successful commit would silently skip those pages and the WAL
  /// would no longer describe the tree it claims to.
  void RestoreCommitTracking(const std::vector<pages::PageId>& allocs,
                             const std::vector<pages::PageId>& dirty);

  /// Puts back ids drained by TakeCheckpointDirty after a checkpoint
  /// whose flush failed before the header advanced: those frames are
  /// stale (or torn) on disk and must be rewritten by the next attempt.
  void RestoreCheckpointTracking(const std::vector<pages::PageId>& ids);

  /// Writes the frames of `ids` to the base file and fsyncs.
  Status FlushPagesAndSync(const std::vector<pages::PageId>& ids);

  /// Publishes a new durable header (page count + `checkpoint_lsn`) via
  /// the alternate slot and fsyncs.
  Status CommitHeader(uint64_t checkpoint_lsn);

  /// Redo hooks (recovery's replay, catch-up's applies): extends the
  /// page table to include `id` / replaces page `id` with a WAL image,
  /// clearing its suspect mark. Copy-on-write: the image goes into a
  /// fresh page when another table still holds the old one. Both are
  /// tracked for the next commit, like Allocate and Write, so a
  /// catch-up apply's commit logs what it applied; recovery clears the
  /// tracking after its replay (ClearCommitTracking).
  Status EnsureAllocated(pages::PageId id);
  Status ApplyPageImage(pages::PageId id, const uint8_t* image, size_t len);

  /// Repair hook: decodes a WAL image into quarantined page `id` in
  /// place (see the file comment) and releases the quarantine.
  Status RepairFromImage(pages::PageId id, const uint8_t* image, size_t len);

  /// Pages whose base frames failed their checksum on Open and have not
  /// been repaired by ApplyPageImage (sorted). These pages' in-memory
  /// copies are invalid (Clear()ed) — only a WAL redo image heals them.
  std::vector<pages::PageId> suspect_pages() const;

  // --- Self-healing surface --------------------------------------------

  /// Re-verifies every frame on disk (with the retry policy), newly
  /// quarantining frames whose stored bytes no longer check out. Safe to
  /// run from a background thread while queries serve from memory.
  Status Scrub(ScrubReport* report = nullptr);

  /// Reads and fully verifies one frame from disk (retrying transient
  /// faults): OK, DataLoss (CRC/decode failure — permanent until
  /// rewritten), or Unavailable (transient faults outlasted the budget).
  Status VerifyFrame(pages::PageId id);

  /// Repairs a quarantined page whose in-memory copy is still valid by
  /// rewriting its frame from memory, re-verifying it, and releasing the
  /// quarantine. InvalidArgument if the memory copy is itself invalid
  /// (suspect from Open — use ReloadFromDisk or the WAL path in
  /// DurableStore instead).
  Status RepairFromMemory(pages::PageId id);

  /// Repairs a page whose in-memory copy is invalid by re-reading its
  /// frame from disk (with retries) — the cure when the frame was
  /// unreadable at Open only because of a transient fault. On a verified
  /// read the memory copy is replaced and the quarantine released;
  /// DataLoss if the frame really is rotten.
  Status ReloadFromDisk(pages::PageId id);

  /// Quarantine registry (shared with callers for metrics).
  const PageHealth& health() const { return health_; }
  PageHealth& health() { return health_; }

  /// True if the in-memory copy of `id` is invalid (frame was bad at
  /// Open and no WAL image has been applied yet).
  bool memory_invalid(pages::PageId id) const {
    return suspect_.count(id) > 0;
  }

  /// Transient read faults absorbed by the retry loop so far.
  uint64_t read_retries() const {
    return read_retries_.load(std::memory_order_relaxed);
  }

  const std::string& path() const { return file_->path(); }

 private:
  DiskPageFile(std::unique_ptr<File> file, size_t page_size)
      : file_(std::move(file)), page_size_(page_size) {}

  size_t frame_bytes() const;
  uint64_t FrameOffset(pages::PageId id) const;
  Status CheckId(pages::PageId id) const;

  /// File::ReadAt wrapped in the bounded retry loop: kUnavailable
  /// results are retried with backoff+jitter; anything else (or
  /// exhaustion) is returned as-is.
  Status ReadWithRetry(uint64_t offset, void* data, size_t n,
                       uint64_t jitter_stream) const;

  /// CRC-checks and decodes one raw frame into `scratch`; OK iff the
  /// frame holds a valid image.
  Status CheckFrame(const uint8_t* frame, size_t frame_len,
                    pages::Page* scratch) const;

  /// Assigns a verified image to page `id` in place and returns the
  /// page to service: the last step of every repair.
  void RepairInPlace(pages::PageId id, const pages::Page& image);

  ReadRetryPolicy retry_;
  mutable std::atomic<uint64_t> read_retries_{0};
  PageHealth health_;

  std::unique_ptr<File> file_;
  size_t page_size_;
  pages::PageTable pages_;
  pages::IoStats stats_;
  pages::PageId last_read_ = pages::kInvalidPageId;

  std::unordered_set<pages::PageId> dirty_commit_;
  std::vector<pages::PageId> alloc_commit_;
  std::unordered_set<pages::PageId> dirty_checkpoint_;
  std::unordered_set<pages::PageId> suspect_;

  uint64_t checkpoint_lsn_ = 0;
  uint64_t header_epoch_ = 0;
  int active_header_slot_ = 0;
};

}  // namespace bw::storage

#endif  // BLOBWORLD_STORAGE_DISK_PAGE_FILE_H_
