// In-memory "disk" of pages with I/O accounting. Every page read is
// classified as sequential (page id == previous id + 1) or random, so the
// scan-vs-index break-even analysis of Section 3.2 can be computed from
// measured counters rather than assumed.

#ifndef BLOBWORLD_PAGES_PAGE_FILE_H_
#define BLOBWORLD_PAGES_PAGE_FILE_H_

#include <atomic>
#include <memory>
#include <vector>

#include "pages/page.h"
#include "pages/page_store.h"
#include "util/status.h"

namespace bw::pages {

/// The in-memory PageStore: a growable array of Pages owned by the file,
/// with read accounting. This is the experiment/bench substrate; the
/// durable, file-backed implementation is storage::DiskPageFile.
///
/// Thread-safety contract (audited for the concurrent query service):
///  - Read() and Write() mutate the shared IoStats counters and the
///    sequential-read tracker, so they are single-threaded — they belong
///    to the build/bench path, never to concurrent query execution.
///  - PeekNoIo() is a pure read and safe from any number of threads,
///    provided no thread calls Allocate() concurrently (Allocate may
///    grow the page table; page contents themselves never move).
///  - Concurrent readers therefore go through pages::ResidentReader,
///    which serves every fetch via PeekNoIo and counts it in the
///    reader's own BufferStats, never in the shared IoStats.
///
/// Debug builds enforce the contract with atomic occupancy counters:
/// a mutating call (Read/Write/Allocate) overlapping another mutating
/// call or an in-flight PeekNoIo aborts with a CHECK failure instead of
/// silently racing. The counters compile out under NDEBUG, keeping the
/// serving hot path free of shared writes.
class PageFile final : public PageStore {
 public:
  explicit PageFile(size_t page_size = kDefaultPageSize)
      : page_size_(page_size) {}

  PageFile(const PageFile&) = delete;
  PageFile& operator=(const PageFile&) = delete;

  size_t page_size() const override { return page_size_; }
  size_t page_count() const override { return pages_.size(); }

  PageId Allocate() override;
  Result<Page*> Read(PageId id) override;
  Result<Page*> Write(PageId id) override;

  /// Access without I/O accounting (for validation, debugging tools, and
  /// the concurrent read path, which must not perturb the measured
  /// workload).
  Page* PeekNoIo(PageId id) override;
  const Page* PeekNoIo(PageId id) const override;

  const IoStats& stats() const override { return stats_; }
  void ResetStats() override {
    stats_.Reset();
    last_read_ = kInvalidPageId;
  }

 private:
  Status CheckId(PageId id) const;

#ifndef NDEBUG
  /// Occupancy counters for the debug-mode contract check: number of
  /// threads currently inside a mutating call / inside PeekNoIo.
  mutable std::atomic<int> active_mutators_{0};
  mutable std::atomic<int> active_peekers_{0};
#endif

  size_t page_size_;
  std::vector<std::unique_ptr<Page>> pages_;
  IoStats stats_;
  PageId last_read_ = kInvalidPageId;
};

}  // namespace bw::pages

#endif  // BLOBWORLD_PAGES_PAGE_FILE_H_
