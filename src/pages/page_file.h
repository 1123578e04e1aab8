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

/// The in-memory PageStore: a growable table of Pages in shared
/// ownership, with read accounting. This is the experiment/bench
/// substrate; the durable, file-backed implementation is
/// storage::DiskPageFile.
///
/// Thread-safety contract (the one in page_store.h):
///  - Read(), Write(), Allocate() and PeekNoIo() belong to the one
///    mutator thread: Read() mutates the shared IoStats counters and the
///    sequential-read tracker, Write() may replace a shared page with its
///    copy, and Allocate() may grow the table.
///  - Concurrent readers read a pinned version's copy of the table
///    through pages::ResidentReader, which counts each fetch in the
///    reader's own BufferStats, never in the shared IoStats.
///
/// Debug builds enforce the mutator's side with atomic occupancy
/// counters: a mutating call (Read/Write/Allocate) overlapping another
/// mutating call or an in-flight PeekNoIo aborts with a CHECK failure
/// instead of silently racing. The counters compile out under NDEBUG.
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

  /// Access without I/O accounting (validation and debugging tools,
  /// which must not perturb the measured workload).
  Page* PeekNoIo(PageId id) override;
  const Page* PeekNoIo(PageId id) const override;
  const PageTable& page_table() const override { return pages_; }

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
  PageTable pages_;
  IoStats stats_;
  PageId last_read_ = kInvalidPageId;
};

}  // namespace bw::pages

#endif  // BLOBWORLD_PAGES_PAGE_FILE_H_
