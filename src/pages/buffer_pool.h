// LRU buffer pool over a PageStore. Section 6 of the paper argues that
// XJB beats JB once inner nodes must fit in a memory budget; the buffer
// pool makes that argument measurable: hits are free, misses are charged
// to the underlying file's I/O counters.

#ifndef BLOBWORLD_PAGES_BUFFER_POOL_H_
#define BLOBWORLD_PAGES_BUFFER_POOL_H_

#include <list>
#include <unordered_map>

#include "pages/page_reader.h"
#include "pages/page_store.h"

namespace bw::pages {

/// Simple LRU cache of page ids. The pool does not copy page contents
/// (every PageStore keeps its pages resident); it only models which pages would
/// be resident, which is all the experiments need.
///
/// Thread-safety: a BufferPool is single-threaded, and every miss reads
/// through PageStore::Read, which mutates the store's shared IoStats. It
/// belongs to the experiment path (buffer_effects, scan_break_even,
/// amdb); concurrent queries read through pages::ResidentReader instead.
class BufferPool : public PageReader {
 public:
  /// `capacity` = number of resident pages; 0 means "cache nothing".
  BufferPool(PageStore* file, size_t capacity);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  size_t capacity() const { return capacity_; }

  /// Fetches a page through the cache: a hit costs no file I/O, a miss
  /// reads through to the file (incrementing its IoStats). A quarantined
  /// page fails with Unavailable even when resident.
  Result<Page*> Fetch(PageId id) override;

  /// Pre-loads a page without counting a miss (used to model "inner
  /// nodes are pinned in memory" scenarios).
  void Prime(PageId id);

  /// Drops all cached pages.
  void Clear();

  const BufferStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

 private:
  void Touch(PageId id);
  void InsertResident(PageId id);

  PageStore* file_;
  size_t capacity_;
  std::list<PageId> lru_;  // front = most recent.
  std::unordered_map<PageId, std::list<PageId>::iterator> resident_;
  BufferStats stats_;
};

}  // namespace bw::pages

#endif  // BLOBWORLD_PAGES_BUFFER_POOL_H_
