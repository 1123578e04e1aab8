// The serving read path. Every PageStore implementation keeps its pages
// in RAM (pages::PageFile, and storage::DiskPageFile once Open has
// loaded the frames), so a concurrent query needs no cache in front of
// the store: it reads each node straight through the const PeekNoIo
// path. What the reader adds are the three checks a served fetch must
// pass — the store's ReadHealth quarantine gate, the page-id range
// check, and the query's deadline — plus per-reader counters.
//
// Thread-safety: a ResidentReader is single-threaded (one per query);
// any number of them may read one store concurrently, provided no
// thread is inside PageStore::Allocate/Write/Read meanwhile (the
// audited serving contract in page_store.h).

#ifndef BLOBWORLD_PAGES_RESIDENT_READER_H_
#define BLOBWORLD_PAGES_RESIDENT_READER_H_

#include <chrono>
#include <cstdint>

#include "pages/page_reader.h"
#include "pages/page_store.h"

namespace bw::pages {

class ResidentReader final : public PageReader {
 public:
  using Clock = std::chrono::steady_clock;

  explicit ResidentReader(const PageStore* store);

  /// Serves `id` from the resident store: Unavailable while the page is
  /// quarantined, InvalidArgument past the end of the store, Aborted
  /// once the deadline has passed. Each served fetch counts as a hit.
  Result<Page*> Fetch(PageId id) override;

  /// Fails every later Fetch at or past `deadline` with Aborted, which
  /// bounds a traversal to one node visit past its deadline.
  void set_deadline(Clock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_ = true;
  }

  /// Fetches refused by the deadline.
  uint64_t deadline_expirations() const { return deadline_expirations_; }

  /// hits = fetches served; misses and evictions stay 0 (nothing is
  /// ever out of memory).
  const BufferStats& stats() const { return stats_; }

 private:
  const PageStore* store_;
  bool has_deadline_ = false;
  Clock::time_point deadline_{};
  uint64_t deadline_expirations_ = 0;
  BufferStats stats_;
};

}  // namespace bw::pages

#endif  // BLOBWORLD_PAGES_RESIDENT_READER_H_
