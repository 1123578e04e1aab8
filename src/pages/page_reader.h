// The read-path page access interface: the single-threaded LRU
// BufferPool the paper's page-access experiments read through, and the
// ResidentReader the concurrent query service serves through. gist::Tree's
// searches take a PageReader*, so the traversal layer costs one virtual
// call per *node*, not per entry, regardless of which reader serves it.

#ifndef BLOBWORLD_PAGES_PAGE_READER_H_
#define BLOBWORLD_PAGES_PAGE_READER_H_

#include <cstdint>

#include "pages/page.h"
#include "util/status.h"

namespace bw::pages {

/// Page-read counters kept by a reader for the fetches made through it.
struct BufferStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;

  double HitRate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
  void Reset() { *this = BufferStats(); }
};

/// A page-read path.
///
/// Failure modes a reader surfaces to the traversal layer:
///  - Unavailable: the store quarantined this page (ReadHealth gate,
///    every reader); degraded-mode traversal may skip the subtree and
///    flag it.
///  - Aborted: the query's deadline passed before this fetch
///    (ResidentReader); never skipped, always ends the query.
class PageReader {
 public:
  virtual ~PageReader() = default;

  /// Fetches a page.
  virtual Result<Page*> Fetch(PageId id) = 0;
};

}  // namespace bw::pages

#endif  // BLOBWORLD_PAGES_PAGE_READER_H_
