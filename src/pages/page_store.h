// The abstract page-store surface every index substrate implements.
//
// The GiST layer (gist::Tree), the bulk loaders, and the buffer pool all
// talk to storage through this interface, so the same tree code runs
// over the purely in-memory pages::PageFile (the bench/experiment
// substrate) and the durable storage::DiskPageFile (file-backed pages
// with checksums and a write-ahead log underneath).
//
// Contract shared by all implementations:
//  - Pages are held in shared ownership: the store's PageTable is the
//    mutator's, and a published tree version (gist::TreeVersion) holds
//    a copy of it. Write(id) first copies a page that any other table
//    still holds (copy-on-write), so a page a published version holds
//    never changes; a page is freed when the last table holding it
//    goes. Page objects never move, so a Page* stays valid while any
//    table holds the page.
//  - Read()/Write()/Allocate()/PeekNoIo() and page_table() belong to
//    one mutator thread (the build path, or the query service's writer).
//  - Concurrent readers never touch the store's table: each reads a
//    pinned version's copy through pages::ResidentReader, so the
//    mutator needs no lock against them.
//  - ReadHealth() is thread-safe.

#ifndef BLOBWORLD_PAGES_PAGE_STORE_H_
#define BLOBWORLD_PAGES_PAGE_STORE_H_

#include <memory>
#include <vector>

#include "pages/page.h"
#include "util/status.h"

namespace bw::pages {

/// I/O counters accumulated by a page store.
struct IoStats {
  uint64_t reads = 0;
  uint64_t sequential_reads = 0;
  uint64_t random_reads = 0;
  uint64_t writes = 0;

  void Reset() { *this = IoStats(); }
};

/// Every page of a store, by id, in shared ownership (see the contract
/// above).
using PageTable = std::vector<std::shared_ptr<Page>>;

/// A growable array of Pages with read/write accounting.
class PageStore {
 public:
  virtual ~PageStore() = default;

  virtual size_t page_size() const = 0;
  virtual size_t page_count() const = 0;

  /// Allocates a fresh page and returns its id.
  virtual PageId Allocate() = 0;

  /// Fetches a page for reading, counting one read I/O.
  virtual Result<Page*> Read(PageId id) = 0;

  /// Fetches a page for writing, counting one write I/O. All intended
  /// page mutations go through this call: it copies a page another
  /// table still holds, and implementations may track dirty pages here.
  virtual Result<Page*> Write(PageId id) = 0;

  /// Access without I/O accounting (validation, analysis, logging).
  virtual Page* PeekNoIo(PageId id) = 0;
  virtual const Page* PeekNoIo(PageId id) const = 0;

  /// The store's current page table; a version's copy of it is what
  /// concurrent readers read.
  virtual const PageTable& page_table() const = 0;

  /// Serving-path health gate: OK when the page is fit to serve,
  /// Unavailable while it is quarantined pending repair. Thread-safe.
  /// Stores without a failure mode (the in-memory PageFile) are always
  /// healthy.
  virtual Status ReadHealth(PageId /*id*/) const { return Status::OK(); }

  virtual const IoStats& stats() const = 0;
  virtual void ResetStats() = 0;
};

}  // namespace bw::pages

#endif  // BLOBWORLD_PAGES_PAGE_STORE_H_
