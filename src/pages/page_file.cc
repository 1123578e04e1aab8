#include "pages/page_file.h"

namespace bw::pages {

#ifndef NDEBUG
namespace {

// RAII occupancy markers for the documented thread contract. A mutator
// (Read/Write/Allocate) must be alone: no concurrent mutator, no
// in-flight PeekNoIo. Any number of peekers may overlap each other.
// The counters are a best-effort race detector — a violating schedule
// is aborted when the overlap is observed, which is exactly when it
// would have raced on the non-atomic stats/page-table state.
struct MutatorScope {
  MutatorScope(std::atomic<int>& mutators, const std::atomic<int>& peekers)
      : mutators_(mutators) {
    const int prior = mutators_.fetch_add(1, std::memory_order_acq_rel);
    BW_CHECK_MSG(prior == 0,
                 "PageFile contract violation: concurrent Read/Write/"
                 "Allocate calls");
    BW_CHECK_MSG(peekers.load(std::memory_order_acquire) == 0,
                 "PageFile contract violation: Read/Write/Allocate while "
                 "PeekNoIo readers are in flight");
  }
  ~MutatorScope() { mutators_.fetch_sub(1, std::memory_order_acq_rel); }
  std::atomic<int>& mutators_;
};

struct PeekerScope {
  PeekerScope(const std::atomic<int>& mutators, std::atomic<int>& peekers)
      : peekers_(peekers) {
    peekers_.fetch_add(1, std::memory_order_acq_rel);
    BW_CHECK_MSG(mutators.load(std::memory_order_acquire) == 0,
                 "PageFile contract violation: PeekNoIo while a Read/"
                 "Write/Allocate call is in flight");
  }
  ~PeekerScope() { peekers_.fetch_sub(1, std::memory_order_acq_rel); }
  std::atomic<int>& peekers_;
};

}  // namespace
#define BW_PAGEFILE_MUTATOR_SCOPE() \
  MutatorScope _contract_scope(active_mutators_, active_peekers_)
#define BW_PAGEFILE_PEEKER_SCOPE() \
  PeekerScope _contract_scope(active_mutators_, active_peekers_)
#else
#define BW_PAGEFILE_MUTATOR_SCOPE() \
  do {                              \
  } while (0)
#define BW_PAGEFILE_PEEKER_SCOPE() \
  do {                             \
  } while (0)
#endif

PageId PageFile::Allocate() {
  BW_PAGEFILE_MUTATOR_SCOPE();
  pages_.push_back(std::make_shared<Page>(page_size_));
  return static_cast<PageId>(pages_.size() - 1);
}

Status PageFile::CheckId(PageId id) const {
  if (id >= pages_.size()) {
    return Status::InvalidArgument("page id out of range");
  }
  return Status::OK();
}

Result<Page*> PageFile::Read(PageId id) {
  BW_PAGEFILE_MUTATOR_SCOPE();
  BW_RETURN_IF_ERROR(CheckId(id));
  ++stats_.reads;
  if (last_read_ != kInvalidPageId && id == last_read_ + 1) {
    ++stats_.sequential_reads;
  } else {
    ++stats_.random_reads;
  }
  last_read_ = id;
  return pages_[id].get();
}

Result<Page*> PageFile::Write(PageId id) {
  BW_PAGEFILE_MUTATOR_SCOPE();
  BW_RETURN_IF_ERROR(CheckId(id));
  ++stats_.writes;
  // Copy-on-write: a page another table holds is replaced, never changed.
  if (pages_[id].use_count() > 1) {
    pages_[id] = std::make_shared<Page>(*pages_[id]);
  }
  return pages_[id].get();
}

Page* PageFile::PeekNoIo(PageId id) {
  BW_PAGEFILE_PEEKER_SCOPE();
  BW_CHECK_LT(id, pages_.size());
  return pages_[id].get();
}

const Page* PageFile::PeekNoIo(PageId id) const {
  BW_PAGEFILE_PEEKER_SCOPE();
  BW_CHECK_LT(id, pages_.size());
  return pages_[id].get();
}

}  // namespace bw::pages
