#include "pages/resident_reader.h"

#include "util/logging.h"

namespace bw::pages {

ResidentReader::ResidentReader(const PageStore* store) : store_(store) {
  BW_CHECK(store != nullptr);
}

Result<Page*> ResidentReader::Fetch(PageId id) {
  if (has_deadline_ && Clock::now() >= deadline_) {
    ++deadline_expirations_;
    return Status::Aborted("query deadline expired before a page fetch");
  }
  BW_RETURN_IF_ERROR(store_->ReadHealth(id));
  if (id >= store_->page_count()) {
    return Status::InvalidArgument("page id out of range");
  }
  ++stats_.hits;
  // PageReader hands out Page*, but the traversal only reads through it.
  return const_cast<Page*>(store_->PeekNoIo(id));
}

}  // namespace bw::pages
