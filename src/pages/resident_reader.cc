#include "pages/resident_reader.h"

#include "util/logging.h"

namespace bw::pages {

ResidentReader::ResidentReader(const PageStore* store, const PageTable* table)
    : store_(store), table_(table) {
  BW_CHECK(store != nullptr);
  BW_CHECK(table != nullptr);
}

Result<Page*> ResidentReader::Fetch(PageId id) {
  if (has_deadline_ && Clock::now() >= deadline_) {
    ++deadline_expirations_;
    return Status::Aborted("query deadline expired before a page fetch");
  }
  BW_RETURN_IF_ERROR(store_->ReadHealth(id));
  if (id >= table_->size()) {
    return Status::InvalidArgument("page id out of range");
  }
  ++stats_.hits;
  return (*table_)[id].get();
}

}  // namespace bw::pages
