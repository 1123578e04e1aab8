#include "pages/buffer_pool.h"

#include "util/logging.h"

namespace bw::pages {

BufferPool::BufferPool(PageStore* file, size_t capacity)
    : file_(file), capacity_(capacity) {
  BW_CHECK(file != nullptr);
}

Result<Page*> BufferPool::Fetch(PageId id) {
  // Quarantine gate: a sick page is unfit to serve even on a cache hit.
  BW_RETURN_IF_ERROR(file_->ReadHealth(id));
  auto it = resident_.find(id);
  if (it != resident_.end()) {
    ++stats_.hits;
    Touch(id);
    return file_->PeekNoIo(id);
  }
  ++stats_.misses;
  BW_ASSIGN_OR_RETURN(Page* page, file_->Read(id));
  if (capacity_ > 0) InsertResident(id);
  return page;
}

void BufferPool::Prime(PageId id) {
  if (capacity_ == 0) return;
  if (resident_.count(id)) {
    Touch(id);
    return;
  }
  InsertResident(id);
}

void BufferPool::Clear() {
  lru_.clear();
  resident_.clear();
}

void BufferPool::Touch(PageId id) {
  auto it = resident_.find(id);
  BW_DCHECK(it != resident_.end());
  lru_.erase(it->second);
  lru_.push_front(id);
  it->second = lru_.begin();
}

void BufferPool::InsertResident(PageId id) {
  if (resident_.size() >= capacity_) {
    PageId victim = lru_.back();
    lru_.pop_back();
    resident_.erase(victim);
    ++stats_.evictions;
  }
  lru_.push_front(id);
  resident_[id] = lru_.begin();
}

}  // namespace bw::pages
