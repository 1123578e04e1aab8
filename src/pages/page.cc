#include "pages/page.h"

#include <algorithm>

namespace bw::pages {

Page::Page(size_t size) : data_(size, 0) {
  BW_CHECK_GE(size, 512u);
}

size_t Page::FreeSpace() const {
  const size_t dir = SlotDirBytes(slots_.size() + 1);
  const size_t used = record_tail_;
  if (used + dir >= data_.size()) return 0;
  return data_.size() - used - dir;
}

size_t Page::UsedBytes() const {
  return live_bytes_ + SlotDirBytes(slots_.size());
}

Result<size_t> Page::Insert(const void* bytes, size_t length) {
  if (length > FreeSpace()) {
    // A hole left by Erase/Update may still make room.
    if (live_bytes_ + SlotDirBytes(slots_.size() + 1) + length <=
        data_.size()) {
      Compact();
    }
    if (length > FreeSpace()) {
      return Status::NoSpace("record does not fit in page");
    }
  }
  Slot slot;
  slot.offset = static_cast<uint32_t>(record_tail_);
  slot.length = static_cast<uint32_t>(length);
  std::memcpy(data_.data() + record_tail_, bytes, length);
  record_tail_ += length;
  live_bytes_ += length;
  slots_.push_back(slot);
  return slots_.size() - 1;
}

Status Page::Erase(size_t slot) {
  if (slot >= slots_.size()) {
    return Status::InvalidArgument("slot out of range");
  }
  live_bytes_ -= slots_[slot].length;
  slots_.erase(slots_.begin() + static_cast<ptrdiff_t>(slot));
  return Status::OK();
}

Status Page::Update(size_t slot, const void* bytes, size_t length) {
  if (slot >= slots_.size()) {
    return Status::InvalidArgument("slot out of range");
  }
  Slot& s = slots_[slot];
  if (length <= s.length) {
    std::memcpy(data_.data() + s.offset, bytes, length);
    live_bytes_ -= s.length - length;
    s.length = static_cast<uint32_t>(length);
    return Status::OK();
  }
  // Need a fresh extent: logically erase, then re-insert at same index.
  const size_t needed = length - s.length;
  const size_t dir = SlotDirBytes(slots_.size());
  if (live_bytes_ + needed + dir > data_.size()) {
    return Status::NoSpace("updated record does not fit in page");
  }
  live_bytes_ -= s.length;
  s.length = 0;
  if (record_tail_ + length + dir > data_.size()) Compact();
  s.offset = static_cast<uint32_t>(record_tail_);
  s.length = static_cast<uint32_t>(length);
  std::memcpy(data_.data() + record_tail_, bytes, length);
  record_tail_ += length;
  live_bytes_ += length;
  return Status::OK();
}

void Page::Clear() {
  slots_.clear();
  record_tail_ = 0;
  live_bytes_ = 0;
}

void Page::Compact() {
  std::vector<uint8_t> fresh(data_.size(), 0);
  size_t tail = 0;
  for (Slot& s : slots_) {
    std::memcpy(fresh.data() + tail, data_.data() + s.offset, s.length);
    s.offset = static_cast<uint32_t>(tail);
    tail += s.length;
  }
  data_ = std::move(fresh);
  record_tail_ = tail;
}

}  // namespace bw::pages
