#include "gist/node.h"

#include <cstring>

namespace bw::gist {

Status NodeView::Append(ByteSpan predicate, uint64_t payload) {
  Bytes record(predicate.begin(), predicate.end());
  const size_t offset = record.size();
  record.resize(offset + sizeof(uint64_t));
  std::memcpy(record.data() + offset, &payload, sizeof(uint64_t));
  auto result = page_->Insert(record.data(), record.size());
  if (!result.ok()) return result.status();
  return Status::OK();
}

Status NodeView::UpdatePredicate(size_t i, ByteSpan predicate) {
  if (i >= page_->slot_count()) {
    return Status::InvalidArgument("entry index out of range");
  }
  const uint64_t payload = entry(i).payload;
  Bytes record(predicate.begin(), predicate.end());
  const size_t offset = record.size();
  record.resize(offset + sizeof(uint64_t));
  std::memcpy(record.data() + offset, &payload, sizeof(uint64_t));
  return page_->Update(i, record.data(), record.size());
}

}  // namespace bw::gist
