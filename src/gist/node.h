// GiST node layout on a Page.
//
// Every record in the page is one entry: [predicate bytes | 8-byte
// payload]. At the leaf level the predicate is an encoded point and the
// payload is the RID of the data record; at internal levels the predicate
// is an AM-specific BP and the payload is the child page id.
//
// Page header words: [0] = node level (0 = leaf), [1] = magic.

#ifndef BLOBWORLD_GIST_NODE_H_
#define BLOBWORLD_GIST_NODE_H_

#include <cstdint>
#include <cstring>

#include "gist/extension.h"
#include "pages/page.h"

namespace bw::gist {

using Rid = uint64_t;

/// One decoded entry (zero-copy view into the page).
struct EntryView {
  ByteSpan predicate;
  uint64_t payload = 0;

  pages::PageId ChildPage() const {
    return static_cast<pages::PageId>(payload);
  }
  Rid rid() const { return payload; }
};

/// Typed accessor over a Page holding GiST entries. NodeView does not own
/// the page; it is a cheap cursor created around a fetched page.
class NodeView {
 public:
  explicit NodeView(pages::Page* page) : page_(page) {
    BW_CHECK(page != nullptr);
  }

  static constexpr uint32_t kMagic = 0x47695354;  // "GiST"

  /// Initializes header words on a freshly allocated page.
  void Format(int level) {
    page_->Clear();
    page_->set_header_word(0, static_cast<uint32_t>(level));
    page_->set_header_word(1, kMagic);
  }

  bool IsFormatted() const { return page_->header_word(1) == kMagic; }
  int level() const { return static_cast<int>(page_->header_word(0)); }
  bool IsLeaf() const { return level() == 0; }

  size_t entry_count() const { return page_->slot_count(); }

  EntryView entry(size_t i) const {
    const uint8_t* data = page_->RecordData(i);
    const size_t len = page_->RecordLength(i);
    BW_CHECK_GE(len, sizeof(uint64_t));
    EntryView out;
    out.predicate = ByteSpan(data, len - sizeof(uint64_t));
    std::memcpy(&out.payload, data + len - sizeof(uint64_t),
                sizeof(uint64_t));
    return out;
  }

  /// Appends an entry; NoSpace if the page is full.
  Status Append(ByteSpan predicate, uint64_t payload);

  /// Removes entry i (later entries shift down).
  Status Erase(size_t i) { return page_->Erase(i); }

  /// Replaces the predicate of entry i, keeping its payload.
  Status UpdatePredicate(size_t i, ByteSpan predicate);

  /// Could one more entry with this predicate size fit?
  bool HasRoomFor(size_t predicate_bytes) const {
    return page_->FreeSpace() >= predicate_bytes + sizeof(uint64_t);
  }

  double Utilization() const { return page_->Utilization(); }

  pages::Page* page() { return page_; }
  const pages::Page* page() const { return page_; }

 private:
  pages::Page* page_;
};

}  // namespace bw::gist

#endif  // BLOBWORLD_GIST_NODE_H_
