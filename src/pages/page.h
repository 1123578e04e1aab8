// Fixed-size page with a slotted record layout. GiST nodes serialize
// their entries into pages so that fanout, utilization and I/O counts in
// the experiments reflect real byte budgets, exactly as in the paper.

#ifndef BLOBWORLD_PAGES_PAGE_H_
#define BLOBWORLD_PAGES_PAGE_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "util/logging.h"
#include "util/status.h"

namespace bw::pages {

using PageId = uint32_t;
inline constexpr PageId kInvalidPageId = 0xFFFFFFFFu;

/// Default page size, matching the paper's 8 KB transfer unit.
inline constexpr size_t kDefaultPageSize = 8192;

/// A page with a slot directory growing from the end and record payloads
/// growing from the front:
///
///   [record0][record1]...      free space      ...[slotN]..[slot1][slot0]
///
/// Slots are (offset, length) pairs. Deleting a slot compacts the slot
/// directory (slot indices shift down), mirroring the behavior of the
/// original GiST page layout where entries are dense.
class Page {
 public:
  explicit Page(size_t size = kDefaultPageSize);

  size_t size() const { return data_.size(); }
  size_t slot_count() const { return slots_.size(); }

  /// Bytes available for one more record (accounts for the new slot).
  size_t FreeSpace() const;

  /// Total bytes consumed by records + slot directory; used for the
  /// utilization metrics.
  size_t UsedBytes() const;

  /// Fraction of the record area in use, in [0, 1].
  double Utilization() const {
    return static_cast<double>(UsedBytes()) / static_cast<double>(size());
  }

  /// Appends a record; returns its slot index or NoSpace.
  Result<size_t> Insert(const void* bytes, size_t length);

  /// Removes the record in `slot`; later slots shift down by one.
  Status Erase(size_t slot);

  /// Replaces the record in `slot` (may grow or shrink). Returns NoSpace
  /// if the new payload does not fit.
  Status Update(size_t slot, const void* bytes, size_t length);

  /// Read-only view of the record in `slot`. Inline: node scans read
  /// every record of every node they visit.
  const uint8_t* RecordData(size_t slot) const {
    BW_CHECK_LT(slot, slots_.size());
    return data_.data() + slots_[slot].offset;
  }
  size_t RecordLength(size_t slot) const {
    BW_CHECK_LT(slot, slots_.size());
    return slots_[slot].length;
  }

  /// Drops all records.
  void Clear();

  /// Page-type tag and auxiliary header word, free for the client (GiST
  /// stores node level and entry-count cross-checks here).
  uint32_t header_word(size_t i) const {
    BW_DCHECK_LT(i, kHeaderWords);
    return header_[i];
  }
  void set_header_word(size_t i, uint32_t v) {
    BW_DCHECK_LT(i, kHeaderWords);
    header_[i] = v;
  }

  static constexpr size_t kHeaderWords = 4;

 private:
  struct Slot {
    uint32_t offset;
    uint32_t length;
  };

  /// Compacts the record area, squeezing out holes left by Erase/Update.
  void Compact();

  size_t SlotDirBytes(size_t slot_count) const {
    return slot_count * sizeof(Slot);
  }

  std::vector<uint8_t> data_;
  std::vector<Slot> slots_;
  size_t record_tail_ = 0;   // one past the last used record byte.
  size_t live_bytes_ = 0;    // record bytes excluding holes.
  uint32_t header_[kHeaderWords] = {0, 0, 0, 0};
};

}  // namespace bw::pages

#endif  // BLOBWORLD_PAGES_PAGE_H_
