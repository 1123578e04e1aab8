// WAL shipping: reading committed redo batches back out of a live log
// so another replica can apply them — the storage half of the fleet's
// replica catch-up path (DESIGN.md §13).
//
// A *shipped batch* is one committed WAL batch (the alloc + page-image
// records between two kCommit boundaries) together with its commit tag.
// Because page images are absolute post-states, applying every shipped
// batch with a tag above the target's own newest tag converges the
// target byte-for-byte onto the source, regardless of how differently
// the two replicas grouped the same admitted mutations into batches —
// the tag is a cumulative mutation count, not a batch count, so equal
// tags mean equal logical state.
//
// The horizon: a checkpoint folds batches into the base file and
// truncates the log, so batches at or below the source's checkpoint tag
// can no longer be shipped — a target behind that horizon needs the
// snapshot-transfer path instead (ship every page, then continue with
// WAL batches).

#ifndef BLOBWORLD_STORAGE_WAL_SHIP_H_
#define BLOBWORLD_STORAGE_WAL_SHIP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/wal.h"
#include "util/status.h"

namespace bw::storage {

/// One redo record of a shipped batch (kAlloc or kPageImage; the
/// closing kCommit is implied by ShippedBatch::tag).
struct ShippedRecord {
  WalRecordType type = WalRecordType::kAlloc;
  pages::PageId page_id = pages::kInvalidPageId;
  std::vector<uint8_t> payload;  // page_codec bytes for kPageImage.
};

/// One committed batch, ready to apply on a target replica.
struct ShippedBatch {
  uint64_t tag = 0;
  std::vector<ShippedRecord> records;
};

/// What one ReadWalBatchesAfter pass found.
struct WalShipReadout {
  /// Committed batches with tag > after_tag, oldest first, up to the
  /// max_batches / max_bytes budgets.
  std::vector<ShippedBatch> batches;
  /// Budget ran out with further qualifying batches still in the log;
  /// pull again from the last returned tag.
  bool more = false;
  /// Newest committed tag present in the log (0 if the log holds none).
  uint64_t last_tag = 0;
};

/// Reads the committed batches with tag > after_tag out of the log at
/// `path`, stopping early once max_batches batches or ~max_bytes of
/// payload have been collected. The caller must ensure no concurrent
/// Reset() (hold the owning service's commit lock); concurrent appends
/// are harmless — an uncommitted or torn tail is simply not a batch
/// yet. Batches already
/// folded by a checkpoint are gone from the log; detecting that (the
/// snapshot horizon) is the caller's job via the store's checkpoint
/// tag.
Result<WalShipReadout> ReadWalBatchesAfter(const std::string& path,
                                           uint64_t after_tag,
                                           size_t max_batches,
                                           size_t max_bytes);

/// Flat little-endian wire encoding of one shipped batch:
///   [u64 tag][u32 record_count]
///   per record: [u32 type][u32 page_id][u32 payload_len][payload]
/// Used as the kWalBatch / kWalApply message body; integrity is the
/// wire frame's CRC.
void EncodeShippedBatch(const ShippedBatch& batch, std::vector<uint8_t>* out);
bool DecodeShippedBatch(const uint8_t* data, size_t len, ShippedBatch* out);

/// Bytes EncodeShippedBatch would produce (frame-budget arithmetic).
size_t ShippedBatchWireSize(const ShippedBatch& batch);

}  // namespace bw::storage

#endif  // BLOBWORLD_STORAGE_WAL_SHIP_H_
