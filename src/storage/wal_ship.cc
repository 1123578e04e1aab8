#include "storage/wal_ship.h"

#include <algorithm>
#include <cstring>

namespace bw::storage {

namespace {

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  const size_t at = out->size();
  out->resize(at + sizeof(v));
  std::memcpy(out->data() + at, &v, sizeof(v));
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  const size_t at = out->size();
  out->resize(at + sizeof(v));
  std::memcpy(out->data() + at, &v, sizeof(v));
}

}  // namespace

Result<WalShipReadout> ReadWalBatchesAfter(const std::string& path,
                                           uint64_t after_tag,
                                           size_t max_batches,
                                           size_t max_bytes) {
  WalShipReadout out;
  ShippedBatch pending;
  size_t pending_bytes = 0;
  size_t collected_bytes = 0;
  // The full scan is fine: the live log is bounded by the checkpoint
  // cadence, and budgets only bound what is *returned* per pull.
  const Status scanned =
      ReplayWal(path, [&](const WalRecordView& record) -> Status {
        if (record.type != WalRecordType::kCommit) {
          ShippedRecord shipped;
          shipped.type = record.type;
          shipped.page_id = record.page_id;
          shipped.payload.assign(record.payload,
                                 record.payload + record.payload_len);
          pending_bytes += record.payload_len + 12;
          pending.records.push_back(std::move(shipped));
          return Status::OK();
        }
        if (record.payload_len != sizeof(uint64_t)) {
          return Status::DataLoss("WAL commit record with malformed tag");
        }
        uint64_t tag = 0;
        std::memcpy(&tag, record.payload, sizeof(tag));
        out.last_tag = tag;
        const bool wanted = tag > after_tag;
        const bool budget_left = out.batches.size() < max_batches &&
                                 (out.batches.empty() ||
                                  collected_bytes + pending_bytes <= max_bytes);
        if (wanted && budget_left) {
          pending.tag = tag;
          collected_bytes += pending_bytes;
          out.batches.push_back(std::move(pending));
        } else if (wanted) {
          out.more = true;
        }
        pending = ShippedBatch();
        pending_bytes = 0;
        return Status::OK();
      }).status();
  BW_RETURN_IF_ERROR(scanned);
  return out;
}

size_t ShippedBatchWireSize(const ShippedBatch& batch) {
  size_t bytes = 8 + 4;
  for (const ShippedRecord& record : batch.records) {
    bytes += 12 + record.payload.size();
  }
  return bytes;
}

void EncodeShippedBatch(const ShippedBatch& batch, std::vector<uint8_t>* out) {
  out->clear();
  out->reserve(ShippedBatchWireSize(batch));
  PutU64(out, batch.tag);
  PutU32(out, static_cast<uint32_t>(batch.records.size()));
  for (const ShippedRecord& record : batch.records) {
    PutU32(out, static_cast<uint32_t>(record.type));
    PutU32(out, record.page_id);
    PutU32(out, static_cast<uint32_t>(record.payload.size()));
    out->insert(out->end(), record.payload.begin(), record.payload.end());
  }
}

bool DecodeShippedBatch(const uint8_t* data, size_t len, ShippedBatch* out) {
  *out = ShippedBatch();
  size_t at = 0;
  const auto take_u32 = [&](uint32_t* v) -> bool {
    if (len - at < sizeof(*v)) return false;
    std::memcpy(v, data + at, sizeof(*v));
    at += sizeof(*v);
    return true;
  };
  if (len < 12) return false;
  std::memcpy(&out->tag, data, sizeof(out->tag));
  at = sizeof(out->tag);
  uint32_t count = 0;
  if (!take_u32(&count)) return false;
  out->records.reserve(std::min<uint32_t>(count, 4096));
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t type = 0, page_id = 0, payload_len = 0;
    if (!take_u32(&type) || !take_u32(&page_id) || !take_u32(&payload_len)) {
      return false;
    }
    if (type != static_cast<uint32_t>(WalRecordType::kAlloc) &&
        type != static_cast<uint32_t>(WalRecordType::kPageImage)) {
      return false;
    }
    if (len - at < payload_len) return false;
    ShippedRecord record;
    record.type = static_cast<WalRecordType>(type);
    record.page_id = page_id;
    record.payload.assign(data + at, data + at + payload_len);
    at += payload_len;
    out->records.push_back(std::move(record));
  }
  return at == len;
}

}  // namespace bw::storage
