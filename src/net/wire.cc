#include "net/wire.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "util/crc32.h"

namespace bw::net {
namespace {

// Little-endian scalar writes, independent of host byte order.
void PutU16(uint8_t* p, uint16_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
}

void PutU32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}

void PutU64(uint8_t* p, uint64_t v) {
  PutU32(p, static_cast<uint32_t>(v));
  PutU32(p + 4, static_cast<uint32_t>(v >> 32));
}

uint16_t GetU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}

uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

uint64_t GetU64(const uint8_t* p) {
  return static_cast<uint64_t>(GetU32(p)) |
         (static_cast<uint64_t>(GetU32(p + 4)) << 32);
}

// Result-batch payload: a u32 count, then fixed-width (rid, distance)
// records.
constexpr size_t kBatchCountBytes = 4;
constexpr size_t kRecordBytes = 16;

// Fills in the header at `frame` for the `payload_len` payload bytes
// already written right after it.
void SealFrame(const FrameHeader& header, uint8_t* frame,
               size_t payload_len) {
  const uint8_t* payload = frame + kFrameHeaderBytes;
  PutU32(frame + 0, kWireMagic);
  frame[4] = static_cast<uint8_t>(header.type);
  frame[5] = header.flags;
  PutU16(frame + 6, header.status);
  PutU64(frame + 8, header.request_id);
  PutU32(frame + 16, header.deadline_us);
  PutU32(frame + 20, static_cast<uint32_t>(payload_len));
  PutU32(frame + 24, payload_len == 0 ? 0 : Crc32(payload, payload_len));
  PutU32(frame + 28, Crc32(frame, 28));
}

uint8_t* Bytes(std::string& buffer, size_t offset) {
  return reinterpret_cast<uint8_t*>(buffer.data()) + offset;
}

}  // namespace

const char* WireStatusName(uint16_t status) {
  switch (status) {
    case kWireQuotaExceeded:
      return "QuotaExceeded";
    case kWireShuttingDown:
      return "ShuttingDown";
    case kWireBadFrame:
      return "BadFrame";
    case kWireVersionMismatch:
      return "VersionMismatch";
    default:
      return status < 64 ? StatusCodeName(StatusCodeFromWire(status))
                         : "UnknownWireStatus";
  }
}

Status WireStatusToStatus(uint16_t status, const std::string& message) {
  if (status == 0) return Status::OK();
  const std::string text =
      message.empty() ? std::string(WireStatusName(status)) : message;
  switch (status) {
    case kWireQuotaExceeded:
    case kWireShuttingDown:
      return Status::Unavailable(text);
    case kWireBadFrame:
      return Status::DataLoss(text);
    case kWireVersionMismatch:
      // Not retryable: the peer will keep speaking the wrong major.
      return Status::NotSupported(text);
    default:
      break;
  }
  if (status < 64) {
    const StatusCode code = StatusCodeFromWire(status);
    switch (code) {
      case StatusCode::kOk:  // status != 0 but maps to OK: corrupt peer.
        return Status::Internal("non-zero wire status decoded as OK");
      case StatusCode::kInvalidArgument:
        return Status::InvalidArgument(text);
      case StatusCode::kNotFound:
        return Status::NotFound(text);
      case StatusCode::kCorruption:
        return Status::Corruption(text);
      case StatusCode::kNoSpace:
        return Status::NoSpace(text);
      case StatusCode::kNotSupported:
        return Status::NotSupported(text);
      case StatusCode::kInternal:
        return Status::Internal(text);
      case StatusCode::kIoError:
        return Status::IoError(text);
      case StatusCode::kUnavailable:
        return Status::Unavailable(text);
      case StatusCode::kDataLoss:
        return Status::DataLoss(text);
      case StatusCode::kAborted:
        return Status::Aborted(text);
      case StatusCode::kResourceExhausted:
        return Status::ResourceExhausted(text);
    }
  }
  return Status::Internal("unknown wire status " + std::to_string(status) +
                          ": " + text);
}

std::string EncodeFrame(const FrameHeader& header, std::string_view payload) {
  std::string frame(kFrameHeaderBytes, '\0');
  frame.append(payload);
  SealFrame(header, Bytes(frame, 0), payload.size());
  return frame;
}

std::string EncodeQueryReply(uint64_t request_id,
                             const service::QueryResponse& response,
                             size_t batch_size) {
  const std::vector<gist::Neighbor>& neighbors = response.neighbors;
  const size_t n = neighbors.size();
  const size_t batches = (n + batch_size - 1) / batch_size;
  const size_t batch_bytes =
      batches * (kFrameHeaderBytes + kBatchCountBytes) + n * kRecordBytes;
  std::string out;
  // The final frame's payload is 34 bytes plus its (empty) message.
  out.reserve(batch_bytes + kFrameHeaderBytes + 64);
  out.resize(batch_bytes);

  FrameHeader batch;
  batch.type = MsgType::kResultBatch;
  batch.request_id = request_id;
  size_t at = 0;
  for (size_t begin = 0; begin < n; begin += batch_size) {
    const size_t count = std::min(batch_size, n - begin);
    uint8_t* frame = Bytes(out, at);
    uint8_t* payload = frame + kFrameHeaderBytes;
    PutU32(payload, static_cast<uint32_t>(count));
    uint8_t* record = payload + kBatchCountBytes;
    for (size_t i = begin; i < begin + count; ++i, record += kRecordBytes) {
      PutU64(record, neighbors[i].rid);
      PutU64(record + 8, std::bit_cast<uint64_t>(neighbors[i].distance));
    }
    const size_t payload_len = kBatchCountBytes + count * kRecordBytes;
    SealFrame(batch, frame, payload_len);
    at += kFrameHeaderBytes + payload_len;
  }

  FinalInfo info;
  info.total_results = n;
  info.pages_skipped = response.metrics.pages_skipped;
  info.server_latency_us = response.metrics.latency_us;
  FrameHeader final_header;
  final_header.type = MsgType::kFinal;
  final_header.flags = kFlagFinal;
  if (response.degraded()) final_header.flags |= kFlagDegraded;
  if (response.metrics.truncated) final_header.flags |= kFlagTruncated;
  final_header.request_id = request_id;
  out.resize(at + kFrameHeaderBytes);
  EncodeFinalInfo(info, &out);
  SealFrame(final_header, Bytes(out, at),
            out.size() - at - kFrameHeaderBytes);
  return out;
}

HeaderVerdict DecodeFrameHeader(const uint8_t* bytes, uint32_t max_payload,
                                FrameHeader* out) {
  if (GetU32(bytes) != kWireMagic) return HeaderVerdict::kBadMagic;
  if (GetU32(bytes + 28) != Crc32(bytes, 28)) return HeaderVerdict::kBadCrc;
  out->type = static_cast<MsgType>(bytes[4]);
  out->flags = bytes[5];
  out->status = GetU16(bytes + 6);
  out->request_id = GetU64(bytes + 8);
  out->deadline_us = GetU32(bytes + 16);
  out->payload_len = GetU32(bytes + 20);
  out->payload_crc = GetU32(bytes + 24);
  if (out->payload_len > max_payload) return HeaderVerdict::kOversized;
  return HeaderVerdict::kOk;
}

bool PayloadCrcOk(const FrameHeader& header, std::string_view payload) {
  const uint32_t crc =
      payload.empty() ? 0 : Crc32(payload.data(), payload.size());
  return payload.size() == header.payload_len && crc == header.payload_crc;
}

// ---------------------------------------------------------------------------
// PayloadWriter / PayloadReader
// ---------------------------------------------------------------------------

void PayloadWriter::Raw(const void* data, size_t n) {
  // All scalar types come through here; emit little-endian explicitly.
  const uint8_t* src = static_cast<const uint8_t*>(data);
  uint64_t bits = 0;
  std::memcpy(&bits, src, n);  // host order...
  uint8_t tmp[8];
  for (size_t i = 0; i < n; ++i) {
    tmp[i] = static_cast<uint8_t>(bits >> (8 * i));  // ...to LE bytes.
  }
  out_->append(reinterpret_cast<const char*>(tmp), n);
}

void PayloadWriter::String(std::string_view s) {
  const size_t n = std::min<size_t>(s.size(), 0xFFFF);
  U16(static_cast<uint16_t>(n));
  out_->append(s.data(), n);
}

void PayloadWriter::Vec(const geom::Vec& v) {
  U16(static_cast<uint16_t>(v.dim()));
  for (size_t d = 0; d < v.dim(); ++d) F32(v[d]);
}

bool PayloadReader::Take(void* out, size_t n) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    std::memset(out, 0, n);
    return false;
  }
  uint64_t bits = 0;
  for (size_t i = 0; i < n; ++i) {
    bits |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
            << (8 * i);
  }
  std::memcpy(out, &bits, n);
  pos_ += n;
  return true;
}

uint8_t PayloadReader::U8() {
  uint8_t v = 0;
  Take(&v, 1);
  return v;
}

uint16_t PayloadReader::U16() {
  uint16_t v = 0;
  Take(&v, 2);
  return v;
}

uint32_t PayloadReader::U32() {
  uint32_t v = 0;
  Take(&v, 4);
  return v;
}

uint64_t PayloadReader::U64() {
  uint64_t v = 0;
  Take(&v, 8);
  return v;
}

double PayloadReader::F64() {
  uint64_t bits = U64();
  double v;
  std::memcpy(&v, &bits, 8);
  return v;
}

float PayloadReader::F32() {
  uint32_t bits = U32();
  float v;
  std::memcpy(&v, &bits, 4);
  return v;
}

std::string PayloadReader::String() {
  const uint16_t n = U16();
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return {};
  }
  std::string s(data_.substr(pos_, n));
  pos_ += n;
  return s;
}

geom::Vec PayloadReader::Vec(size_t max_dim) {
  const uint16_t dim = U16();
  if (!ok_ || dim > max_dim || data_.size() - pos_ < size_t{dim} * 4) {
    ok_ = false;
    return geom::Vec();
  }
  geom::Vec v(dim);
  for (size_t d = 0; d < dim; ++d) v[d] = F32();
  if (!v.IsFinite()) ok_ = false;
  return v;
}

// ---------------------------------------------------------------------------
// Request/response payload codecs
// ---------------------------------------------------------------------------

void EncodeKnnRequest(const KnnRequest& req, std::string* out) {
  PayloadWriter w(out);
  w.U32(req.k);
  w.U32(req.batch_size);
  w.F64(req.budget_radius);
  w.Vec(req.query);
}

bool DecodeKnnRequest(std::string_view payload, KnnRequest* out) {
  PayloadReader r(payload);
  out->k = r.U32();
  out->batch_size = r.U32();
  out->budget_radius = r.F64();
  out->query = r.Vec();
  return r.exhausted() && out->k > 0 && !std::isnan(out->budget_radius);
}

void EncodeRangeRequest(const RangeRequest& req, std::string* out) {
  PayloadWriter w(out);
  w.F64(req.radius);
  w.Vec(req.query);
}

bool DecodeRangeRequest(std::string_view payload, RangeRequest* out) {
  PayloadReader r(payload);
  out->radius = r.F64();
  out->query = r.Vec();
  return r.exhausted() && std::isfinite(out->radius) && out->radius >= 0;
}

void EncodeMutateRequest(const MutateRequest& req, std::string* out) {
  PayloadWriter w(out);
  w.U64(req.rid);
  w.Vec(req.point);
}

bool DecodeMutateRequest(std::string_view payload, MutateRequest* out) {
  PayloadReader r(payload);
  out->rid = r.U64();
  out->point = r.Vec();
  return r.exhausted() && out->point.dim() > 0;
}

void EncodeResultBatch(const std::vector<gist::Neighbor>& neighbors,
                       size_t begin, size_t count, std::string* out) {
  PayloadWriter w(out);
  w.U32(static_cast<uint32_t>(count));
  for (size_t i = begin; i < begin + count; ++i) {
    w.U64(neighbors[i].rid);
    w.F64(neighbors[i].distance);
  }
}

bool DecodeResultBatch(std::string_view payload,
                       std::vector<gist::Neighbor>* out) {
  PayloadReader r(payload);
  const uint32_t count = r.U32();
  // 16 bytes per neighbor: reject counts the payload cannot hold before
  // reserving anything.
  if (count > payload.size() / 16) return false;
  out->reserve(out->size() + count);
  for (uint32_t i = 0; i < count; ++i) {
    gist::Neighbor n;
    n.rid = r.U64();
    n.distance = r.F64();
    if (!r.ok()) return false;
    out->push_back(n);
  }
  return r.exhausted();
}

void EncodeFinalInfo(const FinalInfo& info, std::string* out) {
  PayloadWriter w(out);
  w.U64(info.total_results);
  w.U64(info.pages_skipped);
  w.F64(info.server_latency_us);
  w.U64(info.mutation_tag);
  w.String(info.message);
}

bool DecodeFinalInfo(std::string_view payload, FinalInfo* out) {
  PayloadReader r(payload);
  out->total_results = r.U64();
  out->pages_skipped = r.U64();
  out->server_latency_us = r.F64();
  out->mutation_tag = r.U64();
  out->message = r.String();
  return r.exhausted();
}

void EncodeStatsReply(
    const std::vector<std::pair<std::string, double>>& fields,
    std::string* out) {
  PayloadWriter w(out);
  w.U32(static_cast<uint32_t>(fields.size()));
  for (const auto& [name, value] : fields) {
    w.String(name);
    w.F64(value);
  }
}

bool DecodeStatsReply(std::string_view payload,
                      std::vector<std::pair<std::string, double>>* out) {
  PayloadReader r(payload);
  const uint32_t count = r.U32();
  // >= 10 bytes per field (u16 len + f64).
  if (count > payload.size() / 10) return false;
  out->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::string name = r.String();
    const double value = r.F64();
    if (!r.ok()) return false;
    out->emplace_back(std::move(name), value);
  }
  return r.exhausted();
}

void EncodeHealthReply(const HealthReply& reply, std::string* out) {
  PayloadWriter w(out);
  w.U8(reply.write_state);
  w.U8(reply.writes_enabled ? 1 : 0);
  w.U8(reply.write_degraded ? 1 : 0);
  w.U64(reply.generation);
  w.U64(reply.completed);
  w.U64(reply.pages_quarantined);
  w.F64(reply.uptime_seconds);
}

bool DecodeHealthReply(std::string_view payload, HealthReply* out) {
  PayloadReader r(payload);
  out->write_state = r.U8();
  out->writes_enabled = r.U8() != 0;
  out->write_degraded = r.U8() != 0;
  out->generation = r.U64();
  out->completed = r.U64();
  out->pages_quarantined = r.U64();
  out->uptime_seconds = r.F64();
  return r.exhausted();
}

void EncodeHelloRequest(const HelloRequest& req, std::string* out) {
  PayloadWriter w(out);
  w.U16(req.major);
  w.U16(req.minor);
  w.U32(req.features);
  w.String(req.peer);
}

bool DecodeHelloRequest(std::string_view payload, HelloRequest* out) {
  PayloadReader r(payload);
  out->major = r.U16();
  out->minor = r.U16();
  out->features = r.U32();
  out->peer = r.String();
  // Deliberately not exhausted(): future minors may append fields, and a
  // 1.x receiver must still accept their hellos (that is the point of
  // the handshake). Trailing bytes are ignored, not rejected.
  return r.ok() && out->major > 0;
}

void EncodeHelloReply(const HelloReply& reply, std::string* out) {
  PayloadWriter w(out);
  w.U16(reply.major);
  w.U16(reply.minor);
  w.U32(reply.features);
  w.String(reply.peer);
}

bool DecodeHelloReply(std::string_view payload, HelloReply* out) {
  PayloadReader r(payload);
  out->major = r.U16();
  out->minor = r.U16();
  out->features = r.U32();
  out->peer = r.String();
  return r.ok() && out->major > 0;  // forward-tolerant, as above.
}

// ---------------------------------------------------------------------------
// Replica catch-up payload codecs (minor 1.2)
// ---------------------------------------------------------------------------

namespace {

/// Shipped batches cross the wire as [u32 len][EncodeShippedBatch bytes]
/// so a reader can skip or bound-check each batch before decoding it.
void AppendShippedBatch(const storage::ShippedBatch& batch,
                        std::string* out) {
  std::vector<uint8_t> bytes;
  storage::EncodeShippedBatch(batch, &bytes);
  PayloadWriter w(out);
  w.U32(static_cast<uint32_t>(bytes.size()));
  out->append(reinterpret_cast<const char*>(bytes.data()), bytes.size());
}

}  // namespace

void EncodeWalPullRequest(const WalPullRequest& req, std::string* out) {
  PayloadWriter w(out);
  w.U64(req.after_tag);
  w.U32(req.max_batches);
  w.U32(req.max_bytes);
}

bool DecodeWalPullRequest(std::string_view payload, WalPullRequest* out) {
  PayloadReader r(payload);
  out->after_tag = r.U64();
  out->max_batches = r.U32();
  out->max_bytes = r.U32();
  return r.exhausted();
}

void EncodeWalTail(const service::WalTail& tail, std::string* out) {
  PayloadWriter w(out);
  w.U8(tail.snapshot_needed ? 1 : 0);
  w.U8(tail.more ? 1 : 0);
  w.U64(tail.last_tag);
  w.U32(static_cast<uint32_t>(tail.batches.size()));
  for (const storage::ShippedBatch& batch : tail.batches) {
    AppendShippedBatch(batch, out);
  }
}

bool DecodeWalTail(std::string_view payload, service::WalTail* out) {
  PayloadReader r(payload);
  out->snapshot_needed = r.U8() != 0;
  out->more = r.U8() != 0;
  out->last_tag = r.U64();
  const uint32_t count = r.U32();
  if (!r.ok()) return false;
  // The fixed prefix above is 14 bytes; each batch costs at least its
  // 4-byte length prefix plus the 12-byte ShippedBatch header.
  if (count > (payload.size() - 14) / 16) return false;
  size_t pos = 14;
  out->batches.clear();
  out->batches.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (payload.size() - pos < 4) return false;
    const uint32_t len = static_cast<uint32_t>(
        static_cast<uint8_t>(payload[pos]) |
        (static_cast<uint8_t>(payload[pos + 1]) << 8) |
        (static_cast<uint8_t>(payload[pos + 2]) << 16) |
        (static_cast<uint8_t>(payload[pos + 3]) << 24));
    pos += 4;
    if (payload.size() - pos < len) return false;
    storage::ShippedBatch batch;
    if (!storage::DecodeShippedBatch(
            reinterpret_cast<const uint8_t*>(payload.data()) + pos, len,
            &batch)) {
      return false;
    }
    pos += len;
    out->batches.push_back(std::move(batch));
  }
  return pos == payload.size();
}

void EncodeWalApply(const storage::ShippedBatch& batch, std::string* out) {
  std::vector<uint8_t> bytes;
  storage::EncodeShippedBatch(batch, &bytes);
  out->append(reinterpret_cast<const char*>(bytes.data()), bytes.size());
}

bool DecodeWalApply(std::string_view payload, storage::ShippedBatch* out) {
  return storage::DecodeShippedBatch(
      reinterpret_cast<const uint8_t*>(payload.data()), payload.size(),
      out);
}

void EncodeSnapshotPullRequest(const SnapshotPullRequest& req,
                               std::string* out) {
  PayloadWriter w(out);
  w.U32(req.start_page);
  w.U32(req.max_bytes);
}

bool DecodeSnapshotPullRequest(std::string_view payload,
                               SnapshotPullRequest* out) {
  PayloadReader r(payload);
  out->start_page = r.U32();
  out->max_bytes = r.U32();
  return r.exhausted();
}

void EncodeSnapshotChunk(const service::SnapshotChunk& chunk,
                         std::string* out) {
  PayloadWriter w(out);
  w.U64(chunk.tag);
  w.U64(chunk.total_pages);
  w.U32(chunk.start_page);
  w.U32(static_cast<uint32_t>(chunk.pages.size()));
  for (const storage::ShippedRecord& rec : chunk.pages) {
    w.U32(rec.page_id);
    w.U32(static_cast<uint32_t>(rec.payload.size()));
    out->append(reinterpret_cast<const char*>(rec.payload.data()),
                rec.payload.size());
  }
}

bool DecodeSnapshotChunk(std::string_view payload,
                         service::SnapshotChunk* out) {
  PayloadReader r(payload);
  out->tag = r.U64();
  out->total_pages = r.U64();
  out->start_page = r.U32();
  const uint32_t count = r.U32();
  if (!r.ok()) return false;
  // 8 bytes of per-page framing minimum after the 24-byte prefix.
  if (count > (payload.size() - 24) / 8) return false;
  size_t pos = 24;
  out->pages.clear();
  out->pages.reserve(count);
  const uint8_t* base = reinterpret_cast<const uint8_t*>(payload.data());
  for (uint32_t i = 0; i < count; ++i) {
    if (payload.size() - pos < 8) return false;
    const uint32_t page_id = static_cast<uint32_t>(
        base[pos] | (base[pos + 1] << 8) | (base[pos + 2] << 16) |
        (static_cast<uint32_t>(base[pos + 3]) << 24));
    const uint32_t len = static_cast<uint32_t>(
        base[pos + 4] | (base[pos + 5] << 8) | (base[pos + 6] << 16) |
        (static_cast<uint32_t>(base[pos + 7]) << 24));
    pos += 8;
    if (payload.size() - pos < len) return false;
    storage::ShippedRecord rec;
    rec.type = storage::WalRecordType::kPageImage;
    rec.page_id = page_id;
    rec.payload.assign(base + pos, base + pos + len);
    pos += len;
    out->pages.push_back(std::move(rec));
  }
  return pos == payload.size();
}

void EncodeSnapshotApplyRequest(const SnapshotApplyRequest& req,
                                std::string* out) {
  PayloadWriter w(out);
  w.U8(req.first ? 1 : 0);
  w.U8(req.last ? 1 : 0);
  EncodeSnapshotChunk(req.chunk, out);
}

bool DecodeSnapshotApplyRequest(std::string_view payload,
                                SnapshotApplyRequest* out) {
  if (payload.size() < 2) return false;
  out->first = payload[0] != 0;
  out->last = payload[1] != 0;
  return DecodeSnapshotChunk(payload.substr(2), &out->chunk);
}

void EncodeCatchupAck(const CatchupAck& ack, std::string* out) {
  PayloadWriter w(out);
  w.U64(ack.last_tag);
}

bool DecodeCatchupAck(std::string_view payload, CatchupAck* out) {
  PayloadReader r(payload);
  out->last_tag = r.U64();
  return r.exhausted();
}

void EncodeTreeSumReply(const service::TreeSum& sum, std::string* out) {
  PayloadWriter w(out);
  w.U64(sum.tag);
  w.U64(sum.page_count);
  w.U32(sum.crc);
}

bool DecodeTreeSumReply(std::string_view payload, service::TreeSum* out) {
  PayloadReader r(payload);
  out->tag = r.U64();
  out->page_count = r.U64();
  out->crc = r.U32();
  return r.exhausted();
}

void EncodeCatchupPosReply(const service::CatchupPosition& pos,
                           std::string* out) {
  PayloadWriter w(out);
  w.U64(pos.last_tag);
  w.U64(pos.checkpoint_tag);
  w.U64(pos.page_count);
}

bool DecodeCatchupPosReply(std::string_view payload,
                           service::CatchupPosition* out) {
  PayloadReader r(payload);
  out->last_tag = r.U64();
  out->checkpoint_tag = r.U64();
  out->page_count = r.U64();
  return r.exhausted();
}

}  // namespace bw::net
