// Wire protocol for the Blobworld network front end: a length-prefixed
// binary framing with a CRC'd fixed header, request types for k-NN
// search, consistent-range search, insert/delete, stats, and health,
// and streamed responses (zero or more result-batch frames followed by
// one terminal frame carrying status + degraded/pages_skipped
// accounting). Both bwserver and net::Client speak exactly this codec;
// nothing socket-specific lives here, so the frame fuzzer in
// tests/net_test.cc can drive it byte-by-byte.
//
// Frame layout (all integers little-endian; this codec is explicit
// about byte order, not host-order memcpy):
//
//   offset size field
//        0    4 magic        'BWP1' (0x31505742 LE)
//        4    1 type         MsgType
//        5    1 flags        response bits: kFlagFinal/kFlagDegraded/...
//        6    2 status       wire status (responses; 0 in requests)
//        8    8 request_id   client-chosen; echoed on every response
//       16    4 deadline_us  request execution budget in us (0 = none);
//                            propagated into the service's stream
//                            deadline / I/O-watchdog path
//       20    4 payload_len  bytes following the header
//       24    4 payload_crc  CRC-32 of the payload bytes (0 if empty)
//       28    4 header_crc   CRC-32 of bytes [0, 28)
//
// A receiver validates magic and header_crc before trusting
// payload_len, and payload_crc before decoding the payload, so a
// flipped bit anywhere in the frame is detected instead of desyncing
// the stream. Integrity failures (bad magic, bad header CRC, declared
// length over the receiver's cap, bad payload CRC) are
// connection-fatal: there is no way to resynchronize a byte stream
// whose framing cannot be trusted. Semantic failures (unknown type,
// malformed payload, wrong dimensionality) are request-fatal only: the
// receiver still knows the frame boundary, answers with an error
// terminal frame, and keeps the connection.
//
// Wire status registry: values 0..63 are bw::StatusCode via
// StatusCodeToWire (util/status.h); values 64+ are protocol-level
// verdicts minted by the net tier (kWireQuotaExceeded & co below).
// Distinct conditions get distinct codes on purpose: a client seeing
// kWireQuotaExceeded backs off *itself*, kResourceExhausted (read-only
// write path, shed dispatch queue) retries later, kIoError (fail-stop
// write path) does not retry at all.

#ifndef BLOBWORLD_NET_WIRE_H_
#define BLOBWORLD_NET_WIRE_H_

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "geom/vec.h"
#include "gist/tree.h"
#include "service/query_service.h"
#include "storage/wal_ship.h"
#include "util/status.h"

namespace bw::net {

constexpr uint32_t kWireMagic = 0x31505742;  // "BWP1"
constexpr size_t kFrameHeaderBytes = 32;

/// Hard cap a receiver applies to the *declared* payload length before
/// allocating anything. A frame declaring more is hostile or corrupt.
constexpr uint32_t kMaxPayloadBytes = 4u << 20;

/// Message types. Requests are < 64, responses >= 64.
enum class MsgType : uint8_t {
  // Requests.
  kKnn = 1,     // k-NN search, streamed reply.
  kRange = 2,   // consistent-range search, streamed reply.
  kInsert = 3,  // online insert (requires a write-enabled service).
  kDelete = 4,  // online delete.
  kStats = 5,   // full ServiceSnapshot + net-tier counters.
  kHealth = 6,  // cheap liveness + write-state probe.
  kHello = 7,   // version/feature handshake (optional, first frame).
  // Replica catch-up (minor 1.2, kFeatureCatchup). Pulls read from a
  // healthy source; applies land on the stale target. Every reply is a
  // single terminal frame, so pre-1.2 clients need no pump changes.
  kWalPull = 8,        // committed WAL batches after a tag -> kWalBatchReply.
  kWalApply = 9,       // apply one shipped batch -> kCatchupAck.
  kSnapshotPull = 10,  // page-image run from an offset -> kSnapshotChunk.
  kSnapshotApply = 11,  // apply one chunk (first/last flags) -> kCatchupAck.
  kTreeSum = 12,       // checksum-over-tree handshake -> kTreeSumReply.
  kCatchupPos = 13,    // cheap position poll -> kCatchupPosReply.
  // Responses.
  kResultBatch = 64,  // one batch of k-NN/range results; more follow.
  kFinal = 65,        // terminal frame of a streamed query reply.
  kMutateAck = 66,    // terminal frame of an insert/delete.
  kStatsReply = 67,
  kHealthReply = 68,
  kHelloReply = 69,
  kWalBatchReply = 70,
  kCatchupAck = 71,
  kSnapshotChunk = 72,
  kTreeSumReply = 73,
  kCatchupPosReply = 74,
};

/// True if `type` is a request a server accepts.
constexpr bool IsRequestType(uint8_t type) {
  return type >= 1 && type <= 13;
}

// ---------------------------------------------------------------------------
// Protocol versioning (the kHello handshake).
// ---------------------------------------------------------------------------
//
// The handshake is *optional* for backward compatibility: a client that
// never sends kHello gets pre-handshake behavior (everything in BWP1
// major 1). A client that does send it as its first frame learns the
// server's (major, minor, feature bits) and can gate optional behavior
// — the shard router uses this to refuse fan-out to shards speaking a
// different major instead of mis-decoding frames mid-query.
//
// Rules:
//   - major mismatch: the server answers kHelloReply carrying *its own*
//     version with status kWireVersionMismatch, then dooms the
//     connection. Incompatible peers exchange exactly one frame pair.
//   - minor skew: fine in both directions. Minors only add frame types
//     and feature bits; both sides mask features to the intersection.
//   - feature bits advertise optional capabilities; a bit the receiver
//     does not recognize is ignored (that is what makes minors cheap).

constexpr uint16_t kWireVersionMajor = 1;
constexpr uint16_t kWireVersionMinor = 2;  // 1.1 added kHello; 1.2 catch-up.

// Feature bits advertised in the handshake.
constexpr uint32_t kFeatureStreaming = 1u << 0;  // kResultBatch streams.
constexpr uint32_t kFeatureWrites = 1u << 1;     // insert/delete honored.
constexpr uint32_t kFeatureRouter = 1u << 2;     // peer is a shard router.
constexpr uint32_t kFeatureCatchup = 1u << 3;    // kWalPull & co honored.

/// Feature set a plain bwserver advertises (writes are masked off at
/// runtime when the service is read-only).
constexpr uint32_t kServerFeatures =
    kFeatureStreaming | kFeatureWrites | kFeatureCatchup;

// Response flag bits.
constexpr uint8_t kFlagFinal = 0x01;      // no more frames for this id.
constexpr uint8_t kFlagDegraded = 0x02;   // answer is a genuine subset.
constexpr uint8_t kFlagTruncated = 0x04;  // deadline cut the stream off.

// Protocol-level wire statuses (>= 64; see the registry note above).
constexpr uint16_t kWireQuotaExceeded = 64;  // per-client quota: back off.
constexpr uint16_t kWireShuttingDown = 65;   // server draining: reconnect.
constexpr uint16_t kWireBadFrame = 66;       // framing error: conn closing.
constexpr uint16_t kWireVersionMismatch = 67;  // major skew: do not retry.

/// Human-readable name for a wire status (falls back to the StatusCode
/// name for the 0..63 range).
const char* WireStatusName(uint16_t status);

/// Maps a wire status back to a local Status for client callers. The
/// net-tier verdicts map onto the closest StatusCode semantics:
/// quota-exceeded and shutting-down become kUnavailable (retryable by
/// policy), bad-frame becomes kDataLoss.
Status WireStatusToStatus(uint16_t status, const std::string& message);

/// Decoded frame header (see the layout comment above).
struct FrameHeader {
  MsgType type = MsgType::kKnn;
  uint8_t flags = 0;
  uint16_t status = 0;
  uint64_t request_id = 0;
  uint32_t deadline_us = 0;
  uint32_t payload_len = 0;
  uint32_t payload_crc = 0;
};

/// Serializes header + payload into one contiguous wire frame.
std::string EncodeFrame(const FrameHeader& header, std::string_view payload);

/// Serializes a whole k-NN/range reply into one buffer: the neighbors as
/// kResultBatch frames of at most `batch_size` (>= 1) records each, back
/// to back, then the kFinal frame with the totals and the degraded and
/// truncated flags. The bytes equal EncodeFrame over each
/// EncodeResultBatch payload, then over the EncodeFinalInfo payload; the
/// records are written in place at computed offsets, and each CRC is
/// taken over the bytes already in the buffer.
std::string EncodeQueryReply(uint64_t request_id,
                             const service::QueryResponse& response,
                             size_t batch_size);

/// Why a header failed to decode (connection-fatal conditions).
enum class HeaderVerdict {
  kOk,
  kBadMagic,
  kBadCrc,
  kOversized,  // declared payload_len > max_payload.
};

/// Decodes and validates one header from exactly kFrameHeaderBytes
/// bytes. payload_len is only trustworthy when the verdict is kOk.
HeaderVerdict DecodeFrameHeader(const uint8_t* bytes, uint32_t max_payload,
                                FrameHeader* out);

/// Verifies a complete payload against the header's CRC.
bool PayloadCrcOk(const FrameHeader& header, std::string_view payload);

// ---------------------------------------------------------------------------
// Payload codec: bounded little-endian reader/writer.
// ---------------------------------------------------------------------------

/// Appends little-endian scalars to a payload buffer.
class PayloadWriter {
 public:
  explicit PayloadWriter(std::string* out) : out_(out) {}

  void U8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void U16(uint16_t v) { Raw(&v, 2); }
  void U32(uint32_t v) { Raw(&v, 4); }
  void U64(uint64_t v) { Raw(&v, 8); }
  void F64(double v) { Raw(&v, 8); }
  void F32(float v) { Raw(&v, 4); }
  /// Length-prefixed (u16) byte string, truncated at 64 KiB.
  void String(std::string_view s);
  /// Dimension-prefixed (u16) float vector.
  void Vec(const geom::Vec& v);

 private:
  void Raw(const void* data, size_t n);  // little-endian on LE hosts.

  std::string* out_;
};

/// Reads little-endian scalars out of a payload; any out-of-bounds read
/// latches ok()==false and returns zeroes, so decoders can run straight
/// through hostile input and check once at the end.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view data) : data_(data) {}

  uint8_t U8();
  uint16_t U16();
  uint32_t U32();
  uint64_t U64();
  double F64();
  float F32();
  std::string String();
  /// A dimension-prefixed float vector. A NaN or infinite coordinate
  /// also latches ok()==false: the request decoders that read points
  /// and queries reject them as malformed.
  geom::Vec Vec(size_t max_dim = 4096);

  bool ok() const { return ok_; }
  /// True when the whole payload was consumed (trailing garbage is a
  /// malformed request).
  bool exhausted() const { return ok_ && pos_ == data_.size(); }

 private:
  bool Take(void* out, size_t n);

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// ---------------------------------------------------------------------------
// Request/response payloads.
// ---------------------------------------------------------------------------

/// kKnn request payload. The frame header's deadline_us carries the
/// execution budget; everything else rides here.
struct KnnRequest {
  geom::Vec query;
  uint32_t k = 0;
  /// Results per kResultBatch frame the client wants (server clamps to
  /// its own configured maximum; 0 = server default).
  uint32_t batch_size = 0;
  /// Stop once everything within this distance has been returned
  /// (service::StreamOptions::budget_radius); inf = no radius budget.
  double budget_radius = std::numeric_limits<double>::infinity();
};

/// kRange request payload.
struct RangeRequest {
  geom::Vec query;
  double radius = 0;
};

/// kInsert / kDelete request payload.
struct MutateRequest {
  geom::Vec point;
  uint64_t rid = 0;
};

/// kFinal / kMutateAck terminal payload: per-request accounting the
/// client surfaces alongside the results. `message` is the error text
/// when status != 0.
struct FinalInfo {
  uint64_t total_results = 0;
  uint64_t pages_skipped = 0;
  double server_latency_us = 0;
  uint64_t mutation_tag = 0;  // kMutateAck only: durable commit tag.
  std::string message;
};

/// kHello request payload: the client's version and feature claims.
/// `peer` is a short, human-readable self-description ("bwrouter",
/// "net_smoke") surfaced in server logs/errors, never interpreted.
struct HelloRequest {
  uint16_t major = kWireVersionMajor;
  uint16_t minor = kWireVersionMinor;
  uint32_t features = 0;
  std::string peer;
};

/// kHelloReply payload. On kWireVersionMismatch the server still fills
/// its own version in so the client can report *what* it talked to.
struct HelloReply {
  uint16_t major = kWireVersionMajor;
  uint16_t minor = kWireVersionMinor;
  uint32_t features = 0;
  std::string peer;
};

/// kHealthReply payload.
struct HealthReply {
  uint8_t write_state = 0;  // service::WriteState as u8.
  bool writes_enabled = false;
  bool write_degraded = false;
  uint64_t generation = 0;
  uint64_t completed = 0;
  uint64_t pages_quarantined = 0;
  double uptime_seconds = 0;
};

void EncodeKnnRequest(const KnnRequest& req, std::string* out);
bool DecodeKnnRequest(std::string_view payload, KnnRequest* out);

void EncodeRangeRequest(const RangeRequest& req, std::string* out);
bool DecodeRangeRequest(std::string_view payload, RangeRequest* out);

void EncodeMutateRequest(const MutateRequest& req, std::string* out);
bool DecodeMutateRequest(std::string_view payload, MutateRequest* out);

/// Result batches carry (rid, distance) pairs; leaf page ids are a
/// server-local detail and do not cross the wire.
void EncodeResultBatch(const std::vector<gist::Neighbor>& neighbors,
                       size_t begin, size_t count, std::string* out);
bool DecodeResultBatch(std::string_view payload,
                       std::vector<gist::Neighbor>* out);

void EncodeFinalInfo(const FinalInfo& info, std::string* out);
bool DecodeFinalInfo(std::string_view payload, FinalInfo* out);

/// Stats cross the wire as ordered (name, value) pairs so the client
/// needs no knowledge of the snapshot struct layout.
void EncodeStatsReply(
    const std::vector<std::pair<std::string, double>>& fields,
    std::string* out);
bool DecodeStatsReply(std::string_view payload,
                      std::vector<std::pair<std::string, double>>* out);

void EncodeHealthReply(const HealthReply& reply, std::string* out);
bool DecodeHealthReply(std::string_view payload, HealthReply* out);

void EncodeHelloRequest(const HelloRequest& req, std::string* out);
bool DecodeHelloRequest(std::string_view payload, HelloRequest* out);

void EncodeHelloReply(const HelloReply& reply, std::string* out);
bool DecodeHelloReply(std::string_view payload, HelloReply* out);

// ---------------------------------------------------------------------------
// Replica catch-up payloads (minor 1.2). The bodies reuse the service
// and storage structs directly — the wire tier adds only the byte
// layout, and both ends of a catch-up RPC already speak those types.
// ---------------------------------------------------------------------------

/// kWalPull request: committed batches with tag > after_tag, bounded by
/// max_batches / max_bytes. The server additionally clamps the reply to
/// the frame payload cap; a single batch too big to frame turns the
/// reply into snapshot_needed.
struct WalPullRequest {
  uint64_t after_tag = 0;
  uint32_t max_batches = 0;  // 0 = server default.
  uint32_t max_bytes = 0;    // 0 = server default.
};

/// kSnapshotPull request: a run of page images starting at start_page.
struct SnapshotPullRequest {
  uint32_t start_page = 0;
  uint32_t max_bytes = 0;  // 0 = server default; server clamps to cap.
};

/// kSnapshotApply request: one chunk plus its position in the restore.
struct SnapshotApplyRequest {
  bool first = false;
  bool last = false;
  service::SnapshotChunk chunk;
};

/// kCatchupAck payload: the target's durable tag after the apply (also
/// what makes retried applies observable as no-ops).
struct CatchupAck {
  uint64_t last_tag = 0;
};

void EncodeWalPullRequest(const WalPullRequest& req, std::string* out);
bool DecodeWalPullRequest(std::string_view payload, WalPullRequest* out);

/// kWalBatchReply body: flags + last_tag + length-prefixed shipped
/// batches (storage::EncodeShippedBatch bytes, oldest first).
void EncodeWalTail(const service::WalTail& tail, std::string* out);
bool DecodeWalTail(std::string_view payload, service::WalTail* out);

/// kWalApply body is exactly one storage::EncodeShippedBatch image.
void EncodeWalApply(const storage::ShippedBatch& batch, std::string* out);
bool DecodeWalApply(std::string_view payload, storage::ShippedBatch* out);

void EncodeSnapshotPullRequest(const SnapshotPullRequest& req,
                               std::string* out);
bool DecodeSnapshotPullRequest(std::string_view payload,
                               SnapshotPullRequest* out);

void EncodeSnapshotChunk(const service::SnapshotChunk& chunk,
                         std::string* out);
bool DecodeSnapshotChunk(std::string_view payload,
                         service::SnapshotChunk* out);

void EncodeSnapshotApplyRequest(const SnapshotApplyRequest& req,
                                std::string* out);
bool DecodeSnapshotApplyRequest(std::string_view payload,
                                SnapshotApplyRequest* out);

void EncodeCatchupAck(const CatchupAck& ack, std::string* out);
bool DecodeCatchupAck(std::string_view payload, CatchupAck* out);

void EncodeTreeSumReply(const service::TreeSum& sum, std::string* out);
bool DecodeTreeSumReply(std::string_view payload, service::TreeSum* out);

void EncodeCatchupPosReply(const service::CatchupPosition& pos,
                           std::string* out);
bool DecodeCatchupPosReply(std::string_view payload,
                           service::CatchupPosition* out);

}  // namespace bw::net

#endif  // BLOBWORLD_NET_WIRE_H_
