// bw::net::Client — the client half of the wire protocol: a blocking
// TCP connection with request pipelining. Submit*() sends a frame and
// returns immediately with the request id; Await*() pumps the socket
// until that request's terminal frame arrives, parking frames for other
// in-flight ids so awaits may happen in any order. The synchronous
// wrappers (Knn, Range, Insert, ...) are Submit+Await in one call.
//
// Not thread-safe: one Client per thread (open several connections for
// concurrent load — that is what the server's accept loop is for).
// A framing error or socket failure poisons the client permanently;
// every later call returns the same error. Reconnect by constructing a
// new Client.

#ifndef BLOBWORLD_NET_CLIENT_H_
#define BLOBWORLD_NET_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/connection.h"
#include "net/wire.h"
#include "util/status.h"

namespace bw::net {

struct ClientOptions {
  /// Socket-level receive/send timeout; an await past this without any
  /// bytes from the server fails with IoError.
  std::chrono::milliseconds io_timeout{30000};
  uint32_t max_payload_bytes = kMaxPayloadBytes;
  /// Run the kHello version/feature handshake inside Connect(). On a
  /// major-version mismatch Connect fails with NotSupported (the
  /// server's version is in the message) — no mis-decoded frames, ever.
  /// Off restores the pre-handshake wire exchange byte for byte.
  bool handshake = true;
  /// Self-description sent in the hello (surfaced in server logs).
  std::string peer = "bwclient";
  /// Feature bits to claim in the hello (kFeature* in wire.h).
  uint32_t features = kFeatureStreaming;
};

/// Per-query limits, mirrored into the request frame.
struct QueryLimits {
  /// Execution budget in microseconds (frame header field, propagated
  /// into the server's stream deadline / I/O watchdog); 0 = none.
  uint32_t deadline_us = 0;
  /// k-NN only: stop once everything within this radius was returned.
  double budget_radius = std::numeric_limits<double>::infinity();
  /// Results per streamed batch frame (0 = server default).
  uint32_t batch_size = 0;
};

/// Outcome of a k-NN/range query over the wire.
struct QueryReply {
  std::vector<gist::Neighbor> neighbors;
  uint16_t wire_status = 0;  // raw protocol verdict (distinct shed codes).
  Status status;             // WireStatusToStatus(wire_status, message).
  bool degraded = false;     // answer is a genuine subset (fault budget).
  bool truncated = false;    // deadline cut the stream off.
  uint64_t pages_skipped = 0;
  double server_latency_us = 0;

  bool ok() const { return wire_status == 0; }
};

/// Outcome of an insert/delete over the wire.
struct MutateReply {
  uint16_t wire_status = 0;
  Status status;
  uint64_t tag = 0;  // durable commit tag (ack implies recoverable).

  bool ok() const { return wire_status == 0; }
};

class Client {
 public:
  /// Connects to `host:port` (IPv4 dotted quad or "localhost").
  static Result<std::unique_ptr<Client>> Connect(
      const std::string& host, uint16_t port,
      ClientOptions options = ClientOptions());

  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // --- Pipelined interface ----------------------------------------------
  // Submit returns the request id; Await blocks until that id's
  // terminal frame. Ids may be awaited in any order.

  Result<uint64_t> SubmitKnn(const geom::Vec& query, size_t k,
                             QueryLimits limits = QueryLimits());
  Result<uint64_t> SubmitRange(const geom::Vec& query, double radius,
                               uint32_t deadline_us = 0);
  Result<uint64_t> SubmitInsert(const geom::Vec& point, uint64_t rid);
  Result<uint64_t> SubmitDelete(const geom::Vec& point, uint64_t rid);
  Result<uint64_t> SubmitStats();
  Result<uint64_t> SubmitHealth();

  // --- Replica catch-up (kFeatureCatchup; wire 1.2) ---------------------
  // Used by the shard router's catch-up driver: read a lagging
  // replica's position, ship it the healthy sibling's WAL suffix (or a
  // full-store snapshot when the suffix was retired), and compare
  // checksums before readmission. Every reply is a single terminal
  // frame. Servers predating 1.2 answer NotSupported.

  Result<uint64_t> SubmitCatchupPos();
  Result<uint64_t> SubmitWalPull(uint64_t after_tag, uint32_t max_batches,
                                 uint32_t max_bytes);
  Result<uint64_t> SubmitWalApply(const storage::ShippedBatch& batch);
  Result<uint64_t> SubmitSnapshotPull(uint32_t start_page,
                                      uint32_t max_bytes);
  Result<uint64_t> SubmitSnapshotApply(const service::SnapshotChunk& chunk,
                                       bool first, bool last);
  Result<uint64_t> SubmitTreeSum();

  /// Await a query (kKnn/kRange) reply. The Result is an error only for
  /// transport-level failures; server-side verdicts (quota, shedding,
  /// bad request) come back as a QueryReply with wire_status != 0.
  Result<QueryReply> AwaitQuery(uint64_t request_id);
  Result<MutateReply> AwaitMutation(uint64_t request_id);
  Result<std::vector<std::pair<std::string, double>>> AwaitStats(
      uint64_t request_id);
  Result<HealthReply> AwaitHealth(uint64_t request_id);

  Result<service::CatchupPosition> AwaitCatchupPos(uint64_t request_id);
  Result<service::WalTail> AwaitWalTail(uint64_t request_id);
  /// Terminal ack for kWalApply and kSnapshotApply alike.
  Result<CatchupAck> AwaitCatchupAck(uint64_t request_id);
  Result<service::SnapshotChunk> AwaitSnapshotChunk(uint64_t request_id);
  Result<service::TreeSum> AwaitTreeSum(uint64_t request_id);

  // --- Synchronous wrappers ---------------------------------------------

  Result<QueryReply> Knn(const geom::Vec& query, size_t k,
                         QueryLimits limits = QueryLimits());
  Result<QueryReply> Range(const geom::Vec& query, double radius,
                           uint32_t deadline_us = 0);
  Result<MutateReply> Insert(const geom::Vec& point, uint64_t rid);
  Result<MutateReply> Remove(const geom::Vec& point, uint64_t rid);
  Result<std::vector<std::pair<std::string, double>>> Stats();
  Result<HealthReply> Health();

  Result<service::CatchupPosition> CatchupPos();
  Result<service::WalTail> PullWal(uint64_t after_tag, uint32_t max_batches,
                                   uint32_t max_bytes);
  Result<CatchupAck> ApplyWal(const storage::ShippedBatch& batch);
  Result<service::SnapshotChunk> PullSnapshot(uint32_t start_page,
                                              uint32_t max_bytes);
  Result<CatchupAck> ApplySnapshot(const service::SnapshotChunk& chunk,
                                   bool first, bool last);
  Result<service::TreeSum> TreeSum();

  /// The server's side of the handshake (valid when
  /// ClientOptions::handshake ran; a default-constructed reply with
  /// features == 0 otherwise).
  const HelloReply& server_hello() const { return server_hello_; }

  /// True when no request is awaiting its terminal frame: the
  /// connection can be reused for another request stream.
  bool idle() const { return pending_.empty() && broken_.ok(); }

  /// Raw socket fd — tests use this to simulate rude disconnects and
  /// stalled readers.
  int fd() const { return fd_; }

 private:
  Client(int fd, ClientOptions options)
      : fd_(fd), options_(options), parser_(options.max_payload_bytes) {}

  struct Pending {
    bool done = false;
    FrameHeader final_header;   // terminal frame's header.
    std::string final_payload;  // terminal frame's payload.
    std::vector<gist::Neighbor> neighbors;  // accumulated batches.
  };

  Status SendFrame(MsgType type, uint64_t request_id, uint32_t deadline_us,
                   std::string_view payload);
  /// Reads until `request_id` is done, parking other ids' frames.
  Status PumpUntilDone(uint64_t request_id);
  /// One blocking read + parse, routing frames to their pending ids.
  Status PumpOnce();
  Status Handshake();
  Status Poison(Status status);

  int fd_;
  ClientOptions options_;
  FrameParser parser_;
  uint64_t next_id_ = 1;
  std::map<uint64_t, Pending> pending_;
  Status broken_;  // non-OK once the connection is poisoned.
  HelloReply server_hello_;
};

}  // namespace bw::net

#endif  // BLOBWORLD_NET_CLIENT_H_
