#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace bw::net {

Result<std::unique_ptr<Client>> Client::Connect(const std::string& host,
                                                uint16_t port,
                                                ClientOptions options) {
  const std::string address = host == "localhost" ? "127.0.0.1" : host;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad host address: " + host);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const Status status =
        Status::IoError(std::string("connect: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval tv{};
  const auto usec = std::chrono::duration_cast<std::chrono::microseconds>(
                        options.io_timeout)
                        .count();
  tv.tv_sec = usec / 1000000;
  tv.tv_usec = usec % 1000000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  auto client = std::unique_ptr<Client>(new Client(fd, options));
  if (options.handshake) {
    BW_RETURN_IF_ERROR(client->Handshake());
  }
  return client;
}

Status Client::Handshake() {
  const uint64_t id = next_id_++;
  HelloRequest req;
  req.major = kWireVersionMajor;
  req.minor = kWireVersionMinor;
  req.features = options_.features;
  req.peer = options_.peer;
  std::string payload;
  EncodeHelloRequest(req, &payload);
  BW_RETURN_IF_ERROR(SendFrame(MsgType::kHello, id, 0, payload));
  BW_RETURN_IF_ERROR(PumpUntilDone(id));
  auto node = pending_.extract(id);
  Pending& p = node.mapped();
  if (p.final_header.type == MsgType::kFinal &&
      p.final_header.status == StatusCodeToWire(StatusCode::kNotSupported)) {
    // A server that predates the handshake answers "unknown request
    // type" and keeps the connection: fall back to pre-handshake
    // behavior (server_hello_ stays default, features == 0).
    return Status::OK();
  }
  if (p.final_header.type != MsgType::kHelloReply ||
      !DecodeHelloReply(p.final_payload, &server_hello_)) {
    return Poison(Status::DataLoss("malformed hello reply"));
  }
  if (p.final_header.status != 0) {
    return Poison(WireStatusToStatus(
        p.final_header.status,
        "server speaks protocol " + std::to_string(server_hello_.major) +
            "." + std::to_string(server_hello_.minor) + " (" +
            server_hello_.peer + "), this client speaks " +
            std::to_string(kWireVersionMajor) + "." +
            std::to_string(kWireVersionMinor)));
  }
  return Status::OK();
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Status Client::Poison(Status status) {
  if (broken_.ok()) broken_ = status;
  return broken_;
}

Status Client::SendFrame(MsgType type, uint64_t request_id,
                         uint32_t deadline_us, std::string_view payload) {
  if (!broken_.ok()) return broken_;
  FrameHeader h;
  h.type = type;
  h.request_id = request_id;
  h.deadline_us = deadline_us;
  const std::string frame = EncodeFrame(h, payload);
  size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t n =
        ::send(fd_, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Poison(
        Status::IoError(std::string("send: ") + std::strerror(errno)));
  }
  pending_.emplace(request_id, Pending{});
  return Status::OK();
}

Status Client::PumpOnce() {
  if (!broken_.ok()) return broken_;
  for (;;) {
    char buf[65536];
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n == 0) {
      return Poison(Status::IoError("server closed the connection"));
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Poison(Status::IoError("receive timeout"));
      }
      return Poison(
          Status::IoError(std::string("read: ") + std::strerror(errno)));
    }
    std::vector<FrameParser::Frame> frames;
    const bool intact = parser_.Feed(buf, static_cast<size_t>(n), &frames);
    for (auto& frame : frames) {
      auto target = pending_.find(frame.header.request_id);
      if (target == pending_.end()) continue;  // stale/unknown id: drop.
      Pending& p = target->second;
      if (frame.header.type == MsgType::kResultBatch) {
        if (!DecodeResultBatch(frame.payload, &p.neighbors)) {
          return Poison(Status::DataLoss("malformed result batch frame"));
        }
        continue;
      }
      // Any other frame from the server is terminal for its id.
      p.final_header = frame.header;
      p.final_payload = std::move(frame.payload);
      p.done = true;
    }
    if (!intact) {
      return Poison(Status::DataLoss(parser_.error()));
    }
    return Status::OK();
  }
}

Status Client::PumpUntilDone(uint64_t request_id) {
  if (!broken_.ok()) return broken_;
  for (;;) {
    auto it = pending_.find(request_id);
    if (it == pending_.end()) {
      return Status::InvalidArgument("unknown request id " +
                                     std::to_string(request_id));
    }
    if (it->second.done) return Status::OK();
    BW_RETURN_IF_ERROR(PumpOnce());
  }
}

// ---------------------------------------------------------------------------
// Submissions
// ---------------------------------------------------------------------------

Result<uint64_t> Client::SubmitKnn(const geom::Vec& query, size_t k,
                                   QueryLimits limits) {
  const uint64_t id = next_id_++;
  KnnRequest req;
  req.query = query;
  req.k = static_cast<uint32_t>(k);
  req.batch_size = limits.batch_size;
  req.budget_radius = limits.budget_radius;
  std::string payload;
  EncodeKnnRequest(req, &payload);
  BW_RETURN_IF_ERROR(
      SendFrame(MsgType::kKnn, id, limits.deadline_us, payload));
  return id;
}

Result<uint64_t> Client::SubmitRange(const geom::Vec& query, double radius,
                                     uint32_t deadline_us) {
  const uint64_t id = next_id_++;
  RangeRequest req;
  req.query = query;
  req.radius = radius;
  std::string payload;
  EncodeRangeRequest(req, &payload);
  BW_RETURN_IF_ERROR(SendFrame(MsgType::kRange, id, deadline_us, payload));
  return id;
}

Result<uint64_t> Client::SubmitInsert(const geom::Vec& point, uint64_t rid) {
  const uint64_t id = next_id_++;
  MutateRequest req;
  req.point = point;
  req.rid = rid;
  std::string payload;
  EncodeMutateRequest(req, &payload);
  BW_RETURN_IF_ERROR(SendFrame(MsgType::kInsert, id, 0, payload));
  return id;
}

Result<uint64_t> Client::SubmitDelete(const geom::Vec& point, uint64_t rid) {
  const uint64_t id = next_id_++;
  MutateRequest req;
  req.point = point;
  req.rid = rid;
  std::string payload;
  EncodeMutateRequest(req, &payload);
  BW_RETURN_IF_ERROR(SendFrame(MsgType::kDelete, id, 0, payload));
  return id;
}

Result<uint64_t> Client::SubmitStats() {
  const uint64_t id = next_id_++;
  BW_RETURN_IF_ERROR(SendFrame(MsgType::kStats, id, 0, {}));
  return id;
}

Result<uint64_t> Client::SubmitHealth() {
  const uint64_t id = next_id_++;
  BW_RETURN_IF_ERROR(SendFrame(MsgType::kHealth, id, 0, {}));
  return id;
}

Result<uint64_t> Client::SubmitCatchupPos() {
  const uint64_t id = next_id_++;
  BW_RETURN_IF_ERROR(SendFrame(MsgType::kCatchupPos, id, 0, {}));
  return id;
}

Result<uint64_t> Client::SubmitWalPull(uint64_t after_tag,
                                       uint32_t max_batches,
                                       uint32_t max_bytes) {
  const uint64_t id = next_id_++;
  WalPullRequest req;
  req.after_tag = after_tag;
  req.max_batches = max_batches;
  req.max_bytes = max_bytes;
  std::string payload;
  EncodeWalPullRequest(req, &payload);
  BW_RETURN_IF_ERROR(SendFrame(MsgType::kWalPull, id, 0, payload));
  return id;
}

Result<uint64_t> Client::SubmitWalApply(const storage::ShippedBatch& batch) {
  const uint64_t id = next_id_++;
  std::string payload;
  EncodeWalApply(batch, &payload);
  BW_RETURN_IF_ERROR(SendFrame(MsgType::kWalApply, id, 0, payload));
  return id;
}

Result<uint64_t> Client::SubmitSnapshotPull(uint32_t start_page,
                                            uint32_t max_bytes) {
  const uint64_t id = next_id_++;
  SnapshotPullRequest req;
  req.start_page = start_page;
  req.max_bytes = max_bytes;
  std::string payload;
  EncodeSnapshotPullRequest(req, &payload);
  BW_RETURN_IF_ERROR(SendFrame(MsgType::kSnapshotPull, id, 0, payload));
  return id;
}

Result<uint64_t> Client::SubmitSnapshotApply(
    const service::SnapshotChunk& chunk, bool first, bool last) {
  const uint64_t id = next_id_++;
  SnapshotApplyRequest req;
  req.first = first;
  req.last = last;
  req.chunk = chunk;
  std::string payload;
  EncodeSnapshotApplyRequest(req, &payload);
  BW_RETURN_IF_ERROR(SendFrame(MsgType::kSnapshotApply, id, 0, payload));
  return id;
}

Result<uint64_t> Client::SubmitTreeSum() {
  const uint64_t id = next_id_++;
  BW_RETURN_IF_ERROR(SendFrame(MsgType::kTreeSum, id, 0, {}));
  return id;
}

// ---------------------------------------------------------------------------
// Awaits
// ---------------------------------------------------------------------------

Result<QueryReply> Client::AwaitQuery(uint64_t request_id) {
  BW_RETURN_IF_ERROR(PumpUntilDone(request_id));
  auto node = pending_.extract(request_id);
  Pending& p = node.mapped();
  QueryReply reply;
  reply.neighbors = std::move(p.neighbors);
  reply.wire_status = p.final_header.status;
  reply.degraded = (p.final_header.flags & kFlagDegraded) != 0;
  reply.truncated = (p.final_header.flags & kFlagTruncated) != 0;
  FinalInfo info;
  if (DecodeFinalInfo(p.final_payload, &info)) {
    reply.pages_skipped = info.pages_skipped;
    reply.server_latency_us = info.server_latency_us;
    reply.status = WireStatusToStatus(reply.wire_status, info.message);
  } else {
    reply.status = WireStatusToStatus(reply.wire_status, "");
  }
  return reply;
}

Result<MutateReply> Client::AwaitMutation(uint64_t request_id) {
  BW_RETURN_IF_ERROR(PumpUntilDone(request_id));
  auto node = pending_.extract(request_id);
  Pending& p = node.mapped();
  MutateReply reply;
  reply.wire_status = p.final_header.status;
  FinalInfo info;
  if (DecodeFinalInfo(p.final_payload, &info)) {
    reply.tag = info.mutation_tag;
    reply.status = WireStatusToStatus(reply.wire_status, info.message);
  } else {
    reply.status = WireStatusToStatus(reply.wire_status, "");
  }
  return reply;
}

Result<std::vector<std::pair<std::string, double>>> Client::AwaitStats(
    uint64_t request_id) {
  BW_RETURN_IF_ERROR(PumpUntilDone(request_id));
  auto node = pending_.extract(request_id);
  Pending& p = node.mapped();
  if (p.final_header.status != 0) {
    return WireStatusToStatus(p.final_header.status, "stats request failed");
  }
  std::vector<std::pair<std::string, double>> fields;
  if (!DecodeStatsReply(p.final_payload, &fields)) {
    return Poison(Status::DataLoss("malformed stats reply"));
  }
  return fields;
}

Result<HealthReply> Client::AwaitHealth(uint64_t request_id) {
  BW_RETURN_IF_ERROR(PumpUntilDone(request_id));
  auto node = pending_.extract(request_id);
  Pending& p = node.mapped();
  if (p.final_header.status != 0) {
    return WireStatusToStatus(p.final_header.status,
                              "health request failed");
  }
  HealthReply reply;
  if (!DecodeHealthReply(p.final_payload, &reply)) {
    return Poison(Status::DataLoss("malformed health reply"));
  }
  return reply;
}

namespace {

/// Error terminal frames (MsgType::kFinal) carry a FinalInfo payload;
/// surface its message in the Status handed back to the caller.
Status TerminalError(const FrameHeader& header, const std::string& payload) {
  FinalInfo info;
  const std::string message =
      DecodeFinalInfo(payload, &info) ? info.message : std::string();
  return WireStatusToStatus(header.status, message);
}

}  // namespace

Result<service::CatchupPosition> Client::AwaitCatchupPos(
    uint64_t request_id) {
  BW_RETURN_IF_ERROR(PumpUntilDone(request_id));
  auto node = pending_.extract(request_id);
  Pending& p = node.mapped();
  if (p.final_header.status != 0) {
    return TerminalError(p.final_header, p.final_payload);
  }
  service::CatchupPosition pos;
  if (p.final_header.type != MsgType::kCatchupPosReply ||
      !DecodeCatchupPosReply(p.final_payload, &pos)) {
    return Poison(Status::DataLoss("malformed catch-up position reply"));
  }
  return pos;
}

Result<service::WalTail> Client::AwaitWalTail(uint64_t request_id) {
  BW_RETURN_IF_ERROR(PumpUntilDone(request_id));
  auto node = pending_.extract(request_id);
  Pending& p = node.mapped();
  if (p.final_header.status != 0) {
    return TerminalError(p.final_header, p.final_payload);
  }
  service::WalTail tail;
  if (p.final_header.type != MsgType::kWalBatchReply ||
      !DecodeWalTail(p.final_payload, &tail)) {
    return Poison(Status::DataLoss("malformed WAL tail reply"));
  }
  return tail;
}

Result<CatchupAck> Client::AwaitCatchupAck(uint64_t request_id) {
  BW_RETURN_IF_ERROR(PumpUntilDone(request_id));
  auto node = pending_.extract(request_id);
  Pending& p = node.mapped();
  if (p.final_header.status != 0) {
    return TerminalError(p.final_header, p.final_payload);
  }
  CatchupAck ack;
  if (p.final_header.type != MsgType::kCatchupAck ||
      !DecodeCatchupAck(p.final_payload, &ack)) {
    return Poison(Status::DataLoss("malformed catch-up ack"));
  }
  return ack;
}

Result<service::SnapshotChunk> Client::AwaitSnapshotChunk(
    uint64_t request_id) {
  BW_RETURN_IF_ERROR(PumpUntilDone(request_id));
  auto node = pending_.extract(request_id);
  Pending& p = node.mapped();
  if (p.final_header.status != 0) {
    return TerminalError(p.final_header, p.final_payload);
  }
  service::SnapshotChunk chunk;
  if (p.final_header.type != MsgType::kSnapshotChunk ||
      !DecodeSnapshotChunk(p.final_payload, &chunk)) {
    return Poison(Status::DataLoss("malformed snapshot chunk reply"));
  }
  return chunk;
}

Result<service::TreeSum> Client::AwaitTreeSum(uint64_t request_id) {
  BW_RETURN_IF_ERROR(PumpUntilDone(request_id));
  auto node = pending_.extract(request_id);
  Pending& p = node.mapped();
  if (p.final_header.status != 0) {
    return TerminalError(p.final_header, p.final_payload);
  }
  service::TreeSum sum;
  if (p.final_header.type != MsgType::kTreeSumReply ||
      !DecodeTreeSumReply(p.final_payload, &sum)) {
    return Poison(Status::DataLoss("malformed tree checksum reply"));
  }
  return sum;
}

// ---------------------------------------------------------------------------
// Synchronous wrappers
// ---------------------------------------------------------------------------

Result<QueryReply> Client::Knn(const geom::Vec& query, size_t k,
                               QueryLimits limits) {
  BW_ASSIGN_OR_RETURN(const uint64_t id, SubmitKnn(query, k, limits));
  return AwaitQuery(id);
}

Result<QueryReply> Client::Range(const geom::Vec& query, double radius,
                                 uint32_t deadline_us) {
  BW_ASSIGN_OR_RETURN(const uint64_t id,
                      SubmitRange(query, radius, deadline_us));
  return AwaitQuery(id);
}

Result<MutateReply> Client::Insert(const geom::Vec& point, uint64_t rid) {
  BW_ASSIGN_OR_RETURN(const uint64_t id, SubmitInsert(point, rid));
  return AwaitMutation(id);
}

Result<MutateReply> Client::Remove(const geom::Vec& point, uint64_t rid) {
  BW_ASSIGN_OR_RETURN(const uint64_t id, SubmitDelete(point, rid));
  return AwaitMutation(id);
}

Result<std::vector<std::pair<std::string, double>>> Client::Stats() {
  BW_ASSIGN_OR_RETURN(const uint64_t id, SubmitStats());
  return AwaitStats(id);
}

Result<HealthReply> Client::Health() {
  BW_ASSIGN_OR_RETURN(const uint64_t id, SubmitHealth());
  return AwaitHealth(id);
}

Result<service::CatchupPosition> Client::CatchupPos() {
  BW_ASSIGN_OR_RETURN(const uint64_t id, SubmitCatchupPos());
  return AwaitCatchupPos(id);
}

Result<service::WalTail> Client::PullWal(uint64_t after_tag,
                                         uint32_t max_batches,
                                         uint32_t max_bytes) {
  BW_ASSIGN_OR_RETURN(const uint64_t id,
                      SubmitWalPull(after_tag, max_batches, max_bytes));
  return AwaitWalTail(id);
}

Result<CatchupAck> Client::ApplyWal(const storage::ShippedBatch& batch) {
  BW_ASSIGN_OR_RETURN(const uint64_t id, SubmitWalApply(batch));
  return AwaitCatchupAck(id);
}

Result<service::SnapshotChunk> Client::PullSnapshot(uint32_t start_page,
                                                    uint32_t max_bytes) {
  BW_ASSIGN_OR_RETURN(const uint64_t id,
                      SubmitSnapshotPull(start_page, max_bytes));
  return AwaitSnapshotChunk(id);
}

Result<CatchupAck> Client::ApplySnapshot(const service::SnapshotChunk& chunk,
                                         bool first, bool last) {
  BW_ASSIGN_OR_RETURN(const uint64_t id,
                      SubmitSnapshotApply(chunk, first, last));
  return AwaitCatchupAck(id);
}

Result<service::TreeSum> Client::TreeSum() {
  BW_ASSIGN_OR_RETURN(const uint64_t id, SubmitTreeSum());
  return AwaitTreeSum(id);
}

}  // namespace bw::net
