// Tests for the network front end (src/net/): codec round trips, frame
// reassembly, end-to-end wire queries against in-process ground truth,
// request pipelining, quota shedding with distinct wire codes, the
// read-only/failed write-state surfacing, slow-reader backpressure,
// graceful-shutdown drain, and — most importantly — malformed-input
// hardening: truncated frames, oversized declared lengths, bad CRCs,
// unknown types, and mid-stream disconnects must produce clean
// per-connection errors, never a crash or a leak (this file is part of
// the ASan/UBSan and TSan gates).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <limits>
#include <random>
#include <set>
#include <thread>
#include <tuple>

#include <gtest/gtest.h>

#include "core/durable_index.h"
#include "core/index_factory.h"
#include "net/client.h"
#include "net/connection.h"
#include "net/server.h"
#include "net/wire.h"
#include "service/query_service.h"
#include "tests/test_helpers.h"

namespace bw::net {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

constexpr size_t kDim = 4;

std::vector<geom::Vec> TestVectors(size_t n = 2000) {
  return bw::testing::MakeClusteredPoints(n, kDim, 8, 17);
}

// An index + service + server on an ephemeral port, with the tree kept
// reachable for ground-truth queries.
struct NetHarness {
  explicit NetHarness(service::ServiceOptions sopts = {},
                      ServerOptions nopts = {}, size_t n = 2000)
      : vectors(TestVectors(n)) {
    core::IndexBuildOptions build;
    build.am = "xjb";
    build.xjb_x = 0;
    auto index = core::BuildIndex(vectors, build);
    BW_CHECK_MSG(index.ok(), index.status().ToString());
    tree = &(*index)->tree();
    service = std::make_unique<service::QueryService>(std::move(*index),
                                                      sopts);
    server = std::make_unique<Server>(service.get(), nopts);
    BW_CHECK_OK(server->Start());
  }

  std::unique_ptr<Client> Connect(ClientOptions copts = ClientOptions()) {
    auto client = Client::Connect("127.0.0.1", server->port(), copts);
    BW_CHECK_MSG(client.ok(), client.status().ToString());
    return std::move(*client);
  }

  std::vector<geom::Vec> vectors;
  const gist::Tree* tree = nullptr;
  std::unique_ptr<service::QueryService> service;
  std::unique_ptr<Server> server;
};

// A raw TCP connection speaking hand-crafted bytes — the hostile-client
// stand-in the net::Client refuses to be.
class RawConn {
 public:
  explicit RawConn(uint16_t port, int rcvbuf_bytes = 0,
                   int recv_timeout_ms = 5000) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    BW_CHECK(fd_ >= 0);
    if (rcvbuf_bytes > 0) {
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes,
                   sizeof(rcvbuf_bytes));
    }
    timeval tv{recv_timeout_ms / 1000, (recv_timeout_ms % 1000) * 1000};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    BW_CHECK(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                       sizeof(addr)) == 0);
  }

  ~RawConn() { Close(); }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  bool Send(std::string_view bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  // Reads until `want` frames have arrived (or EOF / socket timeout).
  std::vector<FrameParser::Frame> ReadFrames(size_t want) {
    std::vector<FrameParser::Frame> frames;
    char buf[65536];
    while (frames.size() < want) {
      const ssize_t n = ::read(fd_, buf, sizeof(buf));
      if (n <= 0) break;
      if (!parser_.Feed(buf, static_cast<size_t>(n), &frames)) break;
    }
    return frames;
  }

  // True if the server closes the connection (EOF) within the socket
  // timeout, consuming any trailing frames first.
  bool WaitEof() {
    char buf[65536];
    for (;;) {
      const ssize_t n = ::read(fd_, buf, sizeof(buf));
      if (n == 0) return true;
      if (n < 0) return false;
      std::vector<FrameParser::Frame> frames;
      parser_.Feed(buf, static_cast<size_t>(n), &frames);
    }
  }

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  FrameParser parser_;
};

std::string KnnFrame(uint64_t id, const geom::Vec& query, uint32_t k,
                     uint32_t deadline_us = 0, uint32_t batch_size = 0) {
  KnnRequest req;
  req.query = query;
  req.k = k;
  req.batch_size = batch_size;
  std::string payload;
  EncodeKnnRequest(req, &payload);
  FrameHeader h;
  h.type = MsgType::kKnn;
  h.request_id = id;
  h.deadline_us = deadline_us;
  return EncodeFrame(h, payload);
}

std::vector<gist::Neighbor> TruthKnn(const gist::Tree& tree,
                                     const geom::Vec& query, size_t k) {
  gist::TraversalStats stats;
  auto result = tree.KnnSearch(query, k, &stats);
  BW_CHECK_MSG(result.ok(), result.status().ToString());
  return std::move(*result);
}

std::vector<gist::Neighbor> TruthRange(const gist::Tree& tree,
                                       const geom::Vec& query,
                                       double radius) {
  gist::TraversalStats stats;
  auto result = tree.RangeSearch(query, radius, &stats);
  BW_CHECK_MSG(result.ok(), result.status().ToString());
  return std::move(*result);
}

std::multiset<uint64_t> RidSet(const std::vector<gist::Neighbor>& neighbors) {
  std::multiset<uint64_t> rids;
  for (const auto& n : neighbors) rids.insert(n.rid);
  return rids;
}

// Spin-polls `pred` for up to `limit`; returns whether it became true.
bool PollUntil(milliseconds limit, const std::function<bool()>& pred) {
  const auto deadline = steady_clock::now() + limit;
  while (steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(milliseconds(5));
  }
  return pred();
}

// ---------------------------------------------------------------------------
// Codec unit tests (no sockets)
// ---------------------------------------------------------------------------

TEST(WireCodec, HeaderRoundTripsAndRejectsCorruption) {
  FrameHeader h;
  h.type = MsgType::kKnn;
  h.flags = kFlagDegraded;
  h.status = 7;
  h.request_id = 0x1122334455667788ull;
  h.deadline_us = 2500;
  const std::string payload = "hello blobworld";
  const std::string frame = EncodeFrame(h, payload);
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + payload.size());

  FrameHeader decoded;
  ASSERT_EQ(DecodeFrameHeader(
                reinterpret_cast<const uint8_t*>(frame.data()),
                kMaxPayloadBytes, &decoded),
            HeaderVerdict::kOk);
  EXPECT_EQ(decoded.type, h.type);
  EXPECT_EQ(decoded.flags, h.flags);
  EXPECT_EQ(decoded.status, h.status);
  EXPECT_EQ(decoded.request_id, h.request_id);
  EXPECT_EQ(decoded.deadline_us, h.deadline_us);
  EXPECT_EQ(decoded.payload_len, payload.size());
  EXPECT_TRUE(PayloadCrcOk(decoded, payload));
  EXPECT_FALSE(PayloadCrcOk(decoded, "hello blobw0rld"));

  // Any flipped header byte must be caught by magic or CRC validation.
  for (size_t i = 0; i < kFrameHeaderBytes; ++i) {
    std::string bad = frame;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    FrameHeader out;
    EXPECT_NE(DecodeFrameHeader(
                  reinterpret_cast<const uint8_t*>(bad.data()),
                  kMaxPayloadBytes, &out),
              HeaderVerdict::kOk)
        << "flip at byte " << i;
  }

  // A declared length over the receiver's cap is rejected before any
  // allocation, even with a valid CRC.
  FrameHeader out;
  EXPECT_EQ(DecodeFrameHeader(
                reinterpret_cast<const uint8_t*>(frame.data()),
                static_cast<uint32_t>(payload.size() - 1), &out),
            HeaderVerdict::kOversized);
}

TEST(WireCodec, PayloadRoundTrips) {
  KnnRequest knn;
  knn.query = geom::Vec{0.25, -1.5, 3.0, 0.125};
  knn.k = 17;
  knn.batch_size = 9;
  knn.budget_radius = 0.75;
  std::string buf;
  EncodeKnnRequest(knn, &buf);
  KnnRequest knn2;
  ASSERT_TRUE(DecodeKnnRequest(buf, &knn2));
  EXPECT_EQ(knn2.query, knn.query);
  EXPECT_EQ(knn2.k, knn.k);
  EXPECT_EQ(knn2.batch_size, knn.batch_size);
  EXPECT_DOUBLE_EQ(knn2.budget_radius, knn.budget_radius);

  RangeRequest range;
  range.query = geom::Vec{1, 2, 3, 4};
  range.radius = 0.5;
  buf.clear();
  EncodeRangeRequest(range, &buf);
  RangeRequest range2;
  ASSERT_TRUE(DecodeRangeRequest(buf, &range2));
  EXPECT_EQ(range2.query, range.query);
  EXPECT_DOUBLE_EQ(range2.radius, range.radius);

  MutateRequest mut;
  mut.point = geom::Vec{9, 8, 7, 6};
  mut.rid = 424242;
  buf.clear();
  EncodeMutateRequest(mut, &buf);
  MutateRequest mut2;
  ASSERT_TRUE(DecodeMutateRequest(buf, &mut2));
  EXPECT_EQ(mut2.point, mut.point);
  EXPECT_EQ(mut2.rid, mut.rid);

  std::vector<gist::Neighbor> neighbors;
  for (uint64_t i = 0; i < 5; ++i) {
    neighbors.push_back({i * 3, 0.1 * static_cast<double>(i), 0});
  }
  buf.clear();
  EncodeResultBatch(neighbors, 1, 3, &buf);
  std::vector<gist::Neighbor> batch;
  ASSERT_TRUE(DecodeResultBatch(buf, &batch));
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].rid, neighbors[1].rid);
  EXPECT_DOUBLE_EQ(batch[2].distance, neighbors[3].distance);

  FinalInfo info;
  info.total_results = 100;
  info.pages_skipped = 3;
  info.server_latency_us = 1234.5;
  info.mutation_tag = 88;
  info.message = "deadline";
  buf.clear();
  EncodeFinalInfo(info, &buf);
  FinalInfo info2;
  ASSERT_TRUE(DecodeFinalInfo(buf, &info2));
  EXPECT_EQ(info2.total_results, info.total_results);
  EXPECT_EQ(info2.pages_skipped, info.pages_skipped);
  EXPECT_DOUBLE_EQ(info2.server_latency_us, info.server_latency_us);
  EXPECT_EQ(info2.mutation_tag, info.mutation_tag);
  EXPECT_EQ(info2.message, info.message);

  std::vector<std::pair<std::string, double>> fields = {
      {"qps", 12.5}, {"completed", 42}, {"write_state", 1}};
  buf.clear();
  EncodeStatsReply(fields, &buf);
  std::vector<std::pair<std::string, double>> fields2;
  ASSERT_TRUE(DecodeStatsReply(buf, &fields2));
  EXPECT_EQ(fields2, fields);

  HealthReply health;
  health.write_state = 2;
  health.writes_enabled = true;
  health.write_degraded = true;
  health.generation = 7;
  health.completed = 1000;
  health.pages_quarantined = 3;
  health.uptime_seconds = 12.25;
  buf.clear();
  EncodeHealthReply(health, &buf);
  HealthReply health2;
  ASSERT_TRUE(DecodeHealthReply(buf, &health2));
  EXPECT_EQ(health2.write_state, health.write_state);
  EXPECT_EQ(health2.writes_enabled, health.writes_enabled);
  EXPECT_EQ(health2.write_degraded, health.write_degraded);
  EXPECT_EQ(health2.generation, health.generation);
  EXPECT_DOUBLE_EQ(health2.uptime_seconds, health.uptime_seconds);
}

TEST(WireCodec, TruncatedPayloadsNeverDecode) {
  KnnRequest knn;
  knn.query = geom::Vec{1, 2, 3, 4};
  knn.k = 5;
  std::string buf;
  EncodeKnnRequest(knn, &buf);
  for (size_t len = 0; len < buf.size(); ++len) {
    KnnRequest out;
    EXPECT_FALSE(DecodeKnnRequest(std::string_view(buf.data(), len), &out))
        << "prefix " << len;
  }
  // Trailing garbage is just as malformed as missing bytes.
  KnnRequest out;
  EXPECT_FALSE(DecodeKnnRequest(buf + "x", &out));
}

TEST(WireCodec, StatusRegistryIsStableBothWays) {
  for (int raw = 0; raw <= static_cast<int>(StatusCode::kResourceExhausted);
       ++raw) {
    const auto code = static_cast<StatusCode>(raw);
    EXPECT_EQ(StatusCodeFromWire(StatusCodeToWire(code)), code);
    EXPECT_LT(StatusCodeToWire(code), 64) << "service codes live in 0..63";
  }
  // The three net-tier verdicts are distinct from every service code
  // and from each other — that is the whole point of the registry.
  EXPECT_NE(kWireQuotaExceeded, StatusCodeToWire(StatusCode::kResourceExhausted));
  EXPECT_NE(kWireQuotaExceeded, kWireShuttingDown);
  EXPECT_NE(kWireShuttingDown, kWireBadFrame);
  EXPECT_EQ(WireStatusToStatus(kWireQuotaExceeded, "q").code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(WireStatusToStatus(kWireShuttingDown, "s").code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(WireStatusToStatus(kWireBadFrame, "b").code(),
            StatusCode::kDataLoss);
  EXPECT_TRUE(WireStatusToStatus(0, "").ok());
}

// Reference for EncodeQueryReply: one EncodeFrame per EncodeResultBatch
// payload, then one over the final frame's EncodeFinalInfo payload.
std::string PerFrameQueryReply(uint64_t id,
                               const service::QueryResponse& response,
                               size_t batch_size) {
  const auto& neighbors = response.neighbors;
  std::string out;
  for (size_t begin = 0; begin < neighbors.size(); begin += batch_size) {
    const size_t count = std::min(batch_size, neighbors.size() - begin);
    std::string payload;
    EncodeResultBatch(neighbors, begin, count, &payload);
    FrameHeader h;
    h.type = MsgType::kResultBatch;
    h.request_id = id;
    out += EncodeFrame(h, payload);
  }
  FinalInfo info;
  info.total_results = neighbors.size();
  info.pages_skipped = response.metrics.pages_skipped;
  info.server_latency_us = response.metrics.latency_us;
  std::string payload;
  EncodeFinalInfo(info, &payload);
  FrameHeader h;
  h.type = MsgType::kFinal;
  h.flags = kFlagFinal;
  if (response.degraded()) h.flags |= kFlagDegraded;
  if (response.metrics.truncated) h.flags |= kFlagTruncated;
  h.request_id = id;
  out += EncodeFrame(h, payload);
  return out;
}

TEST(WireCodec, QueryReplyEqualsPerFrameEncoding) {
  for (size_t k : {0, 1, 64, 65, 2000}) {
    service::QueryResponse response;
    for (size_t i = 0; i < k; ++i) {
      response.neighbors.push_back(
          {(uint64_t{1} << 40) + i * 7919, 0.25 * static_cast<double>(i) +
                                               1e-9 * static_cast<double>(k),
           0});
    }
    response.metrics.pages_skipped = k % 5;
    response.metrics.latency_us = 12.5 + static_cast<double>(k);
    for (size_t batch_size : {1, 64}) {
      for (bool degraded : {false, true}) {
        for (bool truncated : {false, true}) {
          response.completeness = degraded ? service::Completeness::kDegraded
                                           : service::Completeness::kComplete;
          response.metrics.truncated = truncated;
          const uint64_t id = 1000 + k;
          EXPECT_EQ(EncodeQueryReply(id, response, batch_size),
                    PerFrameQueryReply(id, response, batch_size))
              << "k=" << k << " batch=" << batch_size
              << " degraded=" << degraded << " truncated=" << truncated;
        }
      }
    }
  }

  // And a receiver splits it back into its frames.
  service::QueryResponse response;
  for (uint64_t i = 0; i < 65; ++i) response.neighbors.push_back({i, 1.0, 0});
  const std::string reply = EncodeQueryReply(9, response, 64);
  FrameParser parser;
  std::vector<FrameParser::Frame> frames;
  ASSERT_TRUE(parser.Feed(reply.data(), reply.size(), &frames));
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].header.type, MsgType::kResultBatch);
  EXPECT_EQ(frames[1].header.type, MsgType::kResultBatch);
  EXPECT_EQ(frames[2].header.type, MsgType::kFinal);
  EXPECT_EQ(parser.pending_bytes(), 0u);
}

TEST(FrameParserTest, ReassemblesAcrossArbitraryChunking) {
  std::string stream;
  for (uint64_t id = 1; id <= 3; ++id) {
    stream += KnnFrame(id, geom::Vec{1, 2, 3, 4}, 10);
  }
  // Byte-at-a-time is the worst case an epoll read can produce.
  FrameParser parser;
  std::vector<FrameParser::Frame> frames;
  for (char c : stream) {
    ASSERT_TRUE(parser.Feed(&c, 1, &frames));
  }
  ASSERT_EQ(frames.size(), 3u);
  for (uint64_t id = 1; id <= 3; ++id) {
    EXPECT_EQ(frames[id - 1].header.request_id, id);
    KnnRequest req;
    EXPECT_TRUE(DecodeKnnRequest(frames[id - 1].payload, &req));
  }
  EXPECT_EQ(parser.pending_bytes(), 0u);

  // Garbage after valid frames: frames already complete were delivered,
  // then the parser latches broken.
  FrameParser dirty;
  std::string tail = KnnFrame(9, geom::Vec{1, 2, 3, 4}, 5);
  tail += "this is definitely not a frame header, not even close!";
  frames.clear();
  EXPECT_FALSE(dirty.Feed(tail.data(), tail.size(), &frames));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].header.request_id, 9u);
  EXPECT_TRUE(dirty.broken());
  EXPECT_FALSE(dirty.error().empty());
  // Once broken, further input is ignored.
  std::string more = KnnFrame(10, geom::Vec{1, 2, 3, 4}, 5);
  frames.clear();
  EXPECT_FALSE(dirty.Feed(more.data(), more.size(), &frames));
  EXPECT_TRUE(frames.empty());
}

TEST(RateLimiterTest, BucketAdmitsBurstThenThrottles) {
  ResultRateLimiter limiter;
  limiter.Configure(100);
  auto now = steady_clock::now();
  EXPECT_TRUE(limiter.Admit(now));
  limiter.Charge(250);  // cost known only after completion.
  EXPECT_FALSE(limiter.Admit(now));
  // 1.6s of refill at 100/s clears the 150-token debt.
  EXPECT_TRUE(limiter.Admit(now + milliseconds(1600)));
  // Unlimited when rate is 0.
  ResultRateLimiter open;
  open.Configure(0);
  open.Charge(1e9);
  EXPECT_TRUE(open.Admit(now));
}

// ---------------------------------------------------------------------------
// End-to-end correctness over the wire
// ---------------------------------------------------------------------------

TEST(NetEndToEnd, KnnMatchesInProcessGroundTruth) {
  NetHarness h;
  auto client = h.Connect();
  for (size_t q = 0; q < 16; ++q) {
    const geom::Vec& focus = h.vectors[(q * 97) % h.vectors.size()];
    auto reply = client->Knn(focus, 10);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_TRUE(reply->ok()) << WireStatusName(reply->wire_status);
    const auto truth = TruthKnn(*h.tree, focus, 10);
    ASSERT_EQ(reply->neighbors.size(), truth.size());
    for (size_t i = 0; i < truth.size(); ++i) {
      EXPECT_NEAR(reply->neighbors[i].distance, truth[i].distance, 1e-9);
    }
    EXPECT_EQ(RidSet(reply->neighbors), RidSet(truth));
    EXPECT_GT(reply->server_latency_us, 0);
  }
}

TEST(NetEndToEnd, RangeMatchesInProcessGroundTruth) {
  NetHarness h;
  auto client = h.Connect();
  for (size_t q = 0; q < 8; ++q) {
    const geom::Vec& focus = h.vectors[(q * 131) % h.vectors.size()];
    auto reply = client->Range(focus, 0.25);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_TRUE(reply->ok());
    const auto truth = TruthRange(*h.tree, focus, 0.25);
    EXPECT_EQ(RidSet(reply->neighbors), RidSet(truth));
  }
}

TEST(NetEndToEnd, PipelinedRequestsAwaitOutOfOrder) {
  NetHarness h;
  auto client = h.Connect();
  constexpr size_t kPipelined = 12;
  std::vector<uint64_t> ids;
  std::vector<geom::Vec> foci;
  for (size_t q = 0; q < kPipelined; ++q) {
    foci.push_back(h.vectors[(q * 211) % h.vectors.size()]);
    auto id = client->SubmitKnn(foci.back(), 8);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  // Await newest-first: every other id's frames get parked and must
  // survive until their own await.
  for (size_t q = kPipelined; q-- > 0;) {
    auto reply = client->AwaitQuery(ids[q]);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_TRUE(reply->ok());
    const auto truth = TruthKnn(*h.tree, foci[q], 8);
    EXPECT_EQ(RidSet(reply->neighbors), RidSet(truth));
  }
}

TEST(NetEndToEnd, StreamingHonorsClientBatchSize) {
  NetHarness h;
  RawConn raw(h.server->port());
  const geom::Vec& focus = h.vectors[42];
  ASSERT_TRUE(raw.Send(KnnFrame(5, focus, 100, 0, 7)));
  // ceil(100/7) batch frames plus the terminal frame.
  auto frames = raw.ReadFrames(16);
  ASSERT_EQ(frames.size(), 16u);
  size_t results = 0;
  for (size_t i = 0; i + 1 < frames.size(); ++i) {
    ASSERT_EQ(frames[i].header.type, MsgType::kResultBatch);
    ASSERT_EQ(frames[i].header.request_id, 5u);
    std::vector<gist::Neighbor> batch;
    ASSERT_TRUE(DecodeResultBatch(frames[i].payload, &batch));
    EXPECT_LE(batch.size(), 7u);
    results += batch.size();
  }
  EXPECT_EQ(results, 100u);
  const auto& last = frames.back();
  EXPECT_EQ(last.header.type, MsgType::kFinal);
  EXPECT_TRUE(last.header.flags & kFlagFinal);
  EXPECT_EQ(last.header.status, 0);
  FinalInfo info;
  ASSERT_TRUE(DecodeFinalInfo(last.payload, &info));
  EXPECT_EQ(info.total_results, 100u);
}

TEST(NetEndToEnd, DeadlinePropagatesIntoStreamTruncation) {
  NetHarness h;
  auto client = h.Connect();
  QueryLimits limits;
  limits.deadline_us = 1;
  auto reply = client->Knn(h.vectors[7], 400, limits);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_TRUE(reply->ok());
  EXPECT_TRUE(reply->truncated);
  EXPECT_LT(reply->neighbors.size(), 400u);
  // Without a deadline the same query completes in full.
  auto full = client->Knn(h.vectors[7], 400);
  ASSERT_TRUE(full.ok());
  EXPECT_FALSE(full->truncated);
  EXPECT_EQ(full->neighbors.size(), 400u);
}

TEST(NetEndToEnd, DeadlineExpiryMidStreamLeavesTheConnectionReusable) {
  NetHarness h;
  auto client = h.Connect();

  // A deadline-doomed stream pipelined ahead of a full one: the doomed
  // reply truncates mid-stream while the full query's frames park
  // behind it.
  QueryLimits limits;
  limits.deadline_us = 1;
  auto doomed = client->SubmitKnn(h.vectors[7], 400, limits);
  ASSERT_TRUE(doomed.ok());
  auto full = client->SubmitKnn(h.vectors[7], 400);
  ASSERT_TRUE(full.ok());

  auto cut = client->AwaitQuery(*doomed);
  ASSERT_TRUE(cut.ok()) << cut.status().ToString();
  ASSERT_TRUE(cut->ok());
  EXPECT_TRUE(cut->truncated);
  EXPECT_LT(cut->neighbors.size(), 400u);

  // The frames parked behind the truncated stream are intact: the full
  // query still answers completely and exactly.
  auto whole = client->AwaitQuery(*full);
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  ASSERT_TRUE(whole->ok());
  EXPECT_FALSE(whole->truncated);
  ASSERT_EQ(whole->neighbors.size(), 400u);
  EXPECT_EQ(RidSet(whole->neighbors),
            RidSet(TruthKnn(*h.tree, h.vectors[7], 400)));

  // And nothing from the cut stream leaks forward: the same connection
  // keeps serving exact answers.
  for (size_t q = 0; q < 3; ++q) {
    const geom::Vec& focus = h.vectors[(q * 61) % h.vectors.size()];
    auto again = client->Knn(focus, 10);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    ASSERT_TRUE(again->ok());
    EXPECT_FALSE(again->truncated);
    EXPECT_EQ(RidSet(again->neighbors), RidSet(TruthKnn(*h.tree, focus, 10)));
  }
}

TEST(NetEndToEnd, StatsAndHealthCrossTheWire) {
  NetHarness h;
  auto client = h.Connect();
  ASSERT_TRUE(client->Knn(h.vectors[1], 5).ok());

  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  bool saw_completed = false, saw_net = false;
  for (const auto& [name, value] : *stats) {
    if (name == "completed") {
      saw_completed = true;
      EXPECT_GE(value, 1);
    }
    if (name == "net.requests") {
      saw_net = true;
      EXPECT_GE(value, 1);
    }
  }
  EXPECT_TRUE(saw_completed);
  EXPECT_TRUE(saw_net);

  auto health = client->Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->write_state,
            static_cast<uint8_t>(service::WriteState::kServing));
  EXPECT_FALSE(health->writes_enabled);
  EXPECT_GE(health->completed, 1u);
  EXPECT_GE(health->uptime_seconds, 0.0);
}

// ---------------------------------------------------------------------------
// Malformed input hardening
// ---------------------------------------------------------------------------

TEST(NetHardening, UnknownTypeIsRequestFatalOnly) {
  NetHarness h;
  RawConn raw(h.server->port());
  FrameHeader bogus;
  bogus.type = static_cast<MsgType>(42);
  bogus.request_id = 31337;
  ASSERT_TRUE(raw.Send(EncodeFrame(bogus, "whatever")));
  auto frames = raw.ReadFrames(1);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].header.type, MsgType::kFinal);
  EXPECT_EQ(frames[0].header.request_id, 31337u);
  EXPECT_EQ(frames[0].header.status,
            StatusCodeToWire(StatusCode::kNotSupported));
  // The connection survived: a real query still works on it.
  ASSERT_TRUE(raw.Send(KnnFrame(2, h.vectors[0], 3)));
  frames = raw.ReadFrames(2);  // one batch + final.
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames.back().header.status, 0);
}

TEST(NetHardening, MalformedPayloadIsRequestFatalOnly) {
  NetHarness h;
  RawConn raw(h.server->port());
  FrameHeader header;
  header.type = MsgType::kKnn;
  header.request_id = 7;
  ASSERT_TRUE(raw.Send(EncodeFrame(header, "not a knn payload")));
  auto frames = raw.ReadFrames(1);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].header.status,
            StatusCodeToWire(StatusCode::kInvalidArgument));
  // Wrong dimensionality is caught the same way (semantic, not framing).
  KnnRequest req;
  req.query = geom::Vec{1.0, 2.0};  // tree is 4-d.
  req.k = 3;
  std::string payload;
  EncodeKnnRequest(req, &payload);
  FrameHeader h2;
  h2.type = MsgType::kKnn;
  h2.request_id = 8;
  ASSERT_TRUE(raw.Send(EncodeFrame(h2, payload)));
  frames = raw.ReadFrames(1);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].header.status,
            StatusCodeToWire(StatusCode::kInvalidArgument));
  // Still alive.
  ASSERT_TRUE(raw.Send(KnnFrame(9, h.vectors[0], 2)));
  frames = raw.ReadFrames(2);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames.back().header.status, 0);
}

TEST(NetHardening, BadHeaderCrcIsConnectionFatal) {
  NetHarness h;
  RawConn raw(h.server->port());
  std::string frame = KnnFrame(1, h.vectors[0], 5);
  frame[9] = static_cast<char>(frame[9] ^ 0xFF);  // inside request_id.
  ASSERT_TRUE(raw.Send(frame));
  // Best-effort kWireBadFrame terminal frame, then EOF.
  auto frames = raw.ReadFrames(1);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].header.status, kWireBadFrame);
  EXPECT_TRUE(raw.WaitEof());
  EXPECT_TRUE(PollUntil(milliseconds(2000), [&] {
    return h.server->stats().closed_bad_frame >= 1;
  }));
}

TEST(NetHardening, BadPayloadCrcIsConnectionFatal) {
  NetHarness h;
  RawConn raw(h.server->port());
  std::string frame = KnnFrame(1, h.vectors[0], 5);
  frame.back() = static_cast<char>(frame.back() ^ 0x01);
  ASSERT_TRUE(raw.Send(frame));
  auto frames = raw.ReadFrames(1);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].header.status, kWireBadFrame);
  EXPECT_TRUE(raw.WaitEof());
}

TEST(NetHardening, OversizedDeclaredLengthIsConnectionFatal) {
  ServerOptions nopts;
  nopts.max_payload_bytes = 1024;
  NetHarness h({}, nopts);
  RawConn raw(h.server->port());
  // A valid frame (good CRCs) whose declared payload exceeds the
  // server's cap must be refused without buffering the payload.
  FrameHeader header;
  header.type = MsgType::kKnn;
  header.request_id = 1;
  const std::string big(2048, 'x');
  ASSERT_TRUE(raw.Send(EncodeFrame(header, big)));
  auto frames = raw.ReadFrames(1);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].header.status, kWireBadFrame);
  EXPECT_TRUE(raw.WaitEof());
}

TEST(NetHardening, TruncatedFrameThenDisconnectIsClean) {
  NetHarness h;
  {
    RawConn raw(h.server->port());
    const std::string frame = KnnFrame(1, h.vectors[0], 5);
    ASSERT_TRUE(raw.Send(frame.substr(0, 11)));  // half a header.
    raw.Close();
  }
  {
    RawConn raw(h.server->port());
    const std::string frame = KnnFrame(1, h.vectors[0], 5);
    ASSERT_TRUE(raw.Send(frame.substr(0, kFrameHeaderBytes + 3)));
    raw.Close();
  }
  // The server noticed both EOFs and is entirely unbothered.
  EXPECT_TRUE(PollUntil(milliseconds(2000), [&] {
    return h.server->stats().closed_eof >= 2;
  }));
  auto client = h.Connect();
  EXPECT_TRUE(client->Knn(h.vectors[3], 4).ok());
}

TEST(NetHardening, MidStreamDisconnectLeavesServerHealthy) {
  NetHarness h;
  for (int round = 0; round < 4; ++round) {
    RawConn raw(h.server->port());
    // Pipeline several streamed queries, read only a few bytes of the
    // response, then vanish — the canonical rude client.
    for (uint64_t id = 1; id <= 8; ++id) {
      ASSERT_TRUE(raw.Send(KnnFrame(id, h.vectors[id], 300)));
    }
    char buf[128];
    (void)!::read(raw.fd(), buf, sizeof(buf));
    raw.Close();
  }
  EXPECT_TRUE(PollUntil(milliseconds(5000), [&] {
    return h.server->stats().active_connections == 0;
  }));
  auto client = h.Connect();
  auto reply = client->Knn(h.vectors[5], 10);
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(reply->ok());
}

TEST(NetHardening, DeterministicFrameFuzzerNeverKillsServer) {
  NetHarness h;
  std::mt19937_64 rng(0xB10B5EED);
  const std::string valid = KnnFrame(1, h.vectors[0], 20);
  for (int iter = 0; iter < 60; ++iter) {
    // Short receive timeout: a hostile half-frame leaves the server
    // (correctly) waiting for more bytes, and the fuzzer should not.
    RawConn raw(h.server->port(), 0, /*recv_timeout_ms=*/50);
    const int shape = static_cast<int>(rng() % 4);
    std::string bytes;
    switch (shape) {
      case 0: {  // pure noise.
        const size_t len = 1 + rng() % 700;
        bytes.resize(len);
        for (auto& c : bytes) c = static_cast<char>(rng());
        break;
      }
      case 1: {  // valid frame with one mutated byte.
        bytes = valid;
        bytes[rng() % bytes.size()] ^= static_cast<char>(1 + rng() % 255);
        break;
      }
      case 2: {  // truncated valid frame.
        bytes = valid.substr(0, rng() % valid.size());
        break;
      }
      default: {  // valid frame followed by noise.
        bytes = valid;
        for (size_t i = 0; i < 64; ++i) {
          bytes.push_back(static_cast<char>(rng()));
        }
        break;
      }
    }
    if (!bytes.empty()) raw.Send(bytes);
    // Drain whatever the server answers (error frames, results, EOF);
    // half the time just slam the connection shut instead.
    if (rng() % 2) {
      char buf[4096];
      (void)!::read(raw.fd(), buf, sizeof(buf));
    }
    raw.Close();
  }
  // After 60 hostile connections the server still serves good clients.
  EXPECT_TRUE(PollUntil(milliseconds(5000), [&] {
    return h.server->stats().active_connections == 0;
  }));
  auto client = h.Connect();
  auto reply = client->Knn(h.vectors[9], 10);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_TRUE(reply->ok());
  const auto truth = TruthKnn(*h.tree, h.vectors[9], 10);
  EXPECT_EQ(RidSet(reply->neighbors), RidSet(truth));
}

// ---------------------------------------------------------------------------
// Quotas, shedding, and write-state surfacing
// ---------------------------------------------------------------------------

TEST(NetShedding, InflightQuotaShedsWithDistinctCode) {
  service::ServiceOptions sopts;
  sopts.start_paused = true;  // hold queries so in-flight stays high.
  ServerOptions nopts;
  nopts.quota.max_inflight = 2;
  NetHarness h(sopts, nopts);
  auto client = h.Connect();
  std::vector<uint64_t> ids;
  for (size_t q = 0; q < 6; ++q) {
    auto id = client->SubmitKnn(h.vectors[q], 5);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  // The first two occupy the in-flight slots; the rest are shed at the
  // net tier without ever touching the paused service.
  EXPECT_TRUE(PollUntil(milliseconds(2000), [&] {
    return h.server->stats().shed_quota >= 4;
  }));
  h.service->Resume();
  size_t ok = 0, shed = 0;
  for (uint64_t id : ids) {
    auto reply = client->AwaitQuery(id);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    if (reply->ok()) {
      ++ok;
    } else {
      EXPECT_EQ(reply->wire_status, kWireQuotaExceeded);
      EXPECT_NE(reply->wire_status,
                StatusCodeToWire(StatusCode::kResourceExhausted));
      EXPECT_EQ(reply->status.code(), StatusCode::kUnavailable);
      ++shed;
    }
  }
  EXPECT_EQ(ok, 2u);
  EXPECT_EQ(shed, 4u);
  EXPECT_EQ(h.service->Snapshot().submitted, 2u);
}

TEST(NetShedding, ResultRateQuotaIsPerConnection) {
  ServerOptions nopts;
  nopts.quota.max_results_per_sec = 50;
  NetHarness h({}, nopts);
  auto client = h.Connect();
  // First query rides the one-second burst allowance; its 100 results
  // leave the bucket deeply negative.
  auto first = client->Knn(h.vectors[0], 100);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->ok());
  auto second = client->Knn(h.vectors[1], 5);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->wire_status, kWireQuotaExceeded);
  // A different connection has its own bucket.
  auto other = h.Connect();
  auto fresh = other->Knn(h.vectors[2], 5);
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(fresh->ok());
}

TEST(NetShedding, DispatchQueueFullShedsResourceExhausted) {
  service::ServiceOptions sopts;
  sopts.start_paused = true;
  ServerOptions nopts;
  nopts.dispatch_threads = 1;
  nopts.dispatch_queue_capacity = 1;
  nopts.quota.max_inflight = 64;
  NetHarness h(sopts, nopts);
  auto client = h.Connect();
  std::vector<uint64_t> ids;
  for (size_t q = 0; q < 8; ++q) {
    auto id = client->SubmitKnn(h.vectors[q], 3);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  EXPECT_TRUE(PollUntil(milliseconds(2000), [&] {
    return h.server->stats().shed_dispatch >= 1;
  }));
  h.service->Resume();
  size_t ok = 0, shed = 0;
  for (uint64_t id : ids) {
    auto reply = client->AwaitQuery(id);
    ASSERT_TRUE(reply.ok());
    if (reply->ok()) {
      ++ok;
    } else {
      EXPECT_EQ(reply->wire_status,
                StatusCodeToWire(StatusCode::kResourceExhausted));
      ++shed;
    }
  }
  EXPECT_GE(shed, 1u);
  // At least the first request (already executing or queued) completes;
  // whether a second slipped into the queue before the dispatcher
  // popped the first is a benign race.
  EXPECT_GE(ok, 1u);
}

TEST(NetShedding, SlowReaderIsDoomedWithoutStallingOthers) {
  ServerOptions nopts;
  nopts.max_outbox_bytes = 32 * 1024;
  nopts.quota.max_inflight = 64;
  NetHarness h({}, nopts);

  // The stalled reader: tiny receive window, 40 pipelined k=2000
  // queries (~32 KiB of response each), and it never reads a byte.
  RawConn stalled(h.server->port(), /*rcvbuf_bytes=*/4096);
  for (uint64_t id = 1; id <= 40; ++id) {
    ASSERT_TRUE(stalled.Send(KnnFrame(id, h.vectors[id], 2000)));
  }

  // Meanwhile a well-behaved client must make normal progress.
  auto client = h.Connect();
  for (size_t q = 0; q < 20; ++q) {
    auto reply = client->Knn(h.vectors[q * 3], 10);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_TRUE(reply->ok());
  }
  // And the stalled connection gets doomed for outbox overflow rather
  // than wedging a dispatch thread.
  EXPECT_TRUE(PollUntil(milliseconds(10000), [&] {
    return h.server->stats().closed_overflow >= 1;
  })) << "stalled reader was never doomed";
}

TEST(NetShedding, OverflowDoomedStalledReaderClosesPromptly) {
  ServerOptions nopts;
  nopts.max_outbox_bytes = 1u << 20;
  nopts.quota.max_inflight = 256;
  NetHarness h({}, nopts);

  // ~33 KB per reply, ~8 MB in all: about twice what the kernel's socket
  // buffers (~2.8 MB for a stalled loopback reader on Linux defaults)
  // and the 1 MiB outbox together hold for a reader that never reads.
  RawConn stalled(h.server->port(), /*rcvbuf_bytes=*/4096);
  for (uint64_t id = 1; id <= 240; ++id) {
    ASSERT_TRUE(stalled.Send(KnnFrame(id, h.vectors[id], 2000)));
  }
  // The overflow doom closes the connection at once; it does not wait
  // for an outbox the reader will never drain.
  EXPECT_TRUE(PollUntil(milliseconds(2000), [&] {
    return h.server->stats().closed_overflow >= 1;
  })) << "overflow-doomed connection was not closed";
  // Nothing is left to drain, so shutdown does not sit out its timeout.
  const auto start = steady_clock::now();
  h.server->Shutdown();
  EXPECT_LT(steady_clock::now() - start, milliseconds(1000));
}

// ---------------------------------------------------------------------------
// Write-through replies
// ---------------------------------------------------------------------------

TEST(NetWriteThrough, SerialRepliesAreSentWhole) {
  NetHarness h;
  auto client = h.Connect();
  for (size_t q = 0; q < 50; ++q) {
    auto reply = client->Knn(h.vectors[q * 7], 10);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_TRUE(reply->ok());
  }
  // Each reply went to an empty outbox and a socket with room for it:
  // the dispatch thread sent it all, and the I/O loop was never woken.
  EXPECT_EQ(h.server->stats().deferred_replies, 0u);
}

TEST(NetWriteThrough, PipelinedRemaindersNeverInterleave) {
  ServerOptions nopts;
  nopts.quota.max_inflight = 128;
  NetHarness h({}, nopts);
  // A small receive window and a reader that waits until every reply is
  // built: the ~4.2 MB of replies outrun what the kernel's socket
  // buffers absorb for a stalled loopback reader (~2.8 MB on Linux
  // defaults), so replies hit EAGAIN part-way and their remainders queue
  // behind one another.
  RawConn raw(h.server->port(), /*rcvbuf_bytes=*/4096);
  constexpr uint64_t kQueries = 128;
  constexpr uint32_t kK = 2000;
  const auto focus = [&](uint64_t id) {
    return h.vectors[(id * 97) % h.vectors.size()];
  };
  for (uint64_t id = 1; id <= kQueries; ++id) {
    ASSERT_TRUE(raw.Send(KnnFrame(id, focus(id), kK)));
  }
  ASSERT_TRUE(PollUntil(milliseconds(30000), [&] {
    return h.server->stats().responses >= kQueries;
  }));

  // ceil(2000 / 64) result batches plus the final, per reply.
  constexpr size_t kFramesPerReply = 32 + 1;
  const auto frames = raw.ReadFrames(kQueries * kFramesPerReply);
  ASSERT_EQ(frames.size(), kQueries * kFramesPerReply);
  const auto by_distance = [](const gist::Neighbor& a,
                              const gist::Neighbor& b) {
    return std::tie(a.distance, a.rid) < std::tie(b.distance, b.rid);
  };
  std::set<uint64_t> answered;
  size_t at = 0;
  while (at < frames.size()) {
    // One reply's frames arrive back to back, ending with its final.
    const uint64_t id = frames[at].header.request_id;
    std::vector<gist::Neighbor> got;
    while (at < frames.size() &&
           frames[at].header.type == MsgType::kResultBatch) {
      ASSERT_EQ(frames[at].header.request_id, id);
      ASSERT_TRUE(DecodeResultBatch(frames[at].payload, &got));
      ++at;
    }
    ASSERT_LT(at, frames.size());
    ASSERT_EQ(frames[at].header.type, MsgType::kFinal);
    ASSERT_EQ(frames[at].header.request_id, id);
    ASSERT_EQ(frames[at].header.status, 0);
    ++at;
    auto truth = TruthKnn(*h.tree, focus(id), kK);
    std::sort(got.begin(), got.end(), by_distance);
    std::sort(truth.begin(), truth.end(), by_distance);
    ASSERT_EQ(got.size(), truth.size()) << "request " << id;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].rid, truth[i].rid) << "request " << id;
      EXPECT_EQ(got[i].distance, truth[i].distance) << "request " << id;
    }
    EXPECT_TRUE(answered.insert(id).second) << "request " << id;
  }
  EXPECT_EQ(answered.size(), kQueries);
  EXPECT_GT(h.server->stats().deferred_replies, 0u);
}

TEST(NetWritePath, MutationsOnReadOnlyServiceAreInvalid) {
  NetHarness h;  // no write path configured at all.
  auto client = h.Connect();
  auto reply = client->Insert(h.vectors[0], 999999);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->wire_status,
            StatusCodeToWire(StatusCode::kInvalidArgument));
}

// Durable, write-enabled service behind the server: full mutation flow
// plus the kServing -> kReadOnly -> kServing arc surfaced as distinct
// wire codes.
TEST(NetWritePath, InsertDeleteAndReadOnlyStatesCrossTheWire) {
  const std::string base = ::testing::TempDir() + "/net_write_test";
  std::remove((base + ".bwpf").c_str());
  std::remove((base + ".bwwal").c_str());
  auto vectors = TestVectors(1200);
  core::IndexBuildOptions build;
  build.am = "xjb";
  build.xjb_x = 0;
  auto index = core::BuildDurableIndex(vectors, build, base + ".bwpf",
                                       base + ".bwwal");
  ASSERT_TRUE(index.ok()) << index.status().ToString();

  std::atomic<uint64_t> free_bytes{8ull << 30};
  service::ServiceOptions sopts;
  sopts.write.enabled = true;
  sopts.write.batch_size = 1;
  sopts.write.min_free_bytes = 1ull << 30;
  sopts.write.free_space_probe = [&] { return free_bytes.load(); };
  sopts.write.retry_interval = milliseconds(5);
  service::QueryService service(std::move(*index), sopts);
  Server server(&service, ServerOptions());
  ASSERT_TRUE(server.Start().ok());

  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  // Insert a brand-new point and find it over the wire.
  geom::Vec probe{0.111, 0.222, 0.333, 0.444};
  auto ack = (*client)->Insert(probe, 777777);
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  ASSERT_TRUE(ack->ok()) << WireStatusName(ack->wire_status);
  EXPECT_GT(ack->tag, 0u);
  auto found = (*client)->Knn(probe, 1);
  ASSERT_TRUE(found.ok());
  ASSERT_EQ(found->neighbors.size(), 1u);
  EXPECT_EQ(found->neighbors[0].rid, 777777u);
  EXPECT_NEAR(found->neighbors[0].distance, 0.0, 1e-9);

  // Trip the disk-space watchdog: the service degrades to kReadOnly and
  // write requests shed with kResourceExhausted — which a client can
  // tell apart from its own quota (kWireQuotaExceeded).
  free_bytes.store(0);
  auto parked_id = (*client)->SubmitInsert(probe, 777778);
  ASSERT_TRUE(parked_id.ok());
  ASSERT_TRUE(PollUntil(milliseconds(5000), [&] {
    return service.write_state() == service::WriteState::kReadOnly;
  }));
  auto blocked = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(blocked.ok());
  auto shed = (*blocked)->Insert(probe, 777779);
  ASSERT_TRUE(shed.ok());
  EXPECT_EQ(shed->wire_status,
            StatusCodeToWire(StatusCode::kResourceExhausted));
  EXPECT_NE(shed->wire_status, kWireQuotaExceeded);
  auto health = (*blocked)->Health();
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->write_state,
            static_cast<uint8_t>(service::WriteState::kReadOnly));
  // Reads keep flowing in kReadOnly.
  EXPECT_TRUE((*blocked)->Knn(vectors[5], 5).ok());

  // Space returns; the parked mutation commits and the service resumes.
  free_bytes.store(8ull << 30);
  auto parked = (*client)->AwaitMutation(*parked_id);
  ASSERT_TRUE(parked.ok()) << parked.status().ToString();
  EXPECT_TRUE(parked->ok()) << WireStatusName(parked->wire_status);
  EXPECT_TRUE(PollUntil(milliseconds(5000), [&] {
    return service.write_state() == service::WriteState::kServing;
  }));

  // Delete round trip, and a second delete of the same rid is NotFound.
  auto del = (*client)->Remove(probe, 777777);
  ASSERT_TRUE(del.ok());
  EXPECT_TRUE(del->ok());
  auto again = (*client)->Remove(probe, 777777);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->wire_status, StatusCodeToWire(StatusCode::kNotFound));

  server.Shutdown();
  std::remove((base + ".bwpf").c_str());
  std::remove((base + ".bwwal").c_str());
}

// A NaN or infinite coordinate is outside input the index cannot
// order. Every request that carries a point or query is answered
// InvalidArgument by the decoder, nothing reaches the service, and the
// connection keeps serving.
TEST(NetWritePath, NonFiniteCoordinatesAreInvalidAndKeepTheConnection) {
  const std::string base = ::testing::TempDir() + "/net_nonfinite_test";
  std::remove((base + ".bwpf").c_str());
  std::remove((base + ".bwwal").c_str());
  auto vectors = TestVectors(600);
  core::IndexBuildOptions build;
  build.am = "xjb";
  build.xjb_x = 0;
  auto index = core::BuildDurableIndex(vectors, build, base + ".bwpf",
                                       base + ".bwwal");
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  service::ServiceOptions sopts;
  sopts.write.enabled = true;
  service::QueryService service(std::move(*index), sopts);
  const gist::Tree& tree = service.tree();
  Server server(&service, ServerOptions());
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const uint16_t invalid = StatusCodeToWire(StatusCode::kInvalidArgument);

  const float kBad[] = {std::numeric_limits<float>::quiet_NaN(),
                        std::numeric_limits<float>::infinity(),
                        -std::numeric_limits<float>::infinity()};
  for (const float bad : kBad) {
    geom::Vec point = vectors[3];
    point[1] = bad;
    auto knn = (*client)->Knn(point, 5);
    ASSERT_TRUE(knn.ok()) << knn.status().ToString();
    EXPECT_EQ(knn->wire_status, invalid) << bad;
    EXPECT_TRUE(knn->neighbors.empty()) << bad;

    QueryLimits streamed;
    streamed.batch_size = 1;
    auto id = (*client)->SubmitKnn(point, 50, streamed);
    ASSERT_TRUE(id.ok());
    auto finished = (*client)->AwaitQuery(*id);
    ASSERT_TRUE(finished.ok()) << finished.status().ToString();
    EXPECT_TRUE(finished->neighbors.empty()) << bad;
    EXPECT_EQ(finished->wire_status, invalid) << bad;

    auto range = (*client)->Range(point, 0.5);
    ASSERT_TRUE(range.ok()) << range.status().ToString();
    EXPECT_EQ(range->wire_status, invalid) << bad;
    EXPECT_TRUE(range->neighbors.empty()) << bad;

    auto insert = (*client)->Insert(point, 900001);
    ASSERT_TRUE(insert.ok()) << insert.status().ToString();
    EXPECT_EQ(insert->wire_status, invalid) << bad;
    auto remove = (*client)->Remove(point, 3);
    ASSERT_TRUE(remove.ok()) << remove.status().ToString();
    EXPECT_EQ(remove->wire_status, invalid) << bad;
  }
  EXPECT_EQ(server.stats().bad_requests, 15u);
  EXPECT_EQ(service.Snapshot().writes_submitted, 0u);
  EXPECT_EQ(tree.size(), vectors.size());

  // The same connection still answers a finite query exactly.
  auto good = (*client)->Knn(vectors[3], 5);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  ASSERT_TRUE(good->ok()) << WireStatusName(good->wire_status);
  EXPECT_EQ(RidSet(good->neighbors), RidSet(TruthKnn(tree, vectors[3], 5)));

  server.Shutdown();
  std::remove((base + ".bwpf").c_str());
  std::remove((base + ".bwwal").c_str());
}

// ---------------------------------------------------------------------------
// Graceful shutdown
// ---------------------------------------------------------------------------

TEST(NetShutdown, DrainsInflightStreamsBeforeClosing) {
  service::ServiceOptions sopts;
  sopts.start_paused = true;
  ServerOptions nopts;
  nopts.drain_timeout = milliseconds(10000);
  NetHarness h(sopts, nopts);
  auto client = h.Connect();
  std::vector<uint64_t> ids;
  std::vector<geom::Vec> foci;
  for (size_t q = 0; q < 5; ++q) {
    foci.push_back(h.vectors[(q * 53) % h.vectors.size()]);
    auto id = client->SubmitKnn(foci.back(), 12);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  // Wait until all five are admitted, then start draining while they
  // are still unanswered. `requests` would not do: it also counts the
  // hello, so the last query could still reach the server after
  // draining began and be shed.
  ASSERT_TRUE(PollUntil(milliseconds(2000), [&] {
    return h.server->stats().inflight >= 5;
  }));
  std::thread shutdown_thread([&] { h.server->Shutdown(); });
  std::this_thread::sleep_for(milliseconds(100));
  h.service->Resume();
  // Every in-flight stream completes with full results before the
  // server lets go of the connection.
  for (size_t q = 0; q < ids.size(); ++q) {
    auto reply = client->AwaitQuery(ids[q]);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_TRUE(reply->ok()) << WireStatusName(reply->wire_status);
    const auto truth = TruthKnn(*h.tree, foci[q], 12);
    EXPECT_EQ(RidSet(reply->neighbors), RidSet(truth));
  }
  shutdown_thread.join();
  // The drained server refuses new work.
  auto late = client->Knn(h.vectors[0], 3);
  if (late.ok()) {
    EXPECT_EQ(late->wire_status, kWireShuttingDown);
  }  // else: transport error because the connection is already gone.
}

TEST(NetShutdown, NewRequestsDuringDrainAreShedWithDistinctCode) {
  service::ServiceOptions sopts;
  sopts.start_paused = true;
  NetHarness h(sopts);
  auto client = h.Connect();
  auto held = client->SubmitKnn(h.vectors[0], 5);
  ASSERT_TRUE(held.ok());
  // The held query is admitted and parked on the paused service, so the
  // drain below waits for it and the connection stays open.
  ASSERT_TRUE(PollUntil(milliseconds(2000), [&] {
    return h.server->stats().inflight >= 1;
  }));
  std::thread shutdown_thread([&] { h.server->Shutdown(); });
  // Probe only once draining has begun: a probe admitted ahead of it
  // would park on the paused service too.
  ASSERT_TRUE(PollUntil(milliseconds(2000), [&] {
    return h.server->stats().draining;
  }));
  // A request arriving mid-drain gets the explicit shutting-down code.
  auto probe = client->Knn(h.vectors[1], 5);
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  EXPECT_EQ(probe->wire_status, kWireShuttingDown)
      << WireStatusName(probe->wire_status);
  EXPECT_TRUE(probe->neighbors.empty());
  EXPECT_EQ(h.server->stats().shed_shutdown, 1u);
  h.service->Resume();
  auto drained = client->AwaitQuery(*held);
  ASSERT_TRUE(drained.ok()) << drained.status().ToString();
  EXPECT_TRUE(drained->ok()) << WireStatusName(drained->wire_status);
  shutdown_thread.join();
}

// ---------------------------------------------------------------------------
// kHello handshake: version negotiation and feature flags
// ---------------------------------------------------------------------------

TEST(WireCodec, HelloPayloadsRoundTripAndTolerateTrailingBytes) {
  HelloRequest req;
  req.major = 1;
  req.minor = 7;
  req.features = kFeatureStreaming | kFeatureRouter;
  req.peer = "net_test";
  std::string payload;
  EncodeHelloRequest(req, &payload);
  HelloRequest decoded;
  ASSERT_TRUE(DecodeHelloRequest(payload, &decoded));
  EXPECT_EQ(decoded.major, req.major);
  EXPECT_EQ(decoded.minor, req.minor);
  EXPECT_EQ(decoded.features, req.features);
  EXPECT_EQ(decoded.peer, req.peer);

  // Forward compatibility: a future minor may append fields, so
  // trailing bytes must be tolerated...
  ASSERT_TRUE(DecodeHelloRequest(payload + "future-fields", &decoded));
  // ...but truncation is still malformed.
  EXPECT_FALSE(DecodeHelloRequest(
      std::string_view(payload).substr(0, 3), &decoded));

  HelloReply reply;
  reply.major = 1;
  reply.minor = 2;
  reply.features = kServerFeatures;
  reply.peer = "bwserver";
  payload.clear();
  EncodeHelloReply(reply, &payload);
  HelloReply reply_decoded;
  ASSERT_TRUE(DecodeHelloReply(payload, &reply_decoded));
  EXPECT_EQ(reply_decoded.major, reply.major);
  EXPECT_EQ(reply_decoded.minor, reply.minor);
  EXPECT_EQ(reply_decoded.features, reply.features);
  EXPECT_EQ(reply_decoded.peer, reply.peer);
  EXPECT_FALSE(DecodeHelloReply(
      std::string_view(payload).substr(0, 5), &reply_decoded));
}

TEST(NetHello, HandshakeNegotiatesVersionAndFeatures) {
  NetHarness h;
  auto client = h.Connect();  // ClientOptions default: handshake on.
  const HelloReply& hello = client->server_hello();
  EXPECT_EQ(hello.major, kWireVersionMajor);
  EXPECT_EQ(hello.minor, kWireVersionMinor);
  EXPECT_EQ(hello.peer, "bwserver");
  // The harness service is read-only: streaming is advertised, writes
  // are masked off.
  EXPECT_NE(hello.features & kFeatureStreaming, 0u);
  EXPECT_EQ(hello.features & kFeatureWrites, 0u);

  // The handshaken connection serves queries normally.
  auto reply = client->Knn(h.vectors[0], 5);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_TRUE(reply->ok());
  EXPECT_EQ(RidSet(reply->neighbors), RidSet(TruthKnn(*h.tree,
                                                      h.vectors[0], 5)));
}

TEST(NetHello, ClientWithoutHandshakeKeepsPreHelloBehavior) {
  NetHarness h;
  ClientOptions copts;
  copts.handshake = false;
  auto client = h.Connect(copts);
  EXPECT_EQ(client->server_hello().features, 0u);  // never negotiated.
  auto reply = client->Knn(h.vectors[1], 3);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_TRUE(reply->ok());
}

TEST(NetHello, MajorMismatchAnswersOnceThenDoomsConnection) {
  NetHarness h;
  RawConn conn(h.server->port());
  HelloRequest req;
  req.major = kWireVersionMajor + 1;  // a protocol we do not speak.
  req.peer = "time-traveler";
  std::string payload;
  EncodeHelloRequest(req, &payload);
  FrameHeader header;
  header.type = MsgType::kHello;
  header.request_id = 1;
  ASSERT_TRUE(conn.Send(EncodeFrame(header, payload)));

  // Exactly one frame pair: a kHelloReply carrying the server's own
  // version with the mismatch status, then EOF.
  auto frames = conn.ReadFrames(1);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].header.type, MsgType::kHelloReply);
  EXPECT_EQ(frames[0].header.status, kWireVersionMismatch);
  HelloReply reply;
  ASSERT_TRUE(DecodeHelloReply(frames[0].payload, &reply));
  EXPECT_EQ(reply.major, kWireVersionMajor);
  EXPECT_TRUE(conn.WaitEof());
}

}  // namespace
}  // namespace bw::net
