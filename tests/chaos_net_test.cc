// Tests for the chaos proxy (src/net/chaos_proxy.h) and for replica
// catch-up running over the real wire through injected faults. The
// proxy's fault model is exercised one knob at a time — clean relay,
// reset-at-accept, truncate-then-close, one-way blackhole — asserting
// that every fault surfaces as a clean per-connection error (never a
// crash, never a poisoned server), and then the flagship: a stale
// replica converges onto a healthy sibling through a proxy injecting
// latency and cut frames, carried by RemoteShardBackend's bounded
// retries. This file is part of the ASan/UBSan and TSan gates.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/durable_index.h"
#include "core/index_factory.h"
#include "net/chaos_proxy.h"
#include "net/client.h"
#include "net/server.h"
#include "service/query_service.h"
#include "shard/partitioner.h"
#include "shard/router.h"
#include "shard/shard_backend.h"
#include "tests/test_helpers.h"

namespace bw::net {
namespace {

constexpr size_t kDim = 4;

std::string TempDir(const std::string& name) {
  const std::string dir =
      std::string(::testing::TempDir()) + "bw_chaosnet_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

core::IndexBuildOptions TestBuild() {
  core::IndexBuildOptions build;
  build.am = "xjb";
  build.xjb_x = 0;
  return build;
}

geom::Vec MakePoint(float base) {
  geom::Vec v(kDim);
  for (size_t d = 0; d < kDim; ++d) v[d] = base + 0.25f * d;
  return v;
}

/// One durable write-enabled replica served over the wire.
struct WireReplica {
  std::unique_ptr<core::DurableIndex> index;
  std::unique_ptr<service::QueryService> service;
  std::unique_ptr<Server> server;
};

WireReplica MakeWireReplica(const std::vector<geom::Vec>& points,
                            const std::string& stem) {
  std::vector<gist::Rid> rids(points.size());
  for (size_t i = 0; i < rids.size(); ++i) rids[i] = i;
  WireReplica r;
  auto index = shard::BuildShardIndex(points, rids, TestBuild(),
                                      stem + ".idx", stem + ".wal");
  BW_CHECK_MSG(index.ok(), index.status().ToString());
  r.index = std::move(*index);
  service::ServiceOptions sopts;
  sopts.write.enabled = true;
  r.service = std::make_unique<service::QueryService>(r.index.get(), sopts);
  r.server = std::make_unique<Server>(r.service.get(), ServerOptions());
  BW_CHECK_OK(r.server->Start());
  return r;
}

ClientOptions ChaosClientOptions() {
  ClientOptions copts;
  copts.io_timeout = std::chrono::milliseconds(2000);  // stalls fail fast.
  return copts;
}

// ---------------------------------------------------------------------------
// Fault model, one knob at a time
// ---------------------------------------------------------------------------

TEST(ChaosProxyTest, CleanRelayIsTransparent) {
  const auto points = testing::MakeClusteredPoints(300, kDim, 4, 41);
  WireReplica replica = MakeWireReplica(points, TempDir("clean") + "/a");

  ChaosProxy proxy;
  ASSERT_TRUE(proxy.Start(0, "127.0.0.1", replica.server->port(),
                          ChaosOptions())
                  .ok());

  auto client = Client::Connect("127.0.0.1", proxy.port(),
                                ChaosClientOptions());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto health = (*client)->Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();

  auto through = (*client)->Knn(points[0], 7);
  ASSERT_TRUE(through.ok()) << through.status().ToString();
  auto direct = replica.service->Knn(points[0], 7);
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(through->neighbors.size(), direct->neighbors.size());
  for (size_t i = 0; i < direct->neighbors.size(); ++i) {
    EXPECT_EQ(through->neighbors[i].rid, direct->neighbors[i].rid);
    EXPECT_EQ(through->neighbors[i].distance, direct->neighbors[i].distance);
  }

  const ChaosStats stats = proxy.stats();
  EXPECT_EQ(stats.connections, 1u);
  EXPECT_GT(stats.bytes_relayed, 0u);
  EXPECT_EQ(stats.resets + stats.delays + stats.truncations +
                stats.blackholes,
            0u);
  proxy.Stop();
}

TEST(ChaosProxyTest, ResetAtAcceptIsACleanConnectFailure) {
  const auto points = testing::MakeClusteredPoints(200, kDim, 3, 43);
  WireReplica replica = MakeWireReplica(points, TempDir("reset") + "/a");

  ChaosOptions chaos;
  chaos.seed = 7;
  chaos.reset_prob = 1.0;
  ChaosProxy proxy;
  ASSERT_TRUE(
      proxy.Start(0, "127.0.0.1", replica.server->port(), chaos).ok());

  auto client = Client::Connect("127.0.0.1", proxy.port(),
                                ChaosClientOptions());
  EXPECT_FALSE(client.ok());  // handshake dies on the reset connection.
  EXPECT_GE(proxy.stats().resets, 1u);

  // The server behind the proxy is untouched: a direct client works.
  auto direct = Client::Connect("127.0.0.1", replica.server->port());
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_TRUE((*direct)->Health().ok());
  proxy.Stop();
}

TEST(ChaosProxyTest, TruncatedFramesAreCleanErrorsNeverACrash) {
  const auto points = testing::MakeClusteredPoints(200, kDim, 3, 47);
  WireReplica replica = MakeWireReplica(points, TempDir("trunc") + "/a");

  ChaosOptions chaos;
  chaos.seed = 11;
  chaos.drop_frame_prob = 1.0;  // every read forwards a prefix, then cuts.
  ChaosProxy proxy;
  ASSERT_TRUE(
      proxy.Start(0, "127.0.0.1", replica.server->port(), chaos).ok());

  for (int attempt = 0; attempt < 4; ++attempt) {
    auto client = Client::Connect("127.0.0.1", proxy.port(),
                                  ChaosClientOptions());
    if (!client.ok()) continue;  // hello already truncated: fine.
    auto response = (*client)->Knn(points[0], 5);
    EXPECT_FALSE(response.ok());  // a cut frame can never decode.
  }
  EXPECT_GE(proxy.stats().truncations, 1u);

  // No poisoned state behind the proxy: direct traffic still serves.
  auto direct = Client::Connect("127.0.0.1", replica.server->port());
  ASSERT_TRUE(direct.ok());
  auto response = (*direct)->Knn(points[0], 5);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->neighbors.size(), 5u);
  proxy.Stop();
}

TEST(ChaosProxyTest, BlackholeIsASilentStallNotAnError) {
  const auto points = testing::MakeClusteredPoints(200, kDim, 3, 53);
  WireReplica replica = MakeWireReplica(points, TempDir("hole") + "/a");

  ChaosOptions chaos;
  chaos.seed = 13;
  chaos.blackhole_prob = 1.0;  // both directions go dark on first read.
  ChaosProxy proxy;
  ASSERT_TRUE(
      proxy.Start(0, "127.0.0.1", replica.server->port(), chaos).ok());

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  timeval tv{0, 500000};  // 500ms: the stall must outlive this.
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(proxy.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const char junk[] = "anything";
  ASSERT_GT(::send(fd, junk, sizeof(junk), MSG_NOSIGNAL), 0);

  // A one-way partition looks like silence, not an error: recv times
  // out with no bytes and no EOF.
  char buf[64];
  const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
  EXPECT_LT(n, 0);
  EXPECT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK);
  EXPECT_GE(proxy.stats().blackholes, 1u);
  ::close(fd);
  proxy.Stop();
}

TEST(ChaosProxyTest, BrownoutWindowDelaysReadsThenLifts) {
  const auto points = testing::MakeClusteredPoints(200, kDim, 3, 61);
  WireReplica replica = MakeWireReplica(points, TempDir("brown") + "/a");

  // A window covering the whole test: every relayed read eats the
  // spike, but every byte still arrives — a brownout is slowness, not
  // loss.
  ChaosOptions browned;
  browned.seed = 17;
  browned.brownout_start_ms = 0;
  browned.brownout_duration_ms = 10 * 60 * 1000;
  browned.brownout_delay_ms = 100;
  ChaosProxy proxy;
  ASSERT_TRUE(
      proxy.Start(0, "127.0.0.1", replica.server->port(), browned).ok());

  const auto start = std::chrono::steady_clock::now();
  auto client = Client::Connect("127.0.0.1", proxy.port(),
                                ChaosClientOptions());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto through = (*client)->Knn(points[3], 6);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(through.ok()) << through.status().ToString();
  auto direct = replica.service->Knn(points[3], 6);
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(through->neighbors.size(), direct->neighbors.size());
  for (size_t i = 0; i < direct->neighbors.size(); ++i) {
    EXPECT_EQ(through->neighbors[i].rid, direct->neighbors[i].rid);
    EXPECT_EQ(through->neighbors[i].distance, direct->neighbors[i].distance);
  }
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            100);  // at least one read crossed the browned window.
  EXPECT_GE(proxy.stats().brownout_reads, 1u);
  proxy.Stop();

  // A window that has not opened yet injects nothing: the schedule is
  // purely a function of the clock, never of traffic.
  ChaosOptions pending = browned;
  pending.brownout_start_ms = 10 * 60 * 1000;
  pending.brownout_duration_ms = 1000;
  ChaosProxy calm;
  ASSERT_TRUE(
      calm.Start(0, "127.0.0.1", replica.server->port(), pending).ok());
  auto clean = Client::Connect("127.0.0.1", calm.port(),
                               ChaosClientOptions());
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  auto fast = (*clean)->Knn(points[3], 6);
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();
  EXPECT_EQ(fast->neighbors.size(), direct->neighbors.size());
  EXPECT_EQ(calm.stats().brownout_reads, 0u);
  calm.Stop();
}

// ---------------------------------------------------------------------------
// The flagship: remote catch-up converges through injected faults
// ---------------------------------------------------------------------------

TEST(ChaosCatchupTest, WalCatchupConvergesThroughLatencyAndCutFrames) {
  const auto points = testing::MakeClusteredPoints(300, kDim, 4, 59);
  const std::string dir = TempDir("catchup");
  WireReplica source = MakeWireReplica(points, dir + "/src");
  WireReplica target = MakeWireReplica(points, dir + "/dst");

  // The source takes writes the target misses entirely.
  for (int i = 0; i < 10; ++i) {
    auto future = source.service->SubmitInsert(MakePoint(600.0f + i),
                                               9000 + i);
    ASSERT_TRUE(future.ok());
    auto outcome = future->get();
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  }

  // Every byte to the source crosses chaos: frequent added latency,
  // occasional truncate-then-close. The target is reached directly
  // (the fleet's faults are on the catch-up read path here).
  ChaosOptions chaos;
  chaos.seed = 99;
  chaos.delay_prob = 0.4;
  chaos.delay_ms = 1;
  chaos.drop_frame_prob = 0.05;
  ChaosProxy proxy;
  ASSERT_TRUE(
      proxy.Start(0, "127.0.0.1", source.server->port(), chaos).ok());

  shard::RemoteShardBackend src("127.0.0.1", proxy.port(),
                                ChaosClientOptions());
  shard::RemoteShardBackend dst("127.0.0.1", target.server->port(),
                                ChaosClientOptions());
  src.set_retry_policy(shard::RetryPolicy());  // 4 bounded attempts.

  // The same pull-apply-verify loop the router's driver runs, with the
  // round budget absorbing whole-schedule retry failures: a round that
  // dies mid-pull just runs again.
  bool converged = false;
  for (int round = 0; round < 200 && !converged; ++round) {
    auto src_pos = src.CatchupPosition();
    if (!src_pos.ok()) continue;
    auto dst_pos = dst.CatchupPosition();
    ASSERT_TRUE(dst_pos.ok()) << dst_pos.status().ToString();
    if (src_pos->last_tag == dst_pos->last_tag) {
      auto src_sum = src.TreeChecksum();
      if (!src_sum.ok()) continue;
      auto dst_sum = dst.TreeChecksum();
      ASSERT_TRUE(dst_sum.ok());
      ASSERT_EQ(src_sum->tag, dst_sum->tag);
      ASSERT_EQ(src_sum->page_count, dst_sum->page_count);
      ASSERT_EQ(src_sum->crc, dst_sum->crc);
      converged = true;
      break;
    }
    // Tiny pulls: many wire round trips, maximum chaos exposure.
    auto tail = src.ReadWalTail(dst_pos->last_tag, 2, 64u << 10);
    if (!tail.ok()) continue;
    ASSERT_FALSE(tail->snapshot_needed);
    for (const storage::ShippedBatch& batch : tail->batches) {
      ASSERT_TRUE(dst.ApplyWalBatch(batch).ok());
    }
  }
  ASSERT_TRUE(converged) << "catch-up did not converge within the round "
                            "budget under chaos";

  // The shipped writes actually serve on the caught-up replica.
  auto nearest = target.service->Knn(MakePoint(600.0f), 1);
  ASSERT_TRUE(nearest.ok());
  ASSERT_EQ(nearest->neighbors.size(), 1u);
  EXPECT_EQ(nearest->neighbors[0].rid, 9000u);

  // And the chaos was real, not a clean wire.
  const ChaosStats stats = proxy.stats();
  EXPECT_GT(stats.delays + stats.truncations, 0u);
  proxy.Stop();
}

// ---------------------------------------------------------------------------
// The second flagship: hedged reads mask a browned replica on the wire
// ---------------------------------------------------------------------------

TEST(ChaosRouterTest, HedgedReadsMaskABrownedReplicaBitIdentically) {
  const auto points = testing::MakeClusteredPoints(400, kDim, 4, 67);
  const std::string dir = TempDir("hedge");
  WireReplica slow = MakeWireReplica(points, dir + "/slow");
  WireReplica fast = MakeWireReplica(points, dir + "/fast");

  // The preferred replica sits behind a brownout for the whole test:
  // alive, correct, +50ms on every relayed read. The sibling is a
  // clean wire.
  ChaosOptions chaos;
  chaos.seed = 23;
  chaos.brownout_start_ms = 0;
  chaos.brownout_duration_ms = 10 * 60 * 1000;
  chaos.brownout_delay_ms = 50;
  ChaosProxy proxy;
  ASSERT_TRUE(
      proxy.Start(0, "127.0.0.1", slow.server->port(), chaos).ok());

  ClientOptions copts = ChaosClientOptions();
  copts.features = kFeatureStreaming | kFeatureRouter;
  std::vector<shard::Router::Shard> shards(1);
  shards[0].replicas.push_back(std::make_unique<shard::RemoteShardBackend>(
      "127.0.0.1", proxy.port(), copts));
  shards[0].replicas.push_back(std::make_unique<shard::RemoteShardBackend>(
      "127.0.0.1", fast.server->port(), copts));

  shard::RouterOptions ropts;
  ropts.hedge = true;
  ropts.hedge_delay_floor_us = 1'000;
  ropts.hedge_delay_fallback_us = 5'000;
  ropts.breaker.enabled = false;  // isolate hedging; shard_test owns breakers.
  ropts.jitter_seed = 42;
  const shard::Partition partition = shard::PartitionByStr(points, 1);
  shard::Router router(shard::ShardMap(kDim, partition.bounds),
                       std::move(shards), ropts);

  // Every query prefers the browned replica, stalls past the hedge
  // delay, and is rescued by the clean sibling — with answers
  // bit-identical to asking the healthy replica directly.
  for (size_t q = 0; q < 4; ++q) {
    const geom::Vec& focus = points[(q * 71) % points.size()];
    service::StreamOptions stream;
    stream.max_results = 9;
    auto routed = router.Knn(focus, stream);
    ASSERT_TRUE(routed.ok()) << routed.status().ToString();
    EXPECT_FALSE(routed->degraded());
    auto direct = fast.service->Knn(focus, 9);
    ASSERT_TRUE(direct.ok());
    ASSERT_EQ(routed->neighbors.size(), direct->neighbors.size());
    for (size_t i = 0; i < direct->neighbors.size(); ++i) {
      EXPECT_EQ(routed->neighbors[i].rid, direct->neighbors[i].rid);
      EXPECT_EQ(routed->neighbors[i].distance, direct->neighbors[i].distance);
    }
  }

  const shard::RouterStats stats = router.stats();
  EXPECT_GE(stats.hedges_attempted, 1u);
  EXPECT_GE(stats.hedges_won, 1u);
  // A brownout is slowness, not death: no failover ever fired and both
  // replicas are still kHealthy — hedging is invisible to the failover
  // state machine.
  EXPECT_EQ(stats.failovers, 0u);
  EXPECT_EQ(router.replica_state(0, 0), shard::ReplicaState::kHealthy);
  EXPECT_EQ(router.replica_state(0, 1), shard::ReplicaState::kHealthy);
  EXPECT_GE(proxy.stats().brownout_reads, 1u);
  proxy.Stop();
}

// A fetch from a wire replica asks for the whole answer when the
// router sets no count limit, or one past the wire's u32 k: the server
// refuses k = 0, and a wrapped limit would cut the answer short.
TEST(ChaosRouterTest, RemoteShardLimitsPastTheWireKServeEveryPoint) {
  const auto points = testing::MakeClusteredPoints(300, kDim, 4, 73);
  WireReplica replica = MakeWireReplica(points, TempDir("limits") + "/a");

  ClientOptions copts = ChaosClientOptions();
  copts.features = kFeatureStreaming | kFeatureRouter;
  std::vector<shard::Router::Shard> shards(1);
  shards[0].replicas.push_back(std::make_unique<shard::RemoteShardBackend>(
      "127.0.0.1", replica.server->port(), copts));
  const shard::Partition partition = shard::PartitionByStr(points, 1);
  shard::Router router(shard::ShardMap(kDim, partition.bounds),
                       std::move(shards), shard::RouterOptions());

  auto direct = replica.service->Knn(points[0], points.size());
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  ASSERT_EQ(direct->neighbors.size(), points.size());
  for (const size_t limit : {size_t{0}, (size_t{1} << 32) + 5}) {
    SCOPED_TRACE(::testing::Message() << "max_results " << limit);
    service::StreamOptions stream;
    stream.max_results = limit;
    auto routed = router.Knn(points[0], stream);
    ASSERT_TRUE(routed.ok()) << routed.status().ToString();
    ASSERT_EQ(routed->neighbors.size(), points.size());
    for (size_t i = 0; i < points.size(); ++i) {
      EXPECT_EQ(routed->neighbors[i].rid, direct->neighbors[i].rid);
      EXPECT_EQ(routed->neighbors[i].distance, direct->neighbors[i].distance);
    }
    EXPECT_EQ(router.replica_state(0, 0), shard::ReplicaState::kHealthy);
  }
}

// A server's verdict is an answer, not a broken link: the backend keeps
// the connection it came on. This server has no durable store, so it
// refuses catch-up with NotSupported.
TEST(ChaosRouterTest, RemoteShardKeepsItsConnectionAfterAVerdict) {
  const auto points = testing::MakeClusteredPoints(200, kDim, 4, 79);
  auto built = core::BuildIndex(points, TestBuild());
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  service::QueryService service(std::move(*built), service::ServiceOptions());
  Server server(&service, ServerOptions());
  ASSERT_TRUE(server.Start().ok());
  shard::RemoteShardBackend backend("127.0.0.1", server.port(),
                                    ChaosClientOptions());

  for (int i = 0; i < 3; ++i) {
    auto position = backend.CatchupPosition();
    ASSERT_FALSE(position.ok());
    EXPECT_EQ(position.status().code(), StatusCode::kNotSupported);
  }
  service::StreamOptions stream;
  stream.max_results = 5;
  auto frontier = backend.OpenFrontier(points[0], stream);
  ASSERT_TRUE(frontier.ok()) << frontier.status().ToString();
  EXPECT_EQ(server.stats().accepted, 1u);
}

}  // namespace
}  // namespace bw::net
