// Tests for the concurrent query service: result identity between
// concurrent and serial execution, admission control (reject and
// blocking backpressure), streaming limits, metrics aggregation, and
// lifecycle. The whole file doubles as the ThreadSanitizer target for
// the shared-index read path (build with -DBW_SANITIZE=thread).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <thread>
#include <vector>

#include "core/durable_index.h"
#include "core/index_factory.h"
#include "service/query_service.h"
#include "storage/disk_page_file.h"
#include "storage/store.h"
#include "tests/test_helpers.h"

namespace bw {
namespace {

using service::OverflowPolicy;
using service::QueryService;
using service::ServiceOptions;
using service::StreamOptions;

std::unique_ptr<core::BuiltIndex> BuildSmallIndex(const char* am = "rtree",
                                                  size_t n = 2000,
                                                  uint64_t seed = 11) {
  const auto points = testing::MakeClusteredPoints(n, 5, 8, seed);
  core::IndexBuildOptions options;
  options.am = am;
  options.xjb_x = 6;
  auto built = core::BuildIndex(points, options);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(*built);
}

std::vector<gist::Rid> Rids(const std::vector<gist::Neighbor>& neighbors) {
  std::vector<gist::Rid> rids;
  rids.reserve(neighbors.size());
  for (const auto& n : neighbors) rids.push_back(n.rid);
  return rids;
}

// ---------------------------------------------------------------------------
// Result identity: concurrent == serial
// ---------------------------------------------------------------------------

TEST(QueryServiceTest, ConcurrentKnnMatchesSerial) {
  const auto points = testing::MakeClusteredPoints(3000, 5, 10, 77);
  core::IndexBuildOptions build;
  auto built = core::BuildIndex(points, build);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const gist::Tree& tree = (*built)->tree();

  constexpr size_t kQueries = 64;
  constexpr size_t kK = 25;
  std::vector<std::vector<gist::Rid>> expected(kQueries);
  for (size_t i = 0; i < kQueries; ++i) {
    auto serial = tree.KnnSearch(points[i * 37 % points.size()], kK, nullptr);
    ASSERT_TRUE(serial.ok());
    expected[i] = Rids(*serial);
  }

  ServiceOptions options;
  options.num_workers = 4;
  options.queue_capacity = 16;
  options.overflow = OverflowPolicy::kBlock;
  QueryService service(tree, options);

  std::vector<QueryService::ResponseFuture> futures;
  futures.reserve(kQueries);
  for (size_t i = 0; i < kQueries; ++i) {
    auto future = service.SubmitKnn(points[i * 37 % points.size()], kK);
    ASSERT_TRUE(future.ok()) << future.status().ToString();
    futures.push_back(std::move(*future));
  }
  for (size_t i = 0; i < kQueries; ++i) {
    auto response = futures[i].get();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(Rids(response->neighbors), expected[i]) << "query " << i;
    EXPECT_GT(response->metrics.latency_us, 0.0);
    EXPECT_GT(response->metrics.leaf_accesses, 0u);
  }
}

TEST(QueryServiceTest, ConcurrentRangeMatchesSerial) {
  auto built = BuildSmallIndex("xjb");
  const gist::Tree& tree = built->tree();

  // Pick radii from serial k-NN distances so result sets are non-empty.
  const auto points = testing::MakeClusteredPoints(2000, 5, 8, 11);
  std::vector<QueryService::ResponseFuture> futures;
  std::vector<std::vector<gist::Rid>> expected;
  ServiceOptions options;
  options.num_workers = 3;
  options.overflow = OverflowPolicy::kBlock;
  QueryService service(tree, options);
  for (size_t i = 0; i < 16; ++i) {
    const geom::Vec& query = points[i * 101 % points.size()];
    auto knn = tree.KnnSearch(query, 20, nullptr);
    ASSERT_TRUE(knn.ok());
    const double radius = (*knn)[19].distance;
    auto serial = tree.RangeSearch(query, radius, nullptr);
    ASSERT_TRUE(serial.ok());
    auto rids = Rids(*serial);
    std::sort(rids.begin(), rids.end());
    expected.push_back(std::move(rids));
    auto future = service.SubmitRange(query, radius);
    ASSERT_TRUE(future.ok());
    futures.push_back(std::move(*future));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    auto response = futures[i].get();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    auto rids = Rids(response->neighbors);
    std::sort(rids.begin(), rids.end());
    EXPECT_EQ(rids, expected[i]) << "query " << i;
  }
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

TEST(QueryServiceTest, QueueFullReturnsUnavailable) {
  auto built = BuildSmallIndex();
  ServiceOptions options;
  options.num_workers = 1;
  options.queue_capacity = 4;
  options.overflow = OverflowPolicy::kReject;
  options.start_paused = true;  // nothing dequeues until Resume().
  QueryService service(built->tree(), options);
  const auto points = testing::MakeClusteredPoints(16, 5, 2, 99);

  std::vector<QueryService::ResponseFuture> admitted;
  for (int i = 0; i < 4; ++i) {
    auto future = service.SubmitKnn(points[i], 5);
    ASSERT_TRUE(future.ok()) << future.status().ToString();
    admitted.push_back(std::move(*future));
  }
  EXPECT_EQ(service.queue_depth(), 4u);

  // Fifth submission finds the queue full and is rejected with a Status.
  auto rejected = service.SubmitKnn(points[4], 5);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);

  service.Resume();
  for (auto& f : admitted) {
    auto response = f.get();
    EXPECT_TRUE(response.ok()) << response.status().ToString();
  }
  const auto snap = service.Snapshot();
  EXPECT_EQ(snap.submitted, 4u);
  EXPECT_EQ(snap.rejected, 1u);
  EXPECT_EQ(snap.completed, 4u);
}

TEST(QueryServiceTest, BlockingBackpressureUnblocksOnResume) {
  auto built = BuildSmallIndex();
  ServiceOptions options;
  options.num_workers = 1;
  options.queue_capacity = 2;
  options.overflow = OverflowPolicy::kBlock;
  options.start_paused = true;
  QueryService service(built->tree(), options);
  const auto points = testing::MakeClusteredPoints(8, 5, 2, 5);

  std::vector<QueryService::ResponseFuture> futures;
  for (int i = 0; i < 2; ++i) {
    auto f = service.SubmitKnn(points[i], 5);
    ASSERT_TRUE(f.ok());
    futures.push_back(std::move(*f));
  }

  // The third submitter blocks until Resume() frees queue space.
  std::atomic<bool> submitted{false};
  std::thread blocked([&] {
    auto f = service.SubmitKnn(points[2], 5);
    ASSERT_TRUE(f.ok()) << f.status().ToString();
    submitted.store(true);
    futures.push_back(std::move(*f));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(submitted.load());  // still blocked while paused.

  service.Resume();
  blocked.join();
  EXPECT_TRUE(submitted.load());
  for (auto& f : futures) {
    EXPECT_TRUE(f.get().ok());
  }
  EXPECT_EQ(service.Snapshot().rejected, 0u);
}

// ---------------------------------------------------------------------------
// Streaming limits
// ---------------------------------------------------------------------------

// The budget radius ends a stream at the range answer, in (distance,
// rid) order, on both stream paths. A wire client's k is an unchecked
// u32, so max_results may also exceed the tree's size: whether the
// limit prunes (below the size) or cannot (at or above it), the budget
// radius still decides the answer.
TEST(QueryServiceTest, StreamBudgetRadiusMatchesRange) {
  constexpr size_t kPoints = 2500;
  auto built = BuildSmallIndex("rtree", kPoints, 13);
  const gist::Tree& tree = built->tree();
  const auto points = testing::MakeClusteredPoints(kPoints, 5, 8, 13);
  const geom::Vec& query = points[42];

  auto knn = tree.KnnSearch(query, 40, nullptr);
  ASSERT_TRUE(knn.ok());
  const double radius = (*knn)[39].distance;
  auto range = tree.RangeSearch(query, radius, nullptr);
  ASSERT_TRUE(range.ok());
  ASSERT_GE(range->size(), 40u);

  ServiceOptions options;
  options.num_workers = 2;
  QueryService service(tree, options);
  for (const size_t max_results :
       {size_t{0}, size_t{200}, kPoints - 1, kPoints, kPoints + 5,
        size_t{std::numeric_limits<uint32_t>::max()}}) {
    SCOPED_TRACE(::testing::Message() << "max_results=" << max_results);
    StreamOptions stream;
    stream.max_results = max_results;
    stream.budget_radius = radius;

    auto future = service.SubmitStream(query, stream);
    ASSERT_TRUE(future.ok());
    auto response = future->get();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_FALSE(response->metrics.truncated);

    auto run = service.RunStream(query, stream);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_FALSE(run->metrics.truncated);

    for (const auto* got : {&response->neighbors, &run->neighbors}) {
      ASSERT_EQ(got->size(), range->size());
      for (size_t i = 0; i < range->size(); ++i) {
        EXPECT_EQ((*got)[i].rid, (*range)[i].rid) << "rank " << i;
        EXPECT_EQ((*got)[i].distance, (*range)[i].distance) << "rank " << i;
      }
    }
  }
}

TEST(QueryServiceTest, StreamMaxResultsReturnsExactPrefix) {
  auto built = BuildSmallIndex("rtree", 1500, 29);
  const auto points = testing::MakeClusteredPoints(1500, 5, 8, 29);
  const geom::Vec& query = points[7];

  auto knn = built->tree().KnnSearch(query, 10, nullptr);
  ASSERT_TRUE(knn.ok());

  ServiceOptions options;
  options.num_workers = 1;
  QueryService service(built->tree(), options);
  StreamOptions stream;
  stream.max_results = 10;
  auto future = service.SubmitStream(query, stream);
  ASSERT_TRUE(future.ok());
  auto response = future->get();
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->neighbors.size(), 10u);
  EXPECT_FALSE(response->metrics.truncated);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(response->neighbors[i].rid, (*knn)[i].rid);
    EXPECT_NEAR(response->neighbors[i].distance, (*knn)[i].distance, 1e-12);
  }
}

TEST(QueryServiceTest, StreamDeadlineTruncates) {
  auto built = BuildSmallIndex("rtree", 4000, 61);
  const auto points = testing::MakeClusteredPoints(4000, 5, 8, 61);

  ServiceOptions options;
  options.num_workers = 1;
  QueryService service(built->tree(), options);

  // Expires essentially immediately: the stream stops at the next node
  // fetch or between two results, long before all 4000 points stream.
  StreamOptions stream;
  stream.deadline_us = 1;
  auto future = service.SubmitStream(points[3], stream);
  ASSERT_TRUE(future.ok());
  auto response = future->get();
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->metrics.truncated);
  EXPECT_LT(response->neighbors.size(), 4000u);
  EXPECT_EQ(service.Snapshot().truncated_streams, 1u);
}

// ---------------------------------------------------------------------------
// Metrics, lifecycle, mixed stress
// ---------------------------------------------------------------------------

TEST(QueryServiceTest, SnapshotAggregates) {
  auto built = BuildSmallIndex();
  const auto points = testing::MakeClusteredPoints(2000, 5, 8, 11);
  ServiceOptions options;
  options.num_workers = 2;
  options.overflow = OverflowPolicy::kBlock;
  QueryService service(built->tree(), options);

  constexpr size_t kN = 40;
  std::vector<QueryService::ResponseFuture> futures;
  for (size_t i = 0; i < kN; ++i) {
    auto f = service.SubmitKnn(points[i * 17 % points.size()], 15);
    ASSERT_TRUE(f.ok());
    futures.push_back(std::move(*f));
  }
  for (auto& f : futures) ASSERT_TRUE(f.get().ok());

  const auto snap = service.Snapshot();
  EXPECT_EQ(snap.submitted, kN);
  EXPECT_EQ(snap.completed, kN);
  EXPECT_EQ(snap.failed, 0u);
  EXPECT_GT(snap.leaf_accesses, 0u);
  EXPECT_GT(snap.internal_accesses, 0u);
  EXPECT_GT(snap.pool_hits + snap.pool_misses, 0u);
  EXPECT_GT(snap.elapsed_seconds, 0.0);
  EXPECT_GT(snap.qps, 0.0);
  EXPECT_GT(snap.mean_latency_us, 0.0);
  EXPECT_LE(snap.p50_latency_us, snap.p95_latency_us);
  EXPECT_LE(snap.p95_latency_us, snap.p99_latency_us);
}

TEST(QueryServiceTest, ResidentReadCountersSurfaceInMetricsAndSnapshot) {
  auto built = BuildSmallIndex();
  const auto points = testing::MakeClusteredPoints(2000, 5, 8, 11);
  ServiceOptions options;
  options.num_workers = 2;
  QueryService service(built->tree(), options);

  // Every page is resident: each node a query visits is one served
  // fetch, counted as a hit, and nothing ever misses, evicts or waits.
  uint64_t hits = 0, visits = 0;
  for (size_t i = 0; i < 30; ++i) {
    auto response = service.Knn(points[i * 13 % points.size()], 10);
    ASSERT_TRUE(response.ok());
    const service::QueryMetrics& m = response->metrics;
    EXPECT_EQ(m.pool_hits, m.internal_accesses + m.leaf_accesses);
    EXPECT_GT(m.pool_hits, 0u);
    EXPECT_EQ(m.pool_misses, 0u);
    EXPECT_EQ(m.pool_evictions, 0u);
    EXPECT_EQ(m.pool_contention, 0u);
    hits += m.pool_hits;
    visits += m.internal_accesses + m.leaf_accesses;
  }
  StreamOptions stream;
  stream.max_results = 20;
  auto streamed = service.SubmitStream(points[3], stream);
  ASSERT_TRUE(streamed.ok());
  auto response = streamed->get();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->metrics.pool_hits, response->metrics.internal_accesses +
                                             response->metrics.leaf_accesses);
  hits += response->metrics.pool_hits;
  visits += response->metrics.internal_accesses +
            response->metrics.leaf_accesses;

  // The snapshot holds the per-query sums.
  const auto snap = service.Snapshot();
  EXPECT_EQ(snap.pool_hits, hits);
  EXPECT_EQ(snap.internal_accesses + snap.leaf_accesses, visits);
  EXPECT_EQ(snap.pool_misses, 0u);
  EXPECT_EQ(snap.pool_evictions, 0u);
  EXPECT_EQ(snap.pool_contention, 0u);
}

TEST(QueryServiceTest, SyncKnnConvenience) {
  auto built = BuildSmallIndex();
  const auto points = testing::MakeClusteredPoints(2000, 5, 8, 11);
  QueryService service(built->tree(), ServiceOptions{});
  auto response = service.Knn(points[0], 12);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->neighbors.size(), 12u);
  EXPECT_EQ(response->neighbors[0].rid, 0u);  // the query point itself.
}

TEST(QueryServiceTest, ShutdownRejectsNewSubmissionsAndDrains) {
  auto built = BuildSmallIndex();
  const auto points = testing::MakeClusteredPoints(16, 5, 2, 3);
  ServiceOptions options;
  options.num_workers = 1;
  options.start_paused = true;
  QueryService service(built->tree(), options);

  auto queued = service.SubmitKnn(points[0], 5);
  ASSERT_TRUE(queued.ok());
  service.Shutdown();  // drains the paused queue before joining.
  auto response = queued->get();
  EXPECT_TRUE(response.ok()) << response.status().ToString();

  auto after = service.SubmitKnn(points[1], 5);
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kUnavailable);
  service.Shutdown();  // idempotent.
}

TEST(QueryServiceTest, OwnedIndexConstructor) {
  auto built = BuildSmallIndex();
  const auto points = testing::MakeClusteredPoints(2000, 5, 8, 11);
  QueryService service(std::move(built), ServiceOptions{});
  auto response = service.Knn(points[5], 8);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->neighbors.size(), 8u);
}

// Multi-client mixed-kind stress: the primary ThreadSanitizer target.
// Many client threads hammer one service with k-NN, range, and stream
// requests concurrently; every response must be well-formed.
// ---------------------------------------------------------------------------
// Serving through faults: degraded-mode queries
// ---------------------------------------------------------------------------

std::string TempPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

std::unique_ptr<core::DurableIndex> BuildDurableSmallIndex(
    const std::string& tag) {
  const auto points = testing::MakeClusteredPoints(800, 3, 6, 29);
  core::IndexBuildOptions options;
  options.am = "rtree";
  options.page_bytes = 1024;
  auto built = core::BuildDurableIndex(points, options,
                                       TempPath("svc_" + tag + ".bwpf"),
                                       TempPath("svc_" + tag + ".bwwal"));
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(*built);
}

TEST(QueryServiceFaultTest, QuarantineDegradesThenHealsExact) {
  auto index = BuildDurableSmallIndex("degrade");
  ASSERT_NE(index, nullptr);
  storage::DiskPageFile* disk = index->store().disk();

  ServiceOptions options;
  options.num_workers = 2;
  options.fault_budget = disk->page_count() + 1;
  QueryService service(index.get(), options);
  const geom::Vec query = testing::MakeUniformPoints(1, 3, 5)[0];

  auto baseline = service.Knn(query, 10);
  ASSERT_TRUE(baseline.ok());
  EXPECT_FALSE(baseline->degraded());
  ASSERT_EQ(baseline->neighbors.size(), 10u);

  // Quarantine every page: the root fetch itself is skipped, so the
  // answer degrades all the way to flagged-and-empty — available, never
  // silently wrong.
  for (pages::PageId id = 0; id < disk->page_count(); ++id) {
    disk->health().Quarantine(id);
  }
  auto degraded = service.Knn(query, 10);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_TRUE(degraded->degraded());
  EXPECT_GE(degraded->metrics.pages_skipped, 1u);
  EXPECT_TRUE(degraded->neighbors.empty());

  for (pages::PageId id = 0; id < disk->page_count(); ++id) {
    disk->health().Release(id);
  }
  auto healed = service.Knn(query, 10);
  ASSERT_TRUE(healed.ok());
  EXPECT_FALSE(healed->degraded());
  EXPECT_EQ(Rids(healed->neighbors), Rids(baseline->neighbors));

  const auto snap = service.Snapshot();
  EXPECT_EQ(snap.degraded_responses, 1u);
  EXPECT_GE(snap.pages_skipped, 1u);
  EXPECT_EQ(snap.store_pages_quarantined, 0u);
  EXPECT_EQ(snap.store_quarantines_total, disk->page_count());
  EXPECT_EQ(snap.store_repairs_total, disk->page_count());
}

TEST(QueryServiceFaultTest, ZeroFaultBudgetFailsClosed) {
  auto index = BuildDurableSmallIndex("failclosed");
  ASSERT_NE(index, nullptr);
  storage::DiskPageFile* disk = index->store().disk();

  ServiceOptions options;  // fault_budget = 0: pre-fault-tolerance behavior.
  options.num_workers = 1;
  QueryService service(index.get(), options);
  for (pages::PageId id = 0; id < disk->page_count(); ++id) {
    disk->health().Quarantine(id);
  }
  const geom::Vec query = testing::MakeUniformPoints(1, 3, 5)[0];
  auto response = service.Knn(query, 10);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(service.Snapshot().failed, 1u);
}

TEST(QueryServiceTest, MixedKindStress) {
  auto built = BuildSmallIndex("xjb", 2500, 47);
  const auto points = testing::MakeClusteredPoints(2500, 5, 8, 47);
  ServiceOptions options;
  options.num_workers = 4;
  options.queue_capacity = 8;
  options.overflow = OverflowPolicy::kBlock;
  QueryService service(built->tree(), options);

  constexpr size_t kClients = 6;
  constexpr size_t kPerClient = 20;
  std::atomic<uint64_t> results{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = 0; i < kPerClient; ++i) {
        const geom::Vec& q = points[(c * 131 + i * 17) % points.size()];
        auto future = [&]() -> Result<QueryService::ResponseFuture> {
          switch ((c + i) % 3) {
            case 0:
              return service.SubmitKnn(q, 10);
            case 1:
              return service.SubmitRange(q, 5.0);
            default: {
              StreamOptions stream;
              stream.max_results = 15;
              return service.SubmitStream(q, stream);
            }
          }
        }();
        ASSERT_TRUE(future.ok()) << future.status().ToString();
        auto response = future->get();
        ASSERT_TRUE(response.ok()) << response.status().ToString();
        for (size_t j = 1; j < response->neighbors.size(); ++j) {
          ASSERT_GE(response->neighbors[j].distance,
                    response->neighbors[j - 1].distance - 1e-12);
        }
        results.fetch_add(response->neighbors.size());
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_GT(results.load(), 0u);
  const auto snap = service.Snapshot();
  EXPECT_EQ(snap.submitted, kClients * kPerClient);
  EXPECT_EQ(snap.completed, kClients * kPerClient);
  EXPECT_EQ(snap.failed, 0u);
}

// ---------------------------------------------------------------------------
// Serving through writes: the online mutation path
// ---------------------------------------------------------------------------

constexpr size_t kSeedPoints = 300;  // rids 0..299; online inserts follow.

core::IndexBuildOptions WriteIndexOpts() {
  core::IndexBuildOptions options;
  options.am = "rtree";
  options.page_bytes = 1024;
  return options;
}

std::unique_ptr<core::DurableIndex> BuildWritableIndex(
    const std::string& base, const std::string& wal,
    storage::StoreOptions store_options = storage::StoreOptions()) {
  const auto points = testing::MakeClusteredPoints(kSeedPoints, 3, 6, 31);
  auto built = core::BuildDurableIndex(points, WriteIndexOpts(), base, wal,
                                       store_options);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return built.ok() ? std::move(*built) : nullptr;
}

/// Spins (bounded) until the service reaches `want`.
void AwaitWriteState(const QueryService& service, service::WriteState want) {
  for (int i = 0; i < 5000 && service.write_state() != want; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(service.write_state(), want);
}

TEST(QueryServiceWriteTest, OnlineInsertsAckDurableAndQueryable) {
  const std::string base = TempPath("svcw_online.bwpf");
  const std::string wal = TempPath("svcw_online.bwwal");
  auto index = BuildWritableIndex(base, wal);
  ASSERT_NE(index, nullptr);

  constexpr size_t kInserts = 40;
  const auto extra = testing::MakeClusteredPoints(kInserts, 3, 4, 91);
  {
    ServiceOptions options;
    options.num_workers = 2;
    options.write.enabled = true;
    options.write.batch_size = 8;
    QueryService service(index.get(), options);

    std::vector<QueryService::MutationFuture> futures;
    for (size_t i = 0; i < kInserts; ++i) {
      auto future = service.SubmitInsert(extra[i], kSeedPoints + i);
      ASSERT_TRUE(future.ok()) << future.status().ToString();
      futures.push_back(std::move(*future));
    }
    for (auto& future : futures) {
      auto outcome = future.get();
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      EXPECT_GT(outcome->tag, 0u);  // every ack names its durable batch.
    }
    // Every acked insert answers queries: its own location returns it.
    for (size_t i = 0; i < kInserts; ++i) {
      auto response = service.Knn(extra[i], 3);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      const auto rids = Rids(response->neighbors);
      EXPECT_NE(std::find(rids.begin(), rids.end(),
                          static_cast<gist::Rid>(kSeedPoints + i)),
                rids.end())
          << "insert " << i;
    }
    const auto snap = service.Snapshot();
    EXPECT_TRUE(snap.writes_enabled);
    EXPECT_EQ(snap.write_state, service::WriteState::kServing);
    EXPECT_FALSE(snap.write_degraded);
    EXPECT_EQ(snap.writes_submitted, kInserts);
    EXPECT_EQ(snap.writes_acked, kInserts);
    EXPECT_EQ(snap.writes_failed, 0u);
    EXPECT_EQ(snap.writes_rejected, 0u);
    EXPECT_GT(snap.commit_batches, 0u);
    EXPECT_GT(snap.generation, 0u);  // reader-visible batch handoffs.
    EXPECT_GT(snap.mean_write_latency_us, 0.0);
    EXPECT_GE(snap.p99_write_latency_us, snap.p50_write_latency_us);
    service.Shutdown();
  }
  // Ack == durable: a fresh process recovers every acknowledged insert.
  index.reset();
  auto recovered = core::OpenDurableIndex(base, wal, WriteIndexOpts());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->tree().size(), kSeedPoints + kInserts);
}

TEST(QueryServiceWriteTest, DeleteResolvesNotFoundForAbsentPairs) {
  const std::string base = TempPath("svcw_delete.bwpf");
  const std::string wal = TempPath("svcw_delete.bwwal");
  auto index = BuildWritableIndex(base, wal);
  ASSERT_NE(index, nullptr);

  ServiceOptions options;
  options.num_workers = 1;
  options.write.enabled = true;
  QueryService service(index.get(), options);

  const auto extra = testing::MakeClusteredPoints(2, 3, 4, 92);
  auto inserted = service.SubmitInsert(extra[0], kSeedPoints);
  ASSERT_TRUE(inserted.ok());
  ASSERT_TRUE(inserted->get().ok());

  // Deleting the pair we just inserted succeeds and hides it.
  auto removed = service.SubmitDelete(extra[0], kSeedPoints);
  ASSERT_TRUE(removed.ok());
  ASSERT_TRUE(removed->get().ok());
  auto response = service.Knn(extra[0], 3);
  ASSERT_TRUE(response.ok());
  const auto rids = Rids(response->neighbors);
  EXPECT_EQ(std::find(rids.begin(), rids.end(),
                      static_cast<gist::Rid>(kSeedPoints)),
            rids.end());

  // An absent pair resolves NotFound — but the batch itself commits, so
  // the service keeps serving writes afterwards.
  auto absent = service.SubmitDelete(extra[1], 999999);
  ASSERT_TRUE(absent.ok());
  auto outcome = absent->get();
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(service.write_state(), service::WriteState::kServing);
}

// A NaN or infinite coordinate is outside input the tree cannot order.
// Every submission path, and RunStream, refuses it with InvalidArgument
// before queuing or running. So does every limit the wire decoders
// refuse: a NaN budget radius, and a range radius that is NaN, infinite
// or negative. Nothing is inserted or deleted, and the service keeps
// serving.
TEST(QueryServiceWriteTest, NonFiniteCoordinatesAreRejectedBeforeQueuing) {
  const std::string base = TempPath("svcw_nonfinite.bwpf");
  const std::string wal = TempPath("svcw_nonfinite.bwwal");
  auto index = BuildWritableIndex(base, wal);
  ASSERT_NE(index, nullptr);
  ServiceOptions options;
  options.num_workers = 1;
  options.write.enabled = true;
  QueryService service(index.get(), options);
  const auto points = testing::MakeClusteredPoints(kSeedPoints, 3, 6, 31);

  const float kBad[] = {std::numeric_limits<float>::quiet_NaN(),
                        std::numeric_limits<float>::infinity(),
                        -std::numeric_limits<float>::infinity()};
  const auto expect_invalid = [](const Status& status, float bad) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << bad << ": " << status.ToString();
  };
  for (const float bad : kBad) {
    geom::Vec point = points[7];
    point[2] = bad;
    auto knn = service.SubmitKnn(point, 5);
    ASSERT_FALSE(knn.ok());
    expect_invalid(knn.status(), bad);
    auto range = service.SubmitRange(point, 0.5);
    ASSERT_FALSE(range.ok());
    expect_invalid(range.status(), bad);
    StreamOptions stream;
    stream.max_results = 10;
    auto streamed = service.SubmitStream(point, stream);
    ASSERT_FALSE(streamed.ok());
    expect_invalid(streamed.status(), bad);

    auto run = service.RunStream(point, stream);
    ASSERT_FALSE(run.ok());
    expect_invalid(run.status(), bad);

    auto insert = service.SubmitInsert(point, kSeedPoints + 1);
    ASSERT_FALSE(insert.ok());
    expect_invalid(insert.status(), bad);
    auto remove = service.SubmitDelete(point, 7);
    ASSERT_FALSE(remove.ok());
    expect_invalid(remove.status(), bad);
  }
  // A finite query with a radius no search can order.
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  StreamOptions nan_radius;
  nan_radius.budget_radius = kNaN;
  auto nan_stream = service.SubmitStream(points[7], nan_radius);
  ASSERT_FALSE(nan_stream.ok());
  expect_invalid(nan_stream.status(), 0);
  auto nan_run = service.RunStream(points[7], nan_radius);
  ASSERT_FALSE(nan_run.ok());
  expect_invalid(nan_run.status(), 0);
  for (const double radius : {kNaN, kInf, -kInf, -0.5}) {
    SCOPED_TRACE(::testing::Message() << "range radius " << radius);
    auto range = service.SubmitRange(points[7], radius);
    ASSERT_FALSE(range.ok());
    expect_invalid(range.status(), 0);
  }

  const auto snap = service.Snapshot();
  EXPECT_EQ(snap.submitted, 0u);
  EXPECT_EQ(snap.writes_submitted, 0u);
  EXPECT_EQ(service.tree().size(), kSeedPoints);

  // A finite query still gets the exact answer.
  auto response = service.Knn(points[7], 3);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_FALSE(response->neighbors.empty());
  EXPECT_EQ(response->neighbors[0].rid, 7u);
  EXPECT_EQ(response->neighbors[0].distance, 0.0);
}

TEST(QueryServiceWriteTest, WriteAdmissionControl) {
  const std::string base = TempPath("svcw_admit.bwpf");
  const std::string wal = TempPath("svcw_admit.bwwal");
  auto index = BuildWritableIndex(base, wal);
  ASSERT_NE(index, nullptr);
  const geom::Vec point = testing::MakeUniformPoints(1, 3, 5)[0];

  {
    // Writes not enabled: submission is a caller error, not a transient.
    QueryService service(index.get(), ServiceOptions{});
    auto future = service.SubmitInsert(point, 777);
    ASSERT_FALSE(future.ok());
    EXPECT_EQ(future.status().code(), StatusCode::kInvalidArgument);
  }
  {
    ServiceOptions options;
    options.write.enabled = true;
    QueryService service(index.get(), options);
    service.Shutdown();
    auto future = service.SubmitInsert(point, 777);
    ASSERT_FALSE(future.ok());
    EXPECT_EQ(future.status().code(), StatusCode::kUnavailable);
  }
}

TEST(QueryServiceWriteTest, SpaceWatchdogTripsReadOnlyThenAutoResumes) {
  const std::string base = TempPath("svcw_watchdog.bwpf");
  const std::string wal = TempPath("svcw_watchdog.bwwal");
  auto index = BuildWritableIndex(base, wal);
  ASSERT_NE(index, nullptr);

  std::atomic<uint64_t> free_bytes{0};  // the disk starts exhausted.
  ServiceOptions options;
  options.num_workers = 2;
  options.write.enabled = true;
  options.write.min_free_bytes = 1 << 20;
  options.write.free_space_probe = [&free_bytes] {
    return free_bytes.load();
  };
  options.write.retry_interval = std::chrono::milliseconds(2);
  QueryService service(index.get(), options);

  const auto extra = testing::MakeClusteredPoints(3, 3, 4, 93);
  // Admitted while still serving; the watchdog trips BEFORE any WAL
  // append for it can hit ENOSPC, and the mutation waits, not lost.
  auto pioneer = service.SubmitInsert(extra[0], kSeedPoints);
  ASSERT_TRUE(pioneer.ok()) << pioneer.status().ToString();
  AwaitWriteState(service, service::WriteState::kReadOnly);

  // New writes shed with the capacity verdict...
  auto shed = service.SubmitInsert(extra[1], kSeedPoints + 1);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  // ...while queries keep serving, flagged degraded for operators.
  auto response = service.Knn(extra[0], 5);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  auto snap = service.Snapshot();
  EXPECT_EQ(snap.write_state, service::WriteState::kReadOnly);
  EXPECT_TRUE(snap.write_degraded);
  EXPECT_GE(snap.writes_rejected, 1u);

  // Space returns: the service resumes itself and the waiting write
  // finally lands and acks.
  free_bytes.store(64ull << 30);
  service.ResumeWrites();
  auto outcome = pioneer->get();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  AwaitWriteState(service, service::WriteState::kServing);
  snap = service.Snapshot();
  EXPECT_FALSE(snap.write_degraded);
  EXPECT_EQ(snap.writes_acked, 1u);
}

TEST(QueryServiceWriteTest, FailStoppedLogFailsWritesButServesReads) {
  const std::string base = TempPath("svcw_failstop.bwpf");
  const std::string wal = TempPath("svcw_failstop.bwwal");
  storage::FaultInjector injector;
  storage::StoreOptions store_options;
  store_options.injector = &injector;
  auto index = BuildWritableIndex(base, wal, store_options);
  ASSERT_NE(index, nullptr);

  ServiceOptions options;
  options.num_workers = 2;
  options.write.enabled = true;
  QueryService service(index.get(), options);

  const auto extra = testing::MakeClusteredPoints(3, 3, 4, 94);
  auto healthy = service.SubmitInsert(extra[0], kSeedPoints);
  ASSERT_TRUE(healthy.ok());
  ASSERT_TRUE(healthy->get().ok());

  // Fsyncgate mid-serve: the next WAL fsync fails, the fd fail-stops,
  // and the in-flight mutation must resolve with an error — never a
  // false ack.
  storage::FaultInjector::WriteFaultPlan plan;
  plan.sync_fail_at = 1;
  injector.ArmWrites(plan);
  auto doomed = service.SubmitInsert(extra[1], kSeedPoints + 1);
  ASSERT_TRUE(doomed.ok());
  auto outcome = doomed->get();
  ASSERT_FALSE(outcome.ok());
  AwaitWriteState(service, service::WriteState::kFailed);

  // kFailed is permanent for this process: writes shed with IoError...
  auto after = service.SubmitInsert(extra[2], kSeedPoints + 2);
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kIoError);
  // ...and reads keep answering.
  auto response = service.Knn(extra[0], 5);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  const auto snap = service.Snapshot();
  EXPECT_EQ(snap.write_state, service::WriteState::kFailed);
  EXPECT_TRUE(snap.write_degraded);
  EXPECT_GE(snap.writes_failed, 1u);
  EXPECT_EQ(snap.writes_acked, 1u);
}

// Readers vs the writer: the TSan-audited half of the write path. Range
// queries sweep the whole space while rid-ordered inserts stream in;
// every response must surface a *contiguous prefix* of the inserted
// rids — a reader that caught a half-applied batch would see a gap.
TEST(QueryServiceWriteTest, ReadersSeeOnlyWholeBatchPrefixes) {
  const std::string base = TempPath("svcw_prefix.bwpf");
  const std::string wal = TempPath("svcw_prefix.bwwal");
  auto index = BuildWritableIndex(base, wal);
  ASSERT_NE(index, nullptr);

  ServiceOptions options;
  options.num_workers = 3;
  options.queue_capacity = 256;
  options.write.enabled = true;
  options.write.batch_size = 8;
  options.write.queue_capacity = 512;
  QueryService service(index.get(), options);

  constexpr size_t kInserts = 128;
  const auto extra = testing::MakeClusteredPoints(kInserts, 3, 4, 53);
  const geom::Vec probe = extra[0];
  std::atomic<bool> done{false};
  std::atomic<uint64_t> prefix_violations{0};
  std::atomic<uint64_t> reads_checked{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_relaxed)) {
        auto future = service.SubmitRange(probe, 1e9);  // the whole space.
        if (!future.ok()) continue;  // query queue momentarily full.
        auto response = future->get();
        if (!response.ok()) continue;
        std::vector<gist::Rid> streamed;
        for (const auto& n : response->neighbors) {
          if (n.rid >= kSeedPoints) streamed.push_back(n.rid);
        }
        std::sort(streamed.begin(), streamed.end());
        for (size_t i = 0; i < streamed.size(); ++i) {
          if (streamed[i] != kSeedPoints + i) {
            prefix_violations.fetch_add(1);
            break;
          }
        }
        reads_checked.fetch_add(1);
      }
    });
  }

  std::vector<QueryService::MutationFuture> futures;
  for (size_t i = 0; i < kInserts; ++i) {
    auto future = service.SubmitInsert(extra[i], kSeedPoints + i);
    ASSERT_TRUE(future.ok()) << future.status().ToString();
    futures.push_back(std::move(*future));
  }
  for (auto& future : futures) {
    auto outcome = future.get();
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  }
  done.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(prefix_violations.load(), 0u);
  EXPECT_GT(reads_checked.load(), 0u);
  // And the final answer holds every insert.
  auto final_read = service.Knn(probe, 1);
  ASSERT_TRUE(final_read.ok());
  EXPECT_EQ(service.tree().size(), kSeedPoints + kInserts);
}

}  // namespace
}  // namespace bw
