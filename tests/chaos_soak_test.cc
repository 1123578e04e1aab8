// Chaos soak harness for the self-healing read path: a durable index is
// served by a QueryService while a chaos thread rots frames on disk,
// arms the FaultInjector's transient/flip/delay read schedules, scrubs,
// and repairs — all concurrently with query threads that verify every
// single response against a fault-free brute-force reference:
//
//  - complete responses must match the reference exactly;
//  - degraded responses must be flagged (completeness/pages_skipped) and
//    subset-valid: every returned neighbor is a genuine point at its true
//    distance, in ascending order, and range results are a subset of the
//    reference answer set — a degraded answer may miss neighbors but may
//    never invent or misplace one;
//  - quarantined pages are eventually all repaired (memory/disk/WAL
//    routes) and the final query round is exact again;
//  - service metrics are consistent with what the queries observed and
//    with the store's own health counters.
//
// The sweep is seeded and deterministic per seed; BW_CHAOS_SEEDS picks
// how many consecutive seeds to run (default keeps CI fast; acceptance
// is 100 consecutive seeds locally: BW_CHAOS_SEEDS=100).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/durable_index.h"
#include "core/index_factory.h"
#include "geom/vec.h"
#include "gist/tree.h"
#include "service/query_service.h"
#include "storage/disk_page_file.h"
#include "storage/fault_injector.h"
#include "storage/store.h"
#include "tests/test_helpers.h"
#include "util/random.h"

namespace bw {
namespace {

using service::OverflowPolicy;
using service::QueryService;
using service::ServiceOptions;
using service::StreamOptions;
using storage::DiskPageFile;
using storage::FaultInjector;
using storage::StoreOptions;

constexpr size_t kNumPoints = 400;
constexpr size_t kDim = 3;
constexpr size_t kPageBytes = 1024;
constexpr size_t kK = 10;

// Mirrors the DiskPageFile frame layout (two 64-byte header slots, then
// page_size + 32 bytes per frame); byte +5 is always inside the
// CRC-covered encoded image, so flipping it is guaranteed detectable rot.
long FrameRotOffset(pages::PageId id) {
  return static_cast<long>(128 + id * (kPageBytes + 32) + 5);
}

std::string TempPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

void FlipByteAt(const std::string& path, long offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  const int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  ASSERT_NE(std::fputc(c ^ 0x40, f), EOF);
  std::fclose(f);
}

std::set<gist::Rid> RidSet(const std::vector<gist::Neighbor>& neighbors) {
  std::set<gist::Rid> rids;
  for (const auto& n : neighbors) rids.insert(n.rid);
  return rids;
}

/// One query's fault-free reference answers, brute-forced.
struct Reference {
  geom::Vec query;
  std::set<gist::Rid> knn;        // the true k nearest, as a rid set.
  double radius = 0;              // range radius (off any point boundary).
  std::set<gist::Rid> in_radius;  // the true range answer set.
};

std::vector<Reference> MakeReferences(const std::vector<geom::Vec>& points,
                                      uint64_t seed) {
  std::vector<geom::Vec> queries = testing::MakeUniformPoints(4, kDim, seed);
  queries.push_back(points[seed % points.size()]);
  queries.push_back(points[(seed * 31 + 7) % points.size()]);
  std::vector<Reference> refs;
  for (geom::Vec& q : queries) {
    Reference ref;
    const auto knn = testing::BruteForceKnn(points, q, kK);
    for (const size_t i : knn) ref.knn.insert(i);
    // 1.001x keeps the boundary off any point, so inclusive-vs-exclusive
    // floating-point edge cases cannot make the reference set ambiguous.
    ref.radius = points[knn.back()].DistanceTo(q) * 1.001;
    for (size_t i = 0; i < points.size(); ++i) {
      if (points[i].DistanceTo(q) <= ref.radius) ref.in_radius.insert(i);
    }
    ref.query = std::move(q);
    refs.push_back(std::move(ref));
  }
  return refs;
}

/// The no-silently-wrong-results invariant: every neighbor in any
/// response (complete, degraded, or truncated) must be a real point at
/// its true distance, and the list must be ascending.
void ExpectGenuine(const std::vector<geom::Vec>& points, const geom::Vec& query,
                   const std::vector<gist::Neighbor>& neighbors) {
  double prev = -1.0;
  for (const auto& n : neighbors) {
    ASSERT_LT(n.rid, points.size());
    EXPECT_NEAR(n.distance, points[n.rid].DistanceTo(query), 1e-6);
    EXPECT_GE(n.distance, prev - 1e-9);
    prev = n.distance;
  }
}

/// Checks one k-NN response: exact when complete, flagged + genuine when
/// degraded. Returns whether it was degraded.
bool CheckKnnResponse(const std::vector<geom::Vec>& points,
                      const Reference& ref,
                      const service::QueryResponse& response) {
  EXPECT_EQ(response.degraded(), response.metrics.pages_skipped > 0);
  ExpectGenuine(points, ref.query, response.neighbors);
  if (!response.degraded()) {
    EXPECT_EQ(RidSet(response.neighbors), ref.knn);
  } else {
    EXPECT_LE(response.neighbors.size(), kK);
  }
  return response.degraded();
}

/// Checks one range response: exact when complete, a flagged subset of
/// the reference answer set when degraded. Returns whether degraded.
bool CheckRangeResponse(const std::vector<geom::Vec>& points,
                        const Reference& ref,
                        const service::QueryResponse& response) {
  EXPECT_EQ(response.degraded(), response.metrics.pages_skipped > 0);
  ExpectGenuine(points, ref.query, response.neighbors);
  const auto rids = RidSet(response.neighbors);
  if (!response.degraded()) {
    EXPECT_EQ(rids, ref.in_radius);
  } else {
    EXPECT_TRUE(std::includes(ref.in_radius.begin(), ref.in_radius.end(),
                              rids.begin(), rids.end()))
        << "degraded range answer is not a subset of the reference set";
  }
  return response.degraded();
}

void RunSeed(uint64_t seed) {
  SCOPED_TRACE("chaos seed " + std::to_string(seed));
  const std::string base =
      TempPath("chaos_base_" + std::to_string(seed) + ".bwpf");
  const std::string wal =
      TempPath("chaos_wal_" + std::to_string(seed) + ".bwwal");
  const auto points =
      testing::MakeClusteredPoints(kNumPoints, kDim, 6, seed * 7919 + 3);
  const auto refs = MakeReferences(points, seed + 101);

  FaultInjector injector;
  StoreOptions store_options;
  store_options.injector = &injector;
  store_options.read_retry.max_attempts = 4;
  store_options.read_retry.backoff_us = 20;
  store_options.read_retry.max_backoff_us = 200;
  store_options.read_retry.jitter_seed = seed;
  core::IndexBuildOptions build;
  build.am = "rtree";
  build.page_bytes = kPageBytes;
  auto built = core::BuildDurableIndex(points, build, base, wal, store_options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  core::DurableIndex* index = built->get();
  DiskPageFile* disk = index->store().disk();
  const size_t page_count = disk->page_count();
  ASSERT_GE(page_count, 8u);

  ServiceOptions options;
  options.num_workers = 3;
  options.queue_capacity = 64;
  options.overflow = OverflowPolicy::kBlock;
  options.fault_budget = page_count + 8;  // never fail a query outright.
  QueryService service(index, options);

  std::atomic<uint64_t> degraded_seen{0};
  std::atomic<uint64_t> skipped_seen{0};

  auto run_query_round = [&](bool expect_exact) {
    for (const Reference& ref : refs) {
      auto knn = service.Knn(ref.query, kK);
      ASSERT_TRUE(knn.ok()) << knn.status().ToString();
      if (CheckKnnResponse(points, ref, *knn)) {
        degraded_seen.fetch_add(1);
        skipped_seen.fetch_add(knn->metrics.pages_skipped);
        EXPECT_FALSE(expect_exact);
      }
      auto range_future = service.SubmitRange(ref.query, ref.radius);
      ASSERT_TRUE(range_future.ok()) << range_future.status().ToString();
      auto range = range_future->get();
      ASSERT_TRUE(range.ok()) << range.status().ToString();
      if (CheckRangeResponse(points, ref, *range)) {
        degraded_seen.fetch_add(1);
        skipped_seen.fetch_add(range->metrics.pages_skipped);
        EXPECT_FALSE(expect_exact);
      }
    }
  };

  // --- Phase 1: fault-free baseline — every answer exact. ---------------
  run_query_round(/*expect_exact=*/true);

  // --- Phase 2: transient read faults are absorbed by retry. ------------
  {
    FaultInjector::ReadFaultPlan plan;
    plan.transient_every_n = 5;
    plan.transient_burst = 2;  // < max_attempts, so every burst is absorbed.
    injector.ArmReads(plan);
    storage::ScrubReport report;
    ASSERT_TRUE(disk->Scrub(&report).ok());
    injector.DisarmReads();
    EXPECT_EQ(report.frames_quarantined, 0u);
    EXPECT_EQ(report.frames_unreadable, 0u);
    EXPECT_GT(disk->read_retries(), 0u);
    EXPECT_EQ(disk->health().quarantined_count(), 0u);
    run_query_round(/*expect_exact=*/true);
  }

  // --- Phase 3: deterministic rot -> quarantine -> degraded serving. ----
  {
    Rng rng(seed ^ 0x0513);
    std::set<pages::PageId> rotten;
    while (rotten.size() < 3) {
      rotten.insert(static_cast<pages::PageId>(rng.NextBelow(page_count)));
    }
    for (const pages::PageId id : rotten) FlipByteAt(base, FrameRotOffset(id));
    storage::ScrubReport report;
    ASSERT_TRUE(disk->Scrub(&report).ok());
    EXPECT_EQ(report.frames_quarantined, rotten.size());
    EXPECT_EQ(disk->health().quarantined_count(), rotten.size());
    run_query_round(/*expect_exact=*/false);
  }

  // --- Phase 4: on-demand repair heals from memory; exact again. --------
  {
    storage::DurableStore::RepairReport report;
    ASSERT_TRUE(index->store().RepairQuarantined(&report).ok());
    EXPECT_EQ(report.repaired_from_memory, 3u);
    EXPECT_EQ(report.unrepaired, 0u);
    EXPECT_EQ(disk->health().quarantined_count(), 0u);
    run_query_round(/*expect_exact=*/true);
  }

  // --- Phase 5: concurrent soak — chaos vs queries vs repair. -----------
  {
    std::atomic<bool> stop{false};
    std::thread chaos([&] {
      Rng rng(seed ^ 0xC4A05u);
      for (int round = 0; round < 12; ++round) {
        FaultInjector::ReadFaultPlan plan;
        plan.transient_every_n = 4;
        plan.transient_burst = 2;
        plan.flip_every_n = 9;  // read-path rot: quarantines clean frames.
        plan.delay_every_n = 6;
        plan.delay_us = 100;
        injector.ArmReads(plan);
        for (int i = 0; i < 2; ++i) {
          FlipByteAt(base, FrameRotOffset(static_cast<pages::PageId>(
                               rng.NextBelow(page_count))));
        }
        (void)disk->Scrub(nullptr);
        std::this_thread::sleep_for(std::chrono::microseconds(500));
        if (round % 2 == 1) {
          (void)index->store().RepairQuarantined(nullptr);
        }
      }
      injector.DisarmReads();
      stop.store(true);
    });

    std::vector<std::thread> clients;
    for (int t = 0; t < 2; ++t) {
      clients.emplace_back([&, t] {
        size_t iter = 0;
        while (!stop.load()) {
          const Reference& ref = refs[(t + iter) % refs.size()];
          auto knn = service.Knn(ref.query, kK);
          ASSERT_TRUE(knn.ok()) << knn.status().ToString();
          if (CheckKnnResponse(points, ref, *knn)) {
            degraded_seen.fetch_add(1);
            skipped_seen.fetch_add(knn->metrics.pages_skipped);
          }
          if (iter % 3 == 0) {
            auto range_future = service.SubmitRange(ref.query, ref.radius);
            ASSERT_TRUE(range_future.ok());
            auto range = range_future->get();
            ASSERT_TRUE(range.ok()) << range.status().ToString();
            if (CheckRangeResponse(points, ref, *range)) {
              degraded_seen.fetch_add(1);
              skipped_seen.fetch_add(range->metrics.pages_skipped);
            }
          }
          if (iter % 5 == 0) {
            // Deadline stream: the deadline may cut it off at a node
            // fetch or between results; whatever streamed out must still
            // be genuine and ascending.
            StreamOptions stream;
            stream.max_results = 25;
            stream.deadline_us = 200;
            auto stream_future = service.SubmitStream(ref.query, stream);
            ASSERT_TRUE(stream_future.ok());
            auto streamed = stream_future->get();
            ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
            ExpectGenuine(points, ref.query, streamed->neighbors);
            if (streamed->degraded()) {
              degraded_seen.fetch_add(1);
              skipped_seen.fetch_add(streamed->metrics.pages_skipped);
            }
          }
          ++iter;
        }
      });
    }
    chaos.join();
    for (auto& client : clients) client.join();
  }

  // --- Quiesce: every quarantined page is eventually repaired. ----------
  for (int attempt = 0;
       attempt < 10 && disk->health().quarantined_count() > 0; ++attempt) {
    ASSERT_TRUE(disk->Scrub(nullptr).ok());
    ASSERT_TRUE(index->store().RepairQuarantined(nullptr).ok());
  }
  EXPECT_EQ(disk->health().quarantined_count(), 0u);
  run_query_round(/*expect_exact=*/true);

  // --- Metrics must be consistent with what the queries observed. -------
  const auto snap = service.Snapshot();
  EXPECT_EQ(snap.failed, 0u);
  EXPECT_EQ(snap.rejected, 0u);
  EXPECT_EQ(snap.completed, snap.submitted);
  EXPECT_EQ(snap.degraded_responses, degraded_seen.load());
  EXPECT_EQ(snap.pages_skipped, skipped_seen.load());
  EXPECT_EQ(snap.store_read_retries, disk->read_retries());
  EXPECT_GT(snap.store_read_retries, 0u);
  EXPECT_EQ(snap.store_pages_quarantined, 0u);
  EXPECT_EQ(snap.store_quarantines_total, disk->health().total_quarantined());
  EXPECT_EQ(snap.store_repairs_total, snap.store_quarantines_total)
      << "lifetime repairs must balance lifetime quarantines once quiesced";
  EXPECT_GE(snap.store_quarantines_total, 3u);  // phase 3's rot alone.

  std::remove(base.c_str());
  std::remove(wal.c_str());
}

TEST(ChaosSoakTest, SeededSweep) {
  int seeds = 4;
  if (const char* env = std::getenv("BW_CHAOS_SEEDS")) {
    seeds = std::max(1, std::atoi(env));
  }
  for (int seed = 1; seed <= seeds; ++seed) {
    RunSeed(static_cast<uint64_t>(seed));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace bw
