// Chaos soak harness for the fail-safe write path: a durable index is
// served by a QueryService with online mutations enabled while a chaos
// schedule throws write-side weather at it — recurring clean-ENOSPC
// bursts, a disk-space watchdog trip, and finally a hard crash at the
// Kth write (K varies per seed, so the sweep collectively lands the
// crash at many different offsets inside commits and checkpoints).
// Throughout:
//
//  - queries must keep answering on every consistent snapshot, in
//    kServing, kReadOnly, and kFailed alike — readers never observe a
//    half-applied batch and never fail because the write path is sick;
//  - admission verdicts must match the state machine: shed with
//    kResourceExhausted while read-only, with kIoError once failed;
//  - read-only mode must be entered by the ENOSPC weather and the
//    watchdog, and exited (writes drain and ack) when space returns;
//  - an ack is a durability promise: after the crash, a fresh process
//    must recover every acknowledged insert, and the recovered rid set
//    must be a contiguous prefix of the admission order — whole
//    committed batches, nothing invented, nothing torn.
//
// The sweep is seeded and deterministic per seed; BW_CHAOS_SEEDS picks
// how many consecutive seeds to run (default keeps CI fast; acceptance
// is 50+ consecutive seeds locally: BW_CHAOS_SEEDS=50).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/durable_index.h"
#include "core/index_factory.h"
#include "geom/vec.h"
#include "gist/tree.h"
#include "service/query_service.h"
#include "storage/fault_injector.h"
#include "storage/store.h"
#include "tests/test_helpers.h"

namespace bw {
namespace {

using service::QueryService;
using service::ServiceOptions;
using service::WriteState;
using storage::FaultInjector;
using storage::StoreOptions;

constexpr size_t kSeedPoints = 200;  // rids 0..199 built offline.
constexpr size_t kDim = 3;
constexpr size_t kPageBytes = 1024;
constexpr gist::Rid kStreamRidBase = kSeedPoints;
constexpr size_t kMaxStream = 160;  // upper bound on online inserts.

std::string TempPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

core::IndexBuildOptions BuildOpts() {
  core::IndexBuildOptions options;
  options.am = "rtree";
  options.page_bytes = kPageBytes;
  return options;
}

/// Drives one seed's soak and carries its bookkeeping.
struct Soak {
  QueryService* service = nullptr;
  const std::vector<geom::Vec>* stream_points = nullptr;
  size_t next = 0;      // next stream point to try to admit.
  size_t admitted = 0;  // mutations that got a future.
  size_t acked = 0;     // futures that resolved OK (durable promise).
  std::vector<QueryService::MutationFuture> in_flight;

  /// One admission attempt. Advances only when admitted, so the
  /// admitted rid sequence is always contiguous from kStreamRidBase.
  Status TrySubmit() {
    auto future = service->SubmitInsert(
        (*stream_points)[next], kStreamRidBase + static_cast<gist::Rid>(next));
    if (!future.ok()) return future.status();
    in_flight.push_back(std::move(*future));
    ++next;
    ++admitted;
    return Status::OK();
  }

  /// Waits for every in-flight future; OK resolutions are acks.
  /// Returns how many resolved with an error.
  size_t Drain() {
    size_t failed = 0;
    for (auto& future : in_flight) {
      if (future.get().ok()) {
        ++acked;
      } else {
        ++failed;
      }
    }
    in_flight.clear();
    return failed;
  }
};

void AwaitState(const QueryService& service, WriteState want) {
  for (int i = 0; i < 5000 && service.write_state() != want; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(service.write_state(), want);
}

void RunSeed(uint64_t seed) {
  SCOPED_TRACE("write chaos seed " + std::to_string(seed));
  const std::string base =
      TempPath("wchaos_base_" + std::to_string(seed) + ".bwpf");
  const std::string wal =
      TempPath("wchaos_wal_" + std::to_string(seed) + ".bwwal");
  const auto points =
      testing::MakeClusteredPoints(kSeedPoints, kDim, 6, seed * 7919 + 3);
  const auto stream_points =
      testing::MakeClusteredPoints(kMaxStream, kDim, 4, seed * 31 + 7);
  const geom::Vec probe = points[seed % points.size()];

  FaultInjector injector;
  StoreOptions store_options;
  store_options.injector = &injector;
  store_options.checkpoint_every_commits = 8;  // checkpoint under load.
  auto built =
      core::BuildDurableIndex(points, BuildOpts(), base, wal, store_options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  core::DurableIndex* index = built->get();

  std::atomic<uint64_t> free_bytes{64ull << 30};  // plenty, until the trip.
  ServiceOptions options;
  options.num_workers = 2;
  options.queue_capacity = 64;
  options.write.enabled = true;
  options.write.batch_size = 4;
  options.write.queue_capacity = 64;
  options.write.min_free_bytes = 1 << 20;
  options.write.free_space_probe = [&free_bytes] { return free_bytes.load(); };
  options.write.retry_interval = std::chrono::milliseconds(2);
  QueryService service(index, options);

  Soak soak;
  soak.service = &service;
  soak.stream_points = &stream_points;

  // Readers run across every phase: queries must never fail because the
  // write path is degraded, and every answer comes off a consistent
  // snapshot (half-applied batches are a TSan + assertion failure in
  // service_test; here the bar is plain availability and sanity).
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads_ok{0};
  std::atomic<uint64_t> read_failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto response = service.Knn(probe, 5);
        if (response.ok() && response->neighbors.size() == 5) {
          reads_ok.fetch_add(1, std::memory_order_relaxed);
        } else {
          read_failures.fetch_add(1, std::memory_order_relaxed);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }

  // --- Phase 1: fair weather — every admitted insert acks. --------------
  for (int i = 0; i < 12; ++i) ASSERT_TRUE(soak.TrySubmit().ok());
  ASSERT_EQ(soak.Drain(), 0u);
  ASSERT_EQ(soak.acked, 12u);

  // --- Phase 2: recurring clean-ENOSPC weather. -------------------------
  // Every commit takes multiple WAL writes, so an every-Nth-write
  // failure schedule is guaranteed to hit one; the writer must park the
  // batch (futures unresolved — ack means durable), trip read-only, and
  // shed new admissions with the capacity verdict. Nothing may be lost:
  // once the weather clears, everything admitted drains to an ack.
  {
    FaultInjector::WriteFaultPlan plan;
    plan.enospc_every_n = 2 + seed % 3;
    plan.enospc_burst = 1 + seed % 2;
    injector.ArmWrites(plan);
    size_t shed = 0;
    for (int i = 0; i < 40; ++i) {
      const Status admitted = soak.TrySubmit();
      if (!admitted.ok()) {
        ASSERT_EQ(admitted.code(), StatusCode::kResourceExhausted);
        ++shed;
      }
      if (service.write_state() == WriteState::kReadOnly && i > 4) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    AwaitState(service, WriteState::kReadOnly);
    // Degraded-but-serving: reads fine, writes shed, snapshot says so.
    auto response = service.Knn(probe, 5);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    const Status verdict = soak.TrySubmit();
    if (!verdict.ok()) {
      ASSERT_EQ(verdict.code(), StatusCode::kResourceExhausted);
    }
    auto snap = service.Snapshot();
    EXPECT_TRUE(snap.write_degraded);
    EXPECT_GT(injector.enospc_faults(), 0u);
    // Weather clears: the parked batch and the queue drain to acks.
    injector.DisarmWrites();
    service.ResumeWrites();
    ASSERT_EQ(soak.Drain(), 0u);
    ASSERT_EQ(soak.acked, soak.admitted);
    AwaitState(service, WriteState::kServing);
  }

  // --- Phase 3: the disk-space watchdog trips BEFORE the failing append.
  {
    free_bytes.store(0);
    ASSERT_TRUE(soak.TrySubmit().ok());  // parks behind the watchdog.
    AwaitState(service, WriteState::kReadOnly);
    const uint64_t enospc_before = injector.enospc_faults();
    auto response = service.Knn(probe, 5);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    const Status shed = soak.TrySubmit();
    if (!shed.ok()) {
      ASSERT_EQ(shed.code(), StatusCode::kResourceExhausted);
    }
    // The watchdog, not a failed write, tripped the state: the armed
    // injector saw no new ENOSPC during the read-only stay.
    EXPECT_EQ(injector.enospc_faults(), enospc_before);
    // Space returns; the service resumes itself and drains.
    free_bytes.store(64ull << 30);
    service.ResumeWrites();
    ASSERT_EQ(soak.Drain(), 0u);
    ASSERT_EQ(soak.acked, soak.admitted);
    AwaitState(service, WriteState::kServing);
  }

  const size_t acked_before_crash = soak.acked;

  // --- Phase 4: hard crash at the Kth write from now. -------------------
  // K varies with the seed so the sweep lands crashes inside record
  // appends, commit records, commit fsyncs, and checkpoints alike.
  {
    injector.Arm(FaultInjector::Fault::kCrash, 2 + (seed * 13) % 17);
    size_t crash_failed = 0;
    for (int i = 0; i < 40 && crash_failed == 0; ++i) {
      const Status admitted = soak.TrySubmit();
      if (!admitted.ok()) {
        ASSERT_EQ(admitted.code(), StatusCode::kIoError);
        break;
      }
      crash_failed = soak.Drain();
    }
    ASSERT_TRUE(injector.crashed());
    AwaitState(service, WriteState::kFailed);
    // Fail-stop is permanent for this process: writes shed with the
    // I/O verdict, reads keep answering off the last snapshot.
    const Status after = soak.TrySubmit();
    ASSERT_FALSE(after.ok());
    EXPECT_EQ(after.code(), StatusCode::kIoError);
    soak.Drain();  // anything raced into the queue resolves with errors.
    auto response = service.Knn(probe, 5);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    const auto snap = service.Snapshot();
    EXPECT_EQ(snap.write_state, WriteState::kFailed);
    EXPECT_TRUE(snap.write_degraded);
    EXPECT_GT(snap.writes_failed, 0u);
  }

  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(read_failures.load(), 0u);
  EXPECT_GT(reads_ok.load(), 0u);
  EXPECT_GE(soak.acked, acked_before_crash);

  service.Shutdown();
  built->reset();

  // --- Recovery: the committed prefix, exactly. -------------------------
  // A fresh process replays the WAL (torn final writes are benign) and
  // must surface a contiguous rid prefix of the admission order that
  // covers every ack. It may exceed the ack set by at most
  // the crash-interrupted tail batch (committed but never acknowledged
  // — acks promise durability, not the converse).
  auto recovered = core::OpenDurableIndex(base, wal, BuildOpts());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const gist::Tree& tree = (*recovered)->tree();
  ASSERT_GE(tree.size(), kSeedPoints + soak.acked);
  ASSERT_LE(tree.size(), kSeedPoints + soak.admitted);
  auto all = tree.KnnSearch(probe, tree.size(), nullptr);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ASSERT_EQ(all->size(), tree.size());
  std::vector<gist::Rid> streamed;
  for (const auto& n : *all) {
    if (n.rid >= kStreamRidBase) streamed.push_back(n.rid);
  }
  std::sort(streamed.begin(), streamed.end());
  ASSERT_EQ(streamed.size() + kSeedPoints, tree.size());
  ASSERT_GE(streamed.size(), soak.acked);
  for (size_t i = 0; i < streamed.size(); ++i) {
    ASSERT_EQ(streamed[i], kStreamRidBase + i)
        << "recovered rids must be a contiguous admission-order prefix";
  }

  // Query equivalence vs a never-faulted reference: the recovered tree
  // must answer k-NN exactly like brute force over seed points + the
  // recovered prefix (rids are positional in this concatenation).
  std::vector<geom::Vec> reference = points;
  for (size_t i = 0; i < streamed.size(); ++i) {
    reference.push_back(stream_points[i]);
  }
  for (uint64_t q = 0; q < 3; ++q) {
    const geom::Vec& query = reference[(seed * 17 + q * 59) % reference.size()];
    const auto want = testing::BruteForceKnn(reference, query, 10);
    auto got = tree.KnnSearch(query, 10, nullptr);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->size(), want.size());
    std::vector<gist::Rid> got_rids, want_rids;
    for (const auto& n : *got) got_rids.push_back(n.rid);
    for (const size_t i : want) want_rids.push_back(static_cast<gist::Rid>(i));
    std::sort(got_rids.begin(), got_rids.end());
    std::sort(want_rids.begin(), want_rids.end());
    ASSERT_EQ(got_rids, want_rids) << "query " << q;
  }

  std::remove(base.c_str());
  std::remove(wal.c_str());
}

TEST(WriteChaosSoakTest, SeededSweep) {
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
