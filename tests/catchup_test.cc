// Tests for replica catch-up (DESIGN.md §13), layer by layer: the
// storage tier's WAL shipping (tag-indexed batch reads, the wire
// codec), the service tier's catch-up surface (WAL
// path, snapshot path, idempotent re-apply, query shedding mid-restore,
// checksum handshake), and the router's state machine — a kStale
// replica streams what it missed from a healthy sibling, verifies
// bit-identity, and rejoins rotation kHealthy with answers identical to
// an unsharded reference, all without a rebuild or a restart.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/durable_index.h"
#include "core/index_factory.h"
#include "service/query_service.h"
#include "service/snapshot_export.h"
#include "shard/fleet.h"
#include "shard/partitioner.h"
#include "shard/router.h"
#include "shard/shard_backend.h"
#include "storage/wal_ship.h"
#include "tests/test_helpers.h"

namespace bw {
namespace {

using service::StreamOptions;

constexpr size_t kDim = 4;

std::string TempDir(const std::string& name) {
  const std::string dir =
      std::string(::testing::TempDir()) + "bw_catchup_" + name;
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

/// The value `service` exports under `name` (the registry behind
/// bwadmin stats and the Stats RPC); -1 with a failure if it is absent.
double ExportedStat(const service::QueryService& service,
                    const std::string& name) {
  for (const auto& [key, value] :
       service::ExportSnapshotFields(service.Snapshot())) {
    if (key == name) return value;
  }
  ADD_FAILURE() << "stat not exported: " << name;
  return -1;
}

geom::Vec MakePoint(float base) {
  geom::Vec v(kDim);
  for (size_t d = 0; d < kDim; ++d) v[d] = base + 0.25f * d;
  return v;
}

/// One durable replica of a shard slice: index + write-enabled service.
struct Replica {
  std::unique_ptr<core::DurableIndex> index;
  std::unique_ptr<service::QueryService> service;
};

Replica MakeReplica(const std::vector<geom::Vec>& points,
                    const std::vector<gist::Rid>& rids,
                    const std::string& stem,
                    storage::StoreOptions store = storage::StoreOptions()) {
  Replica r;
  auto index = shard::BuildShardIndex(points, rids, TestBuild(),
                                      stem + ".idx", stem + ".wal", store);
  BW_CHECK_MSG(index.ok(), index.status().ToString());
  r.index = std::move(*index);
  service::ServiceOptions options;
  options.write.enabled = true;
  r.service = std::make_unique<service::QueryService>(r.index.get(), options);
  return r;
}

void InsertSync(service::QueryService* service, const geom::Vec& point,
                gist::Rid rid) {
  auto future = service->SubmitInsert(point, rid);
  ASSERT_TRUE(future.ok()) << future.status().ToString();
  auto outcome = future->get();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
}

// ---------------------------------------------------------------------------
// Storage: tag-indexed WAL batch reads + the shipping codec
// ---------------------------------------------------------------------------

TEST(WalShipTest, ReadsCommittedBatchesAfterTagOldestFirst) {
  const auto points = testing::MakeClusteredPoints(60, kDim, 3, 11);
  std::vector<gist::Rid> rids(points.size());
  for (size_t i = 0; i < rids.size(); ++i) rids[i] = i;
  const std::string stem = TempDir("walship") + "/a";
  auto index = shard::BuildShardIndex(points, rids, TestBuild(),
                                      stem + ".idx", stem + ".wal");
  ASSERT_TRUE(index.ok()) << index.status().ToString();

  // Five single-mutation batches with consecutive tags above the build.
  const uint64_t base_tag = (*index)->store().last_commit_tag();
  for (uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE((*index)->tree().Insert(MakePoint(200.0f + i), 1000 + i).ok());
    ASSERT_TRUE((*index)->Commit(base_tag + 1 + i).ok());
  }

  auto all = storage::ReadWalBatchesAfter(stem + ".wal", base_tag, 100,
                                          64u << 20);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ASSERT_EQ(all->batches.size(), 5u);
  EXPECT_FALSE(all->more);
  EXPECT_EQ(all->last_tag, base_tag + 5);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(all->batches[i].tag, base_tag + 1 + i);  // oldest first.
    EXPECT_FALSE(all->batches[i].records.empty());
  }

  // A mid-log position skips the already-applied prefix exactly.
  auto tail = storage::ReadWalBatchesAfter(stem + ".wal", base_tag + 3, 100,
                                           64u << 20);
  ASSERT_TRUE(tail.ok());
  ASSERT_EQ(tail->batches.size(), 2u);
  EXPECT_EQ(tail->batches[0].tag, base_tag + 4);

  // A tight batch budget reports `more` with the remainder unread.
  auto capped = storage::ReadWalBatchesAfter(stem + ".wal", base_tag, 2,
                                             64u << 20);
  ASSERT_TRUE(capped.ok());
  EXPECT_EQ(capped->batches.size(), 2u);
  EXPECT_TRUE(capped->more);
  EXPECT_EQ(capped->batches[1].tag, base_tag + 2);
}

TEST(WalShipTest, ShippedBatchCodecRoundTripsAndRejectsTruncation) {
  storage::ShippedBatch batch;
  batch.tag = 0x1122334455667788ull;
  storage::ShippedRecord alloc;
  alloc.type = storage::WalRecordType::kAlloc;
  alloc.page_id = 7;
  batch.records.push_back(alloc);
  storage::ShippedRecord image;
  image.type = storage::WalRecordType::kPageImage;
  image.page_id = 3;
  image.payload = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x01};
  batch.records.push_back(image);

  std::vector<uint8_t> wire;
  storage::EncodeShippedBatch(batch, &wire);
  EXPECT_EQ(wire.size(), storage::ShippedBatchWireSize(batch));

  storage::ShippedBatch decoded;
  ASSERT_TRUE(storage::DecodeShippedBatch(wire.data(), wire.size(), &decoded));
  EXPECT_EQ(decoded.tag, batch.tag);
  ASSERT_EQ(decoded.records.size(), 2u);
  EXPECT_EQ(decoded.records[0].type, storage::WalRecordType::kAlloc);
  EXPECT_EQ(decoded.records[0].page_id, 7u);
  EXPECT_EQ(decoded.records[1].payload, image.payload);

  // Every proper prefix must fail cleanly, never over-read.
  for (size_t len = 0; len < wire.size(); ++len) {
    storage::ShippedBatch reject;
    EXPECT_FALSE(storage::DecodeShippedBatch(wire.data(), len, &reject))
        << "prefix " << len << " decoded";
  }
}

// ---------------------------------------------------------------------------
// Service: WAL path, idempotent re-apply, snapshot path
// ---------------------------------------------------------------------------

TEST(ServiceCatchupTest, WalPathConvergesAndReapplyIsIdempotent) {
  const auto points = testing::MakeClusteredPoints(80, kDim, 3, 17);
  std::vector<gist::Rid> rids(points.size());
  for (size_t i = 0; i < rids.size(); ++i) rids[i] = i;
  const std::string dir = TempDir("svc_wal");
  Replica src = MakeReplica(points, rids, dir + "/src");
  Replica dst = MakeReplica(points, rids, dir + "/dst");

  // Identically built replicas start at the same position.
  auto src_pos = src.service->Position();
  auto dst_pos = dst.service->Position();
  ASSERT_TRUE(src_pos.ok() && dst_pos.ok());
  EXPECT_EQ(src_pos->last_tag, dst_pos->last_tag);

  // The source takes writes the target never sees.
  for (int i = 0; i < 6; ++i) {
    InsertSync(src.service.get(), MakePoint(400.0f + i), 5000 + i);
  }
  src_pos = src.service->Position();
  ASSERT_TRUE(src_pos.ok());
  EXPECT_EQ(src_pos->last_tag, dst_pos->last_tag + 6);

  // Ship the missed suffix, oldest first.
  auto tail = src.service->ReadWalTail(dst_pos->last_tag, 100, 64u << 20);
  ASSERT_TRUE(tail.ok()) << tail.status().ToString();
  EXPECT_FALSE(tail->snapshot_needed);
  ASSERT_FALSE(tail->batches.empty());
  EXPECT_EQ(tail->last_tag, src_pos->last_tag);
  for (const storage::ShippedBatch& batch : tail->batches) {
    ASSERT_TRUE(dst.service->ApplyWalBatch(batch).ok());
  }

  // Re-applying an already-applied batch is an acked no-op: the driver
  // may retry after a lost ack without double-applying.
  const uint64_t converged = src_pos->last_tag;
  ASSERT_TRUE(dst.service->ApplyWalBatch(tail->batches.back()).ok());
  dst_pos = dst.service->Position();
  ASSERT_TRUE(dst_pos.ok());
  EXPECT_EQ(dst_pos->last_tag, converged);
  EXPECT_GE(ExportedStat(*dst.service, "catchup_batches_applied"), 1.0);

  // Bit-identity handshake, then the shipped write actually serves.
  auto src_sum = src.service->TreeChecksum();
  auto dst_sum = dst.service->TreeChecksum();
  ASSERT_TRUE(src_sum.ok() && dst_sum.ok());
  EXPECT_EQ(src_sum->tag, dst_sum->tag);
  EXPECT_EQ(src_sum->page_count, dst_sum->page_count);
  EXPECT_EQ(src_sum->crc, dst_sum->crc);

  auto nearest = dst.service->Knn(MakePoint(400.0f), 1);
  ASSERT_TRUE(nearest.ok());
  ASSERT_EQ(nearest->neighbors.size(), 1u);
  EXPECT_EQ(nearest->neighbors[0].rid, 5000u);
}

TEST(ServiceCatchupTest, SnapshotPathCrossesRetiredHorizonAndShedsQueries) {
  const auto points = testing::MakeClusteredPoints(80, kDim, 3, 19);
  std::vector<gist::Rid> rids(points.size());
  for (size_t i = 0; i < rids.size(); ++i) rids[i] = i;
  const std::string dir = TempDir("svc_snap");
  Replica src = MakeReplica(points, rids, dir + "/src");
  Replica dst = MakeReplica(points, rids, dir + "/dst");
  auto dst_pos = dst.service->Position();
  ASSERT_TRUE(dst_pos.ok());

  // Writes land on the source, then a checkpoint folds them into the
  // base file: the batches the target needs are gone from the log.
  for (int i = 0; i < 5; ++i) {
    InsertSync(src.service.get(), MakePoint(500.0f + i), 6000 + i);
  }
  ASSERT_TRUE(src.index->Checkpoint().ok());

  auto tail = src.service->ReadWalTail(dst_pos->last_tag, 100, 64u << 20);
  ASSERT_TRUE(tail.ok()) << tail.status().ToString();
  EXPECT_TRUE(tail->snapshot_needed);
  EXPECT_TRUE(tail->batches.empty());

  // Full-store transfer in small chunks; queries are shed between the
  // first and last chunk (the tree is torn mid-restore).
  uint32_t start_page = 0;
  bool first = true;
  bool shed_observed = false;
  for (;;) {
    // A 1-byte budget still yields one page per chunk: the restore is
    // forced through its multi-chunk path.
    auto chunk = src.service->ReadSnapshotChunk(start_page, 1);
    ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
    ASSERT_FALSE(chunk->pages.empty());
    const bool last =
        start_page + chunk->pages.size() >= chunk->total_pages;
    ASSERT_TRUE(dst.service->ApplySnapshotChunk(*chunk, first, last).ok());
    if (!last) {
      auto mid = dst.service->Knn(points[0], 1);
      EXPECT_FALSE(mid.ok());  // torn store: queries must be refused.
      shed_observed = true;
    }
    start_page += static_cast<uint32_t>(chunk->pages.size());
    first = false;
    if (last) break;
  }
  EXPECT_TRUE(shed_observed) << "snapshot fit one chunk; shrink max_bytes";
  EXPECT_GE(ExportedStat(*dst.service, "snapshot_chunks_applied"), 1.0);
  EXPECT_EQ(ExportedStat(*dst.service, "snapshot_restoring"), 0.0);

  auto src_sum = src.service->TreeChecksum();
  auto dst_sum = dst.service->TreeChecksum();
  ASSERT_TRUE(src_sum.ok() && dst_sum.ok());
  EXPECT_EQ(src_sum->tag, dst_sum->tag);
  EXPECT_EQ(src_sum->crc, dst_sum->crc);

  // Queries resume on the restored replica, shipped writes included.
  auto nearest = dst.service->Knn(MakePoint(500.0f), 1);
  ASSERT_TRUE(nearest.ok()) << nearest.status().ToString();
  ASSERT_EQ(nearest->neighbors.size(), 1u);
  EXPECT_EQ(nearest->neighbors[0].rid, 6000u);
}

// ---------------------------------------------------------------------------
// Router: kStale -> kCatchingUp -> kHealthy without a rebuild
// ---------------------------------------------------------------------------

Result<std::unique_ptr<shard::ShardFleet>> BuildWriteFleet(
    const std::vector<geom::Vec>& corpus, const std::string& name,
    size_t num_shards, size_t replicas) {
  shard::FleetOptions options;
  options.num_shards = num_shards;
  options.replicas_per_shard = replicas;
  options.build = TestBuild();
  options.service.write.enabled = true;
  return shard::ShardFleet::Build(corpus, TempDir(name), options);
}

TEST(RouterCatchupTest, StaleReplicaRejoinsViaWalBitIdentical) {
  const auto corpus = testing::MakeClusteredPoints(240, kDim, 3, 23);
  auto fleet = BuildWriteFleet(corpus, "rejoin_wal", 1, 2);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  shard::Router* router = (*fleet)->router();

  // Replica 1 misses a burst of writes replica 0 acks: kStale.
  (*fleet)->backend(0, 1)->set_failed(true);
  std::vector<geom::Vec> extended = corpus;
  for (int i = 0; i < 8; ++i) {
    const geom::Vec point = MakePoint(60.0f + 2.0f * i);
    auto inserted = router->Insert(point, extended.size());
    ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
    extended.push_back(point);
  }
  ASSERT_EQ(router->replica_state(0, 1), shard::ReplicaState::kStale);

  // Back alive, one catch-up sweep: WAL suffix shipped, checksum
  // verified, readmitted — no rebuild, no restart.
  (*fleet)->backend(0, 1)->set_failed(false);
  EXPECT_EQ(router->CatchupNow(), 1u);
  EXPECT_EQ(router->replica_state(0, 1), shard::ReplicaState::kHealthy);
  const shard::RouterStats stats = router->stats();
  EXPECT_EQ(stats.catchups, 1u);
  EXPECT_GT(stats.wal_batches_shipped, 0u);
  EXPECT_EQ(stats.snapshots_shipped, 0u);

  // The caught-up replica is bit-identical to its sibling...
  auto sum0 = (*fleet)->service(0, 0)->TreeChecksum();
  auto sum1 = (*fleet)->service(0, 1)->TreeChecksum();
  ASSERT_TRUE(sum0.ok() && sum1.ok());
  EXPECT_EQ(sum0->tag, sum1->tag);
  EXPECT_EQ(sum0->crc, sum1->crc);

  // ...and serves answers identical to an unsharded reference over the
  // same corpus + writes, queried directly (replica 1, not its sibling).
  auto single = core::BuildIndex(extended, TestBuild());
  ASSERT_TRUE(single.ok());
  for (int q = 0; q < 10; ++q) {
    const geom::Vec& query = extended[(q * 37) % extended.size()];
    gist::TraversalStats tstats;
    auto truth = (*single)->tree().KnnSearch(query, 12, &tstats);
    ASSERT_TRUE(truth.ok());
    auto answer = (*fleet)->service(0, 1)->Knn(query, 12);
    ASSERT_TRUE(answer.ok());
    ASSERT_EQ(answer->neighbors.size(), truth->size());
    for (size_t i = 0; i < truth->size(); ++i) {
      EXPECT_EQ(answer->neighbors[i].rid, (*truth)[i].rid)
          << "query " << q << " position " << i;
      EXPECT_EQ(answer->neighbors[i].distance, (*truth)[i].distance);
    }
  }

  // Rotation includes it again: a router query succeeds non-degraded.
  StreamOptions stream;
  stream.max_results = 5;
  auto merged = router->Knn(extended.back(), stream);
  ASSERT_TRUE(merged.ok());
  EXPECT_FALSE(merged->degraded());
}

TEST(RouterCatchupTest, SnapshotFallbackWhenWalHorizonRetired) {
  const auto corpus = testing::MakeClusteredPoints(240, kDim, 3, 29);
  auto fleet = BuildWriteFleet(corpus, "rejoin_snap", 1, 2);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  shard::Router* router = (*fleet)->router();

  (*fleet)->backend(0, 1)->set_failed(true);
  for (int i = 0; i < 6; ++i) {
    auto inserted = router->Insert(MakePoint(70.0f + i), 7000 + i);
    ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
  }
  ASSERT_EQ(router->replica_state(0, 1), shard::ReplicaState::kStale);

  // The source checkpoints: the batches replica 1 needs are retired
  // past the horizon, so the WAL path must escalate to a snapshot.
  ASSERT_TRUE((*fleet)->index(0, 0)->Checkpoint().ok());

  (*fleet)->backend(0, 1)->set_failed(false);
  EXPECT_EQ(router->CatchupNow(), 1u);
  EXPECT_EQ(router->replica_state(0, 1), shard::ReplicaState::kHealthy);
  EXPECT_GE(router->stats().snapshots_shipped, 1u);

  auto sum0 = (*fleet)->service(0, 0)->TreeChecksum();
  auto sum1 = (*fleet)->service(0, 1)->TreeChecksum();
  ASSERT_TRUE(sum0.ok() && sum1.ok());
  EXPECT_EQ(sum0->tag, sum1->tag);
  EXPECT_EQ(sum0->crc, sum1->crc);

  auto nearest = (*fleet)->service(0, 1)->Knn(MakePoint(70.0f), 1);
  ASSERT_TRUE(nearest.ok());
  EXPECT_EQ(nearest->neighbors[0].rid, 7000u);
}

TEST(RouterCatchupTest, UnreachableTargetStaysStaleForNextPass) {
  const auto corpus = testing::MakeClusteredPoints(200, kDim, 3, 31);
  auto fleet = BuildWriteFleet(corpus, "stale_stays", 1, 2);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  shard::Router* router = (*fleet)->router();

  (*fleet)->backend(0, 1)->set_failed(true);
  auto inserted = router->Insert(MakePoint(80.0f), 8000);
  ASSERT_TRUE(inserted.ok());
  ASSERT_EQ(router->replica_state(0, 1), shard::ReplicaState::kStale);

  // Still down: the sweep must give up cleanly and leave it kStale
  // (not kCatchingUp, not kHealthy) for a later pass to retry...
  EXPECT_EQ(router->CatchupNow(), 0u);
  EXPECT_EQ(router->replica_state(0, 1), shard::ReplicaState::kStale);

  // ...which succeeds once the replica answers again.
  (*fleet)->backend(0, 1)->set_failed(false);
  EXPECT_EQ(router->CatchupNow(), 1u);
  EXPECT_EQ(router->replica_state(0, 1), shard::ReplicaState::kHealthy);
}

}  // namespace
}  // namespace bw
