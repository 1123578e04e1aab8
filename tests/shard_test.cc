// Tests for the horizontal sharding tier (src/shard/): STR partition
// properties (coverage, global RIDs, bound admissibility), ShardMap
// routing, and the scatter-gather router's headline contracts — k-NN
// over N healthy shards bit-identical to a single unsharded index,
// degraded accounting summed exactly across shards, deterministic
// replica failover that fetches a shard's whole answer again, fault-
// budget fail-closed vs degraded answers, probe-driven recovery (dead
// resurrects, stale never does), and routed mutations with
// stale-marking.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>
#include <set>
#include <vector>

#include "core/durable_index.h"
#include "core/index_factory.h"
#include "service/query_service.h"
#include "shard/fleet.h"
#include "shard/partitioner.h"
#include "shard/router.h"
#include "shard/shard_backend.h"
#include "storage/disk_page_file.h"
#include "storage/store.h"
#include "tests/test_helpers.h"
#include "util/random.h"

namespace bw::shard {
namespace {

using service::StreamOptions;

constexpr size_t kDim = 4;

std::string TempDir(const std::string& name) {
  const std::string dir =
      std::string(::testing::TempDir()) + "bw_shard_" + name;
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

std::unique_ptr<core::BuiltIndex> BuildSingleIndex(
    const std::vector<geom::Vec>& corpus) {
  auto built = core::BuildIndex(corpus, TestBuild());
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(*built);
}

Result<std::unique_ptr<ShardFleet>> BuildFleet(
    const std::vector<geom::Vec>& corpus, const std::string& name,
    size_t num_shards, size_t replicas, RouterOptions router = RouterOptions(),
    service::ServiceOptions service = service::ServiceOptions()) {
  FleetOptions options;
  options.num_shards = num_shards;
  options.replicas_per_shard = replicas;
  options.build = TestBuild();
  options.service = service;
  options.router = router;
  return ShardFleet::Build(corpus, TempDir(name), options);
}

std::vector<gist::Neighbor> TruthKnn(const gist::Tree& tree,
                                     const geom::Vec& query, size_t k) {
  gist::TraversalStats stats;
  auto result = tree.KnnSearch(query, k, &stats);
  BW_CHECK_MSG(result.ok(), result.status().ToString());
  return std::move(*result);
}

std::multiset<gist::Rid> RidSet(const std::vector<gist::Neighbor>& neighbors) {
  std::multiset<gist::Rid> rids;
  for (const auto& n : neighbors) rids.insert(n.rid);
  return rids;
}

// ---------------------------------------------------------------------------
// Partitioner properties
// ---------------------------------------------------------------------------

TEST(PartitionerTest, SplitsCoverCorpusWithGlobalRids) {
  const auto corpus = testing::MakeClusteredPoints(500, kDim, 6, 31);
  const Partition partition = PartitionByStr(corpus, 4);
  ASSERT_EQ(partition.num_shards(), 4u);
  ASSERT_EQ(partition.bounds.size(), 4u);

  std::set<gist::Rid> seen;
  size_t total = 0;
  for (size_t s = 0; s < 4; ++s) {
    ASSERT_EQ(partition.points[s].size(), partition.rids[s].size());
    ASSERT_FALSE(partition.points[s].empty());
    total += partition.points[s].size();
    for (size_t i = 0; i < partition.rids[s].size(); ++i) {
      const gist::Rid rid = partition.rids[s][i];
      // RIDs are global corpus positions, never renumbered...
      ASSERT_LT(rid, corpus.size());
      EXPECT_TRUE(seen.insert(rid).second) << "rid " << rid << " duplicated";
      // ...and each shard point is exactly the corpus point it names.
      for (size_t d = 0; d < kDim; ++d) {
        ASSERT_EQ(partition.points[s][i][d], corpus[rid][d]);
      }
      // Every point is inside its shard's box.
      EXPECT_EQ(partition.bounds[s].MinDistance(partition.points[s][i]), 0.0);
    }
  }
  EXPECT_EQ(total, corpus.size());  // a true partition: no loss, no overlap.
}

TEST(PartitionerTest, MinDistanceIsAdmissibleLowerBound) {
  const auto corpus = testing::MakeClusteredPoints(400, kDim, 5, 47);
  const Partition partition = PartitionByStr(corpus, 5);
  const auto queries = testing::MakeUniformPoints(20, kDim, 99);
  for (const geom::Vec& q : queries) {
    for (size_t s = 0; s < partition.num_shards(); ++s) {
      const double bound = partition.bounds[s].MinDistance(q);
      for (const geom::Vec& p : partition.points[s]) {
        EXPECT_LE(bound, std::sqrt(p.DistanceSquaredTo(q)) + 1e-9);
      }
    }
  }
}

TEST(PartitionerTest, TinyCorpusEdges) {
  const auto corpus = testing::MakeUniformPoints(5, kDim, 3);
  const Partition one = PartitionByStr(corpus, 1);
  ASSERT_EQ(one.num_shards(), 1u);
  EXPECT_EQ(one.points[0].size(), corpus.size());
  const Partition each = PartitionByStr(corpus, 5);
  for (size_t s = 0; s < 5; ++s) EXPECT_EQ(each.points[s].size(), 1u);
}

TEST(ShardMapTest, OwnerOfIsNearestBoxAndEnlargeReroutes) {
  const auto corpus = testing::MakeClusteredPoints(300, kDim, 4, 13);
  const Partition partition = PartitionByStr(corpus, 3);
  ShardMap map(kDim, partition.bounds);

  // A stored point is inside its own shard's box: distance 0 wins
  // (possibly shared with an overlapping box — ties go to the lowest
  // index, so the owner's bound must at least be 0 too).
  for (size_t s = 0; s < 3; ++s) {
    const size_t owner = map.OwnerOf(partition.points[s][0]);
    EXPECT_EQ(map.RootBound(owner, partition.points[s][0]), 0.0);
  }

  // A far-away point routes somewhere; after EnlargeForInsert that
  // shard's box contains it, so re-routing it is stable.
  geom::Vec far(kDim);
  for (size_t d = 0; d < kDim; ++d) far[d] = 500.0f + 7.0f * d;
  const size_t owner = map.OwnerOf(far);
  EXPECT_GT(map.RootBound(owner, far), 0.0);
  map.EnlargeForInsert(owner, far);
  EXPECT_EQ(map.RootBound(owner, far), 0.0);
  EXPECT_EQ(map.OwnerOf(far), owner);
}

// ---------------------------------------------------------------------------
// Router vs single index: bit-identical answers
// ---------------------------------------------------------------------------

TEST(RouterKnnTest, BitIdenticalToSingleIndexRandomized) {
  const auto corpus = testing::MakeClusteredPoints(1200, kDim, 8, 21);
  auto single = BuildSingleIndex(corpus);
  ASSERT_NE(single, nullptr);
  auto fleet = BuildFleet(corpus, "bitident", 4, 1);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  Router* router = (*fleet)->router();

  Rng rng(2026);
  for (int q = 0; q < 40; ++q) {
    geom::Vec query(kDim);
    for (size_t d = 0; d < kDim; ++d) {
      query[d] = static_cast<float>(rng.Uniform(0.0, 100.0));
    }
    const size_t k = 1 + rng.NextBelow(24);
    StreamOptions stream;
    stream.max_results = k;
    auto merged = router->Knn(query, stream);
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    EXPECT_FALSE(merged->degraded());
    const auto truth = TruthKnn(single->tree(), query, k);
    ASSERT_EQ(merged->neighbors.size(), truth.size()) << "query " << q;
    for (size_t i = 0; i < truth.size(); ++i) {
      EXPECT_EQ(merged->neighbors[i].rid, truth[i].rid)
          << "query " << q << " position " << i;
      EXPECT_EQ(merged->neighbors[i].distance, truth[i].distance)
          << "query " << q << " position " << i;
    }
  }
  // Clustered data + tight shard boxes: early termination must have
  // left some shards unopened across 40 queries.
  EXPECT_GT(router->stats().shards_pruned, 0u);
  EXPECT_EQ(router->stats().queries, 40u);
}

TEST(RouterKnnTest, TiesBreakByRidLikeSingleIndex) {
  // Points snapped to a coarse grid: many exact duplicates and equal
  // distances, spread over shards, so which rids make the cut at the
  // k-th distance is decided by the merge's tie order alone.
  auto corpus = testing::MakeClusteredPoints(1500, kDim, 6, 77);
  const auto snap = [](geom::Vec& v) {
    for (size_t d = 0; d < v.dim(); ++d) {
      v[d] = 4.0f * std::round(v[d] / 4.0f);
    }
  };
  for (geom::Vec& p : corpus) snap(p);
  auto single = BuildSingleIndex(corpus);
  ASSERT_NE(single, nullptr);
  auto fleet = BuildFleet(corpus, "ties", 4, 1);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  Router* router = (*fleet)->router();

  Rng rng(31);
  auto queries = testing::MakeUniformPoints(10, kDim, 12);
  for (geom::Vec& q : queries) snap(q);
  for (int i = 0; i < 10; ++i) {
    queries.push_back(corpus[rng.NextBelow(corpus.size())]);
  }
  for (size_t q = 0; q < queries.size(); ++q) {
    for (const size_t k : {size_t{1}, size_t{7}, size_t{25}, size_t{90}}) {
      StreamOptions stream;
      stream.max_results = k;
      auto merged = router->Knn(queries[q], stream);
      ASSERT_TRUE(merged.ok()) << merged.status().ToString();
      const auto truth = TruthKnn(single->tree(), queries[q], k);
      ASSERT_EQ(merged->neighbors.size(), truth.size());
      for (size_t i = 0; i < truth.size(); ++i) {
        EXPECT_EQ(merged->neighbors[i].rid, truth[i].rid)
            << "query " << q << " k " << k << " position " << i;
        EXPECT_EQ(merged->neighbors[i].distance, truth[i].distance)
            << "query " << q << " k " << k << " position " << i;
      }
    }
  }
}

TEST(RouterKnnTest, RangeMatchesSingleIndex) {
  const auto corpus = testing::MakeClusteredPoints(800, kDim, 6, 53);
  auto single = BuildSingleIndex(corpus);
  ASSERT_NE(single, nullptr);
  auto fleet = BuildFleet(corpus, "range", 3, 1);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();

  Rng rng(7);
  for (int q = 0; q < 10; ++q) {
    const geom::Vec& query = corpus[rng.NextBelow(corpus.size())];
    const double radius = rng.Uniform(2.0, 15.0);
    auto merged = (*fleet)->router()->Range(query, radius, 0);
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    gist::TraversalStats stats;
    auto truth = single->tree().RangeSearch(query, radius, &stats);
    ASSERT_TRUE(truth.ok());
    // Both sort by (distance, rid).
    ASSERT_EQ(merged->neighbors.size(), truth->size());
    for (size_t i = 0; i < truth->size(); ++i) {
      EXPECT_EQ(merged->neighbors[i].rid, (*truth)[i].rid);
      EXPECT_EQ(merged->neighbors[i].distance, (*truth)[i].distance);
    }
  }
}

// ---------------------------------------------------------------------------
// Degraded accounting: router totals == sum of per-shard totals
// ---------------------------------------------------------------------------

TEST(RouterFaultTest, DegradedAccountingSumsAcrossShards) {
  const auto corpus = testing::MakeClusteredPoints(600, kDim, 5, 67);
  service::ServiceOptions per_shard;
  per_shard.fault_budget = 1u << 20;  // shards absorb faults, never fail.
  auto fleet = BuildFleet(corpus, "degradesum", 3, 1, RouterOptions(),
                          per_shard);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();

  // Quarantine every page of shard 1: its stream degrades to flagged
  // and empty while the replica itself stays live.
  storage::DiskPageFile* disk = (*fleet)->index(1, 0)->store().disk();
  for (pages::PageId id = 0; id < disk->page_count(); ++id) {
    disk->health().Quarantine(id);
  }

  const geom::Vec query = testing::MakeUniformPoints(1, kDim, 5)[0];
  StreamOptions stream;
  stream.max_results = corpus.size();  // force every shard open.
  auto merged = (*fleet)->router()->Knn(query, stream);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_TRUE(merged->degraded());

  // Ground truth: run the identical stream on each shard directly and
  // sum the per-shard accounting.
  uint64_t expected_skipped = 0;
  bool expected_degraded = false;
  size_t expected_results = 0;
  for (size_t s = 0; s < (*fleet)->num_shards(); ++s) {
    auto answer = (*fleet)->service(s, 0)->RunStream(query, stream);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    expected_results += answer->neighbors.size();
    expected_skipped += answer->metrics.pages_skipped;
    expected_degraded |= answer->degraded();
  }
  EXPECT_GT(expected_skipped, 0u);
  EXPECT_TRUE(expected_degraded);
  EXPECT_EQ(merged->metrics.pages_skipped, expected_skipped);
  EXPECT_EQ(merged->neighbors.size(), expected_results);
  EXPECT_GE((*fleet)->router()->stats().degraded_queries, 1u);
}

// ---------------------------------------------------------------------------
// Mid-stream failover: deterministic fail-after-N replica
// ---------------------------------------------------------------------------

// A test double's base: every call goes to an in-process replica;
// doubles override OpenFrontier.
class DelegatingBackend : public ShardBackend {
 public:
  DelegatingBackend(service::QueryService* service, std::string name)
      : delegate_(service, std::move(name)) {}

  Result<std::unique_ptr<ShardFrontier>> OpenFrontier(
      const geom::Vec& query, const StreamOptions& limits) override {
    return delegate_.OpenFrontier(query, limits);
  }
  Result<service::QueryResponse> Range(const geom::Vec& query, double radius,
                                       uint32_t deadline_us) override {
    return delegate_.Range(query, radius, deadline_us);
  }
  Result<service::MutationOutcome> Insert(const geom::Vec& point,
                                          uint64_t rid) override {
    return delegate_.Insert(point, rid);
  }
  Result<service::MutationOutcome> Remove(const geom::Vec& point,
                                          uint64_t rid) override {
    return delegate_.Remove(point, rid);
  }
  Status Probe() override { return delegate_.Probe(); }
  std::string DebugName() const override { return delegate_.DebugName(); }

 protected:
  LocalShardBackend delegate_;
};

// Fails every Next() after `fail_after` successful pulls, for every
// frontier it ever opens — the deterministic stand-in for a replica
// dying while its answer is read.
class FailAfterFrontier : public ShardFrontier {
 public:
  FailAfterFrontier(std::unique_ptr<ShardFrontier> inner, size_t fail_after)
      : inner_(std::move(inner)), remaining_(fail_after) {}

  Result<std::optional<gist::Neighbor>> Next() override {
    if (remaining_ == 0) {
      return Status::Unavailable("replica fail-stopped mid-stream (injected)");
    }
    --remaining_;
    return inner_->Next();
  }
  Status Finish() override { return inner_->Finish(); }
  bool degraded() const override { return inner_->degraded(); }
  uint64_t pages_skipped() const override { return inner_->pages_skipped(); }
  bool truncated() const override { return inner_->truncated(); }

 private:
  std::unique_ptr<ShardFrontier> inner_;
  size_t remaining_;
};

class FailAfterBackend : public DelegatingBackend {
 public:
  FailAfterBackend(service::QueryService* service, size_t fail_after)
      : DelegatingBackend(service, "fail-after"), fail_after_(fail_after) {}

  Result<std::unique_ptr<ShardFrontier>> OpenFrontier(
      const geom::Vec& query, const StreamOptions& limits) override {
    BW_ASSIGN_OR_RETURN(std::unique_ptr<ShardFrontier> inner,
                        delegate_.OpenFrontier(query, limits));
    return std::unique_ptr<ShardFrontier>(
        new FailAfterFrontier(std::move(inner), fail_after_));
  }

 private:
  size_t fail_after_;
};

TEST(RouterFaultTest, MidStreamFailoverIsBitIdentical) {
  const auto corpus = testing::MakeClusteredPoints(120, kDim, 3, 41);
  auto single = BuildSingleIndex(corpus);
  ASSERT_NE(single, nullptr);

  // Hand-built two-shard fleet: shard 0 has a replica pair over
  // bit-identical indexes, the preferred one rigged to die after two
  // mid-stream results.
  const Partition partition = PartitionByStr(corpus, 2);
  const std::string dir = TempDir("midstream");
  std::vector<std::unique_ptr<core::DurableIndex>> indexes;
  std::vector<std::unique_ptr<service::QueryService>> services;
  auto make_service = [&](size_t s, const char* tag) {
    const std::string stem = dir + "/s" + std::to_string(s) + "_" + tag;
    auto index = BuildShardIndex(partition.points[s], partition.rids[s],
                                 TestBuild(), stem + ".idx", stem + ".wal");
    BW_CHECK_MSG(index.ok(), index.status().ToString());
    indexes.push_back(std::move(*index));
    services.push_back(std::make_unique<service::QueryService>(
        indexes.back().get(), service::ServiceOptions()));
    return services.back().get();
  };
  std::vector<Router::Shard> shards(2);
  shards[0].replicas.push_back(
      std::make_unique<FailAfterBackend>(make_service(0, "a"), 2));
  shards[0].replicas.push_back(
      std::make_unique<LocalShardBackend>(make_service(0, "b"), "local:0/1"));
  shards[1].replicas.push_back(
      std::make_unique<LocalShardBackend>(make_service(1, "a"), "local:1/0"));
  Router router(ShardMap(kDim, partition.bounds), std::move(shards),
                RouterOptions());

  // k big enough that shard 0 must stream more than two results.
  const geom::Vec& query = partition.points[0][0];
  StreamOptions stream;
  stream.max_results = 40;
  auto merged = router.Knn(query, stream);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();

  const auto truth = TruthKnn(single->tree(), query, 40);
  ASSERT_EQ(merged->neighbors.size(), truth.size());
  for (size_t i = 0; i < truth.size(); ++i) {
    EXPECT_EQ(merged->neighbors[i].rid, truth[i].rid) << "position " << i;
    EXPECT_EQ(merged->neighbors[i].distance, truth[i].distance);
  }
  EXPECT_GE(router.stats().failovers, 1u);
  EXPECT_EQ(router.replica_state(0, 0), ReplicaState::kDead);
  EXPECT_EQ(router.replica_state(0, 1), ReplicaState::kHealthy);
}

// Takes its answer, then lets a write (`point` as `rid`) reach both
// replicas, then dies after two results: the sibling's answer now
// holds a write the dead replica's answer lacks.
class WriteThenFailBackend : public DelegatingBackend {
 public:
  WriteThenFailBackend(std::vector<service::QueryService*> replicas,
                       geom::Vec point, gist::Rid rid)
      : DelegatingBackend(replicas[0], "write-then-fail"),
        replicas_(std::move(replicas)),
        point_(std::move(point)),
        rid_(rid) {}

  Result<std::unique_ptr<ShardFrontier>> OpenFrontier(
      const geom::Vec& query, const StreamOptions& limits) override {
    BW_ASSIGN_OR_RETURN(std::unique_ptr<ShardFrontier> inner,
                        delegate_.OpenFrontier(query, limits));
    for (service::QueryService* replica : replicas_) {
      BW_ASSIGN_OR_RETURN(service::QueryService::MutationFuture write,
                          replica->SubmitInsert(point_, rid_));
      BW_RETURN_IF_ERROR(write.get().status());
    }
    return std::unique_ptr<ShardFrontier>(
        new FailAfterFrontier(std::move(inner), 2));
  }

 private:
  std::vector<service::QueryService*> replicas_;
  geom::Vec point_;
  gist::Rid rid_;
};

// A failover fetches the sibling's whole answer: the merged answer is
// one replica's answer, never a splice of two taken at different
// writes (which could repeat a rid and drop the acked insert).
TEST(RouterFaultTest, FailoverAfterAWriteTakesOneReplicasAnswer) {
  const auto corpus = testing::MakeClusteredPoints(120, kDim, 3, 41);
  const Partition partition = PartitionByStr(corpus, 1);
  const std::string dir = TempDir("write_failover");
  service::ServiceOptions writable;
  writable.write.enabled = true;
  std::vector<std::unique_ptr<service::QueryService>> services;
  for (const char* tag : {"a", "b"}) {
    const std::string stem = dir + "/" + tag;
    auto index = BuildShardIndex(partition.points[0], partition.rids[0],
                                 TestBuild(), stem + ".idx", stem + ".wal");
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    services.push_back(
        std::make_unique<service::QueryService>(std::move(*index), writable));
  }
  const geom::Vec& query = corpus[5];
  constexpr gist::Rid kWritten = 1000000;
  std::vector<Router::Shard> shards(1);
  shards[0].replicas.push_back(std::make_unique<WriteThenFailBackend>(
      std::vector<service::QueryService*>{services[0].get(),
                                          services[1].get()},
      query, kWritten));
  shards[0].replicas.push_back(
      std::make_unique<LocalShardBackend>(services[1].get(), "local:0/1"));
  RouterOptions router_options;
  router_options.hedge = false;
  Router router(ShardMap(kDim, partition.bounds), std::move(shards),
                router_options);

  StreamOptions stream;
  stream.max_results = 10;
  auto merged = router.Knn(query, stream);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(router.stats().failovers, 1u);

  const auto truth = TruthKnn(services[1]->tree(), query, 10);
  ASSERT_EQ(merged->neighbors.size(), truth.size());
  for (size_t i = 0; i < truth.size(); ++i) {
    EXPECT_EQ(merged->neighbors[i].rid, truth[i].rid) << "position " << i;
    EXPECT_EQ(merged->neighbors[i].distance, truth[i].distance);
  }
  const std::multiset<gist::Rid> rids = RidSet(merged->neighbors);
  EXPECT_EQ(rids.count(kWritten), 1u);
  EXPECT_EQ(std::set<gist::Rid>(rids.begin(), rids.end()).size(),
            rids.size());
}

// A router range runs on the query's thread like a k-NN fetch: a shard
// service whose admission queue is full still answers it, and the
// replica is not marked dead for the service's load.
TEST(RouterFaultTest, RangeThroughAFullShardQueueStaysHealthy) {
  const auto corpus = testing::MakeClusteredPoints(300, kDim, 4, 151);
  auto single = BuildSingleIndex(corpus);
  ASSERT_NE(single, nullptr);
  service::ServiceOptions held;
  held.start_paused = true;
  held.queue_capacity = 1;
  auto fleet = BuildFleet(corpus, "fullqueue", 1, 1, RouterOptions(), held);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  Router* router = (*fleet)->router();
  // The paused workers never take this query: it holds the one slot.
  auto parked = (*fleet)->service(0, 0)->SubmitKnn(corpus[1], 5);
  ASSERT_TRUE(parked.ok()) << parked.status().ToString();

  StreamOptions stream;
  stream.max_results = 5;
  ASSERT_TRUE(router->Knn(corpus[0], stream).ok());
  const double radius = 12.0;
  auto merged = router->Range(corpus[0], radius, 0);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  gist::TraversalStats stats;
  auto truth = single->tree().RangeSearch(corpus[0], radius, &stats);
  ASSERT_TRUE(truth.ok());
  ASSERT_GT(truth->size(), 1u);
  ASSERT_EQ(merged->neighbors.size(), truth->size());
  for (size_t i = 0; i < truth->size(); ++i) {
    EXPECT_EQ(merged->neighbors[i].rid, (*truth)[i].rid);
    EXPECT_EQ(merged->neighbors[i].distance, (*truth)[i].distance);
  }
  EXPECT_EQ(router->replica_state(0, 0), ReplicaState::kHealthy);

  (*fleet)->service(0, 0)->Resume();
  EXPECT_TRUE(parked->get().ok());
}

// ---------------------------------------------------------------------------
// Per-shard limits: a shard opened after j merged results asks for k - j
// ---------------------------------------------------------------------------

// Records the count limit of every frontier it opens.
class RecordingBackend : public DelegatingBackend {
 public:
  RecordingBackend(service::QueryService* service, std::vector<size_t>* limits)
      : DelegatingBackend(service, "recording"), limits_(limits) {}

  Result<std::unique_ptr<ShardFrontier>> OpenFrontier(
      const geom::Vec& query, const StreamOptions& limits) override {
    limits_->push_back(limits.max_results);
    return delegate_.OpenFrontier(query, limits);
  }

 private:
  std::vector<size_t>* limits_;
};

// The merge opens an unopened shard once its root bound tops the heap,
// after every result strictly nearer than that bound was merged: with j
// such results, the shard is asked for k - j, and "no count limit"
// stays 0. The answers stay bit-identical to a single index.
TEST(RouterKnnTest, ShardsOpenedLateAskForWhatTheMergeCanUse) {
  constexpr size_t kShards = 4;
  const auto corpus = testing::MakeClusteredPoints(600, kDim, 6, 137);
  auto single = BuildSingleIndex(corpus);
  ASSERT_NE(single, nullptr);
  const Partition partition = PartitionByStr(corpus, kShards);
  const ShardMap map(kDim, partition.bounds);
  const std::string dir = TempDir("limits");
  std::vector<std::unique_ptr<service::QueryService>> services;
  std::vector<std::vector<size_t>> limits(kShards);
  std::vector<Router::Shard> shards(kShards);
  for (size_t s = 0; s < kShards; ++s) {
    const std::string stem = dir + "/s" + std::to_string(s);
    auto index = BuildShardIndex(partition.points[s], partition.rids[s],
                                 TestBuild(), stem + ".idx", stem + ".wal");
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    services.push_back(std::make_unique<service::QueryService>(
        std::move(*index), service::ServiceOptions()));
    shards[s].replicas.push_back(
        std::make_unique<RecordingBackend>(services.back().get(), &limits[s]));
  }
  Router router(map, std::move(shards), RouterOptions());

  Rng rng(139);
  size_t cut = 0;  // shards asked for less than k.
  for (int q = 0; q < 30; ++q) {
    const geom::Vec& query = corpus[rng.NextBelow(corpus.size())];
    const size_t k = 1 + rng.NextBelow(120);
    for (auto& l : limits) l.clear();
    StreamOptions stream;
    stream.max_results = k;
    auto merged = router.Knn(query, stream);
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    const auto truth = TruthKnn(single->tree(), query, k);
    ASSERT_EQ(merged->neighbors.size(), truth.size());
    for (size_t i = 0; i < truth.size(); ++i) {
      EXPECT_EQ(merged->neighbors[i].rid, truth[i].rid) << "query " << q;
      EXPECT_EQ(merged->neighbors[i].distance, truth[i].distance);
    }
    for (size_t s = 0; s < kShards; ++s) {
      if (limits[s].empty()) continue;  // pruned.
      ASSERT_EQ(limits[s].size(), 1u);
      const double bound = map.RootBound(s, query);
      size_t merged_before = 0;
      for (const gist::Neighbor& n : merged->neighbors) {
        merged_before += n.distance < bound ? 1 : 0;
      }
      EXPECT_EQ(limits[s][0], k - merged_before)
          << "query " << q << " shard " << s;
      cut += limits[s][0] < k ? 1 : 0;
    }
  }
  EXPECT_GT(cut, 0u);

  // No count limit asks every shard for none.
  for (auto& l : limits) l.clear();
  StreamOptions unlimited;
  unlimited.budget_radius = 20.0;
  auto ranged = router.Knn(corpus[0], unlimited);
  ASSERT_TRUE(ranged.ok()) << ranged.status().ToString();
  for (size_t s = 0; s < kShards; ++s) {
    for (const size_t limit : limits[s]) EXPECT_EQ(limit, 0u);
  }
}

// ---------------------------------------------------------------------------
// Fault budget: fail closed at 0, degraded-but-genuine within budget
// ---------------------------------------------------------------------------

TEST(RouterFaultTest, DeadShardFailsClosedWithZeroBudget) {
  const auto corpus = testing::MakeClusteredPoints(300, kDim, 4, 59);
  RouterOptions router_options;
  router_options.fault_budget = 0;
  auto fleet = BuildFleet(corpus, "budget0", 3, 1, router_options);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  (*fleet)->backend(0, 0)->set_failed(true);

  StreamOptions stream;
  stream.max_results = corpus.size();  // forces shard 0 to open.
  auto merged = (*fleet)->router()->Knn(corpus[0], stream);
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kUnavailable);
}

TEST(RouterFaultTest, DeadShardWithinBudgetAnswersDegradedSubset) {
  const auto corpus = testing::MakeClusteredPoints(300, kDim, 4, 59);
  RouterOptions router_options;
  router_options.fault_budget = 1;
  auto fleet = BuildFleet(corpus, "budget1", 3, 1, router_options);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  (*fleet)->backend(0, 0)->set_failed(true);

  StreamOptions stream;
  stream.max_results = corpus.size();
  auto merged = (*fleet)->router()->Knn(corpus[0], stream);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_TRUE(merged->degraded());

  // The degraded answer is exactly the surviving shards' corpus slice:
  // genuine, complete over what is reachable, nothing invented.
  const Partition partition = PartitionByStr(corpus, 3);
  std::multiset<gist::Rid> expected;
  for (gist::Rid rid : partition.rids[1]) expected.insert(rid);
  for (gist::Rid rid : partition.rids[2]) expected.insert(rid);
  EXPECT_EQ(RidSet(merged->neighbors), expected);
  EXPECT_GE((*fleet)->router()->stats().degraded_queries, 1u);

  // The replica answers probes again: the next full query is complete.
  (*fleet)->backend(0, 0)->set_failed(false);
  (*fleet)->router()->ProbeNow();
  auto healed = (*fleet)->router()->Knn(corpus[0], stream);
  ASSERT_TRUE(healed.ok());
  EXPECT_FALSE(healed->degraded());
  EXPECT_EQ(healed->neighbors.size(), corpus.size());
}

TEST(RouterFaultTest, ProbeResurrectsDeadReplica) {
  const auto corpus = testing::MakeClusteredPoints(200, kDim, 3, 71);
  auto fleet = BuildFleet(corpus, "probe", 1, 2);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  Router* router = (*fleet)->router();

  (*fleet)->backend(0, 0)->set_failed(true);
  StreamOptions stream;
  stream.max_results = 5;
  auto merged = router->Knn(corpus[0], stream);  // fails over to replica 1.
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->neighbors.size(), 5u);
  EXPECT_EQ(router->replica_state(0, 0), ReplicaState::kDead);

  (*fleet)->backend(0, 0)->set_failed(false);
  router->ProbeNow();
  EXPECT_EQ(router->replica_state(0, 0), ReplicaState::kHealthy);
  EXPECT_GT(router->stats().probes, 0u);
}

// ---------------------------------------------------------------------------
// Routed mutations: replicate to all, stale on divergence
// ---------------------------------------------------------------------------

TEST(RouterMutationTest, InsertReplicatesReadsBackAndRemoves) {
  const auto corpus = testing::MakeClusteredPoints(240, kDim, 3, 83);
  service::ServiceOptions per_shard;
  per_shard.write.enabled = true;
  auto fleet = BuildFleet(corpus, "mutate", 2, 2, RouterOptions(), per_shard);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  Router* router = (*fleet)->router();

  geom::Vec point(kDim);
  for (size_t d = 0; d < kDim; ++d) point[d] = 50.0f + 0.25f * d;
  const gist::Rid rid = 99999;
  auto inserted = router->Insert(point, rid);
  ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();

  StreamOptions one;
  one.max_results = 1;
  auto nearest = router->Knn(point, one);
  ASSERT_TRUE(nearest.ok());
  ASSERT_EQ(nearest->neighbors.size(), 1u);
  EXPECT_EQ(nearest->neighbors[0].rid, rid);
  EXPECT_EQ(nearest->neighbors[0].distance, 0.0);

  // Both replicas of the owning shard applied it (bit-identity holds).
  const size_t owner = (*fleet)->map().OwnerOf(point);
  for (size_t r = 0; r < 2; ++r) {
    auto direct = (*fleet)->service(owner, r)->Knn(point, 1);
    ASSERT_TRUE(direct.ok());
    ASSERT_EQ(direct->neighbors.size(), 1u);
    EXPECT_EQ(direct->neighbors[0].rid, rid);
  }

  auto removed = router->Remove(point, rid);
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  auto after = router->Knn(point, one);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->neighbors.size(), 1u);
  EXPECT_NE(after->neighbors[0].rid, rid);

  auto again = router->Remove(point, rid);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kNotFound);
  EXPECT_GE(router->stats().mutations, 3u);
}

TEST(RouterMutationTest, MissedWriteMarksReplicaStaleForever) {
  const auto corpus = testing::MakeClusteredPoints(240, kDim, 3, 89);
  service::ServiceOptions per_shard;
  per_shard.write.enabled = true;
  auto fleet = BuildFleet(corpus, "stale", 1, 2, RouterOptions(), per_shard);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  Router* router = (*fleet)->router();

  // Replica 1 misses a write replica 0 acks: it has diverged.
  (*fleet)->backend(0, 1)->set_failed(true);
  geom::Vec point(kDim);
  for (size_t d = 0; d < kDim; ++d) point[d] = 40.0f + 1.0f * d;
  auto inserted = router->Insert(point, 98765);
  ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
  EXPECT_EQ(router->replica_state(0, 1), ReplicaState::kStale);

  // Coming back to life does not cure divergence: stale is terminal.
  (*fleet)->backend(0, 1)->set_failed(false);
  router->ProbeNow();
  EXPECT_EQ(router->replica_state(0, 1), ReplicaState::kStale);

  // Queries keep serving from the consistent replica, write included.
  StreamOptions one;
  one.max_results = 1;
  auto nearest = router->Knn(point, one);
  ASSERT_TRUE(nearest.ok());
  ASSERT_EQ(nearest->neighbors.size(), 1u);
  EXPECT_EQ(nearest->neighbors[0].rid, 98765u);

  // The fleet surfaces the outage in its stats surface.
  bool found = false;
  for (const auto& [name, value] : router->StatsFields()) {
    if (name == "router.stale_replicas") {
      EXPECT_EQ(value, 1.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
  EXPECT_TRUE(router->Health().write_degraded);
}

// ---------------------------------------------------------------------------
// Concurrent mutations racing replica failover
// ---------------------------------------------------------------------------

// Writers stream inserts through the router while readers run k-NN
// queries and a replica is killed and revived mid-flight. The routed
// write path must keep every replica of a shard applying mutations in
// the same admission order, so that after the dust settles (probe +
// catch-up) the replicas are bit-identical and the fleet's answers
// match a brute-force reference over exactly the admitted writes.
TEST(RouterMutationTest, ConcurrentMutationsRacingFailoverStayConsistent) {
  const auto corpus = testing::MakeClusteredPoints(300, kDim, 4, 97);
  service::ServiceOptions per_shard;
  per_shard.write.enabled = true;
  RouterOptions router_options;
  router_options.fault_budget = 0;  // failover must cover, not degrade.
  auto fleet = BuildFleet(corpus, "race", 2, 2, router_options, per_shard);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  Router* router = (*fleet)->router();

  constexpr size_t kWriters = 3;
  constexpr size_t kPerWriter = 30;
  std::atomic<bool> stop_readers{false};
  std::vector<geom::Vec> inserted(kWriters * kPerWriter, geom::Vec(kDim));

  std::vector<std::thread> writers;
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Rng rng(1000 + w);
      for (size_t j = 0; j < kPerWriter; ++j) {
        geom::Vec point(kDim);
        for (size_t d = 0; d < kDim; ++d) {
          point[d] = static_cast<float>(rng.Uniform(0.0, 100.0));
        }
        const size_t slot = w * kPerWriter + j;
        auto outcome = router->Insert(point, corpus.size() + slot);
        ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
        inserted[slot] = point;
      }
    });
  }

  // Readers hammer k-NN across the fan-out while replicas flap; every
  // answer must be well-formed (sorted, genuine rids) even mid-race.
  std::vector<std::thread> readers;
  for (size_t r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(2000 + r);
      while (!stop_readers.load()) {
        geom::Vec query(kDim);
        for (size_t d = 0; d < kDim; ++d) {
          query[d] = static_cast<float>(rng.Uniform(0.0, 100.0));
        }
        StreamOptions stream;
        stream.max_results = 16;
        auto merged = router->Knn(query, stream);
        if (!merged.ok()) continue;  // transient flap; budget 0 may fail.
        // No ordering assert mid-race: the root bounds are taken when
        // the query starts, and an insert that lands in a shard before
        // its answer is fetched may lie below that shard's bound, so
        // the merge can emit it out of order. Answers must still be
        // genuine rids, never junk, and never one rid twice: every rid
        // lives in one shard, and each shard's results are one
        // replica's answer.
        std::set<gist::Rid> seen;
        for (const gist::Neighbor& n : merged->neighbors) {
          EXPECT_LT(n.rid, corpus.size() + inserted.size());
          EXPECT_TRUE(seen.insert(n.rid).second) << "rid " << n.rid;
        }
      }
    });
  }

  // Kill one replica of each shard mid-query, let writes land without
  // them (kStale via missed writes, kDead via failed streams), revive.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  (*fleet)->backend(0, 0)->set_failed(true);
  (*fleet)->backend(1, 1)->set_failed(true);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  (*fleet)->backend(0, 0)->set_failed(false);
  (*fleet)->backend(1, 1)->set_failed(false);

  for (auto& t : writers) t.join();
  stop_readers.store(true);
  for (auto& t : readers) t.join();

  // Heal the fleet: probes resurrect the merely-dead, catch-up sweeps
  // cure the diverged (bounded; every pass readmits or leaves kStale).
  router->ProbeNow();
  for (int pass = 0; pass < 8; ++pass) {
    router->CatchupNow();
    bool all_healthy = true;
    for (size_t s = 0; s < 2; ++s) {
      for (size_t r = 0; r < 2; ++r) {
        all_healthy &=
            router->replica_state(s, r) == ReplicaState::kHealthy;
      }
    }
    if (all_healthy) break;
  }

  // Admission-order consistency: replicas of each shard byte-identical.
  for (size_t s = 0; s < 2; ++s) {
    ASSERT_EQ(router->replica_state(s, 0), ReplicaState::kHealthy);
    ASSERT_EQ(router->replica_state(s, 1), ReplicaState::kHealthy);
    auto sum0 = (*fleet)->service(s, 0)->TreeChecksum();
    auto sum1 = (*fleet)->service(s, 1)->TreeChecksum();
    ASSERT_TRUE(sum0.ok()) << sum0.status().ToString();
    ASSERT_TRUE(sum1.ok()) << sum1.status().ToString();
    EXPECT_EQ(sum0->tag, sum1->tag) << "shard " << s;
    EXPECT_EQ(sum0->page_count, sum1->page_count) << "shard " << s;
    EXPECT_EQ(sum0->crc, sum1->crc) << "shard " << s;
  }

  // The fleet's merged answer covers exactly corpus + admitted inserts.
  StreamOptions all;
  all.max_results = corpus.size() + inserted.size();
  auto merged = router->Knn(corpus[0], all);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_FALSE(merged->degraded());
  double prev = 0;  // quiescent now: merge order must hold again.
  for (const gist::Neighbor& n : merged->neighbors) {
    EXPECT_GE(n.distance, prev);
    prev = n.distance;
  }
  std::multiset<gist::Rid> expected;
  for (size_t i = 0; i < corpus.size() + inserted.size(); ++i) {
    expected.insert(i);
  }
  EXPECT_EQ(RidSet(merged->neighbors), expected);
}

// ---------------------------------------------------------------------------
// Circuit breaker: state machine under a synthetic clock
// ---------------------------------------------------------------------------

BreakerOptions TestBreaker() {
  BreakerOptions options;
  options.error_threshold = 3;
  options.slow_threshold = 2;
  options.outlier_floor_us = 1'000;
  options.outlier_factor = 4.0;
  options.min_samples = 4;
  options.cooldown_us = 10'000;
  return options;
}

TEST(CircuitBreakerTest, ConsecutiveErrorsTripOpen) {
  CircuitBreaker breaker(TestBreaker());
  uint64_t now = 1'000'000;
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  breaker.OnResult(false, 0, now);
  breaker.OnResult(false, 0, now += 10);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);  // 2 < threshold 3.
  breaker.OnResult(true, 100, now += 10);             // success resets.
  breaker.OnResult(false, 0, now += 10);
  breaker.OnResult(false, 0, now += 10);
  breaker.OnResult(false, 0, now += 10);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.opens(), 1u);
  EXPECT_FALSE(breaker.Allow(now + 100));  // cooldown not yet over.
}

TEST(CircuitBreakerTest, LatencyOutliersTripOpenOnlyOnceArmed) {
  CircuitBreaker breaker(TestBreaker());
  uint64_t now = 1'000'000;
  // Two huge samples while the tracker is cold (< min_samples = 4):
  // never slow, so no trip.
  breaker.OnResult(true, 1'000'000, now += 10);
  breaker.OnResult(true, 1'000'000, now += 10);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  // A healthy history (p50 ~ 100us) arms the detector...
  for (int i = 0; i < 8; ++i) breaker.OnResult(true, 100, now += 10);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  // ...then two consecutive outliers (>> max(floor, 4 x p50)) trip it.
  breaker.OnResult(true, 50'000, now += 10);
  breaker.OnResult(true, 50'000, now += 10);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.opens(), 1u);
}

TEST(CircuitBreakerTest, HalfOpenTrialClosesOnFastSuccess) {
  CircuitBreaker breaker(TestBreaker());
  uint64_t now = 1'000'000;
  for (int i = 0; i < 8; ++i) breaker.OnResult(true, 100, now += 10);
  breaker.OnResult(true, 50'000, now += 10);
  breaker.OnResult(true, 50'000, now += 10);
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);

  EXPECT_FALSE(breaker.Allow(now + 5'000));  // mid-cooldown: stay away.
  now += 20'000;                             // cooldown (10ms) elapsed.
  EXPECT_TRUE(breaker.Allow(now));           // exactly one trial...
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_FALSE(breaker.Allow(now + 10));     // ...no second admission.
  EXPECT_EQ(breaker.half_opens(), 1u);

  breaker.OnResult(true, 120, now += 10);    // fast success: re-close.
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.closes(), 1u);
}

TEST(CircuitBreakerTest, HalfOpenTrialReopensOnSlowOrError) {
  CircuitBreaker breaker(TestBreaker());
  uint64_t now = 1'000'000;
  for (int i = 0; i < 8; ++i) breaker.OnResult(true, 100, now += 10);
  breaker.OnResult(true, 50'000, now += 10);
  breaker.OnResult(true, 50'000, now += 10);
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);

  now += 20'000;
  ASSERT_TRUE(breaker.Allow(now));
  breaker.OnResult(true, 60'000, now += 10);  // trial still slow.
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.opens(), 2u);             // a fresh cooldown started.

  now += 20'000;
  ASSERT_TRUE(breaker.Allow(now));
  breaker.OnResult(false, 0, now += 10);      // trial errored.
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.opens(), 3u);
}

TEST(CircuitBreakerTest, DisabledBreakerNeverTrips) {
  BreakerOptions options = TestBreaker();
  options.enabled = false;
  CircuitBreaker breaker(options);
  uint64_t now = 1'000'000;
  for (int i = 0; i < 20; ++i) breaker.OnResult(false, 0, now += 10);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_TRUE(breaker.Allow(now));
  EXPECT_EQ(breaker.opens(), 0u);
}

TEST(DeadlineBudgetTest, SlicesSplitRemainingAndExhaust) {
  const uint64_t t0 = 5'000'000;
  DeadlineBudget unlimited(0, t0);
  EXPECT_TRUE(unlimited.unlimited());
  EXPECT_FALSE(unlimited.Exhausted(t0 + 1'000'000'000, 500));
  EXPECT_EQ(unlimited.SliceUs(t0, 3, 500), 0u);  // 0 = no deadline.

  DeadlineBudget budget(100'000, t0);  // 100ms total.
  EXPECT_FALSE(budget.unlimited());
  EXPECT_EQ(budget.remaining_us(t0), 100'000u);
  // Two eligible replicas split what is left evenly.
  EXPECT_EQ(budget.SliceUs(t0, 2, 500), 50'000u);
  EXPECT_EQ(budget.SliceUs(t0 + 60'000, 2, 500), 20'000u);
  // The floor protects the last attempt from a sliver slice.
  EXPECT_EQ(budget.SliceUs(t0 + 99'900, 2, 500), 500u);
  EXPECT_FALSE(budget.Exhausted(t0 + 99'000, 500));
  EXPECT_TRUE(budget.Exhausted(t0 + 99'900, 500));
  EXPECT_TRUE(budget.Exhausted(t0 + 200'000, 500));
  EXPECT_EQ(budget.remaining_us(t0 + 200'000), 0u);
}

// ---------------------------------------------------------------------------
// Hedged reads, breaker routing, and deadline budgets on a live fleet
// ---------------------------------------------------------------------------

TEST(RouterTailTest, HedgedReadBeatsBrownedReplicaBitIdentically) {
  const auto corpus = testing::MakeClusteredPoints(400, kDim, 4, 111);
  auto single = BuildSingleIndex(corpus);
  ASSERT_NE(single, nullptr);
  RouterOptions router_options;
  router_options.hedge = true;
  router_options.hedge_delay_floor_us = 1'000;
  router_options.hedge_delay_fallback_us = 2'000;
  router_options.breaker.enabled = false;  // isolate the hedge path.
  router_options.jitter_seed = 42;
  auto fleet = BuildFleet(corpus, "hedge", 2, 2, router_options);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  Router* router = (*fleet)->router();

  // Replica 0 of every shard browns out: alive, correct, probe-visible
  // — just 30ms per fetch, far past the hedge delay.
  for (size_t s = 0; s < 2; ++s) {
    (*fleet)->backend(s, 0)->set_delay_us(30'000);
  }

  StreamOptions stream;
  stream.max_results = 12;
  auto merged = router->Knn(corpus[0], stream);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_FALSE(merged->degraded());

  // Bit-identical to the unsharded index: hedging changed who answered,
  // never what the answer is.
  const auto truth = TruthKnn(single->tree(), corpus[0], 12);
  ASSERT_EQ(merged->neighbors.size(), truth.size());
  for (size_t i = 0; i < truth.size(); ++i) {
    EXPECT_EQ(merged->neighbors[i].rid, truth[i].rid) << "position " << i;
    EXPECT_EQ(merged->neighbors[i].distance, truth[i].distance);
  }

  const RouterStats stats = router->stats();
  EXPECT_GE(stats.hedges_attempted, 1u);
  EXPECT_GE(stats.hedges_won, 1u);
  // A brownout is not a failure: nobody was marked dead, nothing
  // failed over, the slow replicas stay in rotation.
  EXPECT_EQ(stats.failovers, 0u);
  for (size_t s = 0; s < 2; ++s) {
    EXPECT_EQ(router->replica_state(s, 0), ReplicaState::kHealthy);
    EXPECT_EQ(router->replica_state(s, 1), ReplicaState::kHealthy);
  }
}

TEST(RouterTailTest, BreakerOpensOnBrownoutThenRecovers) {
  const auto corpus = testing::MakeClusteredPoints(300, kDim, 3, 117);
  RouterOptions router_options;
  router_options.hedge = false;  // isolate the breaker path.
  router_options.breaker.slow_threshold = 3;
  router_options.breaker.outlier_floor_us = 2'000;
  router_options.breaker.min_samples = 8;
  router_options.breaker.cooldown_us = 50'000;
  auto fleet = BuildFleet(corpus, "breaker", 1, 2, router_options);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  Router* router = (*fleet)->router();

  StreamOptions stream;
  stream.max_results = 10;
  // Healthy warm-up: replica 0 (the preferred one) builds a fast
  // latency history of one sample per fetch, arming the outlier
  // detector.
  for (uint64_t q = 0; q < router_options.breaker.min_samples; ++q) {
    auto warm = router->Knn(corpus[q], stream);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  }
  ASSERT_EQ(router->breaker_state(0, 0), BreakerState::kClosed);

  // Brownout: 20ms per fetch. Three browned queries are 3 consecutive
  // outliers against the fast history — the breaker trips,
  // deterministically.
  (*fleet)->backend(0, 0)->set_delay_us(20'000);
  for (uint32_t q = 0; q < router_options.breaker.slow_threshold; ++q) {
    auto slow = router->Knn(corpus[q], stream);
    ASSERT_TRUE(slow.ok()) << slow.status().ToString();
  }
  EXPECT_EQ(router->breaker_state(0, 0), BreakerState::kOpen);
  EXPECT_GE(router->stats().breaker_opens, 1u);

  // While open, queries route around the browned replica (replica 1
  // serves) — still correct, never degraded.
  auto routed = router->Knn(corpus[1], stream);
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  EXPECT_FALSE(routed->degraded());
  EXPECT_EQ(router->breaker_state(0, 0), BreakerState::kOpen);

  // Brownout lifts; after the cooldown the next query admits one trial
  // on replica 0, which succeeds fast and re-closes the breaker.
  (*fleet)->backend(0, 0)->set_delay_us(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  auto trial = router->Knn(corpus[2], stream);
  ASSERT_TRUE(trial.ok()) << trial.status().ToString();
  EXPECT_EQ(router->breaker_state(0, 0), BreakerState::kClosed);
  EXPECT_GE(router->stats().breaker_half_opens, 1u);
  EXPECT_GE(router->stats().breaker_closes, 1u);
}

TEST(RouterTailTest, OpenBreakerIsAdvisoryNeverUnavailability) {
  const auto corpus = testing::MakeClusteredPoints(200, kDim, 3, 123);
  RouterOptions router_options;
  router_options.hedge = false;
  router_options.breaker.slow_threshold = 3;
  router_options.breaker.outlier_floor_us = 2'000;
  router_options.breaker.min_samples = 8;
  router_options.breaker.cooldown_us = 60'000'000;  // never cools here.
  // One shard, ONE replica: the breaker will open on it, but it is the
  // only copy of the data — queries must keep working regardless.
  auto fleet = BuildFleet(corpus, "advisory", 1, 1, router_options);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  Router* router = (*fleet)->router();

  StreamOptions stream;
  stream.max_results = 10;
  for (uint64_t q = 0; q < router_options.breaker.min_samples; ++q) {
    auto warm = router->Knn(corpus[q], stream);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  }
  (*fleet)->backend(0, 0)->set_delay_us(20'000);
  for (uint32_t q = 0; q < router_options.breaker.slow_threshold; ++q) {
    auto slow = router->Knn(corpus[q], stream);
    ASSERT_TRUE(slow.ok()) << slow.status().ToString();
  }
  ASSERT_EQ(router->breaker_state(0, 0), BreakerState::kOpen);

  // Breaker open, no sibling, cooldown nowhere near over: the
  // last-resort pass still serves the query, complete and correct.
  auto merged = router->Knn(corpus[1], stream);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_FALSE(merged->degraded());
  EXPECT_EQ(merged->neighbors.size(), 10u);
}

// A replica that is both slow (40ms per fetch) and rigged to die after
// two results: with a 30ms deadline its failed fetch spends the
// budget, so the sibling's attempt cannot fit in what is left and the
// router degrades instead of re-scattering.
class SlowFailBackend : public FailAfterBackend {
 public:
  SlowFailBackend(service::QueryService* service, uint64_t delay_us,
                  size_t fail_after)
      : FailAfterBackend(service, fail_after) {
    delegate_.set_delay_us(delay_us);
  }
};

TEST(RouterTailTest, ExhaustedDeadlineBudgetDegradesInsteadOfRescattering) {
  const auto corpus = testing::MakeClusteredPoints(160, kDim, 3, 131);
  const Partition partition = PartitionByStr(corpus, 2);
  const std::string dir = TempDir("budget_exhaust");
  std::vector<std::unique_ptr<core::DurableIndex>> indexes;
  std::vector<std::unique_ptr<service::QueryService>> services;
  auto make_service = [&](size_t s, const char* tag) {
    const std::string stem = dir + "/s" + std::to_string(s) + "_" + tag;
    auto index = BuildShardIndex(partition.points[s], partition.rids[s],
                                 TestBuild(), stem + ".idx", stem + ".wal");
    BW_CHECK_MSG(index.ok(), index.status().ToString());
    indexes.push_back(std::move(*index));
    services.push_back(std::make_unique<service::QueryService>(
        indexes.back().get(), service::ServiceOptions()));
    return services.back().get();
  };
  std::vector<Router::Shard> shards(2);
  shards[0].replicas.push_back(
      std::make_unique<LocalShardBackend>(make_service(0, "a"), "local:0/0"));
  // Shard 1's preferred replica burns 40ms per fetch and dies after two
  // results: by then a 30ms budget cannot cover its sibling's fetch.
  shards[1].replicas.push_back(
      std::make_unique<SlowFailBackend>(make_service(1, "a"), 40'000, 2));
  shards[1].replicas.push_back(
      std::make_unique<LocalShardBackend>(make_service(1, "b"), "local:1/1"));
  RouterOptions router_options;
  router_options.fault_budget = 1;  // degraded is allowed; failure is not.
  router_options.hedge = false;
  router_options.breaker.enabled = false;
  Router router(ShardMap(kDim, partition.bounds), std::move(shards),
                router_options);

  StreamOptions stream;
  stream.max_results = corpus.size();  // forces both shards open.
  stream.deadline_us = 30'000;
  // Shard 0 is fetched first and answers; shard 1 degrades.
  auto merged = router.Knn(partition.points[0][0], stream);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_TRUE(merged->degraded());
  // A degraded partial answer: what was fetched before the budget ran
  // out — genuine results, nothing invented, and necessarily not the
  // full corpus.
  EXPECT_GE(merged->neighbors.size(), 1u);
  EXPECT_LT(merged->neighbors.size(), corpus.size());
  for (const gist::Neighbor& n : merged->neighbors) {
    EXPECT_LT(n.rid, corpus.size());
  }
  EXPECT_GE(router.stats().budget_exhausted, 1u);
  EXPECT_GE(router.stats().degraded_queries, 1u);
}

}  // namespace
}  // namespace bw::shard
