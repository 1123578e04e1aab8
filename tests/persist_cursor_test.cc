// Tests for index persistence (the durable index format: build, drop,
// reopen, across all access methods) and the incremental
// nearest-neighbor cursor.

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdio>
#include <numeric>

#include "pages/page_file.h"
#include "am/rtree.h"
#include "am/sstree.h"
#include "core/durable_index.h"
#include "core/index_factory.h"
#include "gist/nn_cursor.h"
#include "shard/partitioner.h"
#include "tests/test_helpers.h"

namespace bw {
namespace {

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

/// The two files of a durable index under the test temp dir, removed
/// on construction and destruction.
struct TempIndexFiles {
  explicit TempIndexFiles(const std::string& name)
      : base(::testing::TempDir() + "/" + name + ".bwpf"),
        wal(::testing::TempDir() + "/" + name + ".bwwal") {
    Remove();
  }
  ~TempIndexFiles() { Remove(); }
  void Remove() const {
    std::remove(base.c_str());
    std::remove(wal.c_str());
  }

  std::string base;
  std::string wal;
};

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

class PersistTest : public ::testing::TestWithParam<const char*> {};

TEST_P(PersistTest, SaveLoadRoundTripPreservesAnswers) {
  const auto points = testing::MakeClusteredPoints(2500, 5, 8, 31);
  core::IndexBuildOptions options;
  options.am = GetParam();
  options.xjb_x = 6;
  options.amap_samples = 64;
  auto built = core::BuildIndex(points, options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();

  const TempIndexFiles files(std::string("index_") + GetParam());
  {
    auto durable =
        core::BuildDurableIndex(points, options, files.base, files.wal);
    ASSERT_TRUE(durable.ok()) << durable.status().ToString();
  }  // dropped: only the files remain.

  auto loaded = core::OpenDurableIndex(files.base, files.wal, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const gist::Tree& tree = (*loaded)->tree();
  EXPECT_EQ(tree.extension().Name(), GetParam());
  EXPECT_EQ(tree.size(), points.size());
  EXPECT_EQ(tree.height(), (*built)->tree().height());
  ASSERT_TRUE(tree.Validate().ok());

  Rng rng(3);
  for (int trial = 0; trial < 8; ++trial) {
    const geom::Vec& q = points[rng.NextBelow(points.size())];
    auto a = (*built)->Knn(q, 25, nullptr);
    auto b = tree.KnnSearch(q, 25, nullptr);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->size(), b->size());
    for (size_t i = 0; i < a->size(); ++i) {
      EXPECT_EQ((*a)[i].rid, (*b)[i].rid);
      EXPECT_EQ((*a)[i].distance, (*b)[i].distance);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllAms, PersistTest,
                         ::testing::Values("rtree", "rstar", "sstree",
                                           "srtree", "amap", "jb", "xjb"));

TEST(PersistFileTest, RejectsWrongExtension) {
  const auto points = testing::MakeUniformPoints(500, 3, 7);
  core::IndexBuildOptions options;
  options.am = "rtree";
  const TempIndexFiles files("mismatch");
  auto durable =
      core::BuildDurableIndex(points, options, files.base, files.wal);
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();
  storage::DurableStore& store = (*durable)->store();

  // The meta page records an R-tree over 3-D points: installing it under
  // an SS-tree, or under an R-tree of another dimension, must fail loudly.
  gist::Tree other_am(store.pages(), std::make_unique<am::SsTreeExtension>(3));
  EXPECT_EQ(core::RefreshTreeFromMeta(&store, &other_am).code(),
            StatusCode::kInvalidArgument);
  gist::Tree other_dim(store.pages(), std::make_unique<am::RtreeExtension>(4));
  EXPECT_EQ(core::RefreshTreeFromMeta(&store, &other_dim).code(),
            StatusCode::kInvalidArgument);
  gist::Tree same(store.pages(), std::make_unique<am::RtreeExtension>(3));
  ASSERT_TRUE(core::RefreshTreeFromMeta(&store, &same).ok());
  EXPECT_EQ(same.size(), points.size());
}

TEST(PersistFileTest, RejectsGarbageAndMissingFiles) {
  const TempIndexFiles missing("missing");
  const Status status =
      core::OpenDurableIndex(missing.base, missing.wal).status();
  EXPECT_TRUE(status.code() == StatusCode::kNotFound ||
              status.code() == StatusCode::kIoError)
      << status.ToString();
  EXPECT_FALSE(FileExists(missing.base));
  EXPECT_FALSE(FileExists(missing.wal));

  const TempIndexFiles garbage("garbage");
  std::FILE* f = std::fopen(garbage.base.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("garbage bytes", f);
  std::fclose(f);
  EXPECT_EQ(core::OpenDurableIndex(garbage.base, garbage.wal).status().code(),
            StatusCode::kDataLoss);
}

// XJB's automatic X depends on how many points the tree will hold; the
// durable builders must choose it for their points, as BuildIndex does,
// not for an empty tree (which would pick the 2^D maximum).
TEST(DurableBuildTest, AutoSelectedXMatchesBuildIndex) {
  const auto points = testing::MakeClusteredPoints(20000, 5, 12, 17);
  core::IndexBuildOptions options;
  options.am = "xjb";
  options.xjb_x = 0;
  auto built = core::BuildIndex(points, options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const uint32_t x = (*built)->tree().extension().AuxParam();
  ASSERT_LT(x, 32u);  // below the 2^5 an empty tree would get.

  const TempIndexFiles durable_files("auto_x_durable");
  auto durable =
      core::BuildDurableIndex(points, options, durable_files.base,
                              durable_files.wal);
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();

  std::vector<gist::Rid> rids(points.size());
  std::iota(rids.begin(), rids.end(), 0);
  const TempIndexFiles shard_files("auto_x_shard");
  auto shard = shard::BuildShardIndex(points, rids, options, shard_files.base,
                                      shard_files.wal);
  ASSERT_TRUE(shard.ok()) << shard.status().ToString();

  for (const gist::Tree* tree : {&(*durable)->tree(), &(*shard)->tree()}) {
    EXPECT_EQ(tree->extension().AuxParam(), x);
    Rng rng(5);
    for (int trial = 0; trial < 10; ++trial) {
      const geom::Vec& q = points[rng.NextBelow(points.size())];
      gist::TraversalStats want_stats;
      gist::TraversalStats got_stats;
      auto want = (*built)->tree().KnnSearch(q, 50, &want_stats);
      auto got = tree->KnnSearch(q, 50, &got_stats);
      ASSERT_TRUE(want.ok());
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got_stats.TotalAccesses(), want_stats.TotalAccesses());
    }
  }
}

// ---------------------------------------------------------------------------
// NN cursor
// ---------------------------------------------------------------------------

TEST(NnCursorTest, StreamsInNonDecreasingOrder) {
  const auto points = testing::MakeClusteredPoints(1200, 4, 6, 5);
  core::IndexBuildOptions options;
  auto built = core::BuildIndex(points, options);
  ASSERT_TRUE(built.ok());

  const geom::Vec& q = points[17];
  gist::NnCursor cursor((*built)->tree(), q);
  double last = -1.0;
  size_t count = 0;
  for (;;) {
    auto next = cursor.Next();
    ASSERT_TRUE(next.ok());
    if (!next->has_value()) break;
    EXPECT_GE((**next).distance, last - 1e-12);
    last = (**next).distance;
    ++count;
  }
  EXPECT_EQ(count, points.size());  // exhausts the whole tree.
  EXPECT_EQ(cursor.produced(), points.size());
  EXPECT_TRUE(std::isinf(cursor.FrontierDistance()));
}

TEST(NnCursorTest, PrefixMatchesKnnSearch) {
  const auto points = testing::MakeClusteredPoints(3000, 5, 10, 9);
  core::IndexBuildOptions options;
  options.am = "xjb";
  options.xjb_x = 6;
  auto built = core::BuildIndex(points, options);
  ASSERT_TRUE(built.ok());

  const geom::Vec& q = points[99];
  auto batch = (*built)->Knn(q, 60, nullptr);
  ASSERT_TRUE(batch.ok());

  gist::NnCursor cursor((*built)->tree(), q);
  for (size_t i = 0; i < 60; ++i) {
    auto next = cursor.Next();
    ASSERT_TRUE(next.ok());
    ASSERT_TRUE(next->has_value());
    EXPECT_EQ((**next).rid, (*batch)[i].rid) << i;
    EXPECT_EQ((**next).distance, (*batch)[i].distance) << i;
  }
}

TEST(NnCursorTest, FrontierDistanceBoundsFutureResults) {
  const auto points = testing::MakeUniformPoints(800, 3, 21);
  core::IndexBuildOptions options;
  auto built = core::BuildIndex(points, options);
  ASSERT_TRUE(built.ok());

  gist::NnCursor cursor((*built)->tree(), points[0]);
  for (int i = 0; i < 100; ++i) {
    const double frontier = cursor.FrontierDistance();
    auto next = cursor.Next();
    ASSERT_TRUE(next.ok());
    ASSERT_TRUE(next->has_value());
    EXPECT_GE((**next).distance, frontier - 1e-12);
  }
}

TEST(NnCursorTest, FrontierDistanceEarlyStopMatchesRangeSearch) {
  const auto points = testing::MakeClusteredPoints(2500, 5, 8, 44);
  core::IndexBuildOptions options;
  auto built = core::BuildIndex(points, options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const gist::Tree& tree = (*built)->tree();

  // Budget: the distance of roughly the 30th nearest neighbor.
  const geom::Vec& q = points[123];
  auto knn = tree.KnnSearch(q, 30, nullptr);
  ASSERT_TRUE(knn.ok());
  const double budget = (*knn)[29].distance;

  // Stream until the frontier lower bound proves nothing within the
  // budget remains, collecting everything at distance <= budget.
  gist::TraversalStats stats;
  gist::NnCursor cursor(tree, q, &stats);
  std::vector<gist::Rid> streamed;
  for (;;) {
    if (cursor.FrontierDistance() > budget) break;  // early stop.
    auto next = cursor.Next();
    ASSERT_TRUE(next.ok());
    if (!next->has_value()) break;
    if ((**next).distance > budget) break;
    streamed.push_back((**next).rid);
  }
  const uint64_t accesses_at_stop = stats.TotalAccesses();

  // The early-stopped stream is exactly the range query's answer.
  auto range = tree.RangeSearch(q, budget, nullptr);
  ASSERT_TRUE(range.ok());
  std::vector<gist::Rid> expected;
  expected.reserve(range->size());
  for (const auto& n : *range) expected.push_back(n.rid);
  std::sort(expected.begin(), expected.end());
  std::vector<gist::Rid> got = streamed;
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected);

  // Stopping early genuinely saved node accesses vs full exhaustion.
  for (;;) {
    auto next = cursor.Next();
    ASSERT_TRUE(next.ok());
    if (!next->has_value()) break;
  }
  EXPECT_LT(accesses_at_stop, stats.TotalAccesses());
}

TEST(NnCursorTest, EmptyTreeYieldsNothing) {
  pages::PageFile file(4096);
  gist::Tree tree(&file, std::make_unique<am::RtreeExtension>(3));
  gist::NnCursor cursor(tree, geom::Vec(3));
  auto next = cursor.Next();
  ASSERT_TRUE(next.ok());
  EXPECT_FALSE(next->has_value());
}

TEST(NnCursorTest, CountsAccessesIncrementally) {
  const auto points = testing::MakeClusteredPoints(2000, 4, 8, 3);
  core::IndexBuildOptions options;
  auto built = core::BuildIndex(points, options);
  ASSERT_TRUE(built.ok());

  gist::TraversalStats stats;
  gist::NnCursor cursor((*built)->tree(), points[0], &stats);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(cursor.Next().ok());
  }
  const uint64_t early = stats.TotalAccesses();
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(cursor.Next().ok());
  }
  // Deeper streaming costs more node accesses.
  EXPECT_GT(stats.TotalAccesses(), early);
}

}  // namespace
}  // namespace bw
