// Tests for index persistence (the durable index format: build, drop,
// reopen, across all access methods) and the radius-bounded k-NN
// search that serves a stream's budget radius.

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdio>
#include <numeric>

#include "pages/page_file.h"
#include "am/rtree.h"
#include "am/sstree.h"
#include "core/durable_index.h"
#include "core/index_factory.h"
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
// Radius-bounded k-NN
// ---------------------------------------------------------------------------

// A stream's budget radius, pushed down into the k-NN search: with no
// count limit the search returns exactly the range query's answer, in
// the one (distance, rid) order, and reads no node beyond the radius.
TEST(KnnRadiusTest, MatchesRangeSearchAndReadsLess) {
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

  gist::TraversalStats bounded_stats;
  auto bounded = tree.KnnSearch(q, tree.size(), &bounded_stats, nullptr,
                                nullptr, budget);
  ASSERT_TRUE(bounded.ok());
  auto range = tree.RangeSearch(q, budget, nullptr);
  ASSERT_TRUE(range.ok());
  ASSERT_GE(range->size(), 30u);
  ASSERT_EQ(bounded->size(), range->size());
  for (size_t i = 0; i < range->size(); ++i) {
    EXPECT_EQ((*bounded)[i].rid, (*range)[i].rid) << "rank " << i;
    EXPECT_EQ((*bounded)[i].distance, (*range)[i].distance) << "rank " << i;
  }

  // Stopping at the radius genuinely saved node accesses against a
  // search with no limit at all.
  gist::TraversalStats all_stats;
  ASSERT_TRUE(tree.KnnSearch(q, tree.size(), &all_stats).ok());
  EXPECT_LT(bounded_stats.TotalAccesses(), all_stats.TotalAccesses());

  // A negative radius reads nothing.
  gist::TraversalStats none_stats;
  auto none = tree.KnnSearch(q, tree.size(), &none_stats, nullptr, nullptr,
                             -1.0);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
  EXPECT_EQ(none_stats.TotalAccesses(), 0u);
}

}  // namespace
}  // namespace bw
