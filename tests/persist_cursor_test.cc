// Tests for index persistence (save/load round-trips across all access
// methods) and the incremental nearest-neighbor cursor.

#include <gtest/gtest.h>

#include <cstdio>
#include <numeric>

#include "pages/page_file.h"
#include "am/rtree.h"
#include "am/sstree.h"
#include "core/index_factory.h"
#include "gist/nn_cursor.h"
#include "gist/persist.h"
#include "tests/test_helpers.h"

namespace bw {
namespace {

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

class PersistTest : public ::testing::TestWithParam<const char*> {};

TEST_P(PersistTest, SaveLoadRoundTripPreservesAnswers) {
  const auto points = testing::MakeClusteredPoints(2500, 5, 8, 31);
  core::IndexBuildOptions options;
  options.am = GetParam();
  options.xjb_x = 6;
  options.amap_samples = 64;
  auto built = core::BuildIndex(points, options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();

  const std::string path =
      ::testing::TempDir() + "/index_" + GetParam() + ".bwix";
  ASSERT_TRUE(core::SaveIndex(**built, path).ok());

  auto loaded = core::LoadIndex(path, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->tree().size(), points.size());
  EXPECT_EQ((*loaded)->tree().height(), (*built)->tree().height());
  ASSERT_TRUE((*loaded)->tree().Validate().ok());

  Rng rng(3);
  for (int trial = 0; trial < 8; ++trial) {
    const geom::Vec& q = points[rng.NextBelow(points.size())];
    auto a = (*built)->Knn(q, 25, nullptr);
    auto b = (*loaded)->Knn(q, 25, nullptr);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    for (size_t i = 0; i < 25; ++i) {
      EXPECT_EQ((*a)[i].rid, (*b)[i].rid);
      EXPECT_NEAR((*a)[i].distance, (*b)[i].distance, 1e-12);
    }
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(AllAms, PersistTest,
                         ::testing::Values("rtree", "rstar", "sstree",
                                           "srtree", "amap", "jb", "xjb"));

TEST(PersistFileTest, RejectsWrongExtension) {
  const auto points = testing::MakeUniformPoints(500, 3, 7);
  core::IndexBuildOptions options;
  options.am = "rtree";
  auto built = core::BuildIndex(points, options);
  ASSERT_TRUE(built.ok());
  const std::string path = ::testing::TempDir() + "/mismatch.bwix";
  ASSERT_TRUE(core::SaveIndex(**built, path).ok());

  auto loaded = gist::LoadIndexFile(path);
  ASSERT_TRUE(loaded.ok());
  // Attaching an SS-tree extension to an R-tree file must fail loudly.
  auto attach = loaded->AttachExtension(
      std::make_unique<am::SsTreeExtension>(3));
  EXPECT_EQ(attach.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(PersistFileTest, RejectsGarbageAndMissingFiles) {
  EXPECT_EQ(gist::LoadIndexFile("/nonexistent/z.bwix").status().code(),
            StatusCode::kIoError);
  const std::string path = ::testing::TempDir() + "/garbage.bwix";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("garbage bytes", f);
  std::fclose(f);
  EXPECT_EQ(gist::LoadIndexFile(path).status().code(),
            StatusCode::kCorruption);
  std::remove(path.c_str());
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
