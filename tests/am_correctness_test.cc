// Cross-AM correctness suite: every access method (R, SS, SR, aMAP, JB,
// XJB) must return exactly the brute-force k-NN answer, satisfy the GiST
// structural invariants, and survive insertion loading and deletes.
// This is the strongest property the paper's framework relies on: BP
// distance functions must be admissible lower bounds or search silently
// loses results.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "am/bulk_load.h"
#include "core/index_factory.h"
#include "tests/test_helpers.h"

namespace bw {
namespace {

// gtest prints this param, byte by byte, into every test name. So it
// holds the AM name itself, not a pointer to it, and has no padding:
// every byte is defined and the same in every build and run.
struct AmCase {
  char name[15];
  bool insertion_loadable;
};
static_assert(sizeof(AmCase) == 16, "AmCase must have no padding bytes");

class AmCorrectnessTest : public ::testing::TestWithParam<AmCase> {
 protected:
  core::IndexBuildOptions Options() const {
    core::IndexBuildOptions options;
    options.am = GetParam().name;
    options.page_bytes = 4096;
    options.xjb_x = 6;
    options.amap_samples = 128;  // keep tests fast.
    return options;
  }
};

TEST_P(AmCorrectnessTest, BulkLoadedKnnMatchesBruteForce) {
  const auto points = testing::MakeClusteredPoints(3000, 5, 12, 99);
  auto built = core::BuildIndex(points, Options());
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto& index = **built;

  ASSERT_TRUE(index.tree().Validate().ok())
      << index.tree().Validate().ToString();
  EXPECT_EQ(index.tree().size(), points.size());

  Rng rng(7);
  for (int trial = 0; trial < 25; ++trial) {
    const geom::Vec& query = points[rng.NextBelow(points.size())];
    const size_t k = 1 + rng.NextBelow(60);
    auto result = index.Knn(query, k, nullptr);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->size(), k);

    const auto expected = testing::BruteForceKnn(points, query, k);
    // Compare distance sequences (sets may differ on exact ties).
    for (size_t i = 0; i < k; ++i) {
      const double expected_dist =
          std::sqrt(points[expected[i]].DistanceSquaredTo(query));
      EXPECT_NEAR((*result)[i].distance, expected_dist, 1e-4)
          << "rank " << i << " for AM " << GetParam().name;
    }
    // Results must be sorted.
    for (size_t i = 1; i < k; ++i) {
      EXPECT_LE((*result)[i - 1].distance, (*result)[i].distance + 1e-12);
    }
  }
}

TEST_P(AmCorrectnessTest, RangeSearchMatchesBruteForce) {
  const auto points = testing::MakeClusteredPoints(2000, 4, 8, 41);
  auto built = core::BuildIndex(points, Options());
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto& index = **built;

  Rng rng(13);
  for (int trial = 0; trial < 10; ++trial) {
    const geom::Vec& query = points[rng.NextBelow(points.size())];
    const double radius = rng.Uniform(1.0, 15.0);
    gist::TraversalStats stats;
    auto result = index.tree().RangeSearch(query, radius, &stats);
    ASSERT_TRUE(result.ok());

    std::set<gist::Rid> got;
    for (const auto& n : *result) got.insert(n.rid);

    std::set<gist::Rid> expected;
    for (size_t i = 0; i < points.size(); ++i) {
      if (points[i].DistanceTo(query) <= radius) expected.insert(i);
    }
    EXPECT_EQ(got, expected) << "AM " << GetParam().name;
  }
}

TEST_P(AmCorrectnessTest, InsertionLoadedKnnMatchesBruteForce) {
  if (!GetParam().insertion_loadable) GTEST_SKIP();
  auto options = Options();
  options.bulk_load = false;
  const auto points = testing::MakeClusteredPoints(900, 3, 6, 3);
  auto built = core::BuildIndex(points, options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto& index = **built;

  ASSERT_TRUE(index.tree().Validate().ok())
      << index.tree().Validate().ToString();
  EXPECT_EQ(index.tree().size(), points.size());

  Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    const geom::Vec& query = points[rng.NextBelow(points.size())];
    auto result = index.Knn(query, 20, nullptr);
    ASSERT_TRUE(result.ok());
    const auto expected = testing::BruteForceKnn(points, query, 20);
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_NEAR((*result)[i].distance,
                  std::sqrt(points[expected[i]].DistanceSquaredTo(query)),
                  1e-4);
    }
  }
}

TEST_P(AmCorrectnessTest, DeleteRemovesAndKeepsTreeValid) {
  if (!GetParam().insertion_loadable) GTEST_SKIP();
  auto options = Options();
  options.bulk_load = false;
  const auto points = testing::MakeClusteredPoints(400, 3, 4, 11);
  auto built = core::BuildIndex(points, options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto& tree = (*built)->tree();

  // Delete every third point.
  size_t deleted = 0;
  for (size_t i = 0; i < points.size(); i += 3) {
    Status st = tree.Delete(points[i], i);
    ASSERT_TRUE(st.ok()) << st.ToString() << " at " << i;
    ++deleted;
  }
  EXPECT_EQ(tree.size(), points.size() - deleted);
  ASSERT_TRUE(tree.Validate().ok()) << tree.Validate().ToString();

  // Deleted points are gone; survivors are findable.
  gist::TraversalStats stats;
  for (size_t i = 0; i < points.size(); ++i) {
    auto result = tree.RangeSearch(points[i], 0.0, &stats);
    ASSERT_TRUE(result.ok());
    bool found = false;
    for (const auto& n : *result) {
      if (n.rid == i) found = true;
    }
    EXPECT_EQ(found, i % 3 != 0) << "rid " << i;
  }

  // Deleting a missing pair reports NotFound.
  EXPECT_EQ(tree.Delete(points[0], 0).code(), StatusCode::kNotFound);
}

TEST_P(AmCorrectnessTest, TraversalStatsCountUniqueNodes) {
  const auto points = testing::MakeClusteredPoints(2000, 5, 10, 5);
  auto built = core::BuildIndex(points, Options());
  ASSERT_TRUE(built.ok());
  auto& index = **built;

  gist::TraversalStats stats;
  auto result = index.Knn(points[0], 50, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(stats.leaf_accesses, stats.accessed_leaves.size());
  EXPECT_EQ(stats.internal_accesses, stats.accessed_internals.size());
  // Best-first search never revisits a node.
  std::set<pages::PageId> unique_leaves(stats.accessed_leaves.begin(),
                                        stats.accessed_leaves.end());
  EXPECT_EQ(unique_leaves.size(), stats.accessed_leaves.size());
  EXPECT_GE(stats.leaf_accesses, 1u);
  EXPECT_GE(stats.internal_accesses, 1u);  // at least the root.
}

TEST_P(AmCorrectnessTest, DfsAndBestFirstAgreeAndDfsCostsAtLeastAsMuch) {
  const auto points = testing::MakeClusteredPoints(2500, 5, 9, 61);
  auto built = core::BuildIndex(points, Options());
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto& tree = (*built)->tree();

  Rng rng(19);
  for (int trial = 0; trial < 12; ++trial) {
    const geom::Vec& query = points[rng.NextBelow(points.size())];
    const size_t k = 5 + rng.NextBelow(80);
    gist::TraversalStats bf_stats, dfs_stats;
    auto bf = tree.KnnSearch(query, k, &bf_stats);
    auto dfs = tree.KnnSearchDfs(query, k, &dfs_stats);
    ASSERT_TRUE(bf.ok());
    ASSERT_TRUE(dfs.ok());
    ASSERT_EQ(bf->size(), dfs->size());
    for (size_t i = 0; i < bf->size(); ++i) {
      EXPECT_NEAR((*bf)[i].distance, (*dfs)[i].distance, 1e-9);
    }
    // Best-first is optimal for the given bounds; DFS can only match it
    // or wander further.
    EXPECT_GE(dfs_stats.TotalAccesses(), bf_stats.TotalAccesses());
  }
}

TEST_P(AmCorrectnessTest, BufferPoolDoesNotChangeAnswers) {
  const auto points = testing::MakeClusteredPoints(2000, 4, 7, 83);
  auto built = core::BuildIndex(points, Options());
  ASSERT_TRUE(built.ok());
  auto& index = **built;

  auto cold = index.Knn(points[3], 30, nullptr);
  ASSERT_TRUE(cold.ok());
  index.UseBufferPool(64);
  // Twice: once cold-through-pool, once fully cached.
  for (int round = 0; round < 2; ++round) {
    auto warm = index.Knn(points[3], 30, nullptr);
    ASSERT_TRUE(warm.ok());
    for (size_t i = 0; i < 30; ++i) {
      EXPECT_EQ((*warm)[i].rid, (*cold)[i].rid);
    }
  }
  EXPECT_GT(index.buffer_pool()->stats().hits, 0u);
}

TEST_P(AmCorrectnessTest, BulkThenDynamicInsertsKeepInvariants) {
  // Regression: bulk-load half the data, insert the rest, and validate.
  // An early-exit in the enlarge-upward insert path used to leave
  // ancestors of non-convex predicates (aMAP, JB/XJB) not covering
  // freshly inserted points.
  const auto points = testing::MakeUniformPoints(6000, 5, 47);
  const std::vector<geom::Vec> first(points.begin(), points.begin() + 3000);
  auto built = core::BuildIndex(first, Options());
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto& tree = (*built)->tree();
  for (size_t i = 3000; i < points.size(); ++i) {
    ASSERT_TRUE(tree.Insert(points[i], i).ok()) << i;
  }
  ASSERT_TRUE(tree.Validate().ok()) << tree.Validate().ToString();
  EXPECT_EQ(tree.size(), points.size());

  // And the mixed tree still answers exactly.
  Rng rng(7);
  for (int trial = 0; trial < 5; ++trial) {
    const geom::Vec& q = points[rng.NextBelow(points.size())];
    auto result = tree.KnnSearch(q, 30, nullptr);
    ASSERT_TRUE(result.ok());
    const auto expected = testing::BruteForceKnn(points, q, 30);
    for (size_t i = 0; i < 30; ++i) {
      EXPECT_NEAR((*result)[i].distance,
                  std::sqrt(points[expected[i]].DistanceSquaredTo(q)), 1e-4);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAccessMethods, AmCorrectnessTest,
    ::testing::Values(AmCase{"rtree", true}, AmCase{"rstar", true},
                      AmCase{"sstree", true},
                      AmCase{"srtree", true}, AmCase{"amap", true},
                      AmCase{"jb", true}, AmCase{"xjb", true}),
    [](const ::testing::TestParamInfo<AmCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace bw
