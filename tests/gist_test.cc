// Unit tests for the GiST framework itself: node layout, tree structure
// maintenance under inserts/splits/deletes, validation, searches, the
// best-first vs DFS k-NN equivalence and the k-NN candidate heap.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <set>
#include <vector>

#include "pages/page_file.h"
#include "am/bulk_load.h"
#include "am/rtree.h"
#include "gist/node.h"
#include "gist/node_scan.h"
#include "gist/tree.h"
#include "tests/test_helpers.h"
#include "util/random.h"

namespace bw::gist {
namespace {

std::unique_ptr<Tree> MakeRtree(pages::PageFile* file, size_t dim = 3) {
  return std::make_unique<Tree>(file,
                                std::make_unique<am::RtreeExtension>(dim));
}

TEST(NodeViewTest, FormatAndAppend) {
  pages::Page page(1024);
  NodeView node(&page);
  node.Format(2);
  EXPECT_TRUE(node.IsFormatted());
  EXPECT_EQ(node.level(), 2);
  EXPECT_FALSE(node.IsLeaf());

  Bytes pred = {1, 2, 3, 4};
  ASSERT_TRUE(node.Append(pred, 0xABCDEF).ok());
  ASSERT_EQ(node.entry_count(), 1u);
  EntryView e = node.entry(0);
  EXPECT_EQ(e.payload, 0xABCDEFu);
  ASSERT_EQ(e.predicate.size(), 4u);
  EXPECT_EQ(e.predicate[2], 3);
}

TEST(NodeViewTest, UpdatePredicateKeepsPayload) {
  pages::Page page(1024);
  NodeView node(&page);
  node.Format(0);
  ASSERT_TRUE(node.Append(Bytes{9, 9}, 77).ok());
  ASSERT_TRUE(node.UpdatePredicate(0, Bytes{1, 2, 3}).ok());
  EntryView e = node.entry(0);
  EXPECT_EQ(e.payload, 77u);
  EXPECT_EQ(e.predicate.size(), 3u);
}

TEST(NodeViewTest, HasRoomForAccountsForPayload) {
  pages::Page page(512);
  NodeView node(&page);
  node.Format(0);
  size_t appended = 0;
  Bytes pred(20, 1);
  while (node.HasRoomFor(pred.size())) {
    ASSERT_TRUE(node.Append(pred, appended).ok());
    ++appended;
  }
  // One more append must genuinely fail.
  EXPECT_FALSE(node.Append(pred, 999).ok());
  EXPECT_GT(appended, 10u);
}

TEST(TreeTest, EmptyTreeBehaves) {
  pages::PageFile file(4096);
  auto tree = MakeRtree(&file);
  EXPECT_TRUE(tree->empty());
  EXPECT_EQ(tree->height(), 0);
  EXPECT_TRUE(tree->Validate().ok());
  auto knn = tree->KnnSearch(geom::Vec(3), 5, nullptr);
  ASSERT_TRUE(knn.ok());
  EXPECT_TRUE(knn->empty());
  EXPECT_EQ(tree->Delete(geom::Vec(3), 0).code(), StatusCode::kNotFound);
}

TEST(TreeTest, SingleInsertMakesLeafRoot) {
  pages::PageFile file(4096);
  auto tree = MakeRtree(&file);
  ASSERT_TRUE(tree->Insert(geom::Vec{1.0f, 2.0f, 3.0f}, 42).ok());
  EXPECT_EQ(tree->height(), 1);
  EXPECT_EQ(tree->size(), 1u);
  auto knn = tree->KnnSearch(geom::Vec{1.0f, 2.0f, 3.0f}, 1, nullptr);
  ASSERT_TRUE(knn.ok());
  ASSERT_EQ(knn->size(), 1u);
  EXPECT_EQ((*knn)[0].rid, 42u);
  EXPECT_DOUBLE_EQ((*knn)[0].distance, 0.0);
}

TEST(TreeTest, DimensionMismatchRejected) {
  pages::PageFile file(4096);
  auto tree = MakeRtree(&file, 3);
  EXPECT_EQ(tree->Insert(geom::Vec(4), 0).code(),
            StatusCode::kInvalidArgument);
}

TEST(TreeTest, GrowsInHeightUnderInserts) {
  pages::PageFile file(1024);  // small pages force early splits
  auto tree = MakeRtree(&file, 3);
  const auto points = testing::MakeUniformPoints(2000, 3, 5);
  for (size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(tree->Insert(points[i], i).ok());
  }
  EXPECT_GE(tree->height(), 3);
  EXPECT_EQ(tree->size(), points.size());
  ASSERT_TRUE(tree->Validate().ok()) << tree->Validate().ToString();

  // Every point findable by exact-match range search.
  for (size_t i = 0; i < points.size(); i += 97) {
    auto hits = tree->RangeSearch(points[i], 0.0, nullptr);
    ASSERT_TRUE(hits.ok());
    bool found = false;
    for (const auto& n : *hits) found |= (n.rid == i);
    EXPECT_TRUE(found) << i;
  }
}

TEST(TreeTest, DuplicatePointsDistinctRids) {
  pages::PageFile file(4096);
  auto tree = MakeRtree(&file, 3);
  geom::Vec p{1.0f, 1.0f, 1.0f};
  for (Rid rid = 0; rid < 500; ++rid) {
    ASSERT_TRUE(tree->Insert(p, rid).ok());
  }
  ASSERT_TRUE(tree->Validate().ok());
  auto hits = tree->RangeSearch(p, 0.0, nullptr);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 500u);
  // Delete one specific rid among identical keys.
  ASSERT_TRUE(tree->Delete(p, 250).ok());
  hits = tree->RangeSearch(p, 0.0, nullptr);
  EXPECT_EQ(hits->size(), 499u);
}

TEST(TreeTest, DeleteEverythingEmptiesTree) {
  pages::PageFile file(2048);
  auto tree = MakeRtree(&file, 2);
  const auto points = testing::MakeUniformPoints(300, 2, 9);
  for (size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(tree->Insert(points[i], i).ok());
  }
  for (size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(tree->Delete(points[i], i).ok()) << i;
  }
  EXPECT_EQ(tree->size(), 0u);
  ASSERT_TRUE(tree->Validate().ok()) << tree->Validate().ToString();
  auto knn = tree->KnnSearch(points[0], 5, nullptr);
  ASSERT_TRUE(knn.ok());
  EXPECT_TRUE(knn->empty());
}

TEST(TreeTest, RootShrinksAfterMassDeletes) {
  pages::PageFile file(1024);
  auto tree = MakeRtree(&file, 2);
  const auto points = testing::MakeUniformPoints(1000, 2, 13);
  for (size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(tree->Insert(points[i], i).ok());
  }
  const int tall = tree->height();
  EXPECT_GE(tall, 3);
  for (size_t i = 0; i + 3 < points.size(); ++i) {
    ASSERT_TRUE(tree->Delete(points[i], i).ok());
  }
  // With 3 points left, condensation must have collapsed the tree.
  EXPECT_LT(tree->height(), tall);
  ASSERT_TRUE(tree->Validate().ok());
  EXPECT_EQ(tree->size(), 3u);
}

TEST(TreeTest, BestFirstAndDfsKnnAgree) {
  pages::PageFile file(2048);
  auto tree = MakeRtree(&file, 4);
  const auto points = testing::MakeClusteredPoints(3000, 4, 10, 17);
  std::vector<Rid> rids(points.size());
  std::iota(rids.begin(), rids.end(), 0);
  ASSERT_TRUE(am::StrBulkLoad(tree.get(), points, rids).ok());

  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const geom::Vec& q = points[rng.NextBelow(points.size())];
    const size_t k = 1 + rng.NextBelow(40);
    auto a = tree->KnnSearch(q, k, nullptr);
    auto b = tree->KnnSearchDfs(q, k, nullptr);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->size(), b->size());
    for (size_t i = 0; i < a->size(); ++i) {
      EXPECT_EQ((*a)[i].rid, (*b)[i].rid);
      EXPECT_EQ((*a)[i].distance, (*b)[i].distance);
    }
  }
}

TEST(TreeTest, DfsNeverAccessesFewerNodesThanBestFirst) {
  pages::PageFile file(2048);
  auto tree = MakeRtree(&file, 4);
  const auto points = testing::MakeClusteredPoints(4000, 4, 8, 23);
  std::vector<Rid> rids(points.size());
  std::iota(rids.begin(), rids.end(), 0);
  ASSERT_TRUE(am::StrBulkLoad(tree.get(), points, rids).ok());

  Rng rng(5);
  for (int trial = 0; trial < 15; ++trial) {
    const geom::Vec& q = points[rng.NextBelow(points.size())];
    TraversalStats bf, dfs;
    ASSERT_TRUE(tree->KnnSearch(q, 50, &bf).ok());
    ASSERT_TRUE(tree->KnnSearchDfs(q, 50, &dfs).ok());
    EXPECT_GE(dfs.TotalAccesses(), bf.TotalAccesses());
  }
}

TEST(TreeTest, ShapeReportsPerLevelStructure) {
  pages::PageFile file(2048);
  auto tree = MakeRtree(&file, 3);
  const auto points = testing::MakeUniformPoints(5000, 3, 29);
  std::vector<Rid> rids(points.size());
  std::iota(rids.begin(), rids.end(), 0);
  ASSERT_TRUE(am::StrBulkLoad(tree.get(), points, rids).ok());

  TreeShape shape = tree->Shape();
  EXPECT_EQ(shape.height, tree->height());
  EXPECT_EQ(shape.LeafEntries(), points.size());
  EXPECT_EQ(shape.nodes_per_level.back(), 1u);  // single root.
  // Level sizes strictly decrease going up.
  for (size_t l = 1; l < shape.nodes_per_level.size(); ++l) {
    EXPECT_LT(shape.nodes_per_level[l], shape.nodes_per_level[l - 1]);
  }
  // Bulk-loaded leaves near target utilization.
  EXPECT_GT(shape.avg_utilization_per_level[0], 0.75);
}

TEST(TreeTest, LeafIterationCoversAllRids) {
  pages::PageFile file(2048);
  auto tree = MakeRtree(&file, 3);
  const auto points = testing::MakeUniformPoints(1500, 3, 31);
  std::vector<Rid> rids(points.size());
  std::iota(rids.begin(), rids.end(), 0);
  ASSERT_TRUE(am::StrBulkLoad(tree.get(), points, rids).ok());

  std::set<Rid> seen;
  tree->ForEachNode([&](pages::PageId id, const NodeView& node) {
    if (!node.IsLeaf()) return;
    for (Rid rid : tree->LeafRids(id)) {
      EXPECT_TRUE(seen.insert(rid).second) << "duplicate rid " << rid;
    }
  });
  EXPECT_EQ(seen.size(), points.size());
}

TEST(TreeTest, RangeSearchRadiusZeroFindsOnlyExact) {
  pages::PageFile file(2048);
  auto tree = MakeRtree(&file, 2);
  ASSERT_TRUE(tree->Insert(geom::Vec{0.0f, 0.0f}, 1).ok());
  ASSERT_TRUE(tree->Insert(geom::Vec{0.5f, 0.0f}, 2).ok());
  auto hits = tree->RangeSearch(geom::Vec{0.0f, 0.0f}, 0.0, nullptr);
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_EQ((*hits)[0].rid, 1u);
}

TEST(TreeTest, KnnKLargerThanTreeReturnsAll) {
  pages::PageFile file(2048);
  auto tree = MakeRtree(&file, 2);
  for (Rid i = 0; i < 10; ++i) {
    ASSERT_TRUE(tree->Insert(geom::Vec{float(i), 0.0f}, i).ok());
  }
  auto knn = tree->KnnSearch(geom::Vec{0.0f, 0.0f}, 100, nullptr);
  ASSERT_TRUE(knn.ok());
  EXPECT_EQ(knn->size(), 10u);
}

// k far beyond the tree's size costs nothing up front: the candidate
// heap is sized by what it can hold, at most the tree's size. A search
// that sized it by k would ask for more memory than exists here
// (SIZE_MAX keys cannot even be requested) and fail instead of
// answering.
TEST(TreeTest, HugeKReturnsEveryPointWithoutSizingForK) {
  pages::PageFile file(1024);
  auto tree = MakeRtree(&file, 3);
  const auto points = testing::MakeUniformPoints(100, 3, 4321);
  for (Rid i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(tree->Insert(points[i], i).ok());
  }
  const geom::Vec& q = points[5];
  std::vector<Neighbor> truth;
  for (Rid i = 0; i < points.size(); ++i) {
    truth.push_back(Neighbor{i, q.DistanceTo(points[i])});
  }
  std::sort(truth.begin(), truth.end(), NeighborLess);
  for (const size_t k : {size_t{UINT32_MAX}, SIZE_MAX}) {
    auto best_first = tree->KnnSearch(q, k, nullptr);
    auto dfs = tree->KnnSearchDfs(q, k, nullptr);
    ASSERT_TRUE(best_first.ok()) << best_first.status().ToString();
    ASSERT_TRUE(dfs.ok()) << dfs.status().ToString();
    ASSERT_EQ(best_first->size(), points.size());
    ASSERT_EQ(dfs->size(), points.size());
    for (size_t i = 0; i < truth.size(); ++i) {
      EXPECT_EQ((*best_first)[i].rid, truth[i].rid) << i;
      EXPECT_EQ((*best_first)[i].distance, truth[i].distance) << i;
      EXPECT_EQ((*dfs)[i].rid, truth[i].rid) << i;
      EXPECT_EQ((*dfs)[i].distance, truth[i].distance) << i;
    }
  }
}

// TopK against a reference that keeps every offered neighbor sorted by
// NeighborLess. Distances come from a few values, so most offers tie
// with others and the rid decides; rids are distinct and spread over
// all 64 bits (rid 0 included), and k runs from 1 to more than is
// offered. After every offer, Offer() says whether the neighbor ranks
// among the k smallest and Bound() is the reference k-th distance; at
// the end Sorted() is the reference prefix, leaf ids included.
TEST(TopKTest, MatchesNeighborLessReference) {
  Rng rng(99);
  for (const size_t k : {size_t{1}, size_t{7}, size_t{200}, size_t{5000}}) {
    for (int stream = 0; stream < 3; ++stream) {
      const size_t offers = 300 + rng.NextBelow(1200);
      TopK top(k);
      std::vector<Neighbor> reference;
      for (size_t i = 0; i < offers; ++i) {
        const Neighbor n{
            static_cast<Rid>(i * 0x9E3779B97F4A7C15ULL),
            0.125 * std::sqrt(static_cast<double>(rng.NextBelow(24))),
            static_cast<pages::PageId>(rng.NextBelow(50))};
        const auto at = std::upper_bound(reference.begin(), reference.end(),
                                         n, NeighborLess);
        const size_t rank = static_cast<size_t>(at - reference.begin());
        reference.insert(at, n);
        EXPECT_EQ(top.Offer(n), rank < k) << "k " << k << " offer " << i;
        const double kth = reference.size() >= k
                               ? reference[k - 1].distance
                               : std::numeric_limits<double>::infinity();
        ASSERT_EQ(top.Bound(), kth) << "k " << k << " offer " << i;
        ASSERT_EQ(top.full(), reference.size() >= k);
      }
      const std::vector<Neighbor> sorted = std::move(top).Sorted();
      ASSERT_EQ(sorted.size(), std::min(k, offers));
      for (size_t i = 0; i < sorted.size(); ++i) {
        EXPECT_EQ(sorted[i].rid, reference[i].rid) << "k " << k << " at " << i;
        EXPECT_EQ(sorted[i].distance, reference[i].distance)
            << "k " << k << " at " << i;
        EXPECT_EQ(sorted[i].leaf, reference[i].leaf)
            << "k " << k << " at " << i;
      }
    }
  }
}

}  // namespace
}  // namespace bw::gist
