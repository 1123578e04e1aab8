// k-NN equivalence suite: on every access method (R, R*, SS, SR, aMAP,
// JB, XJB) the k-bounded best-first search reads exactly the nodes of
// the Hjaltason-Samet loop it replaced (tests/reference_knn.h), returns
// the same distances, and returns the k smallest (distance, rid) pairs
// in that order, as do the node cursor and depth-first branch and bound.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "core/index_factory.h"
#include "gist/nn_cursor.h"
#include "tests/reference_knn.h"
#include "tests/test_helpers.h"

namespace bw {
namespace {

class KnnReferenceTest : public ::testing::TestWithParam<std::string> {
 protected:
  core::IndexBuildOptions Options() const {
    core::IndexBuildOptions options;
    options.am = GetParam();
    options.page_bytes = 4096;
    options.xjb_x = 6;
    options.amap_samples = 128;  // keep tests fast.
    return options;
  }
};

std::multiset<pages::PageId> PageSet(const std::vector<pages::PageId>& ids) {
  return std::multiset<pages::PageId>(ids.begin(), ids.end());
}

void ExpectSameNodes(const gist::TraversalStats& got,
                     const gist::TraversalStats& want, const char* what) {
  EXPECT_EQ(got.leaf_accesses, want.leaf_accesses) << what;
  EXPECT_EQ(got.internal_accesses, want.internal_accesses) << what;
  EXPECT_EQ(PageSet(got.accessed_leaves), PageSet(want.accessed_leaves))
      << what;
  EXPECT_EQ(PageSet(got.accessed_internals), PageSet(want.accessed_internals))
      << what;
}

void ExpectSamePairs(const std::vector<gist::Neighbor>& got,
                     const std::vector<gist::Neighbor>& want,
                     const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].rid, want[i].rid) << what << " rank " << i;
    EXPECT_EQ(got[i].distance, want[i].distance) << what << " rank " << i;
  }
}

// The k-bounded best-first search against the Hjaltason-Samet loop it
// replaced (tests/reference_knn.h) and brute force: the same nodes, the
// same distances, and one order — the k smallest (distance, rid) pairs —
// from KnnSearch, a limited or unlimited NnCursor, and KnnSearchDfs.
// Points snapped to a coarse grid make many distances tie exactly.
TEST_P(KnnReferenceTest, KnnReadsReferenceNodesInOneOrder) {
  constexpr size_t kPoints = 2000;
  constexpr size_t kDim = 5;
  const auto clustered = testing::MakeClusteredPoints(kPoints, kDim, 10, 71);
  const auto snap = [](geom::Vec& v) {
    for (size_t d = 0; d < v.dim(); ++d) {
      v[d] = 2.0f * std::round(v[d] / 2.0f);
    }
  };
  const std::vector<geom::Vec> snapped = [&] {
    std::vector<geom::Vec> out = clustered;
    for (geom::Vec& p : out) snap(p);
    return out;
  }();

  for (const auto* points : {&clustered, &snapped}) {
    const bool tied = points == &snapped;
    auto built = core::BuildIndex(*points, Options());
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const gist::Tree& tree = (*built)->tree();
    const gist::Extension& ext = tree.extension();

    std::vector<geom::Vec> queries;
    Rng rng(tied ? 5 : 3);
    for (int i = 0; i < 4; ++i) {
      queries.push_back((*points)[rng.NextBelow(points->size())]);
    }
    for (geom::Vec q : testing::MakeUniformPoints(4, kDim, tied ? 8 : 9)) {
      if (tied) snap(q);
      queries.push_back(q);
    }

    for (const geom::Vec& q : queries) {
      // Brute force by (Extension::PointDistance, rid).
      std::vector<gist::Neighbor> brute;
      for (size_t i = 0; i < points->size(); ++i) {
        gist::Neighbor n;
        n.rid = i;
        n.distance = ext.PointDistance(ext.EncodePoint((*points)[i]), q);
        brute.push_back(n);
      }
      std::sort(brute.begin(), brute.end(), gist::NeighborLess);

      for (const size_t k : {size_t{1}, size_t{10}, size_t{200},
                             points->size() + 5}) {
        SCOPED_TRACE(::testing::Message()
                     << GetParam() << (tied ? " snapped" : " clustered")
                     << " k=" << k);
        gist::TraversalStats ref_stats, stats;
        auto ref = gist::reference::KnnSearch(tree, q, k, &ref_stats);
        auto got = tree.KnnSearch(q, k, &stats);
        ASSERT_TRUE(ref.ok()) << ref.status().ToString();
        ASSERT_TRUE(got.ok()) << got.status().ToString();

        // Same distances, element by element, and the same nodes.
        ASSERT_EQ(got->size(), ref->size());
        for (size_t i = 0; i < ref->size(); ++i) {
          EXPECT_EQ((*got)[i].distance, (*ref)[i].distance) << "rank " << i;
        }
        ExpectSameNodes(stats, ref_stats, "KnnSearch vs reference");

        // One order: the k smallest (distance, rid) pairs.
        const std::vector<gist::Neighbor> want(
            brute.begin(),
            brute.begin() + static_cast<long>(std::min(k, brute.size())));
        ExpectSamePairs(*got, want, "KnnSearch vs brute force");

        // A cursor limited to k yields exactly KnnSearch(q, k), reads
        // the same nodes, and ends there.
        gist::TraversalStats limited_stats;
        gist::NnCursor limited(tree, q, &limited_stats, nullptr, nullptr, k);
        std::vector<gist::Neighbor> streamed;
        for (;;) {
          auto next = limited.Next();
          ASSERT_TRUE(next.ok());
          if (!next->has_value()) break;
          streamed.push_back(**next);
        }
        ExpectSamePairs(streamed, *got, "limited cursor");
        ExpectSameNodes(limited_stats, stats, "limited cursor");
        auto after = limited.Next();
        ASSERT_TRUE(after.ok());
        EXPECT_FALSE(after->has_value());

        // An unlimited cursor's first k results are the same pairs.
        gist::NnCursor unlimited(tree, q);
        streamed.clear();
        while (streamed.size() < got->size()) {
          auto next = unlimited.Next();
          ASSERT_TRUE(next.ok());
          ASSERT_TRUE(next->has_value());
          streamed.push_back(**next);
        }
        ExpectSamePairs(streamed, *got, "unlimited cursor");

        // Depth-first branch and bound returns exactly the same pairs.
        auto dfs = tree.KnnSearchDfs(q, k, nullptr);
        ASSERT_TRUE(dfs.ok());
        ExpectSamePairs(*dfs, *got, "KnnSearchDfs");
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAccessMethods, KnnReferenceTest,
    ::testing::Values("rtree", "rstar", "sstree", "srtree", "amap", "jb",
                      "xjb"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
}  // namespace bw
