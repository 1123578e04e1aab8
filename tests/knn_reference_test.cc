// k-NN equivalence suite: on every access method (R, R*, SS, SR, aMAP,
// JB, XJB) the k-bounded best-first search reads exactly the nodes of
// the Hjaltason-Samet loop it replaced (tests/reference_knn.h), returns
// the same distances, and returns the k smallest (distance, rid) pairs
// in that order, as does depth-first branch and bound. A radius-bounded
// search returns the radius prefix from a subset of those nodes, and a
// search cut by its deadline returns a prefix of the full answer.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "core/index_factory.h"
#include "pages/resident_reader.h"
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

// A reader whose deadline falls on fetch `refuse_at` (0-based): that
// fetch is refused with kAborted, as pages::ResidentReader refuses a
// fetch past its deadline; every other one is served.
class RefusingReader final : public pages::PageReader {
 public:
  RefusingReader(const pages::PageStore* store, size_t refuse_at)
      : inner_(store), refuse_at_(refuse_at) {}

  Result<pages::Page*> Fetch(pages::PageId id) override {
    if (fetches_++ == refuse_at_) {
      return Status::Aborted("deadline refused the fetch (test)");
    }
    return inner_.Fetch(id);
  }

 private:
  pages::ResidentReader inner_;
  size_t refuse_at_;
  size_t fetches_ = 0;
};

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
// from KnnSearch and KnnSearchDfs. With a radius or a deadline the
// search returns a prefix of that answer. Points snapped to a coarse
// grid make many distances tie exactly.
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

        // A radius d_m, the distance at rank m, returns the <= d_m prefix
        // of the answer, bit for bit, from a subset of its nodes.
        if (!got->empty()) {
          const double d_m = (*got)[got->size() / 2].distance;
          std::vector<gist::Neighbor> prefix;
          for (const gist::Neighbor& n : *got) {
            if (n.distance <= d_m) prefix.push_back(n);
          }
          gist::TraversalStats radius_stats;
          auto bounded =
              tree.KnnSearch(q, k, &radius_stats, nullptr, nullptr, d_m);
          ASSERT_TRUE(bounded.ok()) << bounded.status().ToString();
          ExpectSamePairs(*bounded, prefix, "radius prefix");
          const auto read = PageSet(stats.accessed_leaves);
          const auto bounded_read = PageSet(radius_stats.accessed_leaves);
          EXPECT_TRUE(std::includes(read.begin(), read.end(),
                                    bounded_read.begin(), bounded_read.end()))
              << "radius search read a leaf the full search did not";
          const auto internals = PageSet(stats.accessed_internals);
          const auto bounded_internals =
              PageSet(radius_stats.accessed_internals);
          EXPECT_TRUE(std::includes(internals.begin(), internals.end(),
                                    bounded_internals.begin(),
                                    bounded_internals.end()))
              << "radius search read an internal node the full search did "
                 "not";
        }

        // A deadline that refuses fetch n, for every n up to the nodes
        // read: the answer is a prefix of the full one, flagged.
        const size_t nodes_read = stats.TotalAccesses();
        for (size_t n = 0; n <= nodes_read; ++n) {
          RefusingReader reader(tree.file(), n);
          bool truncated = false;
          auto cut = tree.KnnSearch(q, k, nullptr, &reader, nullptr,
                                    std::numeric_limits<double>::infinity(),
                                    &truncated);
          ASSERT_TRUE(cut.ok()) << cut.status().ToString();
          EXPECT_EQ(truncated, n < nodes_read) << "refused fetch " << n;
          ASSERT_LE(cut->size(), got->size()) << "refused fetch " << n;
          const std::vector<gist::Neighbor> head(
              got->begin(), got->begin() + static_cast<long>(cut->size()));
          ExpectSamePairs(*cut, head, "deadline prefix");
        }

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
