// Property tests for the batched node-scan API: for every access
// method, BpMinDistanceBatch / BpConsistentRangeBatch and the leaf scan
// (gist::NodeScan::ScanLeaf) over random nodes must be bit-identical
// (exact double equality, not approximate) to the per-entry scalar
// methods they replace — that is the contract that lets the traversal
// layer batch unconditionally (gist/extension.h). The node-scan suites
// pin kernel dispatch to scalar (util::ScopedKernelIsa): exact equality
// is the SCALAR dispatch contract; the AVX2/FMA variants carry a
// ULP-bounded contract enforced by tests/kernel_dispatch_test.cc. The
// push-down contract — BpConsistentRangeBatch's distances of consistent
// entries equal BpMinDistanceBatch's — holds per dispatch, so it is
// checked under both. A traversal-level test additionally checks that
// batched degraded-mode search (skips under a fault budget) returns
// exactly the brute-force answer over the surviving points, with exact
// distances — that one runs under the build's default dispatch on
// purpose, since leaf/data distances never flow through the dispatched
// kernels.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/durable_index.h"
#include "core/index_factory.h"
#include "gist/extension.h"
#include "gist/node_scan.h"
#include "gist/tree.h"
#include "pages/page_file.h"
#include "pages/resident_reader.h"
#include "tests/test_helpers.h"
#include "util/cpu.h"
#include "util/random.h"

namespace bw {
namespace {

constexpr size_t kDim = 5;

const char* const kAms[] = {"rtree", "rstar", "sstree", "srtree",
                            "amap",  "jb",    "xjb"};

std::unique_ptr<gist::Extension> MakeExt(const std::string& am) {
  core::IndexBuildOptions options;
  options.am = am;
  options.amap_samples = 512;
  options.xjb_x = 6;
  auto ext = core::MakeExtension(kDim, options, 5000);
  EXPECT_TRUE(ext.ok()) << ext.status().ToString();
  return std::move(ext).value();
}

/// A random "node": `n` BPs, each built from its own point cluster.
struct RandomNode {
  std::vector<gist::Bytes> bps;
  gist::BatchScratch scratch;

  RandomNode(gist::Extension& ext, size_t n, uint64_t seed) {
    bps.reserve(n);
    scratch.preds.reserve(n);
    for (size_t e = 0; e < n; ++e) {
      const size_t leaf_points = 2 + (seed + e) % 40;
      bps.push_back(ext.BpFromPoints(testing::MakeClusteredPoints(
          leaf_points, kDim, 2, seed * 131 + e)));
    }
    for (const gist::Bytes& bp : bps) {
      scratch.preds.push_back(gist::ByteSpan(bp.data(), bp.size()));
    }
  }
};

class BatchKernelTest : public ::testing::TestWithParam<const char*> {};

TEST_P(BatchKernelTest, MinDistanceBatchBitIdentical) {
  util::ScopedKernelIsa pin(util::KernelIsa::kScalar);
  auto ext = MakeExt(GetParam());
  const auto queries = testing::MakeUniformPoints(16, kDim, 977);
  for (const size_t n : {size_t{1}, size_t{3}, size_t{17}, size_t{64},
                         size_t{96}}) {
    RandomNode node(*ext, n, 5000 + n);
    for (const geom::Vec& q : queries) {
      ext->BpMinDistanceBatch(node.scratch, q);
      ASSERT_EQ(node.scratch.distances.size(), n);
      for (size_t e = 0; e < n; ++e) {
        // Exact equality: the batch kernels promise the same doubles,
        // not merely close ones.
        EXPECT_EQ(node.scratch.distances[e],
                  ext->BpMinDistance(node.scratch.preds[e], q))
            << GetParam() << " entry " << e << " of " << n;
      }
    }
  }
}

TEST_P(BatchKernelTest, ConsistentRangeBatchBitIdentical) {
  util::ScopedKernelIsa pin(util::KernelIsa::kScalar);
  auto ext = MakeExt(GetParam());
  const auto queries = testing::MakeUniformPoints(8, kDim, 991);
  RandomNode node(*ext, 48, 77);
  for (const geom::Vec& q : queries) {
    // Radii that stress the <= boundary: 0, an exact per-entry scalar
    // distance (a forced tie), and a radius covering everything.
    ext->BpMinDistanceBatch(node.scratch, q);
    const std::vector<double> radii = {0.0, node.scratch.distances[7],
                                       node.scratch.distances[31], 1e6};
    for (const double radius : radii) {
      ext->BpConsistentRangeBatch(node.scratch, q, radius);
      ASSERT_EQ(node.scratch.consistent.size(), 48u);
      for (size_t e = 0; e < 48; ++e) {
        EXPECT_EQ(node.scratch.consistent[e] != 0,
                  ext->BpConsistentRange(node.scratch.preds[e], q, radius))
            << GetParam() << " entry " << e << " radius " << radius;
      }
    }
  }
}

// The push-down contract the searches rely on: wherever
// BpConsistentRangeBatch marks an entry consistent, its distance is the
// double BpMinDistanceBatch writes under the same dispatch, and an entry
// is consistent exactly when that double is <= radius.
TEST_P(BatchKernelTest, ConsistentRangeBatchDistancesMatchMinDistanceBatch) {
  auto ext = MakeExt(GetParam());
  const auto queries = testing::MakeUniformPoints(8, kDim, 4242);
  RandomNode node(*ext, 64, 313);
  for (const bool pin_scalar : {true, false}) {
    std::optional<util::ScopedKernelIsa> pin;
    if (pin_scalar) pin.emplace(util::KernelIsa::kScalar);
    for (const geom::Vec& q : queries) {
      ext->BpMinDistanceBatch(node.scratch, q);
      const std::vector<double> bounds = node.scratch.distances;
      std::vector<double> sorted = bounds;
      std::sort(sorted.begin(), sorted.end());
      // Radii at exact entry bounds (forced ties), between them, and
      // beyond all of them.
      const std::vector<double> radii = {0.0, sorted[3], sorted[20],
                                         sorted[40] + 1e-3, sorted[63],
                                         1e6};
      for (const double radius : radii) {
        ext->BpConsistentRangeBatch(node.scratch, q, radius);
        for (size_t e = 0; e < bounds.size(); ++e) {
          EXPECT_EQ(node.scratch.consistent[e] != 0, bounds[e] <= radius)
              << GetParam() << " entry " << e << " radius " << radius
              << " scalar " << pin_scalar;
          if (node.scratch.consistent[e]) {
            EXPECT_EQ(node.scratch.distances[e], bounds[e])
                << GetParam() << " entry " << e << " radius " << radius
                << " scalar " << pin_scalar;
          }
        }
      }
    }
  }
}

TEST_P(BatchKernelTest, PointDistanceBatchBitIdentical) {
  auto ext = MakeExt(GetParam());
  const auto points = testing::MakeClusteredPoints(80, kDim, 4, 1234);
  const auto queries = testing::MakeUniformPoints(16, kDim, 555);
  std::vector<gist::Bytes> keys;
  keys.reserve(points.size());
  for (const geom::Vec& p : points) keys.push_back(ext->EncodePoint(p));
  // The leaf scan decodes straight from page records: stage a real leaf.
  pages::Page page;
  gist::NodeView leaf(&page);
  leaf.Format(/*level=*/0);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(leaf.Append(keys[i], 1000 + i).ok());
  }
  gist::NodeScan scan;
  for (const geom::Vec& q : queries) {
    // An infinite bound keeps every point.
    scan.ScanLeaf(leaf, *ext, q, std::numeric_limits<double>::infinity());
    ASSERT_EQ(scan.count(), points.size());
    for (size_t e = 0; e < points.size(); ++e) {
      EXPECT_EQ(scan.payloads[e], 1000 + e);
      const double scalar = q.DistanceTo(ext->DecodePoint(keys[e]));
      EXPECT_EQ(scan.scratch.distances[e], scalar) << "entry " << e;
      EXPECT_EQ(scan.scratch.distances[e], ext->PointDistance(keys[e], q));
    }
  }
}

// The bounded leaf scan every search runs. The leaf's points sit on a
// coarse grid, so many lie at exactly the same distance from a query,
// and one record is erased first, so the records are not contiguous.
// For each bound, every point with PointDistance <= bound comes back
// with that exact distance and its rid, in page order; every point left
// out is farther than the bound; and a kept point beyond the bound is
// within the filter's rounding margin.
TEST_P(BatchKernelTest, BoundedLeafScanKeepsEveryPointWithinBound) {
  auto ext = MakeExt(GetParam());
  Rng rng(2024);
  pages::Page page;
  gist::NodeView leaf(&page);
  leaf.Format(/*level=*/0);
  std::vector<gist::Bytes> keys;
  std::vector<gist::Rid> rids;
  for (size_t i = 0; i < 120; ++i) {
    geom::Vec p(kDim);
    for (size_t d = 0; d < kDim; ++d) {
      p[d] = 0.25f * static_cast<float>(rng.NextBelow(5));
    }
    // Point 17 is stored twice, so two points tie at distance 0 from it.
    const size_t copies = i == 17 ? 2 : 1;
    for (size_t c = 0; c < copies; ++c) {
      keys.push_back(ext->EncodePoint(p));
      rids.push_back(7000 + keys.size());
      ASSERT_TRUE(leaf.Append(keys.back(), rids.back()).ok());
    }
  }
  ASSERT_TRUE(leaf.Erase(40).ok());
  keys.erase(keys.begin() + 40);
  rids.erase(rids.begin() + 40);

  std::vector<geom::Vec> queries = {ext->DecodePoint(keys[17]),
                                    geom::Vec(kDim, 0.5f)};
  queries.push_back(testing::MakeUniformPoints(1, kDim, 8080)[0]);
  gist::NodeScan scan;
  for (const geom::Vec& q : queries) {
    std::vector<double> dist;
    std::map<double, size_t> ties;
    for (const gist::Bytes& key : keys) {
      dist.push_back(ext->PointDistance(key, q));
      ++ties[dist.back()];
    }
    // The distance most points share, a stored point's exact distance.
    const auto most_tied = std::max_element(
        ties.begin(), ties.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    const double stored = most_tied->first;
    const double farthest = ties.rbegin()->first;
    const std::vector<double> bounds = {
        std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
        0.0,
        1e-200,  // its square underflows to 0.
        stored,
        std::nextafter(stored, 0.0),
        std::nextafter(stored, std::numeric_limits<double>::infinity()),
        rng.Uniform(0.0, farthest)};
    for (const double bound : bounds) {
      scan.ScanLeaf(leaf, *ext, q, bound);
      size_t j = 0;
      for (size_t e = 0; e < keys.size(); ++e) {
        if (j < scan.count() && scan.payloads[j] == rids[e]) {
          EXPECT_EQ(scan.scratch.distances[j], dist[e])
              << GetParam() << " entry " << e << " bound " << bound;
          if (dist[e] > bound) {
            EXPECT_LE(dist[e], bound * (1 + 0x1p-48))
                << GetParam() << " entry " << e << " bound " << bound;
          }
          ++j;
        } else {
          EXPECT_GT(dist[e], bound)
              << GetParam() << " entry " << e << " bound " << bound;
        }
      }
      EXPECT_EQ(j, scan.count()) << GetParam() << " bound " << bound;
    }
    // Every query has ties at `stored`: the grid makes them, and the two
    // copies of point 17 always tie.
    EXPECT_GE(most_tied->second, 2u) << GetParam();
  }
  // Two copies of point 17 tie at distance 0 from the first query.
  scan.ScanLeaf(leaf, *ext, queries[0], 0.0);
  EXPECT_EQ(scan.count(), 2u) << GetParam();
}

// A leaf record whose key is shorter than dim floats must abort in
// every build, in the leaf scan every search runs and in the scalar
// PointDistance, instead of reading past the record.
TEST(LeafScanDeathTest, ShortKeyAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto ext = MakeExt("xjb");
  const auto points = testing::MakeClusteredPoints(40, kDim, 2, 99);
  pages::PageFile file(4096);
  gist::Tree tree(&file, std::move(ext));
  for (size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(tree.Insert(points[i], i).ok());
  }
  ASSERT_EQ(tree.height(), 1);
  auto root = file.Write(tree.root());
  ASSERT_TRUE(root.ok());
  gist::NodeView leaf(*root);
  const gist::Bytes short_key(tree.extension().PointBytes() - sizeof(float),
                              0);
  ASSERT_TRUE(leaf.Append(short_key, 7777).ok());

  const geom::Vec& q = points[0];
  EXPECT_DEATH((void)tree.KnnSearch(q, 5, nullptr), "RecordLength");
  EXPECT_DEATH((void)tree.KnnSearchDfs(q, 5, nullptr), "RecordLength");
  EXPECT_DEATH((void)tree.RangeSearch(q, 1.0, nullptr), "RecordLength");
  EXPECT_DEATH((void)tree.extension().PointDistance(short_key, q),
               "PointBytes");
}

/// All RIDs stored under `page` (healthy tree walk).
void GatherRids(const gist::Tree& tree, pages::PageId page,
                std::set<gist::Rid>* out) {
  auto fetched = tree.VisitNode(page, nullptr, nullptr, nullptr);
  ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
  const gist::NodeView node(*fetched);
  if (node.IsLeaf()) {
    for (gist::Rid rid : tree.LeafRids(page)) out->insert(rid);
    return;
  }
  for (size_t i = 0; i < node.entry_count(); ++i) {
    GatherRids(tree, node.entry(i).ChildPage(), out);
  }
}

TEST_P(BatchKernelTest, DegradedBatchedSearchMatchesBruteForce) {
  const std::string am = GetParam();
  const auto points = testing::MakeClusteredPoints(1200, kDim, 8, 17);
  core::IndexBuildOptions build;
  build.am = am;
  build.xjb_x = 6;
  build.amap_samples = 512;
  const std::string base = ::testing::TempDir() + "/bk_" + am + ".bwpf";
  const std::string wal = ::testing::TempDir() + "/bk_" + am + ".bwwal";
  std::remove(base.c_str());
  std::remove(wal.c_str());
  auto built = core::BuildDurableIndex(points, build, base, wal);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  core::DurableIndex& index = **built;
  const gist::Tree& tree = index.tree();

  // Read through a ResidentReader, the serving read path.
  pages::ResidentReader reader(tree.file());

  const geom::Vec query = testing::MakeUniformPoints(1, kDim, 3)[0];
  constexpr size_t kK = 25;
  gist::TraversalStats stats;
  auto baseline = tree.KnnSearch(query, kK, &stats, &reader);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  // Victims: one visited leaf plus one visited non-root internal (when
  // the tree is deep enough), so the degraded traversal must skip at
  // both levels.
  ASSERT_FALSE(stats.accessed_leaves.empty());
  std::vector<pages::PageId> victims = {stats.accessed_leaves.front()};
  for (pages::PageId id : stats.accessed_internals) {
    if (id != tree.root()) {
      victims.push_back(id);
      break;
    }
  }
  std::set<gist::Rid> lost;
  for (pages::PageId id : victims) GatherRids(tree, id, &lost);
  ASSERT_FALSE(lost.empty());

  for (pages::PageId id : victims) {
    index.store().disk()->health().Quarantine(id);
  }
  gist::DegradedRead degraded;
  degraded.budget = 16;
  auto result = tree.KnnSearch(query, kK, nullptr, &reader, &degraded);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(degraded.degraded());

  // Exact expectation: brute-force k-NN over the surviving points, with
  // distances recomputed through the scalar geometry path.
  std::vector<std::pair<double, gist::Rid>> expected;
  for (size_t i = 0; i < points.size(); ++i) {
    if (lost.count(static_cast<gist::Rid>(i)) > 0) continue;
    expected.emplace_back(query.DistanceTo(points[i]),
                          static_cast<gist::Rid>(i));
  }
  std::sort(expected.begin(), expected.end());
  expected.resize(std::min(expected.size(), kK));

  ASSERT_EQ(result->size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ((*result)[i].distance, expected[i].first) << "rank " << i;
    EXPECT_EQ((*result)[i].rid, expected[i].second) << "rank " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllAms, BatchKernelTest, ::testing::ValuesIn(kAms),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace bw
