// Tests for the paper's core contribution (src/core): corner bites and
// the MAP/JB/XJB bounding predicates. The central properties:
//
//  * no bite ever contains a content element (covering preserved),
//  * JaggedMinDistance is an admissible lower bound on the distance to
//    any covered point, and exact when the clamp point is in the region,
//  * the maximal-bite construction dominates the Figure-13 nibble,
//  * both constructions return exactly the reference bites
//    (tests/reference_bites.h), so tree pages stay byte-identical,
//  * codecs round-trip and match Table 3 sizes,
//  * auto-X selection never grows the estimated tree height.

#include <gtest/gtest.h>

#include <cmath>

#include "core/bites.h"
#include "core/index_factory.h"
#include "core/jagged.h"
#include "core/map_tree.h"
#include "gist/node.h"
#include "tests/reference_bites.h"
#include "tests/test_helpers.h"
#include "util/crc32.h"
#include "util/random.h"

namespace bw::core {
namespace {

std::vector<geom::Rect> AsRects(const std::vector<geom::Vec>& points) {
  std::vector<geom::Rect> rects;
  rects.reserve(points.size());
  for (const auto& p : points) rects.emplace_back(p);
  return rects;
}

// ---------------------------------------------------------------------------
// Bites
// ---------------------------------------------------------------------------

class BiteConstructionTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BiteConstructionTest, NibbledBitesContainNoContent) {
  const size_t dim = GetParam();
  Rng rng(dim * 100 + 1);
  for (int trial = 0; trial < 20; ++trial) {
    const auto points =
        testing::MakeClusteredPoints(60, dim, 3, trial * 7 + dim);
    const auto contents = AsRects(points);
    const geom::Rect mbr = geom::Rect::BoundingBox(points);
    const std::vector<std::vector<Bite>> constructions = {
        NibbleAllCorners(mbr, contents), MaxVolumeCorners(mbr, contents)};
    for (const auto& bites : constructions) {
      for (const Bite& bite : bites) {
        for (const auto& p : points) {
          EXPECT_FALSE(PointInsideBite(mbr, bite, p))
              << "dim=" << dim << " corner=" << bite.corner;
        }
      }
    }
  }
}

TEST_P(BiteConstructionTest, MaxVolumeDominatesNibble) {
  const size_t dim = GetParam();
  for (int trial = 0; trial < 10; ++trial) {
    const auto points =
        testing::MakeClusteredPoints(50, dim, 2, trial * 13 + dim);
    const auto contents = AsRects(points);
    const geom::Rect mbr = geom::Rect::BoundingBox(points);
    const auto nibbled = NibbleAllCorners(mbr, contents);
    const auto maximal = MaxVolumeCorners(mbr, contents);
    ASSERT_EQ(nibbled.size(), maximal.size());
    for (size_t c = 0; c < nibbled.size(); ++c) {
      EXPECT_GE(maximal[c].Volume(mbr), nibbled[c].Volume(mbr) - 1e-12);
    }
  }
}

TEST_P(BiteConstructionTest, JaggedMinDistanceIsAdmissible) {
  const size_t dim = GetParam();
  Rng rng(dim * 31);
  for (int trial = 0; trial < 15; ++trial) {
    const auto points =
        testing::MakeClusteredPoints(40, dim, 2, trial * 3 + dim * 11);
    const auto contents = AsRects(points);
    const geom::Rect mbr = geom::Rect::BoundingBox(points);
    const auto bites = MaxVolumeCorners(mbr, contents);
    const auto queries = testing::MakeUniformPoints(30, dim, trial + 5);
    for (const auto& q : queries) {
      const double bound = JaggedMinDistance(mbr, bites, q);
      for (const auto& p : points) {
        EXPECT_LE(bound, q.DistanceTo(p) + 1e-5)
            << "bound must never exceed a covered point's distance";
      }
      // And it is at least as tight as the raw MBR bound.
      EXPECT_GE(bound + 1e-9, std::sqrt(mbr.MinDistanceSquared(q)));
    }
  }
}

// Snaps every coordinate to a multiple of `step`.
std::vector<geom::Rect> SnapToGrid(const std::vector<geom::Rect>& rects,
                                   float step) {
  std::vector<geom::Rect> snapped;
  for (const geom::Rect& r : rects) {
    geom::Vec lo = r.lo();
    geom::Vec hi = r.hi();
    for (size_t d = 0; d < lo.dim(); ++d) {
      lo[d] = step * std::round(lo[d] / step);
      hi[d] = step * std::round(hi[d] / step);
    }
    snapped.emplace_back(lo, hi);
  }
  return snapped;
}

// Content sets for MatchesReference at dimension `dim`: clustered
// points, child rectangles as at internal levels, both also snapped to
// a coarse grid (many contents share each coordinate, so nibble groups
// and extension ties are large), and a grid centered on zero whose
// first axis holds both +0.0 and -0.0.
std::vector<std::vector<geom::Rect>> ReferenceCases(size_t dim) {
  std::vector<std::vector<geom::Rect>> cases;
  const std::vector<size_t> sizes =
      dim <= 5 ? std::vector<size_t>{1, 2, 3, 5, 9, 24, 70, 160, 300}
               : std::vector<size_t>{1, 2, 3, 6, 17, 50, 120};
  for (size_t n : sizes) {
    const uint64_t seed = n * 131 + dim;
    const auto points = testing::MakeClusteredPoints(n, dim, 3, seed);
    cases.push_back(AsRects(points));
    cases.push_back(SnapToGrid(cases.back(), 20.0f));

    std::vector<geom::Rect> children;
    const auto corners = testing::MakeClusteredPoints(2 * n, dim, 3, seed + 1);
    for (size_t i = 0; i < n; ++i) {
      children.push_back(
          geom::Rect::BoundingBox({corners[2 * i], corners[2 * i + 1]}));
    }
    cases.push_back(std::move(children));
    cases.push_back(SnapToGrid(cases.back(), 20.0f));

    std::vector<geom::Rect> zeros;
    for (size_t i = 0; i < points.size(); ++i) {
      geom::Vec p = points[i];
      for (size_t d = 0; d < dim; ++d) {
        p[d] = 25.0f * std::round((p[d] - 50.0f) / 25.0f);
      }
      if (p[0] == 0.0f) p[0] = (i % 2 == 0) ? 0.0f : -0.0f;
      zeros.emplace_back(p);
    }
    cases.push_back(std::move(zeros));
  }
  return cases;
}

void ExpectSameBites(const std::vector<Bite>& got,
                     const std::vector<Bite>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t c = 0; c < want.size(); ++c) {
    ASSERT_EQ(got[c].corner, want[c].corner) << what;
    ASSERT_EQ(got[c].inner.dim(), want[c].inner.dim()) << what;
    for (size_t d = 0; d < want[c].inner.dim(); ++d) {
      // Float ==: the reference's sort-and-unique leaves the sign of a
      // zero to the library; every other coordinate matches bit for bit.
      ASSERT_EQ(got[c].inner[d], want[c].inner[d])
          << what << " corner=" << c << " d=" << d;
    }
  }
}

void ExpectMatchesReference(size_t dim) {
  const auto cases = ReferenceCases(dim);
  bool saw_signed_zeros = false;
  for (size_t k = 0; k < cases.size(); ++k) {
    const auto& contents = cases[k];
    for (const geom::Rect& r : contents) {
      saw_signed_zeros |= r.lo()[0] == 0.0f && std::signbit(r.lo()[0]);
    }
    const geom::Rect mbr = geom::Rect::BoundingBoxOfRects(contents);
    const std::string what = "dim=" + std::to_string(dim) +
                             " case=" + std::to_string(k) +
                             " n=" + std::to_string(contents.size());
    ExpectSameBites(NibbleAllCorners(mbr, contents),
                    reference::NibbleAllCorners(mbr, contents),
                    "nibble " + what);
    ExpectSameBites(MaxVolumeCorners(mbr, contents),
                    reference::MaxVolumeCorners(mbr, contents),
                    "maxvol " + what);
  }
  EXPECT_TRUE(saw_signed_zeros);
}

TEST_P(BiteConstructionTest, MatchesReference) {
  ExpectMatchesReference(GetParam());
}

// One dimension: every content blocks the extension from the start.
TEST(BiteTest, MatchesReferenceInOneDimension) { ExpectMatchesReference(1); }

INSTANTIATE_TEST_SUITE_P(Dims, BiteConstructionTest,
                         ::testing::Values(2, 3, 5, 7, 8),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "D" + std::to_string(info.param);
                         });

TEST(BiteTest, KnownTwoDimensionalDiagonal) {
  // Points on the diagonal of the unit square: the off-diagonal corners
  // must receive non-empty bites; the diagonal corners must not.
  std::vector<geom::Vec> points;
  for (int i = 0; i <= 10; ++i) {
    points.push_back(geom::Vec{float(i) / 10.0f, float(i) / 10.0f});
  }
  const geom::Rect mbr = geom::Rect::BoundingBox(points);
  const auto bites = NibbleAllCorners(mbr, AsRects(points));
  ASSERT_EQ(bites.size(), 4u);
  EXPECT_TRUE(bites[0b00].IsEmpty(mbr));   // (lo, lo): on the diagonal.
  EXPECT_TRUE(bites[0b11].IsEmpty(mbr));   // (hi, hi): on the diagonal.
  EXPECT_FALSE(bites[0b01].IsEmpty(mbr));  // (hi, lo): empty corner.
  EXPECT_FALSE(bites[0b10].IsEmpty(mbr));  // (lo, hi): empty corner.
  // The bite at (hi_x, lo_y) shields a query beyond that corner.
  const geom::Vec graze{1.05f, -0.05f};
  const double jagged = JaggedMinDistance(mbr, bites, graze);
  const double plain = std::sqrt(mbr.MinDistanceSquared(graze));
  EXPECT_GT(jagged, plain + 0.1);
}

TEST(BiteTest, SinglePointMbrHasNoBites) {
  std::vector<geom::Vec> points = {geom::Vec{1.0f, 2.0f, 3.0f}};
  const geom::Rect mbr = geom::Rect::BoundingBox(points);
  for (const Bite& b : NibbleAllCorners(mbr, AsRects(points))) {
    EXPECT_TRUE(b.IsEmpty(mbr));
  }
}

TEST(BiteTest, RectContentsRespected) {
  // Contents given as rectangles (internal tree levels): bites must not
  // intersect any child rect.
  Rng rng(71);
  std::vector<geom::Rect> children;
  for (int i = 0; i < 12; ++i) {
    auto pts = testing::MakeUniformPoints(2, 3, i * 5 + 2);
    children.push_back(geom::Rect::BoundingBox(pts));
  }
  const geom::Rect mbr = geom::Rect::BoundingBoxOfRects(children);
  for (const Bite& bite : MaxVolumeCorners(mbr, children)) {
    if (bite.IsEmpty(mbr)) continue;
    for (const auto& child : children) {
      EXPECT_FALSE(RectIntersectsBite(mbr, bite, child));
    }
  }
}

TEST(BiteDeathTest, EmptyContentsAbort) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const geom::Rect mbr(geom::Vec{0.0f, 0.0f}, geom::Vec{1.0f, 1.0f});
  const std::vector<geom::Rect> none;
  EXPECT_DEATH(NibbleAllCorners(mbr, none), "contents\\.empty");
  EXPECT_DEATH(MaxVolumeCorners(mbr, none), "contents\\.empty");
}

// ---------------------------------------------------------------------------
// Same pages end to end
// ---------------------------------------------------------------------------

// CRC-32 over every node in ForEachNode order: page id, level, entry
// count, then each entry's predicate bytes and payload.
uint32_t TreePagesCrc(const gist::Tree& tree) {
  uint32_t crc = 0;
  tree.ForEachNode([&](pages::PageId id, const gist::NodeView& node) {
    const uint64_t header[3] = {id, static_cast<uint64_t>(node.level()),
                                node.entry_count()};
    crc = Crc32Extend(crc, header, sizeof(header));
    for (size_t i = 0; i < node.entry_count(); ++i) {
      const gist::EntryView e = node.entry(i);
      crc = Crc32Extend(crc, e.predicate.data(), e.predicate.size());
      crc = Crc32Extend(crc, &e.payload, sizeof(e.payload));
    }
  });
  return crc;
}

size_t LeafCount(const gist::Tree& tree) {
  return tree.Shape().nodes_per_level[0];
}

// The hashes below were recorded with the original bite construction
// (tests/reference_bites.h); the near-linear one must write the same
// pages.
TEST(SamePagesTest, JaggedBulkLoadsMatchPinnedHashes) {
  const auto points = testing::MakeClusteredPoints(3000, 5, 6, 2024);
  struct Case {
    const char* am;
    const char* bites;
    uint32_t crc;
  };
  const Case cases[] = {
      {"xjb", "maxvol", 3020369014u},
      {"xjb", "nibble", 3091152229u},
      {"jb", "maxvol", 2643424066u},
      {"jb", "nibble", 2313191040u},
  };
  for (const Case& c : cases) {
    IndexBuildOptions options;
    options.am = c.am;
    options.bite_algorithm = c.bites;
    options.page_bytes = 4096;
    auto built = BuildIndex(points, options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const gist::Tree& tree = (*built)->tree();
    EXPECT_TRUE(tree.Validate().ok()) << tree.Validate().ToString();
    EXPECT_EQ(TreePagesCrc(tree), c.crc) << c.am << "/" << c.bites;
  }
}

// Inserts force leaf splits; deletes rebuild each leaf's BP
// (AdjustKeysUpward) and, once leaves underflow, condense them.
TEST(SamePagesTest, XjbInsertDeleteScriptMatchesPinnedHash) {
  const auto points = testing::MakeClusteredPoints(2000, 5, 6, 4048);
  const std::vector<geom::Vec> loaded(points.begin(), points.begin() + 1500);
  IndexBuildOptions options;
  options.am = "xjb";
  options.page_bytes = 2048;
  auto built = BuildIndex(loaded, options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  gist::Tree& tree = (*built)->tree();
  const size_t bulk_leaves = LeafCount(tree);

  for (size_t i = loaded.size(); i < points.size(); ++i) {
    ASSERT_TRUE(tree.Insert(points[i], i).ok());
  }
  const size_t grown_leaves = LeafCount(tree);
  EXPECT_GT(grown_leaves, bulk_leaves);
  ASSERT_TRUE(tree.Validate().ok()) << tree.Validate().ToString();

  for (size_t i = 0; i < points.size(); ++i) {
    if (i % 3 == 0) continue;
    ASSERT_TRUE(tree.Delete(points[i], i).ok()) << i;
  }
  EXPECT_LT(LeafCount(tree), grown_leaves);
  EXPECT_EQ(tree.size(), (points.size() + 2) / 3);
  EXPECT_TRUE(tree.Validate().ok()) << tree.Validate().ToString();
  EXPECT_EQ(TreePagesCrc(tree), 2406796071u);
}

// ---------------------------------------------------------------------------
// MAP
// ---------------------------------------------------------------------------

TEST(MapTest, PairVolumeCountsOverlapOnce) {
  geom::Rect a(geom::Vec{0.0f, 0.0f}, geom::Vec{2.0f, 2.0f});
  geom::Rect b(geom::Vec{1.0f, 1.0f}, geom::Vec{3.0f, 3.0f});
  EXPECT_DOUBLE_EQ(MapExtension::PairVolume(a, b), 4.0 + 4.0 - 1.0);
}

TEST(MapTest, BpCoversAllPointsAndBeatsOrMatchesMbr) {
  MapExtension ext(4, 42, 0.4, 512);
  for (int trial = 0; trial < 10; ++trial) {
    // Two separated clusters: the two-rectangle BP should enclose less
    // volume than the single MBR.
    const auto points = testing::MakeClusteredPoints(80, 4, 2, trial * 9 + 1);
    const gist::Bytes bp = ext.BpFromPoints(points);
    auto [a, b] = ext.DecodePair(bp);
    for (const auto& p : points) {
      EXPECT_TRUE(a.Contains(p) || b.Contains(p));
      EXPECT_DOUBLE_EQ(ext.BpMinDistance(bp, p), 0.0);
    }
    const geom::Rect mbr = geom::Rect::BoundingBox(points);
    EXPECT_LE(MapExtension::PairVolume(a, b), mbr.Volume() + 1e-9);
  }
}

TEST(MapTest, CodecRoundTrips) {
  MapExtension ext(3);
  geom::Rect a(geom::Vec{0.0f, 1.0f, 2.0f}, geom::Vec{3.0f, 4.0f, 5.0f});
  geom::Rect b(geom::Vec{-1.0f, -2.0f, -3.0f}, geom::Vec{0.5f, 0.5f, 0.5f});
  auto [da, db] = ext.DecodePair(ext.EncodePair(a, b));
  EXPECT_EQ(da, a);
  EXPECT_EQ(db, b);
}

TEST(MapTest, MinDistanceIsMinOverRects) {
  MapExtension ext(2);
  geom::Rect a(geom::Vec{0.0f, 0.0f}, geom::Vec{1.0f, 1.0f});
  geom::Rect b(geom::Vec{5.0f, 0.0f}, geom::Vec{6.0f, 1.0f});
  const gist::Bytes bp = ext.EncodePair(a, b);
  EXPECT_NEAR(ext.BpMinDistance(bp, geom::Vec{4.5f, 0.5f}), 0.5, 1e-6);
  EXPECT_NEAR(ext.BpMinDistance(bp, geom::Vec{1.5f, 0.5f}), 0.5, 1e-6);
}

// ---------------------------------------------------------------------------
// JB / XJB codecs
// ---------------------------------------------------------------------------

TEST(JbTest, CodecSizeMatchesTable3) {
  for (size_t d : {2u, 3u, 5u}) {
    JbExtension ext(d);
    const auto points = testing::MakeClusteredPoints(50, d, 3, d);
    EXPECT_EQ(ext.BpFromPoints(points).size(),
              (2 + (size_t{1} << d)) * d * sizeof(float));
  }
}

TEST(JbTest, DecodePreservesAllCorners) {
  JbExtension ext(3);
  const auto points = testing::MakeClusteredPoints(40, 3, 2, 9);
  const JaggedBp bp = ext.Decode(ext.BpFromPoints(points));
  EXPECT_EQ(bp.bites.size(), 8u);
  for (size_t c = 0; c < 8; ++c) {
    EXPECT_EQ(bp.bites[c].corner, c);
  }
  EXPECT_EQ(bp.mbr, geom::Rect::BoundingBox(points));
}

TEST(XjbTest, CodecSizeMatchesTable3) {
  for (size_t x : {1u, 4u, 10u}) {
    XjbExtension ext(5, x);
    const auto points = testing::MakeClusteredPoints(50, 5, 3, x);
    EXPECT_EQ(ext.BpFromPoints(points).size(),
              (2 * 5 + (5 + 1) * x) * sizeof(float));
  }
}

TEST(XjbTest, KeepsLargestBites) {
  // XJB with X=2 must keep the two largest-volume bites of the full set.
  XjbExtension xjb(3, 2);
  JbExtension jb(3);
  const auto points = testing::MakeClusteredPoints(60, 3, 2, 77);
  const JaggedBp all = jb.Decode(jb.BpFromPoints(points));
  const JaggedBp top = xjb.Decode(xjb.BpFromPoints(points));
  ASSERT_LE(top.bites.size(), 2u);
  // Volume of kept bites must be the max volumes among all corners.
  std::vector<double> volumes;
  for (const Bite& b : all.bites) volumes.push_back(b.Volume(all.mbr));
  std::sort(volumes.rbegin(), volumes.rend());
  for (size_t i = 0; i < top.bites.size(); ++i) {
    EXPECT_NEAR(top.bites[i].Volume(top.mbr), volumes[i], 1e-9);
  }
}

TEST(XjbTest, MoreBitesNeverLoosenTheBound) {
  const auto points = testing::MakeClusteredPoints(80, 4, 3, 5);
  const auto queries = testing::MakeUniformPoints(40, 4, 6);
  XjbExtension x2(4, 2);
  XjbExtension x8(4, 8);
  JbExtension full(4);
  const gist::Bytes bp2 = x2.BpFromPoints(points);
  const gist::Bytes bp8 = x8.BpFromPoints(points);
  const gist::Bytes bpf = full.BpFromPoints(points);
  for (const auto& q : queries) {
    const double d2 = x2.BpMinDistance(bp2, q);
    const double d8 = x8.BpMinDistance(bp8, q);
    const double df = full.BpMinDistance(bpf, q);
    EXPECT_LE(d2, d8 + 1e-9);
    EXPECT_LE(d8, df + 1e-9);
  }
}

// ---------------------------------------------------------------------------
// Auto-X selection
// ---------------------------------------------------------------------------

TEST(AutoXTest, HeightEstimateMonotoneInX) {
  for (size_t x = 1; x < 32; ++x) {
    EXPECT_LE(EstimateXjbHeight(100000, 5, x, 4096, 0.85),
              EstimateXjbHeight(100000, 5, x + 1, 4096, 0.85));
  }
}

TEST(AutoXTest, SelectedXDoesNotAddALevel) {
  for (size_t n : {5000u, 50000u, 221231u}) {
    const size_t x = AutoSelectXjbX(n, 5, 4096, 0.85);
    EXPECT_GE(x, 1u);
    EXPECT_LE(x, 32u);
    EXPECT_EQ(EstimateXjbHeight(n, 5, x, 4096, 0.85),
              EstimateXjbHeight(n, 5, 1, 4096, 0.85));
    // Maximality: X+1 either exceeds the corner count or adds a level.
    if (x < 32) {
      EXPECT_GT(EstimateXjbHeight(n, 5, x + 1, 4096, 0.85),
                EstimateXjbHeight(n, 5, 1, 4096, 0.85));
    }
  }
}

}  // namespace
}  // namespace bw::core
