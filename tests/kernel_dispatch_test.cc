// Dispatch parity suite for the runtime-ISA kernels (util/cpu.h).
//
// Contract under test (am/bp_kernels.h): the scalar dispatch is the
// bit-identity reference; the AVX2/FMA variants may differ only by a
// small ULP band in the FMA-fused double accumulations, and must be
// bit-identical for all compare/select-only work — the float clamp
// (modulo the sign of zero, which float equality already ignores) and
// the jagged covering scan (where the staged stack search must also be
// bit-identical to the recursive scalar reference).
//
// On builds without the AVX2 variants (BW_ENABLE_AVX2=OFF) or hosts
// without AVX2+FMA, forcing kAvx2 resolves to scalar, so every
// assertion here degenerates to exact self-comparison and the suite
// stays green — both CI fallback legs run it.
//
// Inputs are NaN-free by construction (the kernel precondition) and
// include the degraded shapes the read path produces: degenerate
// boxes (lo == hi), queries inside boxes (zero gaps), and coordinates
// spanning many orders of magnitude.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "am/bp_kernels.h"
#include "core/bites.h"
#include "geom/rect.h"
#include "geom/vec.h"
#include "tests/test_helpers.h"
#include "util/cpu.h"

namespace bw {
namespace {

constexpr double kEps = std::numeric_limits<double>::epsilon();

// |a - b| within `ulps` units of the larger magnitude (plus an absolute
// floor `abs_scale * ulps * eps` for results near cancellation).
::testing::AssertionResult WithinUlps(double a, double b, size_t ulps,
                                      double abs_scale = 0.0) {
  if (a == b) return ::testing::AssertionSuccess();
  const double diff = std::abs(a - b);
  const double tol =
      static_cast<double>(ulps) * kEps *
      std::max(std::max(std::abs(a), std::abs(b)), abs_scale);
  if (diff <= tol) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a << " vs " << b << " differ by " << diff << " > tol " << tol;
}

struct RandomPlanes {
  size_t dim;
  size_t count;
  std::vector<float> lo;
  std::vector<float> hi;
  geom::Vec query;

  RandomPlanes(size_t d, size_t n, uint64_t seed, bool degenerate_some)
      : dim(d), count(n), lo(d * n), hi(d * n), query(d) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<float> coord(-100.0f, 100.0f);
    std::uniform_real_distribution<float> extent(0.0f, 50.0f);
    for (size_t dd = 0; dd < d; ++dd) {
      for (size_t e = 0; e < n; ++e) {
        const float a = coord(rng);
        // Every 7th box degenerate in this dimension (a leaf point), and
        // every 11th spanning several magnitudes.
        float ext = extent(rng);
        if (degenerate_some && e % 7 == 0) ext = 0.0f;
        if (degenerate_some && e % 11 == 0) ext *= 1e-6f;
        lo[dd * n + e] = a;
        hi[dd * n + e] = a + ext;
      }
      query[dd] = coord(rng) * 1.5;
    }
  }
};

class KernelDispatchTest
    : public ::testing::TestWithParam<std::pair<size_t, size_t>> {};

TEST_P(KernelDispatchTest, RectMinDistUlpBounded) {
  const auto [dim, count] = GetParam();
  RandomPlanes p(dim, count, 42 * dim + count, /*degenerate_some=*/true);
  std::vector<double> out_scalar(count), out_simd(count);
  {
    util::ScopedKernelIsa pin(util::KernelIsa::kScalar);
    am::RectMinDistSquared(dim, count, p.lo.data(), p.hi.data(), p.query,
                           out_scalar.data());
  }
  {
    util::ScopedKernelIsa pin(util::KernelIsa::kAvx2);
    am::RectMinDistSquared(dim, count, p.lo.data(), p.hi.data(), p.query,
                           out_simd.data());
  }
  for (size_t e = 0; e < count; ++e) {
    EXPECT_TRUE(WithinUlps(out_scalar[e], out_simd[e], 4 * dim))
        << "entry " << e;
    // Zero is exact on both paths: FMA of zero gaps rounds nothing.
    if (out_scalar[e] == 0.0) {
      EXPECT_EQ(out_simd[e], 0.0);
    }
  }
}

TEST_P(KernelDispatchTest, RectMaxDistUlpBounded) {
  const auto [dim, count] = GetParam();
  RandomPlanes p(dim, count, 43 * dim + count, /*degenerate_some=*/true);
  std::vector<double> out_scalar(count), out_simd(count);
  {
    util::ScopedKernelIsa pin(util::KernelIsa::kScalar);
    am::RectMaxDistSquared(dim, count, p.lo.data(), p.hi.data(), p.query,
                           out_scalar.data());
  }
  {
    util::ScopedKernelIsa pin(util::KernelIsa::kAvx2);
    am::RectMaxDistSquared(dim, count, p.lo.data(), p.hi.data(), p.query,
                           out_simd.data());
  }
  for (size_t e = 0; e < count; ++e) {
    EXPECT_TRUE(WithinUlps(out_scalar[e], out_simd[e], 4 * dim))
        << "entry " << e;
  }
}

TEST_P(KernelDispatchTest, RectClampMinDistClampBitIdenticalSumUlpBounded) {
  const auto [dim, count] = GetParam();
  RandomPlanes p(dim, count, 44 * dim + count, /*degenerate_some=*/true);
  std::vector<double> out_scalar(count), out_simd(count);
  std::vector<float> clamp_scalar(dim * count), clamp_simd(dim * count);
  {
    util::ScopedKernelIsa pin(util::KernelIsa::kScalar);
    am::RectClampMinDistSquared(dim, count, p.lo.data(), p.hi.data(), p.query,
                                clamp_scalar.data(), out_scalar.data());
  }
  {
    util::ScopedKernelIsa pin(util::KernelIsa::kAvx2);
    am::RectClampMinDistSquared(dim, count, p.lo.data(), p.hi.data(), p.query,
                                clamp_simd.data(), out_simd.data());
  }
  for (size_t i = 0; i < dim * count; ++i) {
    // The clamp is compare/select only: identical on both paths. (Float
    // == treats -0.0 and +0.0 as equal, the one permitted divergence.)
    EXPECT_EQ(clamp_scalar[i], clamp_simd[i]) << "clamp coord " << i;
  }
  for (size_t e = 0; e < count; ++e) {
    EXPECT_TRUE(WithinUlps(out_scalar[e], out_simd[e], 4 * dim))
        << "entry " << e;
    if (out_scalar[e] == 0.0) {
      EXPECT_EQ(out_simd[e], 0.0);
    }
  }
}

TEST_P(KernelDispatchTest, SphereMinDistUlpBounded) {
  const auto [dim, count] = GetParam();
  std::mt19937_64 rng(45 * dim + count);
  std::uniform_real_distribution<float> coord(-100.0f, 100.0f);
  std::uniform_real_distribution<double> rad(0.0, 40.0);
  std::vector<float> center(dim * count);
  std::vector<double> radius(count);
  geom::Vec query(dim);
  for (size_t i = 0; i < dim * count; ++i) center[i] = coord(rng);
  for (size_t e = 0; e < count; ++e) radius[e] = rad(rng);
  for (size_t d = 0; d < dim; ++d) query[d] = coord(rng) * 1.5;

  std::vector<double> out_scalar(count), out_simd(count);
  {
    util::ScopedKernelIsa pin(util::KernelIsa::kScalar);
    am::SphereMinDist(dim, count, center.data(), radius.data(), query,
                      out_scalar.data());
  }
  {
    util::ScopedKernelIsa pin(util::KernelIsa::kAvx2);
    am::SphereMinDist(dim, count, center.data(), radius.data(), query,
                      out_simd.data());
  }
  for (size_t e = 0; e < count; ++e) {
    // sqrt(sum) - radius cancels near the ball surface, so anchor the
    // tolerance at the pre-subtraction magnitude.
    const double scale = out_scalar[e] + radius[e] + 1.0;
    EXPECT_TRUE(WithinUlps(out_scalar[e], out_simd[e], 4 * dim, scale))
        << "entry " << e;
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimsCounts, KernelDispatchTest,
    ::testing::Values(std::pair<size_t, size_t>{2, 1},
                      std::pair<size_t, size_t>{3, 7},
                      std::pair<size_t, size_t>{5, 64},
                      std::pair<size_t, size_t>{5, 97},
                      std::pair<size_t, size_t>{8, 96}),
    [](const auto& info) {
      return "D" + std::to_string(info.param.first) + "N" +
             std::to_string(info.param.second);
    });

// The jagged region search: the staged stack search (with its SIMD
// covering scan under kAvx2) must be bit-identical — not merely
// ULP-close — to the recursive scalar reference, because the covering
// scan and the stack flattening round nothing. This stages the search
// inputs by hand, exactly as core/jagged.cc's batch scan does.
TEST(JaggedStackDispatchTest, StagedSearchBitIdenticalAcrossIsas) {
  constexpr size_t kDim = 5;
  std::mt19937_64 rng(99);
  size_t covered_queries = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const auto points =
        testing::MakeClusteredPoints(2 + trial % 37, kDim, 2, 1000 + trial);
    std::vector<geom::Rect> contents;
    contents.reserve(points.size());
    for (const auto& pt : points) contents.emplace_back(pt);
    const geom::Rect mbr = geom::Rect::BoundingBoxOfRects(contents);
    const std::vector<core::Bite> bites =
        core::MaxVolumeCorners(mbr, contents);

    float lo[kDim], hi[kDim];
    for (size_t d = 0; d < kDim; ++d) {
      lo[d] = mbr.lo()[d];
      hi[d] = mbr.hi()[d];
    }
    std::vector<uint32_t> corners;
    std::vector<float> inners;
    for (const core::Bite& b : bites) {
      corners.push_back(b.corner);
      for (size_t d = 0; d < kDim; ++d) inners.push_back(b.inner[d]);
    }
    const size_t bite_count = corners.size();
    // StageAll's SIMD kernel reads whole 8-bite blocks: pad the
    // exact-size staging allocations per its documented contract.
    corners.resize((bite_count + 7) & ~size_t{7}, 0);
    inners.resize(corners.size() * kDim + 8, 0.0f);

    const auto queries = testing::MakeUniformPoints(32, kDim, 7 * trial + 1);
    for (const geom::Vec& q : queries) {
      // Stage exactly as the batch scan: float clamp, ascending-dim
      // squared-gap accumulation, bulk bite staging (no empty-bite
      // compaction — the batch contract), first covering staged bite.
      core::JaggedLiveBites live;
      live.StageAll(kDim, corners.data(), inners.data(), bite_count);
      float clamped[kDim];
      double box_dist_sq = 0.0;
      for (size_t d = 0; d < kDim; ++d) {
        const float v = q[d];
        const float c = v < lo[d] ? lo[d] : (v > hi[d] ? hi[d] : v);
        clamped[d] = c;
        const double gap = double(v) - c;
        box_dist_sq += gap * gap;
      }
      size_t covering_live = core::JaggedLiveBites::kMaxBites;
      for (size_t lb = 0; lb < live.count; ++lb) {
        unsigned inside = 1;
        for (size_t d = 0; d < kDim; ++d) {
          inside &=
              unsigned(live.plane_lo[d * core::JaggedLiveBites::kMaxBites +
                                     lb] < clamped[d]) &
              unsigned(clamped[d] <
                       live.plane_hi[d * core::JaggedLiveBites::kMaxBites +
                                     lb]);
        }
        if (inside) {
          covering_live = lb;
          break;
        }
      }
      if (covering_live == core::JaggedLiveBites::kMaxBites) continue;
      ++covered_queries;

      const double reference = core::JaggedMinDistanceRaw(
          kDim, lo, hi, corners.data(), inners.data(), bite_count, q);
      double staged_scalar, staged_simd;
      {
        util::ScopedKernelIsa pin(util::KernelIsa::kScalar);
        staged_scalar = core::JaggedMinDistanceStaged(
            kDim, lo, hi, live, covering_live, q, clamped, box_dist_sq);
      }
      {
        util::ScopedKernelIsa pin(util::KernelIsa::kAvx2);
        staged_simd = core::JaggedMinDistanceStaged(
            kDim, lo, hi, live, covering_live, q, clamped, box_dist_sq);
      }
      EXPECT_EQ(staged_scalar, reference) << "stack vs recursion, trial "
                                          << trial;
      EXPECT_EQ(staged_simd, staged_scalar) << "SIMD covering scan, trial "
                                            << trial;
    }
  }
  // The clustered-BP/uniform-query mix must actually exercise the
  // covered path, or this test proves nothing.
  EXPECT_GT(covered_queries, 100u);
  (void)rng;
}

TEST(KernelIsaTest, ScopedOverrideRestores) {
  const util::KernelIsa ambient = util::ActiveKernelIsa();
  {
    util::ScopedKernelIsa pin(util::KernelIsa::kScalar);
    EXPECT_EQ(util::ActiveKernelIsa(), util::KernelIsa::kScalar);
    {
      util::ScopedKernelIsa inner(util::KernelIsa::kAvx2);
      // kAvx2 only sticks when the build and host both support it.
#if defined(BW_HAVE_AVX2)
      if (util::CpuSupportsAvx2Fma()) {
        EXPECT_EQ(util::ActiveKernelIsa(), util::KernelIsa::kAvx2);
      } else {
        EXPECT_EQ(util::ActiveKernelIsa(), util::KernelIsa::kScalar);
      }
#else
      EXPECT_EQ(util::ActiveKernelIsa(), util::KernelIsa::kScalar);
#endif
    }
    EXPECT_EQ(util::ActiveKernelIsa(), util::KernelIsa::kScalar);
  }
  EXPECT_EQ(util::ActiveKernelIsa(), ambient);
}

}  // namespace
}  // namespace bw
