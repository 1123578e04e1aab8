// Corner-bite machinery shared by the JB and XJB bounding predicates
// (Sections 5.2-5.3 of the paper).
//
// A "bite" removes an axis-aligned box from one corner of an MBR. It is
// identified by the corner (bitmask: bit d set = corner at hi in
// dimension d) and the "inner point" — the one corner of the bite box
// that touches no MBR hyper-edge. The nibbling heuristic of the paper's
// Figure 13 grows each bite over the sorted per-dimension projections of
// the node's contents until a content element would fall inside.
//
// Contents are modeled as rectangles so one implementation serves both
// levels of the tree: leaf points are degenerate rectangles, and at
// internal levels the bites are grown against the child BPs' MBRs
// (conservative: a parent bite never cuts into any child region).

#ifndef BLOBWORLD_CORE_BITES_H_
#define BLOBWORLD_CORE_BITES_H_

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/bites_isa.h"
#include "geom/rect.h"
#include "geom/vec.h"
#include "util/cpu.h"

namespace bw::core {

/// One corner bite.
struct Bite {
  uint32_t corner = 0;  // bit d set => corner is at hi[d].
  geom::Vec inner;      // the bite box spans (inner, corner point).

  /// Volume of the bite box given the owning MBR.
  double Volume(const geom::Rect& mbr) const;

  /// True when the bite removes nothing (inner == corner point).
  bool IsEmpty(const geom::Rect& mbr) const;
};

/// True if `point` lies strictly inside the open bite box (such points
/// are NOT covered by the jagged BP).
bool PointInsideBite(const geom::Rect& mbr, const Bite& bite,
                     const geom::Vec& point);

/// True if `rect` overlaps the open bite box with positive extent in
/// every dimension.
bool RectIntersectsBite(const geom::Rect& mbr, const Bite& bite,
                        const geom::Rect& rect);

/// Runs the Figure-13 nibbling heuristic for every corner of `mbr`
/// against `contents` (none of which may protrude from `mbr`). Returns
/// 2^D bites, indexed by corner bitmask; unproductive corners come back
/// as empty bites. D is capped at 16 dimensions (65536 corners) by the
/// caller's page budget long before that. `contents` must not be empty
/// (checked, as for Rect::BoundingBoxOfRects).
///
/// Cost: O(D n log n) to sort the n contents per axis once, then per
/// corner one test per content at each distinct coordinate stepped past
/// — a step can only be blocked by the contents at the coordinate it
/// leaves, since the bite never holds a content.
std::vector<Bite> NibbleAllCorners(const geom::Rect& mbr,
                                   const std::vector<geom::Rect>& contents);

/// The "better JB BP" construction the paper's footnote 7 alludes to:
/// per corner, the dimensions are extended one at a time to their exact
/// maximal empty extent (the extension rule keeps the quadrant free of
/// contents by construction), under several dimension orders; the
/// largest-volume result is kept. Strictly dominates the Figure-13
/// nibble (every nibbled bite is a subset of some maximal bite). Same
/// precondition as NibbleAllCorners.
///
/// Cost: the nibble's, plus O(D n) per corner and dimension order. Inner
/// faces only move outward, so each content's count of dimensions it
/// lies past only grows and each extension limit is a running minimum.
std::vector<Bite> MaxVolumeCorners(const geom::Rect& mbr,
                                   const std::vector<geom::Rect>& contents);

/// Which bite construction a jagged extension uses.
enum class BiteAlgorithm {
  kFigure13Nibble,  // the paper's published heuristic (lower bound).
  kMaxVolume,       // the improved construction (default).
};

/// Exact distance from `query` to the region (mbr minus one bite): the
/// minimum over the bite's D interior faces of the distance to the
/// correspondingly shrunken MBR. Requires the clamp of `query` onto
/// `mbr` to lie inside the bite (otherwise the plain MBR distance is
/// already exact and this function must not be used).
double DistanceAroundBite(const geom::Rect& mbr, const Bite& bite,
                          const geom::Vec& query);

/// Admissible lower bound on the distance from `query` to
/// (mbr minus all bites), computed by exact recursive decomposition of
/// the region (a covering bite splits the box into D clipped sub-boxes)
/// under a node budget; budget exhaustion falls back to the plain box
/// distance, so the bound is always admissible and usually exact.
double JaggedMinDistance(const geom::Rect& mbr,
                         const std::vector<Bite>& bites,
                         const geom::Vec& query);

/// Allocation-free variant for the k-NN hot path: the MBR as raw float
/// arrays and the bites as parallel (corner mask, inner coordinates)
/// arrays, `dim` floats per bite. Empty bites (zero extent in any
/// dimension) are skipped internally.
double JaggedMinDistanceRaw(size_t dim, const float* lo, const float* hi,
                            const uint32_t* corners, const float* inners,
                            size_t bite_count, const geom::Vec& query);

/// Bites staged for the region search, built in one pass by the caller
/// (Add filters empty bites; the bulk StageAll paths keep them, which
/// is equivalent — see StageAll). Holds the corner masks, pointers to
/// the inner coordinates (caller-owned storage that must outlive the
/// search), and
/// the branchless covering-test bounds laid out as dim-major SoA
/// planes: a clamp point c is strictly inside live bite b iff for every
/// dimension d
///   plane_lo[d*kMaxBites + b] < c[d] < plane_hi[d*kMaxBites + b]
/// (the side a bite does not constrain is +-infinity, which a finite
/// clamp coordinate always passes, so the two-sided compare equals the
/// one-sided strict test the scalar path performs). Dim-major keeps one
/// dimension of every bite contiguous, so the covering scan can test 8
/// bites per AVX2 compare (bites_simd.cc); compares round nothing, so
/// the SIMD scan selects the exact bite the scalar scan would.
namespace detail {

/// Corner masks of a positional codec (JB): bite b's mask is b. Sized
/// to JaggedLiveBites' bite capacity so it can serve directly as the
/// corner array for the bulk staging paths.
inline constexpr size_t kStagedBiteCap = 256;
constexpr std::array<uint32_t, kStagedBiteCap> MakePositionalCorners() {
  std::array<uint32_t, kStagedBiteCap> a{};
  for (size_t i = 0; i < kStagedBiteCap; ++i) a[i] = static_cast<uint32_t>(i);
  return a;
}
inline constexpr std::array<uint32_t, kStagedBiteCap> kPositionalCorners =
    MakePositionalCorners();

}  // namespace detail

struct JaggedLiveBites {
  static constexpr size_t kMaxBites = detail::kStagedBiteCap;
  static constexpr size_t kMaxDim = 16;

  uint32_t corner[kMaxBites];
  const float* inner[kMaxBites];
  float plane_lo[kMaxDim * kMaxBites];
  float plane_hi[kMaxDim * kMaxBites];
  size_t count = 0;

  /// Appends a bite, filtering empty ones (inner on the MBR corner in
  /// any dimension) exactly like the region search's live filter.
  /// Returns the live index, or kMaxBites if the bite was empty or
  /// capacity is exhausted. `inner_coords` must stay valid for the
  /// lifetime of the search. DIM, when non-zero, fixes the
  /// dimensionality at compile time so the loop unrolls (same
  /// comparisons and stores — the result is identical).
  template <size_t DIM = 0>
  size_t Add(size_t dim, const float* lo, const float* hi,
             uint32_t corner_mask, const float* inner_coords) {
    if (count >= kMaxBites) return kMaxBites;
    if (DIM != 0) dim = DIM;
    const size_t live = count;
    unsigned empty = 0;
    for (size_t d = 0; d < dim; ++d) {
      const unsigned hi_side = (corner_mask >> d) & 1u;
      const float corner_coord = hi_side ? hi[d] : lo[d];
      const float in = inner_coords[d];
      empty |= unsigned(in == corner_coord);
      constexpr float kInf = std::numeric_limits<float>::infinity();
      plane_lo[d * kMaxBites + live] = hi_side ? in : -kInf;
      plane_hi[d * kMaxBites + live] = hi_side ? kInf : in;
    }
    corner[live] = corner_mask;
    inner[live] = inner_coords;
    count += 1 - empty;
    return empty ? kMaxBites : live;
  }

  /// Bulk staging without the empty-bite filter: every bite keeps its
  /// codec position, and the planes are written one dimension row at a
  /// time (branchless sequential stores — or, under AVX2 dispatch, the
  /// 8-bites-per-register transpose-and-blend kernel of bites_simd.cc,
  /// which writes bit-identical plane values since staging is pure
  /// moves and blends). Correctness of skipping the filter: an empty
  /// bite's natural test bound degenerates to a strict compare against
  /// its own MBR face (clamp > hi[d] or clamp < lo[d]), which no clamp
  /// point of the MBR or of any sub-box can pass — so empty bites
  /// never win a covering scan and the first covering index is the
  /// index of the exact bite the compacted staging would select. The
  /// search reads corner/inner only for covering bites, making the
  /// region search bit-identical to one over Add-compacted bites.
  ///
  /// `inners` (dim floats per bite, codec order) must outlive the
  /// search; `n` must be <= kMaxBites. Because the SIMD kernel works in
  /// whole 8-bite blocks, `corners` must be readable up to n rounded up
  /// to 8 entries and `inners` up to round8(n)*dim + 8 floats (the
  /// batch scan's fixed-capacity staging buffers satisfy this; pad
  /// accordingly when staging from exact-size allocations).
  template <size_t DIM = 0>
  void StageAll(size_t dim, const uint32_t* corners, const float* inners,
                size_t n) {
    if (DIM != 0) dim = DIM;
#if defined(BW_HAVE_AVX2)
    if (dim <= 8 && util::ActiveKernelIsa() == util::KernelIsa::kAvx2) {
      detail::StageBitePlanesAvx2(dim, corners, inners, n, plane_lo,
                                  plane_hi, kMaxBites);
    } else {
      StagePlanesScalar<DIM>(dim, corners, inners, n);
    }
#else
    StagePlanesScalar<DIM>(dim, corners, inners, n);
#endif
    for (size_t b = 0; b < n; ++b) {
      corner[b] = corners[b];
      inner[b] = inners + b * dim;
    }
    count = n;
  }

  /// StageAll for positional codecs (JB: bite b's corner mask IS b, so
  /// the shared corner-index table serves as the corner array).
  template <size_t DIM = 0>
  void StageAllPositional(size_t dim, const float* inners, size_t n) {
    StageAll<DIM>(dim, detail::kPositionalCorners.data(), inners, n);
  }

 private:
  template <size_t DIM = 0>
  void StagePlanesScalar(size_t dim, const uint32_t* corners,
                         const float* inners, size_t n) {
    if (DIM != 0) dim = DIM;
    constexpr float kInf = std::numeric_limits<float>::infinity();
    for (size_t d = 0; d < dim; ++d) {
      float* row_lo = plane_lo + d * kMaxBites;
      float* row_hi = plane_hi + d * kMaxBites;
      for (size_t b = 0; b < n; ++b) {
        const float in = inners[b * dim + d];
        const bool hi_side = ((corners[b] >> d) & 1u) != 0;
        row_lo[b] = hi_side ? in : -kInf;
        row_hi[b] = hi_side ? kInf : in;
      }
    }
  }
};

/// Entry point for the batched node scan, which has already clamped the
/// query onto the MBR (with the identical per-dimension float select),
/// accumulated the squared box distance in the identical dimension
/// order, staged the bites, and identified the first staged bite
/// strictly containing the clamp point. Skips the root box evaluation
/// and the root covering scan and resumes the region search from there;
/// bit-identical to JaggedMinDistanceRaw over the same bites by
/// construction (at the root, the prune and budget checks cannot fire,
/// and the covering scan would select exactly `covering_live_index` —
/// with StageAll staging, the bite at the covering codec position).
double JaggedMinDistanceStaged(size_t dim, const float* lo, const float* hi,
                               const JaggedLiveBites& live,
                               size_t covering_live_index,
                               const geom::Vec& query, const float* clamped,
                               double box_dist_sq);

}  // namespace bw::core

#endif  // BLOBWORLD_CORE_BITES_H_
