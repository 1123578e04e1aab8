#include "core/bites.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <cmath>
#include <numeric>
#include <vector>

#include "core/bites_isa.h"
#include "util/cpu.h"
#include "util/logging.h"

namespace bw::core {

namespace {

inline bool CornerAtHi(uint32_t corner, size_t d) {
  return ((corner >> d) & 1u) != 0;
}

inline float CornerCoord(const geom::Rect& mbr, uint32_t corner, size_t d) {
  return CornerAtHi(corner, d) ? mbr.hi()[d] : mbr.lo()[d];
}

// Volume of the box between the MBR corner and `inner` (`dim` floats).
double BoxVolume(const geom::Rect& mbr, uint32_t corner, const float* inner,
                 size_t dim) {
  double v = 1.0;
  for (size_t d = 0; d < dim; ++d) {
    v *= std::abs(static_cast<double>(CornerCoord(mbr, corner, d)) - inner[d]);
  }
  return v;
}

}  // namespace

double Bite::Volume(const geom::Rect& mbr) const {
  return BoxVolume(mbr, corner, inner.data(), inner.dim());
}

bool Bite::IsEmpty(const geom::Rect& mbr) const {
  for (size_t d = 0; d < inner.dim(); ++d) {
    if (inner[d] == CornerCoord(mbr, corner, d)) return true;
  }
  return false;
}

bool PointInsideBite(const geom::Rect& mbr, const Bite& bite,
                     const geom::Vec& point) {
  (void)mbr;
  for (size_t d = 0; d < point.dim(); ++d) {
    if (CornerAtHi(bite.corner, d)) {
      if (!(point[d] > bite.inner[d])) return false;
    } else {
      if (!(point[d] < bite.inner[d])) return false;
    }
  }
  return true;
}

bool RectIntersectsBite(const geom::Rect& mbr, const Bite& bite,
                        const geom::Rect& rect) {
  (void)mbr;
  for (size_t d = 0; d < rect.dim(); ++d) {
    if (CornerAtHi(bite.corner, d)) {
      if (!(rect.hi()[d] > bite.inner[d])) return false;
    } else {
      if (!(rect.lo()[d] < bite.inner[d])) return false;
    }
  }
  return true;
}

namespace {

constexpr size_t kMaxBiteDim = 16;

// Both constructions below keep two invariants that make them
// near-linear in the node's contents:
//
//  * The bite under construction never holds a content element. The
//    nibble starts at zero extent (every inner coordinate is a content
//    minimum) and undoes a blocked step; an extension stops at the
//    nearest content that would enter.
//  * Inner faces only move outward, so "content i lies past face d"
//    never becomes false again.
//
// Hence a nibble step of dimension d from its k-th to its (k+1)-th
// distinct coordinate can only be blocked by the contents whose
// d-coordinate is the k-th value, and an extension's blocking set only
// grows: its limit is a running minimum fed as faces advance.

// The node's contents in signed coordinates, shared by the nibble and
// the maximal extension. Axis a = 2*d + side holds dimension d for the
// corners on one side of it: side 0 (corner at lo[d]) stores each
// content's lo[d], side 1 (corner at hi[d]) stores -hi[d]. With the
// bite's key equal to its inner coordinate (side 0) or its negation
// (side 1), "strictly inside the bite" reads coord < key on the
// corner's axis of every dimension, and an inner face moving outward
// is a key growing. All three arrays are 2*D planes of n entries.
struct SignedAxes {
  size_t n = 0;
  // Content i's coordinate on axis a is coord[a * n + i].
  std::vector<float> coord;
  // The contents of axis a in ascending coordinate order.
  std::vector<uint32_t> sorted;
  // run_end[a * n + k]: the first sorted position past the run of equal
  // coordinates that holds position k. The runs are the distinct values
  // a nibble steps through.
  std::vector<uint32_t> run_end;
};

SignedAxes BuildSignedAxes(const std::vector<geom::Rect>& contents,
                           size_t dim) {
  SignedAxes axes;
  const size_t n = contents.size();
  axes.n = n;
  axes.coord.resize(2 * dim * n);
  axes.sorted.resize(2 * dim * n);
  axes.run_end.resize(2 * dim * n);
  for (size_t i = 0; i < n; ++i) {
    BW_DCHECK_EQ(contents[i].dim(), dim);
    for (size_t d = 0; d < dim; ++d) {
      axes.coord[2 * d * n + i] = contents[i].lo()[d];
      axes.coord[(2 * d + 1) * n + i] = -contents[i].hi()[d];
    }
  }
  for (size_t a = 0; a < 2 * dim; ++a) {
    const float* plane = axes.coord.data() + a * n;
    uint32_t* order = axes.sorted.data() + a * n;
    uint32_t* run_end = axes.run_end.data() + a * n;
    std::iota(order, order + n, 0u);
    // The same comparisons, on the same sequence, as a sort of the raw
    // values (on side 1, -x < -y exactly when x > y), so each run starts
    // with the content whose value bits a sort-and-unique would keep.
    std::sort(order, order + n,
              [plane](uint32_t x, uint32_t y) { return plane[x] < plane[y]; });
    for (size_t k = n; k-- > 0;) {
      const bool run_goes_on =
          k + 1 < n && plane[order[k + 1]] == plane[order[k]];
      run_end[k] = run_goes_on ? run_end[k + 1] : static_cast<uint32_t>(k + 1);
    }
  }
  return axes;
}

// One corner's view of the axes: dimension d reads the axis of the
// corner's side in d.
struct CornerView {
  const float* plane[kMaxBiteDim];
  const uint32_t* sorted[kMaxBiteDim];
  const uint32_t* run_end[kMaxBiteDim];
};

CornerView ViewCorner(const SignedAxes& axes, size_t dim, uint32_t corner) {
  CornerView view;
  for (size_t d = 0; d < dim; ++d) {
    const size_t offset = (2 * d + (CornerAtHi(corner, d) ? 1 : 0)) * axes.n;
    view.plane[d] = axes.coord.data() + offset;
    view.sorted[d] = axes.sorted.data() + offset;
    view.run_end[d] = axes.run_end.data() + offset;
  }
  return view;
}

// The inner point of the bite with signed inner point `key`.
void InnerFromKey(uint32_t corner, size_t dim, const float* key,
                  float* inner) {
  for (size_t d = 0; d < dim; ++d) {
    inner[d] = CornerAtHi(corner, d) ? -key[d] : key[d];
  }
}

Bite MakeBite(uint32_t corner, size_t dim, const float* key) {
  Bite bite;
  bite.corner = corner;
  bite.inner = geom::Vec(dim);
  InnerFromKey(corner, dim, key, bite.inner.data());
  return bite;
}

double KeyVolume(const geom::Rect& mbr, uint32_t corner, size_t dim,
                 const float* key) {
  float inner[kMaxBiteDim];
  InnerFromKey(corner, dim, key, inner);
  return BoxVolume(mbr, corner, inner, dim);
}

// True if a content of [first, last) lies strictly inside the bite with
// signed inner point `key`.
bool AnyInside(const CornerView& view, size_t dim, const uint32_t* first,
               const uint32_t* last, const float* key) {
  for (; first != last; ++first) {
    const uint32_t i = *first;
    size_t d = 0;
    while (d < dim && view.plane[d][i] < key[d]) ++d;
    if (d == dim) return true;
  }
  return false;
}

// Figure 13 for one corner: nibble the next distinct coordinate of each
// unfinished dimension in turn until content stops every dimension.
// Writes the bite's signed inner point to `key` and, per dimension, the
// sorted position where the run at key[d] starts to `run_start`. A step
// of d past a run is tested against that run's contents only (see the
// invariants above).
void NibbleCorner(const CornerView& view, size_t dim, size_t n, float* key,
                  uint32_t* run_start) {
  for (size_t d = 0; d < dim; ++d) {
    run_start[d] = 0;
    key[d] = view.plane[d][view.sorted[d][0]];
  }
  const uint32_t all = (uint32_t{1} << dim) - 1;
  uint32_t done = 0;
  while (done != all) {
    for (size_t d = 0; d < dim; ++d) {
      if ((done >> d) & 1u) continue;
      const uint32_t next = view.run_end[d][run_start[d]];
      if (next == n) {
        done |= 1u << d;
        continue;
      }
      const float held = key[d];
      key[d] = view.plane[d][view.sorted[d][next]];
      if (AnyInside(view, dim, view.sorted[d] + run_start[d],
                    view.sorted[d] + next, key)) {
        key[d] = held;
        done |= 1u << d;
      } else {
        run_start[d] = next;
      }
    }
  }
}

// The maximal extension of one corner's bite. Extending dimension d
// moves its inner face to the nearest blocking coordinate: the minimum,
// over the opposite MBR face and every content past the bite's inner
// face in all dimensions but d, of that content's d-coordinate. A
// content is tracked by the set of dimensions it lies past (`past`,
// never all D since the bite stays empty); one reaching D-1 feeds its
// missing dimension's running minimum. Ties keep the face, then the
// lowest content index: the element a first-to-last scan with std::min
// (std::max on hi sides) keeps, so the chosen bits are the same.
struct ExtendState {
  float key[kMaxBiteDim];
  float limit[kMaxBiteDim];
  uint32_t limit_rank[kMaxBiteDim];  // 0 = the face; content i = i + 1.
  // How many of dimension d's sorted contents lie past face d.
  uint32_t walked[kMaxBiteDim];
};

// Content i now lies past the faces in `mask`; if that is all but one,
// it blocks the missing dimension.
void NotePast(const CornerView& view, size_t dim, uint32_t i, uint32_t mask,
              ExtendState& state) {
  BW_DCHECK_LT(static_cast<size_t>(std::popcount(mask)), dim);
  if (static_cast<size_t>(std::popcount(mask)) + 1 != dim) return;
  const uint32_t all = (uint32_t{1} << dim) - 1;
  const size_t m = static_cast<size_t>(std::countr_zero(~mask & all));
  const float v = view.plane[m][i];
  if (v < state.limit[m] ||
      (v == state.limit[m] && i + 1 < state.limit_rank[m])) {
    state.limit[m] = v;
    state.limit_rank[m] = i + 1;
  }
}

// Marks the contents the face of dimension d has passed since the last
// walk.
void WalkFace(const CornerView& view, size_t dim, size_t n, size_t d,
              ExtendState& state, uint16_t* past) {
  const float* plane = view.plane[d];
  const uint32_t* sorted = view.sorted[d];
  const float key = state.key[d];
  uint32_t k = state.walked[d];
  for (; k < n && plane[sorted[k]] < key; ++k) {
    const uint32_t i = sorted[k];
    const uint32_t mask = past[i] | (uint32_t{1} << d);
    past[i] = static_cast<uint16_t>(mask);
    NotePast(view, dim, i, mask, state);
  }
  state.walked[d] = k;
}

}  // namespace

std::vector<Bite> NibbleAllCorners(const geom::Rect& mbr,
                                   const std::vector<geom::Rect>& contents) {
  const size_t dim = mbr.dim();
  BW_CHECK_LE(dim, 16u);
  BW_CHECK(!contents.empty());
  const uint32_t corner_count = 1u << dim;
  const SignedAxes axes = BuildSignedAxes(contents, dim);

  std::vector<Bite> bites;
  bites.reserve(corner_count);
  float key[kMaxBiteDim];
  uint32_t run_start[kMaxBiteDim];
  for (uint32_t corner = 0; corner < corner_count; ++corner) {
    const CornerView view = ViewCorner(axes, dim, corner);
    NibbleCorner(view, dim, axes.n, key, run_start);
    bites.push_back(MakeBite(corner, dim, key));
  }
  return bites;
}

std::vector<Bite> MaxVolumeCorners(const geom::Rect& mbr,
                                   const std::vector<geom::Rect>& contents) {
  const size_t dim = mbr.dim();
  BW_CHECK_LE(dim, 16u);
  BW_CHECK(!contents.empty());
  const uint32_t corner_count = 1u << dim;
  const SignedAxes axes = BuildSignedAxes(contents, dim);

  // Dimension orders to try: all cyclic rotations, forward and reversed.
  std::vector<uint8_t> orders;
  for (size_t rot = 0; rot < dim; ++rot) {
    for (size_t i = 0; i < dim; ++i) {
      orders.push_back(static_cast<uint8_t>((rot + i) % dim));
    }
    if (dim <= 2) continue;
    for (size_t i = 0; i < dim; ++i) {
      orders.push_back(static_cast<uint8_t>((rot + dim - i) % dim));
    }
  }

  // Seed with the Figure-13 nibble bites (valid by construction), then
  // run two maximal extension passes per order and keep the largest
  // volume. Seeding matters: extending dimensions of a zero-size
  // quadrant in sequence degenerates (early dimensions extend fully and
  // block every later one); from a square-ish seed the extension rule
  // converges to a genuinely maximal empty quadrant. (A blocker found
  // after a face moved is never nearer than that face, so the second
  // pass only re-picks among equal limits: it decides the sign of a
  // zero, and is kept so the bits match.)
  std::vector<Bite> bites;
  bites.reserve(corner_count);
  std::vector<uint16_t> seed_past(axes.n);
  std::vector<uint16_t> past(axes.n);
  float key[kMaxBiteDim];
  float best_key[kMaxBiteDim];
  uint32_t run_start[kMaxBiteDim];
  for (uint32_t corner = 0; corner < corner_count; ++corner) {
    const CornerView view = ViewCorner(axes, dim, corner);
    NibbleCorner(view, dim, axes.n, key, run_start);

    // The seed state: each face has walked past the runs below the
    // nibble's stop (those coordinates are < key), and every content
    // already past all faces but one blocks that one.
    ExtendState seed;
    for (size_t d = 0; d < dim; ++d) {
      seed.key[d] = key[d];
      // The opposite face, as a key on this corner's axis.
      seed.limit[d] = CornerAtHi(corner, d) ? -mbr.lo()[d] : mbr.hi()[d];
      seed.limit_rank[d] = 0;
      seed.walked[d] = run_start[d];
    }
    for (uint32_t i = 0; i < axes.n; ++i) {
      uint32_t mask = 0;
      for (size_t d = 0; d < dim; ++d) {
        mask |= uint32_t{view.plane[d][i] < key[d]} << d;
      }
      seed_past[i] = static_cast<uint16_t>(mask);
      NotePast(view, dim, i, mask, seed);
    }

    std::copy(key, key + dim, best_key);
    double best_volume = KeyVolume(mbr, corner, dim, key);
    for (size_t o = 0; o < orders.size(); o += dim) {
      ExtendState state = seed;
      std::copy(seed_past.begin(), seed_past.end(), past.begin());
      for (int pass = 0; pass < 2; ++pass) {
        for (size_t i = 0; i < dim; ++i) {
          const size_t d = orders[o + i];
          state.key[d] = state.limit[d];
          WalkFace(view, dim, axes.n, d, state, past.data());
        }
      }
      const double volume = KeyVolume(mbr, corner, dim, state.key);
      if (volume > best_volume) {
        best_volume = volume;
        std::copy(state.key, state.key + dim, best_key);
      }
    }
    bites.push_back(MakeBite(corner, dim, best_key));
  }
  return bites;
}

double DistanceAroundBite(const geom::Rect& mbr, const Bite& bite,
                          const geom::Vec& query) {
  double best_sq = -1.0;
  for (size_t d = 0; d < query.dim(); ++d) {
    // Clip the MBR to the far side of the bite's interior face in
    // dimension d; the closest region point behind this face bounds the
    // way "around" the bite through that face.
    geom::Vec lo = mbr.lo();
    geom::Vec hi = mbr.hi();
    if (CornerAtHi(bite.corner, d)) {
      hi[d] = bite.inner[d];
    } else {
      lo[d] = bite.inner[d];
    }
    if (lo[d] > hi[d]) continue;  // Degenerate: bite spans the whole side.
    geom::Rect shrunk(std::move(lo), std::move(hi));
    const double d_sq = shrunk.MinDistanceSquared(query);
    if (best_sq < 0.0 || d_sq < best_sq) best_sq = d_sq;
  }
  // All faces degenerate cannot happen for a valid bite produced by
  // NibbleAllCorners (its inner point is a content coordinate inside the
  // MBR), but fall back to the MBR bound defensively.
  if (best_sq < 0.0) return std::sqrt(mbr.MinDistanceSquared(query));
  return std::sqrt(best_sq);
}

namespace {

// Exact distance to (box ∖ ∪ bites) by recursive decomposition: if the
// clamp of q onto the box lies inside some bite b, then every region
// point avoids b's quadrant through at least one dimension, i.e.
//   box ∖ b = ∪_d clip_d(box),
// where clip_d trims the box at b's interior face in dimension d. The
// distance is the min over those D sub-boxes, recursively. `budget`
// bounds the number of visited boxes; on exhaustion the plain box
// distance is returned, which is always admissible.
constexpr size_t kMaxRegionDim = 16;

// Allocation-free state for the region-distance search: points into the
// caller's staged live-bite arrays (a stack JaggedLiveBites in the
// common case; BpMinDistance sits on the k-NN hot path, where a heap
// allocation per box would dominate the kernel cost).
struct RegionSearch {
  const geom::Vec* query = nullptr;
  const uint32_t* live_corner = nullptr;
  const float* const* live_inner = nullptr;
  // Branchless covering-test bounds, dim-major SoA (see JaggedLiveBites):
  // replacing the per-dimension corner-mask branches with pure float
  // compares removes the data-dependent mispredictions that dominated
  // the scan, and the dim-major planes let the staged search's SIMD
  // variant test 8 bites per compare. `plane_stride` is the plane row
  // length in floats (a multiple of 8).
  const float* plane_lo = nullptr;
  const float* plane_hi = nullptr;
  size_t plane_stride = 0;
  size_t live_count = 0;
  size_t dim = 0;
  int budget = 0;
  // True when the covering scan should take the AVX2 variant (staged
  // searches only; resolved from util::ActiveKernelIsa() per search).
  // The SIMD scan selects the identical bite, so this flag never
  // changes results.
  bool simd_covering = false;
};

void PointSearchAtLive(RegionSearch& search, const JaggedLiveBites& live) {
  search.live_corner = live.corner;
  search.live_inner = live.inner;
  search.plane_lo = live.plane_lo;
  search.plane_hi = live.plane_hi;
  search.plane_stride = JaggedLiveBites::kMaxBites;
  search.live_count = live.count;
}

// Overflow staging for BPs with more than JaggedLiveBites::kMaxBites
// bites (JB beyond 8 dimensions): same layout, heap-backed,
// thread-local so the hot path never allocates after warm-up.
struct OverflowLiveBites {
  std::vector<uint32_t> corner;
  std::vector<const float*> inner;
  std::vector<float> bounds;  // test_lo then test_hi, cap*dim each
  size_t count = 0;
};

OverflowLiveBites& OverflowScratch() {
  static thread_local OverflowLiveBites scratch;
  return scratch;
}

// Fills the overflow staging arrays (empty bites filtered out, codec
// order preserved — the same live filter JaggedLiveBites::Add applies)
// and points `search` at them.
void BuildOverflowLiveBites(RegionSearch& search, size_t dim,
                            const float* lo, const float* hi,
                            const uint32_t* corners, const float* inners,
                            size_t bite_count) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  OverflowLiveBites& live = OverflowScratch();
  const size_t cap = std::min<size_t>(bite_count, 4096);
  // Plane rows are padded to a multiple of 8 floats so the SIMD
  // covering scan's whole-vector loads stay inside each row.
  const size_t stride = (cap + 7) & ~size_t{7};
  live.corner.resize(cap);
  live.inner.resize(cap);
  live.bounds.resize(2 * stride * dim);
  live.count = 0;
  float* plane_lo = live.bounds.data();
  float* plane_hi = plane_lo + stride * dim;
  for (size_t b = 0; b < bite_count && live.count < cap; ++b) {
    const uint32_t corner = corners[b];
    const float* inner = inners + b * dim;
    // Write the tentative live slot unconditionally (branchless; an
    // empty bite's slot is simply overwritten by the next candidate).
    const size_t slot = live.count;
    unsigned empty = 0;
    for (size_t d = 0; d < dim; ++d) {
      const unsigned hi_side = (corner >> d) & 1u;
      const float corner_coord = hi_side ? hi[d] : lo[d];
      const float in = inner[d];
      empty |= unsigned(in == corner_coord);
      plane_lo[d * stride + slot] = hi_side ? in : -kInf;
      plane_hi[d * stride + slot] = hi_side ? kInf : in;
    }
    live.corner[slot] = corner;
    live.inner[slot] = inner;
    live.count += 1 - empty;
  }
  search.live_corner = live.corner.data();
  search.live_inner = live.inner.data();
  search.plane_lo = plane_lo;
  search.plane_hi = plane_hi;
  search.plane_stride = stride;
  search.live_count = live.count;
}

// The recursion below is templated on the dimensionality (DIM == 0 is
// the runtime-dim fallback): the paper's workloads live at d <= 8, and
// fixing DIM at compile time fully unrolls the per-dimension loops in
// the covering scan, the clamp, and the child staging — the arithmetic
// is unchanged (no reassociation), so the result is bit-identical to
// the generic path.

// Index of the first live bite strictly containing the clamp point, or
// live_count if none. Same scan order and same strict float compares as
// the pre-SoA per-bite loop, so the selected bite (and therefore the
// whole recursion) is unchanged; only the branches are gone.
template <size_t DIM>
size_t FirstCoveringBite(const RegionSearch& search, const float* clamped) {
  const size_t dim = DIM == 0 ? search.dim : DIM;
  const size_t stride = search.plane_stride;
  for (size_t b = 0; b < search.live_count; ++b) {
    unsigned inside = 1;
    for (size_t d = 0; d < dim; ++d) {
      const float c = clamped[d];
      inside &= unsigned(search.plane_lo[d * stride + b] < c) &
                unsigned(c < search.plane_hi[d * stride + b]);
    }
    if (inside) return b;
  }
  return search.live_count;
}

// Covering-scan dispatch for the staged (stack) search: the AVX2
// variant tests 8 bites per compare over the dim-major planes and, being
// compare-only, returns exactly the scalar scan's index. The recursive
// reference path below calls FirstCoveringBite directly and stays fully
// scalar.
template <size_t DIM>
inline size_t CoveringScan(const RegionSearch& search, const float* clamped) {
#if defined(BW_HAVE_AVX2)
  if (search.simd_covering) {
    return detail::FirstCoveringBitePlanesAvx2(
        search.plane_lo, search.plane_hi, search.plane_stride,
        search.live_count, DIM == 0 ? search.dim : DIM, clamped);
  }
#endif
  return FirstCoveringBite<DIM>(search, clamped);
}

template <size_t DIM>
double SplitAroundBite(RegionSearch& search, const float* lo, const float* hi,
                       const float* clamped, double box_dist,
                       uint32_t covering_corner, const float* covering_inner,
                       double upper);

// Continues a box evaluation past its (already computed) clamp and box
// distance: consume a budget tick, look for a covering live bite, and
// split around it if one exists. The caller has already applied the
// `box_dist >= upper` prune.
template <size_t DIM>
double RegionDistanceResume(RegionSearch& search, const float* lo,
                            const float* hi, const float* clamped,
                            double box_dist, double upper) {
  if (--search.budget < 0) return box_dist;
  const size_t covering = FirstCoveringBite<DIM>(search, clamped);
  if (covering == search.live_count) {
    // The clamp point itself is in the region: exact.
    return box_dist;
  }
  return SplitAroundBite<DIM>(search, lo, hi, clamped, box_dist,
                              search.live_corner[covering],
                              search.live_inner[covering], upper);
}

// The recursive step once a covering bite is known: the region distance
// of (box \ bites) is the min over the <= dim sub-boxes obtained by
// clipping the box at the covering bite's interior face in each
// dimension. Children are visited nearest-first (by their plain box
// distance, which the split can compute cheaply before recursing):
// best-first order tightens `best` as fast as possible, and because a
// child's region distance is at least its box distance, the sorted scan
// stops outright once `best` is at or below the next child's box
// distance — the dominant saving on deep decompositions.
template <size_t DIM>
double SplitAroundBite(RegionSearch& search, const float* lo, const float* hi,
                       const float* clamped, double box_dist,
                       uint32_t covering_corner, const float* covering_inner,
                       double upper) {
  const size_t dim = DIM == 0 ? search.dim : DIM;
  const geom::Vec& q = *search.query;

  // The parent's per-dimension squared gaps, recomputed from its clamp
  // point — identical values and rounding as the parent's own
  // accumulation. A child box differs from its parent in exactly one
  // dimension, so each child's clamp and box distance need only one
  // dimension recomputed; re-summing the squared gaps in ascending
  // dimension order keeps the staged distance bit-identical to what a
  // fresh child evaluation would produce.
  double g2[kMaxRegionDim];
  for (size_t d = 0; d < dim; ++d) {
    const double gap = double(q[d]) - clamped[d];
    g2[d] = gap * gap;
  }

  // Stage every non-vanished child's clamp coordinate and box distance
  // (no budget consumed: this mirrors the upper-bound prune a child
  // evaluation would apply before its own budget tick).
  double child_dist[kMaxRegionDim];
  float child_c[kMaxRegionDim];  // the one clamp coordinate that changes
  uint8_t child_dim[kMaxRegionDim];
  size_t child_count = 0;
  for (size_t d = 0; d < dim; ++d) {
    const bool hi_side = ((covering_corner >> d) & 1u) != 0;
    const float clip = covering_inner[d];
    const float nlo = hi_side ? lo[d] : std::max(lo[d], clip);
    const float nhi = hi_side ? std::min(hi[d], clip) : hi[d];
    if (nlo > nhi) continue;  // Sub-box vanished.
    const float v = q[d];
    const float c = v < nlo ? nlo : (v > nhi ? nhi : v);
    const double gap = double(v) - c;
    const double saved = g2[d];
    g2[d] = gap * gap;
    double sum = 0.0;
    for (size_t dd = 0; dd < dim; ++dd) sum += g2[dd];
    g2[d] = saved;
    child_dist[child_count] = std::sqrt(sum);
    child_c[child_count] = c;
    child_dim[child_count] = static_cast<uint8_t>(d);
    ++child_count;
  }

  // Nearest-first visit order (insertion sort: at most `dim` children).
  size_t order[kMaxRegionDim];
  for (size_t i = 0; i < child_count; ++i) order[i] = i;
  for (size_t i = 1; i < child_count; ++i) {
    const size_t k = order[i];
    size_t j = i;
    for (; j > 0 && child_dist[order[j - 1]] > child_dist[k]; --j) {
      order[j] = order[j - 1];
    }
    order[j] = k;
  }

  double best = upper;
  float child_lo[kMaxRegionDim];
  float child_hi[kMaxRegionDim];
  float child_clamp[kMaxRegionDim];
  for (size_t i = 0; i < child_count; ++i) {
    const size_t k = order[i];
    // Sorted prune: every remaining child's box distance is >= this
    // one's, so none can improve `best`.
    if (child_dist[k] >= best) break;
    const size_t d = child_dim[k];
    std::copy(lo, lo + dim, child_lo);
    std::copy(hi, hi + dim, child_hi);
    std::copy(clamped, clamped + dim, child_clamp);
    child_clamp[d] = child_c[k];
    if ((covering_corner >> d) & 1u) {
      child_hi[d] = std::min(child_hi[d], covering_inner[d]);
    } else {
      child_lo[d] = std::max(child_lo[d], covering_inner[d]);
    }
    best = std::min(best, RegionDistanceResume<DIM>(search, child_lo, child_hi,
                                                    child_clamp, child_dist[k],
                                                    best));
    if (best <= box_dist + 1e-12) break;  // Cannot get closer than the box.
  }
  // If every sub-box vanished (the bites cover this whole box), `best`
  // stays at `upper`, correctly pruning the branch: no data lives here.
  return best;
}

// `upper` is the best region distance found so far anywhere in the
// search: branches whose plain box distance already reaches it cannot
// improve the answer and are pruned (branch and bound).
template <size_t DIM>
double RegionDistanceImpl(RegionSearch& search, const float* lo,
                          const float* hi, double upper) {
  const geom::Vec& q = *search.query;
  const size_t dim = DIM == 0 ? search.dim : DIM;

  double box_dist_sq = 0.0;
  float clamped[kMaxRegionDim];
  for (size_t d = 0; d < dim; ++d) {
    const float v = q[d];
    const float c = v < lo[d] ? lo[d] : (v > hi[d] ? hi[d] : v);
    clamped[d] = c;
    const double gap = double(v) - c;
    box_dist_sq += gap * gap;
  }
  const double box_dist = std::sqrt(box_dist_sq);
  if (box_dist >= upper) return upper;
  return RegionDistanceResume<DIM>(search, lo, hi, clamped, box_dist, upper);
}

// Dispatches once per region search to the dim-specialized recursion
// (dims 2..8 cover every paper workload; 0 is the runtime-dim fallback).
double RegionDistanceDispatch(RegionSearch& search, const float* lo,
                              const float* hi, double upper) {
  switch (search.dim) {
    case 2: return RegionDistanceImpl<2>(search, lo, hi, upper);
    case 3: return RegionDistanceImpl<3>(search, lo, hi, upper);
    case 4: return RegionDistanceImpl<4>(search, lo, hi, upper);
    case 5: return RegionDistanceImpl<5>(search, lo, hi, upper);
    case 6: return RegionDistanceImpl<6>(search, lo, hi, upper);
    case 7: return RegionDistanceImpl<7>(search, lo, hi, upper);
    case 8: return RegionDistanceImpl<8>(search, lo, hi, upper);
    default: return RegionDistanceImpl<0>(search, lo, hi, upper);
  }
}

// ---------------------------------------------------------------------------
// Flattened iterative region search (the staged/batch hot path)
// ---------------------------------------------------------------------------
//
// The recursion above is the bit-identity reference (JaggedMinDistanceRaw
// keeps it); the staged entry point used by the batched node scan runs
// this explicit LIFO stack instead. It visits the identical boxes in the
// identical depth-first nearest-first order, consumes budget ticks at
// the identical points, and applies the identical prunes, so its result
// is bit-for-bit the recursion's — the tests that compare batch scans
// against the scalar path enforce exactly that. What changes is the
// machinery: no call frames, child staging kept in flat reusable
// frames, and the covering scan dispatched to the 8-wide SIMD variant.

// Depth never exceeds 1 + (budget ticks): each pushed frame consumed
// one successful tick, and the search budget is <= 48.
constexpr size_t kMaxStackDepth = 64;

// One split-in-progress: a box, its clamp/distance, the covering bite
// being split around, and the staged (sorted) children not yet visited.
struct SplitFrame {
  float lo[kMaxRegionDim];
  float hi[kMaxRegionDim];
  float clamped[kMaxRegionDim];
  double box_dist;
  uint32_t corner;           // covering bite's corner mask
  const float* inner;        // covering bite's inner point
  // Per-dimension covering masks for THIS box's clamp point: bit b of
  // dim_mask[d] is the dimension-d strict-inside test of bite b (see
  // CoveringMaskDim). A child's clamp differs from its parent's in
  // exactly one dimension, so a child scan copies these and recomputes
  // a single row — the incremental trick that makes the stack search's
  // covering scans ~dim times cheaper than full rescans. Only
  // maintained when live_count <= 64 (JB up to 6 dimensions; larger
  // bite sets take the full-scan fallback).
  uint64_t dim_mask[kMaxRegionDim];
  double child_dist[kMaxRegionDim];
  float child_c[kMaxRegionDim];  // the one clamp coordinate that changes
  uint8_t child_dim[kMaxRegionDim];
  uint8_t order[kMaxRegionDim];
  uint32_t child_count;
  uint32_t next;  // index into `order` of the next child to visit
};

// Bit b: does clamp coordinate `c` pass bite b's dimension-`d` strict
// inside test? Exact compares (identical to FirstCoveringBite's per-dim
// term), so ANDing the masks over all dimensions and taking the lowest
// set bit selects exactly the bite the full scan would. Bits at or past
// live_count may be garbage (SIMD reads whole 8-lane blocks); callers
// AND with the valid mask.
template <size_t DIM>
uint64_t CoveringMaskDim(const RegionSearch& search, size_t d, float c) {
  const float* row_lo = search.plane_lo + d * search.plane_stride;
  const float* row_hi = search.plane_hi + d * search.plane_stride;
#if defined(BW_HAVE_AVX2)
  if (search.simd_covering) {
    return detail::CoveringMaskDimAvx2(row_lo, row_hi, search.live_count, c);
  }
#endif
  uint64_t m = 0;
  for (size_t b = 0; b < search.live_count; ++b) {
    m |= static_cast<uint64_t>(unsigned(row_lo[b] < c) &
                               unsigned(c < row_hi[b]))
         << b;
  }
  return m;
}

// Stages the children of the split around f.corner/f.inner: the same
// arithmetic, in the same order, as SplitAroundBite's staging block
// (g2 recomputed from the parent clamp; one-dimension re-sum per child
// in ascending dimension order; nearest-first insertion sort), so the
// staged distances are bit-identical to what the recursion computes.
template <size_t DIM>
void StageSplitChildren(const RegionSearch& search, SplitFrame& f) {
  const size_t dim = DIM == 0 ? search.dim : DIM;
  const geom::Vec& q = *search.query;

  double g2[kMaxRegionDim];
  for (size_t d = 0; d < dim; ++d) {
    const double gap = double(q[d]) - f.clamped[d];
    g2[d] = gap * gap;
  }

  f.child_count = 0;
  f.next = 0;
  for (size_t d = 0; d < dim; ++d) {
    const bool hi_side = ((f.corner >> d) & 1u) != 0;
    const float clip = f.inner[d];
    const float nlo = hi_side ? f.lo[d] : std::max(f.lo[d], clip);
    const float nhi = hi_side ? std::min(f.hi[d], clip) : f.hi[d];
    if (nlo > nhi) continue;  // Sub-box vanished.
    const float v = q[d];
    const float c = v < nlo ? nlo : (v > nhi ? nhi : v);
    const double gap = double(v) - c;
    const double saved = g2[d];
    g2[d] = gap * gap;
    double sum = 0.0;
    for (size_t dd = 0; dd < dim; ++dd) sum += g2[dd];
    g2[d] = saved;
    f.child_dist[f.child_count] = std::sqrt(sum);
    f.child_c[f.child_count] = c;
    f.child_dim[f.child_count] = static_cast<uint8_t>(d);
    ++f.child_count;
  }

  for (uint32_t i = 0; i < f.child_count; ++i) {
    f.order[i] = static_cast<uint8_t>(i);
  }
  for (uint32_t i = 1; i < f.child_count; ++i) {
    const uint8_t k = f.order[i];
    uint32_t j = i;
    for (; j > 0 && f.child_dist[f.order[j - 1]] > f.child_dist[k]; --j) {
      f.order[j] = f.order[j - 1];
    }
    f.order[j] = k;
  }
}

// The iterative equivalent of SplitAroundBite + RegionDistanceResume,
// entered (like the staged recursion) at the root split. `best` threads
// the recursion's upper bound: a child call's `upper` is always the
// caller's current best, and its return value becomes the caller's new
// best, so one variable carries both. The three recursion exits map to:
//   child_dist >= best   -> pop (the sorted-scan break),
//   best <= box_dist+eps -> pop on resume (the cannot-get-closer break,
//                           checked only after at least one child, as in
//                           the recursion's loop tail),
//   budget/no-covering   -> fold the child's box distance into best.
template <size_t DIM>
double StackRegionSearch(RegionSearch& search, const float* lo,
                         const float* hi, const float* clamped,
                         double box_dist, uint32_t covering_corner,
                         const float* covering_inner, double upper) {
  const size_t dim = DIM == 0 ? search.dim : DIM;
  BW_CHECK_LT(static_cast<size_t>(search.budget) + 2, kMaxStackDepth);

  // Incremental covering masks fit 64 bites; beyond that every child
  // scan falls back to the full plane scan (CoveringScan).
  const bool use_masks = search.live_count <= 64;
  const uint64_t valid_mask =
      search.live_count >= 64 ? ~uint64_t{0}
                              : (uint64_t{1} << search.live_count) - 1;

  SplitFrame frames[kMaxStackDepth];
  SplitFrame& root = frames[0];
  std::copy(lo, lo + dim, root.lo);
  std::copy(hi, hi + dim, root.hi);
  std::copy(clamped, clamped + dim, root.clamped);
  root.box_dist = box_dist;
  root.corner = covering_corner;
  root.inner = covering_inner;
  if (use_masks) {
    for (size_t d = 0; d < dim; ++d) {
      root.dim_mask[d] = CoveringMaskDim<DIM>(search, d, clamped[d]);
    }
  }
  StageSplitChildren<DIM>(search, root);

  double best = upper;
  size_t depth = 1;
  while (depth > 0) {
    SplitFrame& f = frames[depth - 1];
    if (f.next > 0 && best <= f.box_dist + 1e-12) {
      --depth;  // Cannot get closer than this box: abandon its siblings.
      continue;
    }
    if (f.next >= f.child_count) {
      --depth;
      continue;
    }
    const size_t k = f.order[f.next++];
    if (f.child_dist[k] >= best) {
      --depth;  // Sorted scan: no remaining child can improve best.
      continue;
    }

    // Visit the child: build its box and clamp in the next frame slot
    // (it becomes a real frame only if the child itself splits).
    SplitFrame& g = frames[depth];
    const size_t d = f.child_dim[k];
    std::copy(f.lo, f.lo + dim, g.lo);
    std::copy(f.hi, f.hi + dim, g.hi);
    std::copy(f.clamped, f.clamped + dim, g.clamped);
    g.clamped[d] = f.child_c[k];
    if ((f.corner >> d) & 1u) {
      g.hi[d] = std::min(g.hi[d], f.inner[d]);
    } else {
      g.lo[d] = std::max(g.lo[d], f.inner[d]);
    }
    g.box_dist = f.child_dist[k];

    if (--search.budget < 0) {
      best = std::min(best, g.box_dist);  // Admissible budget fallback.
      continue;
    }
    size_t covering;
    if (use_masks) {
      // Only dimension d's clamp coordinate changed: inherit the other
      // rows' masks, recompute d's, AND them all. Lowest set bit =
      // first covering bite, exactly as the full scan.
      std::copy(f.dim_mask, f.dim_mask + dim, g.dim_mask);
      g.dim_mask[d] = CoveringMaskDim<DIM>(search, d, g.clamped[d]);
      uint64_t all = valid_mask;
      for (size_t dd = 0; dd < dim; ++dd) all &= g.dim_mask[dd];
      covering = all != 0 ? static_cast<size_t>(__builtin_ctzll(all))
                          : search.live_count;
    } else {
      covering = CoveringScan<DIM>(search, g.clamped);
    }
    if (covering == search.live_count) {
      best = std::min(best, g.box_dist);  // Clamp in region: exact.
      continue;
    }
    g.corner = search.live_corner[covering];
    g.inner = search.live_inner[covering];
    StageSplitChildren<DIM>(search, g);
    ++depth;
  }
  return best;
}

double StackRegionSearchDispatch(RegionSearch& search, const float* lo,
                                 const float* hi, const float* clamped,
                                 double box_dist, uint32_t covering_corner,
                                 const float* covering_inner, double upper) {
  switch (search.dim) {
    case 2:
      return StackRegionSearch<2>(search, lo, hi, clamped, box_dist,
                                  covering_corner, covering_inner, upper);
    case 3:
      return StackRegionSearch<3>(search, lo, hi, clamped, box_dist,
                                  covering_corner, covering_inner, upper);
    case 4:
      return StackRegionSearch<4>(search, lo, hi, clamped, box_dist,
                                  covering_corner, covering_inner, upper);
    case 5:
      return StackRegionSearch<5>(search, lo, hi, clamped, box_dist,
                                  covering_corner, covering_inner, upper);
    case 6:
      return StackRegionSearch<6>(search, lo, hi, clamped, box_dist,
                                  covering_corner, covering_inner, upper);
    case 7:
      return StackRegionSearch<7>(search, lo, hi, clamped, box_dist,
                                  covering_corner, covering_inner, upper);
    case 8:
      return StackRegionSearch<8>(search, lo, hi, clamped, box_dist,
                                  covering_corner, covering_inner, upper);
    default:
      return StackRegionSearch<0>(search, lo, hi, clamped, box_dist,
                                  covering_corner, covering_inner, upper);
  }
}

}  // namespace

double JaggedMinDistanceRaw(size_t dim, const float* lo, const float* hi,
                            const uint32_t* corners, const float* inners,
                            size_t bite_count, const geom::Vec& query) {
  BW_CHECK_LE(dim, kMaxRegionDim);
  RegionSearch search;
  search.query = &query;
  search.dim = dim;
  search.budget = 48;
  JaggedLiveBites live;
  if (bite_count <= JaggedLiveBites::kMaxBites) {
    for (size_t b = 0; b < bite_count; ++b) {
      live.Add(dim, lo, hi, corners[b], inners + b * dim);
    }
    PointSearchAtLive(search, live);
  } else {
    BuildOverflowLiveBites(search, dim, lo, hi, corners, inners, bite_count);
  }
  return RegionDistanceDispatch(search, lo, hi,
                                std::numeric_limits<double>::infinity());
}

double JaggedMinDistanceStaged(size_t dim, const float* lo, const float* hi,
                               const JaggedLiveBites& live,
                               size_t covering_live_index,
                               const geom::Vec& query, const float* clamped,
                               double box_dist_sq) {
  BW_CHECK_LE(dim, kMaxRegionDim);
  RegionSearch search;
  search.query = &query;
  search.dim = dim;
  // Replays the root-level step of JaggedMinDistanceRaw without
  // recomputing the clamp or rescanning for the covering bite: at the
  // root, `upper` is +inf (the box-distance prune cannot fire) and the
  // budget check (48 -> 47) cannot fire either, and the caller's
  // mask-filtered covering test selects the same first live bite the
  // root scan would (the filter drops only provably-non-containing
  // bites and preserves codec order), so resuming at the split is a
  // bit-identical recursion.
  search.budget = 47;
#if defined(BW_HAVE_AVX2)
  search.simd_covering =
      util::ActiveKernelIsa() == util::KernelIsa::kAvx2;
#endif
  PointSearchAtLive(search, live);
  const double box_dist = std::sqrt(box_dist_sq);
  // The staged hot path runs the flattened stack (bit-identical to the
  // recursion; see StackRegionSearch).
  return StackRegionSearchDispatch(search, lo, hi, clamped, box_dist,
                                   live.corner[covering_live_index],
                                   live.inner[covering_live_index],
                                   std::numeric_limits<double>::infinity());
}

double JaggedMinDistance(const geom::Rect& mbr,
                         const std::vector<Bite>& bites,
                         const geom::Vec& query) {
  const size_t dim = query.dim();
  BW_CHECK_LE(dim, kMaxRegionDim);
  // Flatten the bites into the raw layout (bounded stack buffers).
  BW_CHECK_LE(bites.size(), 4096u);
  static thread_local std::vector<uint32_t> corners;
  static thread_local std::vector<float> inners;
  corners.clear();
  inners.clear();
  for (const Bite& bite : bites) {
    corners.push_back(bite.corner);
    for (size_t d = 0; d < dim; ++d) inners.push_back(bite.inner[d]);
  }
  float lo[kMaxRegionDim];
  float hi[kMaxRegionDim];
  for (size_t d = 0; d < dim; ++d) {
    lo[d] = mbr.lo()[d];
    hi[d] = mbr.hi()[d];
  }
  return JaggedMinDistanceRaw(dim, lo, hi, corners.data(), inners.data(),
                              corners.size(), query);
}

}  // namespace bw::core
