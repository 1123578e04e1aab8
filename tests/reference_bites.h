// Test-only reference constructions of the corner bites: the original
// NibbleAllCorners and MaxVolumeCorners of src/core/bites.cc, which
// re-test every content element at every nibble step and at every
// extension (cost ~ steps * n * D per corner). The library's
// near-linear versions must return exactly these bites, so every page
// the tree writes stays byte-identical; core_test compares the two.

#ifndef BLOBWORLD_TESTS_REFERENCE_BITES_H_
#define BLOBWORLD_TESTS_REFERENCE_BITES_H_

#include <algorithm>
#include <functional>
#include <vector>

#include "core/bites.h"
#include "geom/rect.h"
#include "geom/vec.h"
#include "util/logging.h"

namespace bw::core::reference {

inline bool CornerAtHi(uint32_t corner, size_t d) {
  return ((corner >> d) & 1u) != 0;
}

inline std::vector<Bite> NibbleAllCorners(
    const geom::Rect& mbr, const std::vector<geom::Rect>& contents) {
  const size_t dim = mbr.dim();
  BW_CHECK_LE(dim, 16u);
  const uint32_t corner_count = 1u << dim;

  // Per dimension, the content coordinates that nibbling can step
  // through: ascending (for lo corners) and descending (for hi corners),
  // deduplicated. Index 0 is the MBR face itself (zero-extent bite).
  std::vector<std::vector<float>> ascending(dim);
  std::vector<std::vector<float>> descending(dim);
  for (size_t d = 0; d < dim; ++d) {
    std::vector<float>& asc = ascending[d];
    std::vector<float>& desc = descending[d];
    asc.reserve(contents.size());
    desc.reserve(contents.size());
    for (const geom::Rect& r : contents) {
      asc.push_back(r.lo()[d]);
      desc.push_back(r.hi()[d]);
    }
    std::sort(asc.begin(), asc.end());
    asc.erase(std::unique(asc.begin(), asc.end()), asc.end());
    std::sort(desc.begin(), desc.end(), std::greater<float>());
    desc.erase(std::unique(desc.begin(), desc.end()), desc.end());
  }

  std::vector<Bite> bites;
  bites.reserve(corner_count);
  for (uint32_t corner = 0; corner < corner_count; ++corner) {
    Bite bite;
    bite.corner = corner;
    bite.inner = geom::Vec(dim);

    // Figure 13: simultaneously nibble the next projected value in each
    // dimension until content stops the nibbling everywhere.
    std::vector<size_t> how_far(dim, 0);
    std::vector<bool> done(dim, false);
    size_t stopped = 0;

    auto value_at = [&](size_t d, size_t steps) {
      const auto& vals = CornerAtHi(corner, d) ? descending[d] : ascending[d];
      return vals[std::min(steps, vals.size() - 1)];
    };
    auto values_count = [&](size_t d) {
      return (CornerAtHi(corner, d) ? descending[d] : ascending[d]).size();
    };

    while (stopped < dim) {
      for (size_t d = 0; d < dim; ++d) {
        if (done[d]) continue;
        if (how_far[d] + 1 >= values_count(d)) {
          done[d] = true;
          ++stopped;
          continue;
        }
        ++how_far[d];
        Bite candidate;
        candidate.corner = corner;
        candidate.inner = geom::Vec(dim);
        for (size_t d2 = 0; d2 < dim; ++d2) {
          candidate.inner[d2] = value_at(d2, how_far[d2]);
        }
        bool blocked = false;
        for (const geom::Rect& r : contents) {
          if (RectIntersectsBite(mbr, candidate, r)) {
            blocked = true;
            break;
          }
        }
        if (blocked) {
          --how_far[d];
          done[d] = true;
          ++stopped;
        }
      }
    }

    for (size_t d = 0; d < dim; ++d) {
      bite.inner[d] = value_at(d, how_far[d]);
    }
    bites.push_back(std::move(bite));
  }
  return bites;
}

inline std::vector<Bite> MaxVolumeCorners(
    const geom::Rect& mbr, const std::vector<geom::Rect>& contents) {
  const size_t dim = mbr.dim();
  BW_CHECK_LE(dim, 16u);

  // Extends dimension d of the quadrant (corner .. inner) as far as
  // possible while keeping it free of contents. A content rect blocks
  // only if it protrudes strictly beyond `inner` in every other
  // dimension; the extension must stop at the extreme coordinate of the
  // blocking set, which keeps the quadrant empty by construction.
  auto extend_dim = [&](uint32_t corner, geom::Vec& inner, size_t d) {
    const bool hi = CornerAtHi(corner, d);
    // Start from the fully-extended position (the opposite face).
    float limit = hi ? mbr.lo()[d] : mbr.hi()[d];
    for (const geom::Rect& r : contents) {
      bool beyond_elsewhere = true;
      for (size_t d2 = 0; d2 < dim; ++d2) {
        if (d2 == d) continue;
        if (CornerAtHi(corner, d2)) {
          if (!(r.hi()[d2] > inner[d2])) {
            beyond_elsewhere = false;
            break;
          }
        } else {
          if (!(r.lo()[d2] < inner[d2])) {
            beyond_elsewhere = false;
            break;
          }
        }
      }
      if (!beyond_elsewhere) continue;
      if (hi) {
        limit = std::max(limit, r.hi()[d]);
      } else {
        limit = std::min(limit, r.lo()[d]);
      }
    }
    inner[d] = limit;
  };

  // Dimension orders to try: all cyclic rotations, forward and reversed.
  std::vector<std::vector<size_t>> orders;
  for (size_t rot = 0; rot < dim; ++rot) {
    std::vector<size_t> fwd(dim);
    std::vector<size_t> rev(dim);
    for (size_t i = 0; i < dim; ++i) {
      fwd[i] = (rot + i) % dim;
      rev[i] = (rot + dim - i) % dim;
    }
    orders.push_back(std::move(fwd));
    if (dim > 2) orders.push_back(std::move(rev));
  }

  // Seed with the Figure-13 nibble bites (valid by construction), then
  // run maximal extension passes. Seeding matters: extending dimensions
  // of a zero-size quadrant in sequence degenerates (early dimensions
  // extend fully and block every later one); from a square-ish seed the
  // extension rule converges to a genuinely maximal empty quadrant.
  std::vector<Bite> seeds = NibbleAllCorners(mbr, contents);
  std::vector<Bite> bites;
  bites.reserve(seeds.size());
  for (Bite& seed : seeds) {
    Bite best = seed;
    double best_volume = best.Volume(mbr);
    for (const auto& order : orders) {
      Bite candidate = seed;
      for (int pass = 0; pass < 2; ++pass) {
        for (size_t d : order) extend_dim(candidate.corner, candidate.inner, d);
      }
      const double volume = candidate.Volume(mbr);
      if (volume > best_volume) {
        best_volume = volume;
        best = candidate;
      }
    }
    bites.push_back(std::move(best));
  }
  return bites;
}

}  // namespace bw::core::reference

#endif  // BLOBWORLD_TESTS_REFERENCE_BITES_H_
