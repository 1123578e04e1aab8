// Shared base for the jagged bounding predicates (JB and XJB): an MBR
// with rectangular bites removed from its corners, where spherical
// nearest-neighbor queries are most likely to impinge (Section 5 of the
// paper).

#ifndef BLOBWORLD_CORE_JAGGED_H_
#define BLOBWORLD_CORE_JAGGED_H_

#include <string>
#include <vector>

#include "core/bites.h"
#include "gist/extension.h"

namespace bw::core {

/// A decoded jagged predicate.
struct JaggedBp {
  geom::Rect mbr;
  std::vector<Bite> bites;  // empty bites may be omitted by the codec.
};

/// Common behavior of JB and XJB; subclasses provide the codec and the
/// bite-selection policy.
class JaggedExtension : public gist::Extension {
 public:
  JaggedExtension(size_t dim, uint64_t seed, double min_fill,
                  BiteAlgorithm algorithm)
      : Extension(dim, seed), min_fill_(min_fill), algorithm_(algorithm) {}

  BiteAlgorithm bite_algorithm() const { return algorithm_; }

  gist::Bytes BpFromPoints(const std::vector<geom::Vec>& points) override;
  gist::Bytes BpFromChildBps(const std::vector<gist::Bytes>& children) override;
  double BpMinDistance(gist::ByteSpan bp,
                       const geom::Vec& query) const override;
  double BpPenalty(gist::ByteSpan bp, const geom::Vec& point) const override;
  geom::Vec BpCenter(gist::ByteSpan bp) const override;
  gist::Bytes BpIncludePoint(gist::ByteSpan bp,
                             const geom::Vec& point) const override;
  gist::SplitAssignment PickSplitPoints(
      const std::vector<geom::Vec>& points) override;
  gist::SplitAssignment PickSplitBps(
      const std::vector<gist::Bytes>& bps) override;
  double BpVolume(gist::ByteSpan bp) const override;
  std::string BpToString(gist::ByteSpan bp) const override;

  /// Decodes a BP (codec provided by the subclass).
  virtual JaggedBp Decode(gist::ByteSpan bp) const = 0;

 protected:
  /// Encodes mbr + the subclass's selection of `bites` (which arrive as
  /// the full 2^D nibble result, indexed by corner).
  virtual gist::Bytes Encode(const geom::Rect& mbr,
                             const std::vector<Bite>& all_bites) const = 0;

  /// Builds the BP over content rectangles (points are degenerate).
  gist::Bytes BuildOver(const std::vector<geom::Rect>& contents);

  /// Shared batched min-distance for both jagged codecs. Fast path: a
  /// vectorized MBR clamp pass (am::RectClampMinDistSquared), then a
  /// per-entry test of whether the clamp point falls strictly inside any
  /// bite — when it does not, the region search's exact answer IS the
  /// box distance (RegionDistanceImpl returns it before any recursion),
  /// so sqrt(box_dist_sq) is bit-identical to the scalar result. Only
  /// covered entries (query clamps into a carved corner) run the
  /// recursive region search, resumed from the already-computed clamp
  /// and covering bite (JaggedMinDistanceStaged — bit-identical to the
  /// scalar path by construction). `interleaved` selects the codec:
  /// false = JB's
  /// positional corners (bite c's inner at float (2+c)*D), true = XJB's
  /// (u32 corner, D floats) records after the MBR.
  void BatchMinDistanceImpl(gist::BatchScratch& scratch,
                            const geom::Vec& query, size_t bite_count,
                            bool interleaved) const;

  /// Shared batched consistent() with the range radius pushed down into
  /// the scan: an entry whose box distance already exceeds `radius` is
  /// inconsistent without running the covering test or the region
  /// search, because the region distance can never be smaller than the
  /// box distance (every value the recursion returns — exact distances,
  /// child box distances on budget exhaustion, pruned bounds — is >= the
  /// root box distance). Entries within `radius` of the box run the
  /// identical min-distance path, so scratch.consistent is bit-identical
  /// to the scalar BpConsistentRange decision, and scratch.distances of
  /// every consistent entry is the BatchMinDistanceImpl double (see
  /// gist/extension.h).
  void BatchConsistentRangeImpl(gist::BatchScratch& scratch,
                                const geom::Vec& query, size_t bite_count,
                                bool interleaved, double radius) const;

  /// Dim-specialized body behind both dispatchers above (DIM = 0 is the
  /// runtime-dim fallback; `range_mode` selects the radius push-down).
  template <size_t DIM>
  void BatchScanImpl(gist::BatchScratch& scratch, const geom::Vec& query,
                     size_t bite_count, bool interleaved, bool range_mode,
                     double radius) const;

  /// Covered-entry fallback of BatchScanImpl: stages one BP's
  /// live bites in a single pass and resumes the region search from the
  /// batch pass's clamp point, squared box distance, and covering bite
  /// (`covering_bite` is the codec index the batch test identified).
  /// Oversized BPs (over 256 bites or 16 dimensions) take the scalar
  /// virtual call instead, as the scalar overrides themselves do.
  template <size_t DIM>
  double BatchCoveredMinDistance(gist::ByteSpan bp, const geom::Vec& query,
                                 size_t bite_count, bool interleaved,
                                 size_t covering_bite, const float* clamped,
                                 double box_dist_sq) const;

  double min_fill_;
  BiteAlgorithm algorithm_;
};

/// JB ("Jagged Bites", Section 5.2): keeps a bite for every one of the
/// 2^D corners, stored positionally — BP size (2 + 2^D)·D floats,
/// matching Table 3.
class JbExtension : public JaggedExtension {
 public:
  explicit JbExtension(size_t dim, uint64_t seed = 42, double min_fill = 0.40,
                       BiteAlgorithm algorithm = BiteAlgorithm::kMaxVolume)
      : JaggedExtension(dim, seed, min_fill, algorithm) {
    BW_CHECK_LE(dim, 12u);  // 2^D bites must stay addressable in a page.
  }

  std::string Name() const override { return "jb"; }
  JaggedBp Decode(gist::ByteSpan bp) const override;
  /// Allocation-free hot-path override (parses the BP on the stack).
  double BpMinDistance(gist::ByteSpan bp,
                       const geom::Vec& query) const override;
  void BpMinDistanceBatch(gist::BatchScratch& scratch,
                          const geom::Vec& query) const override;
  void BpConsistentRangeBatch(gist::BatchScratch& scratch,
                              const geom::Vec& query,
                              double radius) const override;

  /// BP size in floats: (2 + 2^D) * D.
  size_t BpFloatCount() const { return (2 + (size_t{1} << dim())) * dim(); }

 protected:
  gist::Bytes Encode(const geom::Rect& mbr,
                     const std::vector<Bite>& all_bites) const override;
};

/// XJB ("Top X Jagged Bites", Section 5.3): keeps only the X
/// largest-volume bites, each tagged with its corner — BP size
/// 2D + (D+1)·X numbers, matching Table 3.
class XjbExtension : public JaggedExtension {
 public:
  XjbExtension(size_t dim, size_t x, uint64_t seed = 42,
               double min_fill = 0.40,
               BiteAlgorithm algorithm = BiteAlgorithm::kMaxVolume)
      : JaggedExtension(dim, seed, min_fill, algorithm), x_(x) {
    BW_CHECK_LE(x, size_t{1} << dim);
  }

  /// Workload-aware bite selection (the paper's future-work item: "the
  /// ideal bites ... would minimize the number of queries incorrectly
  /// impinging into the BP from outside of it"). When reference query
  /// points are supplied, Encode ranks each corner's bite by how many
  /// reference queries clamp into it (those are exactly the queries the
  /// bite can shield), with volume as the tiebreak; without references
  /// it falls back to the paper's largest-volume heuristic.
  void SetReferenceQueries(std::vector<geom::Vec> queries) {
    reference_queries_ = std::move(queries);
  }
  bool has_reference_queries() const { return !reference_queries_.empty(); }

  std::string Name() const override { return "xjb"; }
  uint32_t AuxParam() const override { return static_cast<uint32_t>(x_); }
  size_t x() const { return x_; }
  JaggedBp Decode(gist::ByteSpan bp) const override;
  /// Allocation-free hot-path override (parses the BP on the stack).
  double BpMinDistance(gist::ByteSpan bp,
                       const geom::Vec& query) const override;
  void BpMinDistanceBatch(gist::BatchScratch& scratch,
                          const geom::Vec& query) const override;
  void BpConsistentRangeBatch(gist::BatchScratch& scratch,
                              const geom::Vec& query,
                              double radius) const override;

  /// BP size in stored numbers: 2D + (D+1)*X.
  size_t BpNumberCount() const { return 2 * dim() + (dim() + 1) * x_; }

 protected:
  gist::Bytes Encode(const geom::Rect& mbr,
                     const std::vector<Bite>& all_bites) const override;

 private:
  size_t x_;
  std::vector<geom::Vec> reference_queries_;
};

/// Implements the paper's future-work item "a means for the best X to be
/// automatically selected": returns the largest X whose estimated tree
/// height equals the height at X = 1 ("as large as possible without
/// causing the index to add another level"), given the leaf count the
/// bulk loader will produce.
size_t AutoSelectXjbX(size_t num_points, size_t dim, size_t page_bytes,
                      double fill_fraction);

/// Estimated bulk-loaded tree height for an XJB tree with parameter `x`.
int EstimateXjbHeight(size_t num_points, size_t dim, size_t x,
                      size_t page_bytes, double fill_fraction);

}  // namespace bw::core

#endif  // BLOBWORLD_CORE_JAGGED_H_
