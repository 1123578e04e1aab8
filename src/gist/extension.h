// The GiST extension interface (Hellerstein/Naughton/Pfeffer, VLDB '95).
//
// A GiST is specialized to a particular access method by supplying a set
// of extension methods that define the bounding predicates (BPs): how a
// BP is built over leaf points or child BPs, how search decides whether a
// BP is consistent with a query, and how inserts choose and split
// subtrees. Everything the tree stores is opaque bytes; only the
// extension can interpret them.
//
// This project stores points (blob feature vectors) at the leaves and a
// per-AM predicate in internal entries, exactly as the paper's R/SS/SR/
// MAP/JB/XJB trees do.

#ifndef BLOBWORLD_GIST_EXTENSION_H_
#define BLOBWORLD_GIST_EXTENSION_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "geom/vec.h"
#include "util/random.h"

namespace bw::gist {

using Bytes = std::vector<uint8_t>;
using ByteSpan = std::span<const uint8_t>;

/// Result of a pickSplit: entry i goes to the right node iff
/// assignment[i] is true. Both sides must be non-empty.
using SplitAssignment = std::vector<bool>;

/// Reusable scratch for batched node scans. A search owns one of these
/// (inside a gist::NodeScan) and refills it per node, so steady-state
/// traversal performs zero allocations: the vectors grow to the largest
/// node seen and stay there.
///
/// `preds` is the input (one span per entry, viewing the node page);
/// `soa` is kernel staging in dim-major layout — plane d occupies
/// [d * count, (d + 1) * count), so the inner loop of a kernel walks
/// contiguous floats of one coordinate across all entries; `distances`
/// and `consistent` are the outputs, indexed like `preds`. Leaf scans
/// (NodeScan::ScanLeaf) read points in place from the page and fill
/// only `distances`, one per point they keep; they use neither `preds`
/// nor `soa`.
struct BatchScratch {
  std::vector<ByteSpan> preds;
  std::vector<float> soa;
  std::vector<double> soa_d;  // double staging (radii, partial bounds).
  std::vector<double> distances;
  std::vector<uint8_t> consistent;  // 0/1 per entry.

  void Clear() { preds.clear(); }
  size_t count() const { return preds.size(); }
};

/// Access-method extension: the complete per-AM behavior pluggable into
/// the GiST template algorithms. Implementations must be deterministic
/// given their construction seed (randomized heuristics such as aMAP's
/// partition sampling draw from the internal Rng).
class Extension {
 public:
  explicit Extension(size_t dim, uint64_t seed = 42)
      : dim_(dim), rng_(seed) {
    BW_CHECK_GT(dim, 0u);
  }
  virtual ~Extension() = default;

  Extension(const Extension&) = delete;
  Extension& operator=(const Extension&) = delete;

  size_t dim() const { return dim_; }

  /// Human-readable AM name ("rtree", "xjb", ...).
  virtual std::string Name() const = 0;

  /// One extension-specific tuning parameter persisted alongside the
  /// index (XJB stores its X here); 0 when the AM has none. An index
  /// file must be reopened with the parameters it was built with or its
  /// predicates would be misparsed.
  virtual uint32_t AuxParam() const { return 0; }

  // --- Leaf keys (shared across all AMs: raw float coordinates) -------

  /// Serializes a point into a leaf key (dim() little-endian floats).
  Bytes EncodePoint(const geom::Vec& point) const;
  /// Parses a leaf key back into a point.
  geom::Vec DecodePoint(ByteSpan bytes) const;
  /// Size in bytes of an encoded leaf key.
  size_t PointBytes() const { return dim_ * sizeof(float); }

  /// Distance from `query` to one leaf key without materializing a Vec;
  /// bit-identical to query.DistanceTo(DecodePoint(key)). The scalar
  /// reference for the bounded leaf scan (gist::NodeScan::ScanLeaf),
  /// which every search uses; like DecodePoint, it aborts in every
  /// build on a key that is not PointBytes() long.
  double PointDistance(ByteSpan key, const geom::Vec& query) const;

  // --- Bounding predicates --------------------------------------------

  /// Builds the BP covering a set of leaf points (bulk load, leaf level).
  virtual Bytes BpFromPoints(const std::vector<geom::Vec>& points) = 0;

  /// Builds the BP covering a set of child BPs (bulk load, inner levels;
  /// also used to refresh a parent entry after inserts/splits).
  virtual Bytes BpFromChildBps(const std::vector<Bytes>& children) = 0;

  /// Admissible lower bound on the distance from `query` to any point
  /// covered by the BP (0 if the query lies inside). This drives both
  /// best-first k-NN ordering and range-search pruning; it must never
  /// exceed the true minimum distance, or search would lose results.
  virtual double BpMinDistance(ByteSpan bp, const geom::Vec& query) const = 0;

  /// consistent() for an expanding-sphere / range query: may the subtree
  /// contain a point within `radius` of `query`?
  virtual bool BpConsistentRange(ByteSpan bp, const geom::Vec& query,
                                 double radius) const {
    return BpMinDistance(bp, query) <= radius;
  }

  // --- Batched node scans ----------------------------------------------
  //
  // One virtual call per node instead of per entry. The contract for
  // every override is bit-identity: scratch.distances[i] must equal
  // BpMinDistance(scratch.preds[i], query) exactly (same doubles, not
  // just close), and scratch.consistent[i] must equal
  // BpConsistentRange(preds[i], query, radius). The property test in
  // tests/batch_kernel_test.cc enforces this for every AM. Overrides
  // decode the node's predicates once into scratch.soa (dim-major) and
  // run the tight kernels in am/bp_kernels.h.

  /// Fills scratch.distances for every predicate in scratch.preds.
  /// Default: scalar loop over BpMinDistance (correct for any AM).
  virtual void BpMinDistanceBatch(BatchScratch& scratch,
                                  const geom::Vec& query) const;

  /// Fills scratch.consistent for every predicate, and, wherever
  /// consistent[i] is 1, scratch.distances[i] with exactly the double
  /// BpMinDistanceBatch writes for that entry under the same kernel
  /// dispatch (util/cpu.h). Searches rely on both: they push their
  /// pruning distance down as `radius` and queue consistent children
  /// with these distances as bounds, so the children and bounds must be
  /// those of a BpMinDistanceBatch scan followed by `<= radius`. For
  /// inconsistent entries distances[i] is unspecified: overrides may
  /// push `radius` down into the scan and skip the exact distance of an
  /// entry whose admissible lower bound already exceeds it. Default
  /// derives from BpMinDistanceBatch with the same `<= radius` test as
  /// the scalar default above; an AM that overrides BpConsistentRange
  /// with different logic must override this too.
  virtual void BpConsistentRangeBatch(BatchScratch& scratch,
                                      const geom::Vec& query,
                                      double radius) const;

  /// Insertion penalty: cost of widening `bp` to absorb `point` (the
  /// R-tree uses volume enlargement). Lower is better.
  virtual double BpPenalty(ByteSpan bp, const geom::Vec& point) const = 0;

  /// A representative point of the BP (rect/sphere center), used by the
  /// STR bulk loader to spatially order upper tree levels.
  virtual geom::Vec BpCenter(ByteSpan bp) const = 0;

  /// Minimally widens `bp` so it also covers `point`. This is the
  /// classic R-tree AdjustTree step: INSERT only ever *enlarges* the
  /// predicates on its descent path (it never re-tightens them), which
  /// is exactly why insertion-loaded trees accumulate sloppy BPs —
  /// the effect the paper's Table 2 quantifies.
  virtual Bytes BpIncludePoint(ByteSpan bp, const geom::Vec& point) const = 0;

  /// Splits an over-full leaf's points into two groups.
  virtual SplitAssignment PickSplitPoints(
      const std::vector<geom::Vec>& points) = 0;

  /// Splits an over-full internal node's child BPs into two groups.
  virtual SplitAssignment PickSplitBps(const std::vector<Bytes>& bps) = 0;

  // --- Diagnostics ------------------------------------------------------

  /// Volume enclosed by the BP (for excess-coverage diagnostics). AMs
  /// whose BPs are not volume-shaped may return an approximation.
  virtual double BpVolume(ByteSpan bp) const = 0;

  /// Debug rendering of a BP.
  virtual std::string BpToString(ByteSpan bp) const = 0;

 protected:
  Rng& rng() { return rng_; }

  // Little-endian float (de)serialization helpers shared by subclasses.
  // Defined inline: the batched node-scan kernels issue several reads
  // per entry per dimension, so an out-of-line call here dominates the
  // gather cost.
  static void AppendFloat(Bytes& out, float v) {
    uint8_t buf[sizeof(float)];
    std::memcpy(buf, &v, sizeof(float));
    out.insert(out.end(), buf, buf + sizeof(float));
  }
  static void AppendU32(Bytes& out, uint32_t v) {
    uint8_t buf[sizeof(uint32_t)];
    std::memcpy(buf, &v, sizeof(uint32_t));
    out.insert(out.end(), buf, buf + sizeof(uint32_t));
  }
  static float ReadFloat(ByteSpan bytes, size_t float_index) {
    float v;
    BW_DCHECK_LE((float_index + 1) * sizeof(float), bytes.size());
    std::memcpy(&v, bytes.data() + float_index * sizeof(float), sizeof(float));
    return v;
  }
  static uint32_t ReadU32(ByteSpan bytes, size_t offset_bytes) {
    uint32_t v;
    BW_DCHECK_LE(offset_bytes + sizeof(uint32_t), bytes.size());
    std::memcpy(&v, bytes.data() + offset_bytes, sizeof(uint32_t));
    return v;
  }

 private:
  size_t dim_;
  Rng rng_;
};

}  // namespace bw::gist

#endif  // BLOBWORLD_GIST_EXTENSION_H_
