// Per-query traversal scratch shared by every search over a gist::Tree
// (RangeSearch, KnnSearch, KnnSearchDfs):
//
//   - NodeScan turns one visited node into distances: a leaf is read in
//     place, in one pass over its page records, and keeps only the
//     points within the caller's pruning bound; an internal node is
//     staged as predicate spans for the Extension batch API;
//   - TopK keeps the k best data candidates by (distance, rid).
//
// A search owns its scan and candidates for its lifetime; the scan's
// vectors grow to the largest node seen and stay there, so a steady
// traversal allocates nothing per node.

#ifndef BLOBWORLD_GIST_NODE_SCAN_H_
#define BLOBWORLD_GIST_NODE_SCAN_H_

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "gist/extension.h"
#include "gist/node.h"
#include "gist/tree.h"

namespace bw::gist {

/// Scratch for batched node scans. After a scan, entry i of the scan
/// has payload payloads[i] (child page id or rid) and distance
/// scratch.distances[i].
struct NodeScan {
  BatchScratch scratch;
  std::vector<uint64_t> payloads;  // entry i's raw payload (child | rid).

  size_t count() const { return payloads.size(); }

  /// Leaf scan: the stored points that may lie within `bound` of
  /// `query`, in page order, each with its exact distance. One pass
  /// reads every record's coordinates in place through the slot
  /// directory (records need not be contiguous: Page::Erase leaves
  /// holes until Compact) and sums (q[d] - c)^2 in ascending d with the
  /// same double operations as Extension::PointDistance, so a kept
  /// point's distance, std::sqrt(sum), is bit-identical to it.
  ///
  /// A point is dropped only when sum > bound * bound * (1 + 2^-49).
  /// That never drops a point whose distance is <= bound, ties included:
  /// the rounding of bound * bound, of the product with the margin and
  /// of std::sqrt each move a value by at most a relative 2^-53, which
  /// the 2^-49 margin covers, so a dropped sum has sqrt(sum) > bound
  /// even after rounding. If bound * bound underflows (bound < 2^-511),
  /// nothing is lost either: the differences of two floats are 0 or at
  /// least 2^-149 in magnitude, so a nonzero sum is at least 2^-298 and
  /// its distance at least 2^-149 > bound. A NaN sum is never `>`, so a
  /// NaN distance is kept, and an infinite or NaN bound, or one whose
  /// square overflows, keeps every point. Callers still compare each
  /// kept distance exactly. A record
  /// whose key is not Extension::PointBytes() long aborts in every
  /// build: reading it would run past the record.
  void ScanLeaf(const NodeView& leaf, const Extension& extension,
                const geom::Vec& query, double bound) {
    const pages::Page& page = *leaf.page();
    const size_t n = page.slot_count();
    const size_t dim = extension.dim();
    const size_t key_bytes = extension.PointBytes();
    const double limit = bound * bound * (1.0 + 0x1p-49);
    const float* q = query.data();
    payloads.resize(n);
    scratch.distances.resize(n);
    uint64_t* kept_payloads = payloads.data();
    double* kept_distances = scratch.distances.data();
    size_t kept = 0;
    for (size_t e = 0; e < n; ++e) {
      BW_CHECK_EQ(page.RecordLength(e), key_bytes + sizeof(uint64_t));
      const uint8_t* record = page.RecordData(e);
      double sum = 0.0;
      for (size_t d = 0; d < dim; ++d) {
        float c;
        std::memcpy(&c, record + d * sizeof(float), sizeof(float));
        const double diff = static_cast<double>(q[d]) - c;
        sum += diff * diff;
      }
      if (sum > limit) continue;
      uint64_t payload;
      std::memcpy(&payload, record + key_bytes, sizeof(uint64_t));
      kept_payloads[kept] = payload;
      kept_distances[kept] = std::sqrt(sum);
      ++kept;
    }
    payloads.resize(kept);
    scratch.distances.resize(kept);
  }

  /// Internal-node scan: an admissible lower bound on every child, with
  /// `radius` pushed down. scratch.consistent[i] says whether child i
  /// may hold a point within `radius`; where it does,
  /// scratch.distances[i] is the child's BpMinDistanceBatch bound (the
  /// BpConsistentRangeBatch contract, gist/extension.h). An infinite
  /// radius marks every child.
  void ScanInternal(const NodeView& node, const Extension& extension,
                    const geom::Vec& query, double radius) {
    const size_t n = node.entry_count();
    scratch.preds.resize(n);
    payloads.resize(n);
    for (size_t i = 0; i < n; ++i) {
      const EntryView e = node.entry(i);
      scratch.preds[i] = e.predicate;
      payloads[i] = e.payload;
    }
    extension.BpConsistentRangeBatch(scratch, query, radius);
  }
};

/// The k smallest neighbors offered so far, by (distance, rid): a
/// max-heap of at most k entries whose top is the current k-th
/// candidate. An entry that does not beat the top is dropped; one that
/// does replaces it with a single sift-down. k must be positive.
///
/// Each candidate is one packed 128-bit key, the distance's bits above
/// the rid, so every heap comparison is one unsigned compare. A leaf
/// distance is the square root of a sum of squares, never negative and
/// never -0, and the bits of non-negative doubles order as the doubles
/// do: for every non-NaN distance the key order is NeighborLess, and a
/// NaN sorts after everything (the served paths reject non-finite
/// queries, so none reaches a served search). Leaf page ids ride in a
/// parallel array. The arrays hold what the heap holds, and reserve(n)
/// sizes them for min(n, k), so a huge k costs nothing up front.
class TopK {
 public:
  explicit TopK(size_t k) : k_(k), keys_(1, Key{0}) {
    BW_CHECK_GT(k_, size_t{0});
  }

  /// Pre-sizes for `n` offers (capped at k).
  void reserve(size_t n) {
    keys_.reserve(std::min(n, k_) + 1);
    leaves_.reserve(std::min(n, k_));
  }

  bool full() const { return size_ >= k_; }

  /// The k-th candidate's distance, bit for bit, once k are held;
  /// +infinity before. Nothing farther can enter, so searches prune
  /// against it.
  double Bound() const {
    return full() ? DistanceOf(keys_[0])
                  : std::numeric_limits<double>::infinity();
  }

  /// Keeps `n` if it is among the k smallest offered so far; returns
  /// whether it was kept. Forced inline: it runs once per leaf point
  /// within the bound, and GCC's size heuristic leaves it out of line
  /// for some shapes of the calling search (~8% of a paper-scale
  /// 200-NN).
  [[gnu::always_inline]] bool Offer(const Neighbor& n) {
    const Key key = Pack(n.distance, n.rid);
    if (size_ < k_) {
      // Sift up from a new last slot; keys_ keeps its zero key past
      // the heap.
      keys_.push_back(Key{0});
      leaves_.push_back(n.leaf);
      size_t hole = size_++;
      while (hole > 0) {
        const size_t parent = (hole - 1) / 2;
        if (!(keys_[parent] < key)) break;
        keys_[hole] = keys_[parent];
        leaves_[hole] = leaves_[parent];
        hole = parent;
      }
      keys_[hole] = key;
      leaves_[hole] = n.leaf;
      return true;
    }
    if (!(key < keys_[0])) return false;
    // Sift down from the root. The zero key past the heap is never the
    // larger child, so the larger of two children is picked by
    // arithmetic even when only one exists.
    size_t hole = 0;
    for (size_t child = 1; child < size_; child = 2 * hole + 1) {
      child += keys_[child] < keys_[child + 1];
      if (!(key < keys_[child])) break;
      keys_[hole] = keys_[child];
      leaves_[hole] = leaves_[child];
      hole = child;
    }
    keys_[hole] = key;
    leaves_[hole] = n.leaf;
    return true;
  }

  /// The candidates in ascending (distance, rid) order: one sort by
  /// key.
  std::vector<Neighbor> Sorted() && {
    std::vector<Neighbor> out(size_);
    for (size_t i = 0; i < size_; ++i) {
      out[i] = Neighbor{static_cast<Rid>(keys_[i]), DistanceOf(keys_[i]),
                        leaves_[i]};
    }
    std::sort(out.begin(), out.end(), [](const Neighbor& a, const Neighbor& b) {
      return Pack(a.distance, a.rid) < Pack(b.distance, b.rid);
    });
    return out;
  }

 private:
  using Key = unsigned __int128;

  static Key Pack(double distance, Rid rid) {
    return (Key{std::bit_cast<uint64_t>(distance)} << 64) | rid;
  }
  static double DistanceOf(Key key) {
    return std::bit_cast<double>(static_cast<uint64_t>(key >> 64));
  }

  size_t k_;
  size_t size_ = 0;
  std::vector<Key> keys_;  // max-heap of size_ keys, then one zero key.
  std::vector<pages::PageId> leaves_;  // leaves_[i] held keys_[i].
};

}  // namespace bw::gist

#endif  // BLOBWORLD_GIST_NODE_SCAN_H_
