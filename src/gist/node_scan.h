// Per-query traversal scratch shared by every search over a gist::Tree
// (RangeSearch, KnnSearch, KnnSearchDfs, NnCursor):
//
//   - NodeScan turns one visited node into distances: a leaf is decoded
//     in one pass straight from its page records, an internal node is
//     staged as predicate spans for the Extension batch API;
//   - TopK keeps the k best data candidates by (distance, rid).
//
// A search owns its scan and candidates for its lifetime; the scan's
// vectors grow to the largest node seen and stay there, so a steady
// traversal allocates nothing per node.

#ifndef BLOBWORLD_GIST_NODE_SCAN_H_
#define BLOBWORLD_GIST_NODE_SCAN_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "gist/extension.h"
#include "gist/node.h"
#include "gist/tree.h"

namespace bw::gist {

/// Scratch for batched node scans. After a scan, entry i of the node
/// has payload payloads[i] (child page id or rid) and distance
/// scratch.distances[i].
struct NodeScan {
  BatchScratch scratch;
  std::vector<uint64_t> payloads;  // entry i's raw payload (child | rid).

  size_t count() const { return payloads.size(); }

  /// Leaf scan: the distance from `query` to every stored point, decoded
  /// straight from the page records into the dim-major planes of
  /// scratch.soa (plane d holds coordinate d of every entry), then
  /// accumulated d-outer / e-inner. Each entry still sums its dims in
  /// ascending order with the same double arithmetic as
  /// Extension::PointDistance, so the distances are bit-identical to it.
  /// A record whose key is not Extension::PointBytes() long aborts in
  /// every build: decoding it would read past the record.
  void ScanLeaf(const NodeView& leaf, const Extension& extension,
                const geom::Vec& query) {
    const pages::Page& page = *leaf.page();
    const size_t n = page.slot_count();
    const size_t dim = extension.dim();
    const size_t key_bytes = extension.PointBytes();
    payloads.resize(n);
    scratch.soa.resize(n * dim);
    scratch.distances.assign(n, 0.0);
    float* planes = scratch.soa.data();
    for (size_t e = 0; e < n; ++e) {
      BW_CHECK_EQ(page.RecordLength(e), key_bytes + sizeof(uint64_t));
      const uint8_t* record = page.RecordData(e);
      for (size_t d = 0; d < dim; ++d) {
        std::memcpy(&planes[d * n + e], record + d * sizeof(float),
                    sizeof(float));
      }
      std::memcpy(&payloads[e], record + key_bytes, sizeof(uint64_t));
    }
    double* out = scratch.distances.data();
    for (size_t d = 0; d < dim; ++d) {
      const double q = query[d];
      const float* plane = planes + d * n;
      for (size_t e = 0; e < n; ++e) {
        const double diff = q - plane[e];
        out[e] += diff * diff;
      }
    }
    for (size_t e = 0; e < n; ++e) out[e] = std::sqrt(out[e]);
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
class TopK {
 public:
  explicit TopK(size_t k) : k_(k) { BW_CHECK_GT(k_, size_t{0}); }

  /// Pre-sizes for `n` offers (capped at k).
  void reserve(size_t n) { heap_.reserve(std::min(n, k_)); }

  bool full() const { return heap_.size() >= k_; }

  /// The k-th candidate's distance once k are held; +infinity before.
  /// Nothing farther can enter, so searches prune against it.
  double Bound() const {
    return full() ? heap_.front().distance
                  : std::numeric_limits<double>::infinity();
  }

  /// Keeps `n` if it is among the k smallest offered so far; returns
  /// whether it was kept.
  bool Offer(const Neighbor& n) {
    if (heap_.size() < k_) {
      heap_.push_back(n);
      std::push_heap(heap_.begin(), heap_.end(), NeighborLess);
      return true;
    }
    if (!NeighborLess(n, heap_.front())) return false;
    const size_t size = heap_.size();
    size_t hole = 0;
    for (size_t child = 1; child < size; child = 2 * hole + 1) {
      if (child + 1 < size && NeighborLess(heap_[child], heap_[child + 1])) {
        ++child;
      }
      if (!NeighborLess(n, heap_[child])) break;
      heap_[hole] = heap_[child];
      hole = child;
    }
    heap_[hole] = n;
    return true;
  }

  /// The candidates in ascending (distance, rid) order.
  std::vector<Neighbor> Sorted() && {
    std::sort_heap(heap_.begin(), heap_.end(), NeighborLess);
    return std::move(heap_);
  }

 private:
  size_t k_;
  std::vector<Neighbor> heap_;  // max-heap by NeighborLess.
};

}  // namespace bw::gist

#endif  // BLOBWORLD_GIST_NODE_SCAN_H_
