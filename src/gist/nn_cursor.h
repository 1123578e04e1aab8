// Incremental nearest-neighbor cursor (Hjaltason & Samet's distance
// browsing): yields neighbors one at a time in ascending distance order
// without a fixed k. This is the search mode the Blobworld front end
// really wants — "give me images until the user stops scrolling" — and
// the one amdb drives when it replays query workloads step by step.

#ifndef BLOBWORLD_GIST_NN_CURSOR_H_
#define BLOBWORLD_GIST_NN_CURSOR_H_

#include <optional>
#include <queue>
#include <vector>

#include "gist/node_scan.h"
#include "gist/tree.h"

namespace bw::gist {

/// Streaming k-NN over a Tree. The cursor holds a reference to the tree;
/// the tree must not be modified while a cursor is open.
///
///   NnCursor cursor(tree, query);
///   while (auto n = cursor.Next()) { ... }
///
/// Order: results come in NeighborLess order — ascending distance, ties
/// by rid — so a cursor's first k results are exactly
/// Tree::KnnSearch(query, k). The frontier's total order makes that
/// hold: distance, then nodes before data, then data by rid, then nodes
/// by page id.
///
/// A non-zero `limit` is the most results the caller will read (a
/// stream's max_results; 0 = unbounded). The cursor then keeps only
/// leaf points among the `limit` smallest (distance, rid) keys it has
/// queued, and once `limit` keys exist it scans internal nodes with the
/// limit-th distance pushed down. Neither changes what the first
/// `limit` results are or which nodes producing them reads; Next() ends
/// after `limit` results, since the points the cursor pruned would be
/// missing from any later ones. A limit of at least the tree's size
/// prunes nothing, so such a cursor keeps no candidates.
///
/// A non-null `pool` routes every node read of this cursor through that
/// pool instead of the tree's configured read path; concurrent cursors
/// over one shared tree must each bring their own pool (see the Tree
/// thread-safety contract). A non-null `degraded` enables degraded-mode
/// streaming: an unreadable subtree is skipped and recorded (within
/// budget) instead of failing the stream, so later Next() calls keep
/// producing the neighbors that remain reachable.
class NnCursor {
 public:
  NnCursor(const Tree& tree, geom::Vec query, TraversalStats* stats = nullptr,
           pages::PageReader* pool = nullptr,
           DegradedRead* degraded = nullptr, size_t limit = 0);

  NnCursor(const NnCursor&) = delete;
  NnCursor& operator=(const NnCursor&) = delete;

  /// The next-nearest entry, or nullopt when the tree is exhausted or
  /// `limit` results have been produced. Distances are non-decreasing
  /// across calls.
  Result<std::optional<Neighbor>> Next();

  /// Number of results produced so far.
  size_t produced() const { return produced_; }

  /// Lower bound on the distance of everything not yet returned (the
  /// head of the frontier); infinity once exhausted. Lets callers stop
  /// early ("no more candidates within my budget radius").
  double FrontierDistance() const;

 private:
  struct Item {
    double distance;
    bool is_data;
    pages::PageId page;  // node to expand, or leaf that held the data.
    Rid rid;             // valid when is_data.
    bool operator>(const Item& other) const {
      if (distance != other.distance) return distance > other.distance;
      if (is_data != other.is_data) return is_data;  // nodes first.
      return is_data ? rid > other.rid : page > other.page;
    }
  };

  bool Exhausted() const { return limit_ > 0 && produced_ >= limit_; }

  const Tree& tree_;
  geom::Vec query_;
  TraversalStats* stats_;
  pages::PageReader* pool_;
  DegradedRead* degraded_;
  size_t limit_;
  NodeScan scan_;  // reused across nodes: zero per-entry allocation.
  // The `limit` smallest data keys queued; only when 0 < limit < size.
  std::optional<TopK> queued_;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> frontier_;
  size_t produced_ = 0;
};

}  // namespace bw::gist

#endif  // BLOBWORLD_GIST_NN_CURSOR_H_
