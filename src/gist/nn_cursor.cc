#include "gist/nn_cursor.h"

#include <limits>

namespace bw::gist {

NnCursor::NnCursor(const Tree& tree, geom::Vec query, TraversalStats* stats,
                   pages::PageReader* pool, DegradedRead* degraded,
                   size_t limit)
    : tree_(tree),
      query_(std::move(query)),
      stats_(stats),
      pool_(pool),
      degraded_(degraded),
      limit_(limit) {
  // A limit below the tree's size prunes; any larger one cannot, so the
  // cursor then keeps no candidates and only stops after `limit_`.
  if (limit_ > 0 && limit_ < tree_.size()) queued_.emplace(limit_);
  if (!tree_.empty()) {
    frontier_.push(Item{0.0, false, tree_.root(), 0});
  }
}

double NnCursor::FrontierDistance() const {
  return frontier_.empty() || Exhausted()
             ? std::numeric_limits<double>::infinity()
             : frontier_.top().distance;
}

Result<std::optional<Neighbor>> NnCursor::Next() {
  if (Exhausted()) return std::optional<Neighbor>(std::nullopt);
  const Extension& extension = tree_.extension();
  while (!frontier_.empty()) {
    const Item item = frontier_.top();
    frontier_.pop();

    if (item.is_data) {
      ++produced_;
      return std::optional<Neighbor>(
          Neighbor{item.rid, item.distance, item.page});
    }

    // Expand a node. The cursor reads through the tree's visit path so
    // readers, degraded-mode skips and access stats behave exactly as
    // in KnnSearch.
    BW_ASSIGN_OR_RETURN(pages::Page * page,
                        tree_.VisitNode(item.page, stats_, pool_, degraded_));
    if (page == nullptr) continue;  // dropped subtree; the rest lives on.
    const NodeView node(page);
    const double bound =
        queued_ ? queued_->Bound() : std::numeric_limits<double>::infinity();
    if (node.IsLeaf()) {
      scan_.ScanLeaf(node, extension, query_, bound);
      for (size_t i = 0; i < scan_.count(); ++i) {
        const Neighbor n{static_cast<Rid>(scan_.payloads[i]),
                         scan_.scratch.distances[i], item.page};
        // Under a limit, a point outside the `limit` smallest keys
        // queued so far can never be among the first `limit` results.
        if (queued_ && !queued_->Offer(n)) continue;
        frontier_.push(Item{n.distance, true, item.page, n.rid});
      }
    } else {
      scan_.ScanInternal(node, extension, query_, bound);
      for (size_t i = 0; i < scan_.count(); ++i) {
        if (!scan_.scratch.consistent[i]) continue;
        frontier_.push(Item{scan_.scratch.distances[i], false,
                            static_cast<pages::PageId>(scan_.payloads[i]), 0});
      }
    }
  }
  return std::optional<Neighbor>(std::nullopt);
}

}  // namespace bw::gist
