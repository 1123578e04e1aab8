#include "gist/nn_cursor.h"

#include <limits>

namespace bw::gist {

NnCursor::NnCursor(const Tree& tree, geom::Vec query, TraversalStats* stats,
                   pages::PageReader* pool, DegradedRead* degraded)
    : tree_(tree),
      query_(std::move(query)),
      stats_(stats),
      pool_(pool),
      degraded_(degraded) {
  if (!tree_.empty()) {
    frontier_.push(Item{0.0, false, tree_.root(), 0});
  }
}

double NnCursor::FrontierDistance() const {
  return frontier_.empty() ? std::numeric_limits<double>::infinity()
                           : frontier_.top().distance;
}

Result<std::optional<Neighbor>> NnCursor::Next() {
  const Extension& extension = tree_.extension();
  while (!frontier_.empty()) {
    const Item item = frontier_.top();
    frontier_.pop();

    if (item.is_data) {
      ++produced_;
      return std::optional<Neighbor>(
          Neighbor{item.rid, item.distance, item.page});
    }

    // Expand a node. The cursor reads through the tree's fetch path so
    // buffer pools and I/O accounting behave exactly as KnnSearch does.
    auto fetched = tree_.FetchNode(item.page, pool_);
    if (!fetched.ok()) {
      if (degraded_ != nullptr && IsDegradableReadError(fetched.status()) &&
          degraded_->skipped.size() < degraded_->budget) {
        degraded_->skipped.push_back(item.page);
        continue;  // drop the subtree; the rest of the frontier lives on.
      }
      return fetched.status();
    }
    pages::Page* page = fetched.value();
    const NodeView node(page);
    if (stats_ != nullptr) {
      if (node.IsLeaf()) {
        ++stats_->leaf_accesses;
        stats_->accessed_leaves.push_back(item.page);
      } else {
        ++stats_->internal_accesses;
        stats_->accessed_internals.push_back(item.page);
      }
    }
    // Batched node scan: stage the entries once, one virtual call for
    // the whole node, no per-entry decode allocation.
    scan_.Load(node);
    if (node.IsLeaf()) {
      extension.PointDistanceBatch(scan_.scratch, query_);
      for (size_t i = 0; i < scan_.count(); ++i) {
        frontier_.push(Item{scan_.scratch.distances[i], true, item.page,
                            static_cast<Rid>(scan_.payloads[i])});
      }
    } else {
      extension.BpMinDistanceBatch(scan_.scratch, query_);
      for (size_t i = 0; i < scan_.count(); ++i) {
        frontier_.push(Item{scan_.scratch.distances[i], false,
                            static_cast<pages::PageId>(scan_.payloads[i]), 0});
      }
    }
  }
  return std::optional<Neighbor>(std::nullopt);
}

}  // namespace bw::gist
