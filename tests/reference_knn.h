// Test-only reference k-NN: the Hjaltason-Samet best-first loop that
// gist::Tree::KnnSearch ran before its k-bounded rewrite. Nodes and
// leaf points share one priority queue ordered by distance, nodes
// before data at an equal distance, so every leaf point of every
// visited leaf is queued; data at an equal distance leave the queue in
// whatever order the heap leaves them. Tree::KnnSearch must read
// exactly the nodes this reads and return the same distance sequence;
// knn_reference_test compares the two.

#ifndef BLOBWORLD_TESTS_REFERENCE_KNN_H_
#define BLOBWORLD_TESTS_REFERENCE_KNN_H_

#include <functional>
#include <queue>
#include <vector>

#include "gist/extension.h"
#include "gist/node.h"
#include "gist/stats.h"
#include "gist/tree.h"

namespace bw::gist::reference {

inline Result<std::vector<Neighbor>> KnnSearch(const Tree& tree,
                                               const geom::Vec& query,
                                               size_t k,
                                               TraversalStats* stats) {
  struct QueueItem {
    double distance;
    bool is_data;
    pages::PageId page;  // node to expand, or leaf that held the data.
    Rid rid;             // valid when is_data.

    bool operator>(const QueueItem& other) const {
      if (distance != other.distance) return distance > other.distance;
      // Expand nodes before emitting data at equal distance so a data
      // candidate is only emitted once no node could beat it.
      return is_data && !other.is_data;
    }
  };

  std::vector<Neighbor> results;
  if (tree.empty() || k == 0) return results;
  const Extension& extension = tree.extension();
  BatchScratch scratch;
  std::vector<uint64_t> payloads;
  std::priority_queue<QueueItem, std::vector<QueueItem>,
                      std::greater<QueueItem>>
      frontier;
  frontier.push(QueueItem{0.0, false, tree.root(), 0});

  while (!frontier.empty() && results.size() < k) {
    const QueueItem item = frontier.top();
    frontier.pop();
    if (item.is_data) {
      results.push_back(Neighbor{item.rid, item.distance, item.page});
      continue;
    }
    BW_ASSIGN_OR_RETURN(pages::Page * page,
                        tree.VisitNode(item.page, nullptr, nullptr, nullptr));
    const NodeView node(page);
    if (stats != nullptr) {
      if (node.IsLeaf()) {
        ++stats->leaf_accesses;
        stats->accessed_leaves.push_back(item.page);
      } else {
        ++stats->internal_accesses;
        stats->accessed_internals.push_back(item.page);
      }
    }
    if (node.IsLeaf()) {
      for (size_t i = 0; i < node.entry_count(); ++i) {
        const EntryView e = node.entry(i);
        frontier.push(QueueItem{extension.PointDistance(e.predicate, query),
                                true, item.page, e.rid()});
      }
      continue;
    }
    scratch.preds.clear();
    payloads.clear();
    for (size_t i = 0; i < node.entry_count(); ++i) {
      const EntryView e = node.entry(i);
      scratch.preds.push_back(e.predicate);
      payloads.push_back(e.payload);
    }
    extension.BpMinDistanceBatch(scratch, query);
    for (size_t i = 0; i < payloads.size(); ++i) {
      frontier.push(QueueItem{scratch.distances[i], false,
                              static_cast<pages::PageId>(payloads[i]), 0});
    }
  }
  return results;
}

}  // namespace bw::gist::reference

#endif  // BLOBWORLD_TESTS_REFERENCE_KNN_H_
