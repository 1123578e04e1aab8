// Traversal and structure statistics collected by the GiST, consumed by
// the amdb analysis framework and the bench harnesses.

#ifndef BLOBWORLD_GIST_STATS_H_
#define BLOBWORLD_GIST_STATS_H_

#include <cstdint>
#include <vector>

#include "pages/page.h"

namespace bw::gist {

/// Page accesses of a single query, split by tree level: the counts a
/// served query reports.
struct AccessCounts {
  uint64_t internal_accesses = 0;
  uint64_t leaf_accesses = 0;

  uint64_t TotalAccesses() const { return internal_accesses + leaf_accesses; }
};

/// The counts plus the page id of every node visited (each node at most
/// once per query): what amdb's analyses and the node-set tests read.
struct TraversalStats : AccessCounts {
  std::vector<pages::PageId> accessed_leaves;
  std::vector<pages::PageId> accessed_internals;

  void Clear() {
    internal_accesses = 0;
    leaf_accesses = 0;
    accessed_leaves.clear();
    accessed_internals.clear();
  }
};

/// Aggregate structure of a tree (per level, index 0 = leaves).
struct TreeShape {
  int height = 0;  // number of levels; 1 = root-only leaf.
  std::vector<uint64_t> nodes_per_level;
  std::vector<uint64_t> entries_per_level;
  std::vector<double> avg_utilization_per_level;

  uint64_t TotalNodes() const {
    uint64_t total = 0;
    for (uint64_t n : nodes_per_level) total += n;
    return total;
  }
  uint64_t LeafNodes() const {
    return nodes_per_level.empty() ? 0 : nodes_per_level[0];
  }
  uint64_t LeafEntries() const {
    return entries_per_level.empty() ? 0 : entries_per_level[0];
  }
};

}  // namespace bw::gist

#endif  // BLOBWORLD_GIST_STATS_H_
