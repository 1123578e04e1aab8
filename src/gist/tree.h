// The GiST template algorithms: SEARCH (range and best-first k-NN),
// INSERT (penalty descent, pickSplit on overflow), DELETE (with
// underflow condensation), plus structural validation and iteration
// hooks for the amdb analysis framework.

#ifndef BLOBWORLD_GIST_TREE_H_
#define BLOBWORLD_GIST_TREE_H_

#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "gist/extension.h"
#include "gist/node.h"
#include "gist/stats.h"
#include "pages/page_reader.h"
#include "pages/page_store.h"

namespace bw::gist {

/// One k-NN result.
struct Neighbor {
  Rid rid = 0;
  double distance = 0.0;
  pages::PageId leaf = pages::kInvalidPageId;  // leaf that held the entry.
};

/// The one result order of every search: by distance, ties by rid.
inline bool NeighborLess(const Neighbor& a, const Neighbor& b) {
  return a.distance != b.distance ? a.distance < b.distance : a.rid < b.rid;
}

/// Tree construction options.
struct TreeOptions {
  /// Minimum fill fraction enforced by splits and deletes.
  double min_fill = 0.40;
};

/// Degraded-mode traversal state, threaded through the search methods.
/// When non-null, a search that fails to fetch a node with a degradable
/// error (quarantined page, unreadable frame) skips that subtree —
/// recording it here — instead of failing the whole query, as long as
/// the skip budget holds out. The caller owns flagging the partial
/// answer (see service::QueryResponse::completeness).
struct DegradedRead {
  /// Maximum unreadable subtrees one traversal may skip before the
  /// query fails outright (0 = degraded mode off: first error wins).
  size_t budget = 0;
  /// Roots of the subtrees skipped, in skip order. Non-empty means the
  /// result is a subset of the true answer.
  std::vector<pages::PageId> skipped;

  bool degraded() const { return !skipped.empty(); }
};

/// True for fetch errors that degraded-mode traversal may absorb by
/// skipping the subtree: the page is sick or unreadable (kUnavailable,
/// kDataLoss, kIoError). Deliberately excludes kAborted — a deadline
/// expiry is the caller's own deadline and must end the query, not eat
/// the skip budget.
inline bool IsDegradableReadError(const Status& status) {
  switch (status.code()) {
    case StatusCode::kUnavailable:
    case StatusCode::kDataLoss:
    case StatusCode::kIoError:
      return true;
    default:
      return false;
  }
}

/// A Generalized Search Tree over points, specialized by an Extension.
///
/// The tree reads pages through an optional PageReader (set via
/// set_buffer_pool) so experiments can model memory residency; when no
/// reader is attached, every node visit costs one PageStore read.
///
/// Node scans are batched (gist/node_scan.h): a leaf is read in place,
/// in one pass over its page records, and yields only the points that
/// may lie within the search's pruning bound, with exact distances; an
/// internal node is handed to the extension's batch API — one virtual
/// call per node instead of per entry, and zero per-entry allocation.
/// The batch contract (extension.h) guarantees results bit-identical to
/// the per-entry scalar methods.
///
/// Every search returns its neighbors in one order, NeighborLess:
/// distance, ties by rid.
///
/// Thread-safety contract (audited for the concurrent query service):
/// the search methods (RangeSearch, KnnSearch, KnnSearchDfs) and
/// VisitNode, their fetch path, are const and mutate no tree,
/// extension, or node state — the only mutation on a default search is
/// I/O accounting in the attached reader or the PageStore, both shared.
/// All other search state (node frontier, candidates, scan scratch) is
/// local to the call: no search keeps static or thread-local scratch.
/// Concurrent searches over one tree are
/// therefore safe if and only if every caller passes its own per-call
/// PageReader (a pages::ResidentReader, which reads the resident store
/// through its const PeekNoIo path) via the `pool` parameter, which
/// overrides both the attached reader and the direct PageStore::Read
/// path. Insert/Delete and set_buffer_pool require exclusive access.
/// Extension consistency methods (BpMinDistance and its batch variants,
/// BpConsistentRange, DecodePoint) are const and draw nothing from the
/// extension Rng (the Rng feeds only the non-const build-side methods),
/// so one Extension instance safely serves concurrent readers.
class Tree {
 public:
  Tree(pages::PageStore* file, std::unique_ptr<Extension> extension,
       TreeOptions options = TreeOptions());

  Tree(const Tree&) = delete;
  Tree& operator=(const Tree&) = delete;
  Tree(Tree&&) = default;

  const Extension& extension() const { return *extension_; }
  Extension& mutable_extension() { return *extension_; }
  pages::PageStore* file() { return file_; }
  const pages::PageStore* file() const { return file_; }

  bool empty() const { return root_ == pages::kInvalidPageId; }
  pages::PageId root() const { return root_; }
  /// Number of levels (0 for an empty tree, 1 for a single leaf root).
  int height() const { return height_; }
  /// Number of stored (point, RID) pairs.
  uint64_t size() const { return size_; }

  /// Routes all node reads through `pool` (pass nullptr to detach).
  void set_buffer_pool(pages::PageReader* pool) { pool_ = pool; }

  // --- Index operations -------------------------------------------------

  /// INSERT: adds one (point, RID) pair.
  Status Insert(const geom::Vec& point, Rid rid);

  /// DELETE: removes the pair if present; NotFound otherwise.
  Status Delete(const geom::Vec& point, Rid rid);

  /// SEARCH with an expanding-sphere predicate: all RIDs whose point lies
  /// within `radius` of `query`, in NeighborLess order. A non-null `pool`
  /// overrides the tree's
  /// read path for this call only (see the thread-safety contract above).
  /// A non-null `degraded` enables degraded-mode traversal: unreadable
  /// subtrees are skipped (within budget) and recorded instead of
  /// failing the search.
  Result<std::vector<Neighbor>> RangeSearch(const geom::Vec& query,
                                            double radius,
                                            TraversalStats* stats,
                                            pages::PageReader* pool = nullptr,
                                            DegradedRead* degraded =
                                                nullptr) const;

  /// Best-first k-nearest-neighbor search with a k-bounded candidate
  /// list: the one k-NN search every served query, stream and shard
  /// frontier runs. Unexpanded nodes wait in a min-heap by (bound, page
  /// id); leaf points never enter it but go to a TopK of at most k
  /// candidates by (distance, rid), and a leaf scan only yields the
  /// points that may beat the k-th candidate. The search expands the
  /// nearest node until k candidates exist and that node's bound exceeds
  /// the k-th candidate's distance; once k exist, internal nodes are
  /// scanned with that distance pushed down, and only consistent
  /// children are queued.
  ///
  /// Returns the k smallest (distance, rid) pairs in NeighborLess order,
  /// exact given an admissible extension MinDistance. It reads exactly
  /// the nodes Hjaltason-Samet best-first search reads: with d_k the
  /// final k-th distance, both expand every reachable node with bound
  /// <= d_k and none beyond it (a node that reaches the front with
  /// bound > d_k finds every top-k point already seen, since all their
  /// ancestors have bounds <= d_k). The `>` of the stop test and the
  /// `<=` of the push-down decide ties, so bound == d_k is expanded.
  ///
  /// A finite `radius` (a stream's budget radius) keeps only points
  /// within it (`<=`) and is pushed down with the k-th distance: the
  /// search stops at the first node bound beyond either. The answer is
  /// then the <= radius prefix of the unbounded one, read from a subset
  /// of its nodes; a negative radius reads no node. `radius` must not
  /// be NaN. A k of at least size() sets no count limit.
  ///
  /// A fetch refused with kAborted (the reader's deadline) fails the
  /// search when `truncated` is null. Otherwise the search sets
  /// *truncated and returns the settled prefix: every candidate strictly
  /// nearer than the refused node's bound. No unread node can hold a
  /// point that near, so the prefix is a prefix of the untruncated
  /// answer.
  ///
  /// Under degraded-mode traversal the result is a subset of the true
  /// k-NN set: every returned (rid, distance) is genuine, but neighbors
  /// stored under skipped subtrees are missing.
  Result<std::vector<Neighbor>> KnnSearch(
      const geom::Vec& query, size_t k, TraversalStats* stats,
      pages::PageReader* pool = nullptr, DegradedRead* degraded = nullptr,
      double radius = std::numeric_limits<double>::infinity(),
      bool* truncated = nullptr) const;

  /// Depth-first branch-and-bound k-NN (Roussopoulos/Kelley/Vincent
  /// style): children are visited in MinDistance order and pruned
  /// against the current k-th best candidate. Returns exactly what
  /// KnnSearch returns (same pairs, same order), but accesses a
  /// superset of the nodes best-first search touches — extra accesses
  /// happen while the candidate bound is still loose, which makes this
  /// search *far* more sensitive to bounding-predicate quality. This is
  /// the search the original libgist/amdb stack executed, so the amdb
  /// reproduction benches use it.
  Result<std::vector<Neighbor>> KnnSearchDfs(const geom::Vec& query,
                                             size_t k, TraversalStats* stats,
                                             pages::PageReader* pool = nullptr,
                                             DegradedRead* degraded =
                                                 nullptr) const;

  // --- Bulk-load hook -----------------------------------------------------

  /// Installs a pre-built structure (used by the STR bulk loader).
  void InstallBulkLoaded(pages::PageId root, int height, uint64_t size);

  // --- Introspection ------------------------------------------------------

  /// Computes per-level shape statistics without I/O accounting.
  TreeShape Shape() const;

  /// Invokes `fn(page_id, node)` for every node, leaves included,
  /// without I/O accounting (analysis must not perturb counters).
  void ForEachNode(
      const std::function<void(pages::PageId, const NodeView&)>& fn) const;

  /// One node visit of a search: fetches the node page through the
  /// tree's configured read path (the attached reader if any, counted
  /// I/O otherwise; a non-null `pool` overrides that path for this
  /// call), then records the access in `stats` (when non-null). Returns
  /// nullptr when degraded-mode traversal absorbs the fetch error: the
  /// subtree at `id` is skipped and recorded in `degraded`, consuming one
  /// unit of its budget. Every search reads nodes through this;
  /// analysis code should use the no-I/O iteration hooks.
  Result<pages::Page*> VisitNode(pages::PageId id, TraversalStats* stats,
                                 pages::PageReader* pool,
                                 DegradedRead* degraded) const;

  /// RIDs stored in one leaf (no I/O accounting).
  std::vector<Rid> LeafRids(pages::PageId leaf) const;

  /// All (point, rid) pairs in one leaf (no I/O accounting).
  std::vector<std::pair<geom::Vec, Rid>> LeafPoints(pages::PageId leaf) const;

  /// Verifies structural invariants: balanced height, level monotonicity,
  /// and BP consistency (every stored point has MinDistance 0 from every
  /// ancestor predicate). Returns Corruption describing the first
  /// violation found.
  Status Validate() const;

 private:
  struct PathStep {
    pages::PageId page;
    size_t entry_index;  // index within parent; undefined for root.
  };

  /// Reads a node page: through `pool` when non-null, else the attached
  /// pool, else a counted PageStore read.
  Result<pages::Page*> Fetch(pages::PageId id,
                             pages::PageReader* pool = nullptr) const;

  /// Descends to the level-0 leaf with the minimum insertion penalty,
  /// recording the path (root first).
  Status DescendForInsert(const geom::Vec& point,
                          std::vector<PathStep>* path) const;

  /// Re-derives the BP for `page` and updates it in the parent entry,
  /// continuing upward while predicates change. `path` ends at the node
  /// whose predicate must be refreshed. Used by splits and deletes.
  Status AdjustKeysUpward(std::vector<PathStep>& path);

  /// Classic AdjustTree: widens every predicate on the insertion path
  /// just enough to cover `point` (never re-tightens). This is what
  /// dynamic R-tree-family inserts do, and the reason insertion-loaded
  /// trees accumulate the sloppy BPs Table 2 measures.
  Status EnlargeUpward(const std::vector<PathStep>& path,
                       const geom::Vec& point);

  /// Builds the current BP of a node from its live contents. Non-const:
  /// BP construction may draw from the extension's Rng.
  Result<Bytes> ComputeNodeBp(pages::PageId page);

  /// Splits the node at path.back() which cannot absorb the pending
  /// entry, then inserts the pending (predicate, payload) into the
  /// appropriate side and fixes up ancestors (possibly growing the tree).
  Status SplitAndInsert(std::vector<PathStep>& path, ByteSpan predicate,
                        uint64_t payload);

  /// Inserts an entry into an internal node at `path.back()`, splitting
  /// upward as needed.
  Status InsertIntoNode(std::vector<PathStep>& path, ByteSpan predicate,
                        uint64_t payload);

  /// Removes the entry `path.back().entry_index` of the parent of the
  /// (now empty or underfull) node, reinserting orphaned points.
  Status CondensePath(std::vector<PathStep>& path);

  Status ValidateSubtree(pages::PageId page, int expected_level,
                         std::vector<ByteSpan>& ancestor_preds,
                         std::vector<Bytes>& ancestor_storage) const;

  pages::PageStore* file_;
  pages::PageReader* pool_ = nullptr;
  std::unique_ptr<Extension> extension_;
  TreeOptions options_;

  pages::PageId root_ = pages::kInvalidPageId;
  int height_ = 0;
  uint64_t size_ = 0;
};

}  // namespace bw::gist

#endif  // BLOBWORLD_GIST_TREE_H_
