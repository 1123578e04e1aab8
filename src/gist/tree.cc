#include "gist/tree.h"

#include <algorithm>

#include "gist/node_scan.h"

namespace bw::gist {

Tree::Tree(pages::PageStore* file, std::unique_ptr<Extension> extension,
           TreeOptions options)
    : file_(file), extension_(std::move(extension)), options_(options) {
  BW_CHECK(file_ != nullptr);
  BW_CHECK(extension_ != nullptr);
}

Result<pages::Page*> Tree::Fetch(pages::PageId id,
                                 pages::PageReader* pool) const {
  if (pool != nullptr) return pool->Fetch(id);
  if (pool_ != nullptr) return pool_->Fetch(id);
  return file_->Read(id);
}

Result<pages::Page*> Tree::Visit(pages::PageId id, AccessCounts* counts,
                                 TraversalStats* ids, pages::PageReader* pool,
                                 DegradedRead* degraded) const {
  auto fetched = Fetch(id, pool);
  if (!fetched.ok()) {
    // Degraded mode drops the subtree while the skip budget holds out.
    if (degraded == nullptr || !IsDegradableReadError(fetched.status()) ||
        degraded->skipped.size() >= degraded->budget) {
      return fetched.status();
    }
    degraded->skipped.push_back(id);
    return static_cast<pages::Page*>(nullptr);
  }
  if (counts != nullptr) {
    const bool leaf = NodeView(fetched.value()).IsLeaf();
    ++(leaf ? counts->leaf_accesses : counts->internal_accesses);
    if (ids != nullptr) {
      (leaf ? ids->accessed_leaves : ids->accessed_internals).push_back(id);
    }
  }
  return fetched;
}

Result<pages::Page*> Tree::VisitNode(pages::PageId id, TraversalStats* stats,
                                     pages::PageReader* pool,
                                     DegradedRead* degraded) const {
  return Visit(id, stats, stats, pool, degraded);
}

void Tree::InstallBulkLoaded(pages::PageId root, int height, uint64_t size) {
  root_ = root;
  height_ = height;
  size_ = size;
}

TreeVersion Tree::Version(uint64_t generation) const {
  return TreeVersion{file_->page_table(), root_, height_, size_, generation};
}

// --------------------------------------------------------------------------
// SEARCH
// --------------------------------------------------------------------------

Result<std::vector<Neighbor>> Tree::RangeSearch(const geom::Vec& query,
                                                double radius,
                                                TraversalStats* stats,
                                                pages::PageReader* pool,
                                                DegradedRead* degraded) const {
  return RangeFrom(root_, query, radius, stats, stats, pool, degraded);
}

Result<std::vector<Neighbor>> Tree::RangeSearch(const TreeVersion& version,
                                                const geom::Vec& query,
                                                double radius,
                                                AccessCounts* counts,
                                                pages::PageReader* reader,
                                                DegradedRead* degraded) const {
  return RangeFrom(version.root, query, radius, counts, nullptr, reader,
                   degraded);
}

Result<std::vector<Neighbor>> Tree::RangeFrom(pages::PageId root,
                                              const geom::Vec& query,
                                              double radius,
                                              AccessCounts* counts,
                                              TraversalStats* ids,
                                              pages::PageReader* pool,
                                              DegradedRead* degraded) const {
  std::vector<Neighbor> results;
  if (root == pages::kInvalidPageId) return results;

  NodeScan scan;
  std::vector<pages::PageId> todo = {root};
  while (!todo.empty()) {
    const pages::PageId id = todo.back();
    todo.pop_back();
    BW_ASSIGN_OR_RETURN(pages::Page * page,
                        Visit(id, counts, ids, pool, degraded));
    if (page == nullptr) continue;  // skipped subtree (degraded mode).
    const NodeView node(page);
    if (node.IsLeaf()) {
      scan.ScanLeaf(node, *extension_, query, radius);
      for (size_t i = 0; i < scan.count(); ++i) {
        const double d = scan.scratch.distances[i];
        if (d <= radius) {
          results.push_back(Neighbor{static_cast<Rid>(scan.payloads[i]), d, id});
        }
      }
    } else {
      scan.ScanInternal(node, *extension_, query, radius);
      for (size_t i = 0; i < scan.count(); ++i) {
        if (scan.scratch.consistent[i]) {
          todo.push_back(static_cast<pages::PageId>(scan.payloads[i]));
        }
      }
    }
  }
  std::sort(results.begin(), results.end(), NeighborLess);
  return results;
}

Result<std::vector<Neighbor>> Tree::KnnSearch(const geom::Vec& query,
                                              size_t k, TraversalStats* stats,
                                              pages::PageReader* pool,
                                              DegradedRead* degraded,
                                              double radius,
                                              bool* truncated) const {
  return KnnFrom(root_, size_, query, k, stats, stats, pool, degraded, radius,
                 truncated);
}

Result<std::vector<Neighbor>> Tree::KnnSearch(
    const TreeVersion& version, const geom::Vec& query, size_t k,
    AccessCounts* counts, pages::PageReader* reader, DegradedRead* degraded,
    double radius, bool* truncated) const {
  return KnnFrom(version.root, version.size, query, k, counts, nullptr,
                 reader, degraded, radius, truncated);
}

Result<std::vector<Neighbor>> Tree::KnnFrom(pages::PageId root, uint64_t size,
                                            const geom::Vec& query, size_t k,
                                            AccessCounts* counts,
                                            TraversalStats* ids,
                                            pages::PageReader* pool,
                                            DegradedRead* degraded,
                                            double radius,
                                            bool* truncated) const {
  if (root == pages::kInvalidPageId || k == 0) return std::vector<Neighbor>();

  // Unexpanded nodes, a min-heap by (bound, page id).
  struct NodeBound {
    double bound;
    pages::PageId page;
  };
  const auto later = [](const NodeBound& a, const NodeBound& b) {
    return a.bound != b.bound ? a.bound > b.bound : a.page > b.page;
  };
  std::vector<NodeBound> frontier = {{0.0, root}};
  TopK candidates(k);
  // A k of at least the tree's size sets no count limit, and the answer
  // (say, a radius's) may be far smaller than the tree: let it grow.
  if (k < size) candidates.reserve(k);
  NodeScan scan;
  // Nothing beyond the k-th candidate or the radius can be returned.
  const auto prune_bound = [&] { return std::min(radius, candidates.Bound()); };
  // The candidates in NeighborLess order, up to the first one `keep`
  // refuses.
  const auto prefix = [&](auto keep) {
    std::vector<Neighbor> sorted = std::move(candidates).Sorted();
    sorted.erase(std::partition_point(sorted.begin(), sorted.end(), keep),
                 sorted.end());
    return sorted;
  };

  while (!frontier.empty()) {
    // Stop once the nearest unexpanded bound exceeds the pruning bound:
    // no node left can hold a better point. `>`, not `>=`: a node whose
    // bound ties the k-th distance is expanded, as best-first search
    // expands a node before data at an equal distance.
    if (frontier.front().bound > prune_bound()) break;
    std::pop_heap(frontier.begin(), frontier.end(), later);
    const NodeBound next = frontier.back();
    frontier.pop_back();

    Result<pages::Page*> visited =
        Visit(next.page, counts, ids, pool, degraded);
    if (!visited.ok()) {
      if (truncated == nullptr ||
          visited.status().code() != StatusCode::kAborted) {
        return visited.status();
      }
      // The deadline refused this node. Every unread node's bound is at
      // least its bound, so the candidates strictly nearer are final.
      *truncated = true;
      return prefix([&](const Neighbor& n) { return n.distance < next.bound; });
    }
    pages::Page* page = *visited;
    if (page == nullptr) continue;  // skipped subtree (degraded mode).
    const NodeView node(page);
    if (node.IsLeaf()) {
      // Only points that may beat the pruning bound come back. The
      // scan's margin may keep a few just past the radius: they can
      // never push the k-th distance below it, so the pruning bound and
      // the nodes read are unchanged, and the answer drops them below.
      scan.ScanLeaf(node, *extension_, query, prune_bound());
      for (size_t i = 0; i < scan.count(); ++i) {
        candidates.Offer(Neighbor{static_cast<Rid>(scan.payloads[i]),
                                  scan.scratch.distances[i], next.page});
      }
    } else {
      // The pruning bound is pushed down: only children that may hold a
      // point within it (`<=`) are queued.
      scan.ScanInternal(node, *extension_, query, prune_bound());
      for (size_t i = 0; i < scan.count(); ++i) {
        if (!scan.scratch.consistent[i]) continue;
        frontier.push_back(NodeBound{
            scan.scratch.distances[i],
            static_cast<pages::PageId>(scan.payloads[i])});
        std::push_heap(frontier.begin(), frontier.end(), later);
      }
    }
  }
  if (radius == std::numeric_limits<double>::infinity()) {
    return std::move(candidates).Sorted();
  }
  return prefix([&](const Neighbor& n) { return n.distance <= radius; });
}

Result<std::vector<Neighbor>> Tree::KnnSearchDfs(
    const geom::Vec& query, size_t k, TraversalStats* stats,
    pages::PageReader* pool, DegradedRead* degraded) const {
  if (empty() || k == 0) return std::vector<Neighbor>();
  NodeScan scan;
  TopK candidates(k);
  candidates.reserve(size_);

  // Explicit DFS stack; children are pushed in reverse bound order so
  // the nearest child is explored first, and every frame re-checks its
  // bound on pop (the candidate bound tightens during the descent).
  struct Frame {
    double bound;
    pages::PageId page;
  };
  std::vector<Frame> stack = {{0.0, root_}};
  std::vector<Frame> children;
  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    if (frame.bound > candidates.Bound()) continue;

    BW_ASSIGN_OR_RETURN(pages::Page * page,
                        VisitNode(frame.page, stats, pool, degraded));
    if (page == nullptr) continue;  // skipped subtree (degraded mode).
    const NodeView node(page);
    if (node.IsLeaf()) {
      scan.ScanLeaf(node, *extension_, query, candidates.Bound());
      for (size_t i = 0; i < scan.count(); ++i) {
        candidates.Offer(Neighbor{static_cast<Rid>(scan.payloads[i]),
                                  scan.scratch.distances[i], frame.page});
      }
      continue;
    }

    // The candidate bound cannot tighten inside this scan (only leaves
    // offer candidates), so pushing it down prunes exactly the children
    // the per-entry scalar loop would.
    scan.ScanInternal(node, *extension_, query, candidates.Bound());
    children.clear();
    for (size_t i = 0; i < scan.count(); ++i) {
      if (scan.scratch.consistent[i]) {
        children.push_back(Frame{scan.scratch.distances[i],
                                 static_cast<pages::PageId>(scan.payloads[i])});
      }
    }
    std::sort(children.begin(), children.end(),
              [](const Frame& a, const Frame& b) { return a.bound > b.bound; });
    stack.insert(stack.end(), children.begin(), children.end());
  }
  return std::move(candidates).Sorted();
}

// --------------------------------------------------------------------------
// INSERT
// --------------------------------------------------------------------------

namespace {

// Locates the entry of `parent` whose payload names `child`.
Result<size_t> FindChildEntry(const NodeView& parent, pages::PageId child) {
  for (size_t i = 0; i < parent.entry_count(); ++i) {
    if (parent.entry(i).ChildPage() == child) return i;
  }
  return Status::Corruption("child page not referenced by parent");
}

}  // namespace

Status Tree::DescendForInsert(const geom::Vec& point,
                              std::vector<PathStep>* path) const {
  path->clear();
  pages::PageId current = root_;
  for (;;) {
    path->push_back(PathStep{current, 0});
    BW_ASSIGN_OR_RETURN(pages::Page * page, Fetch(current));
    NodeView node(page);
    if (node.IsLeaf()) return Status::OK();
    if (node.entry_count() == 0) {
      return Status::Corruption("empty internal node during descent");
    }
    double best_penalty = 0.0;
    size_t best_index = 0;
    for (size_t i = 0; i < node.entry_count(); ++i) {
      const double penalty =
          extension_->BpPenalty(node.entry(i).predicate, point);
      if (i == 0 || penalty < best_penalty) {
        best_penalty = penalty;
        best_index = i;
      }
    }
    current = node.entry(best_index).ChildPage();
  }
}

Result<Bytes> Tree::ComputeNodeBp(pages::PageId page_id) {
  pages::Page* page = file_->PeekNoIo(page_id);
  NodeView node(page);
  if (node.entry_count() == 0) {
    return Status::Corruption("cannot compute BP of an empty node");
  }
  if (node.IsLeaf()) {
    std::vector<geom::Vec> points;
    points.reserve(node.entry_count());
    for (size_t i = 0; i < node.entry_count(); ++i) {
      points.push_back(extension_->DecodePoint(node.entry(i).predicate));
    }
    return extension_->BpFromPoints(points);
  }
  std::vector<Bytes> child_bps;
  child_bps.reserve(node.entry_count());
  for (size_t i = 0; i < node.entry_count(); ++i) {
    ByteSpan pred = node.entry(i).predicate;
    child_bps.emplace_back(pred.begin(), pred.end());
  }
  return extension_->BpFromChildBps(child_bps);
}

Status Tree::AdjustKeysUpward(std::vector<PathStep>& path) {
  for (size_t depth = path.size(); depth-- > 1;) {
    const pages::PageId child_id = path[depth].page;
    const pages::PageId parent_id = path[depth - 1].page;
    BW_ASSIGN_OR_RETURN(Bytes bp, ComputeNodeBp(child_id));

    BW_ASSIGN_OR_RETURN(pages::Page * parent_page, file_->Write(parent_id));
    NodeView parent(parent_page);
    BW_ASSIGN_OR_RETURN(size_t idx, FindChildEntry(parent, child_id));
    EntryView entry = parent.entry(idx);
    if (entry.predicate.size() == bp.size() &&
        std::equal(bp.begin(), bp.end(), entry.predicate.begin())) {
      // Predicate unchanged: ancestors are unchanged too.
      return Status::OK();
    }
    Status updated = parent.UpdatePredicate(idx, bp);
    if (updated.ok()) continue;
    if (updated.code() != StatusCode::kNoSpace) return updated;
    // The refreshed predicate grew past the parent's free space (possible
    // for variable-size BPs such as aMAP/JB): relocate the entry, which
    // may split the parent and already refreshes the ancestors.
    BW_RETURN_IF_ERROR(parent.Erase(idx));
    std::vector<PathStep> parent_path(path.begin(),
                                      path.begin() + static_cast<long>(depth));
    return InsertIntoNode(parent_path, bp,
                          static_cast<uint64_t>(child_id));
  }
  return Status::OK();
}

Status Tree::EnlargeUpward(const std::vector<PathStep>& path,
                           const geom::Vec& point) {
  for (size_t depth = path.size(); depth-- > 1;) {
    const pages::PageId child_id = path[depth].page;
    const pages::PageId parent_id = path[depth - 1].page;
    BW_ASSIGN_OR_RETURN(pages::Page * parent_page, file_->Write(parent_id));
    NodeView parent(parent_page);
    BW_ASSIGN_OR_RETURN(size_t idx, FindChildEntry(parent, child_id));
    EntryView entry = parent.entry(idx);
    Bytes widened = extension_->BpIncludePoint(entry.predicate, point);
    if (widened.size() == entry.predicate.size() &&
        std::equal(widened.begin(), widened.end(), entry.predicate.begin())) {
      // Unchanged at this level — but keep walking: "parent covers the
      // point" does NOT imply the grandparent does for non-convex
      // predicates (aMAP's rectangle pair, jagged bites) or recentered
      // balls, so every ancestor must be widened explicitly. Paths are a
      // handful of levels, so the full walk is cheap.
      continue;
    }
    BW_RETURN_IF_ERROR(parent.UpdatePredicate(idx, widened));
  }
  return Status::OK();
}

Status Tree::InsertIntoNode(std::vector<PathStep>& path, ByteSpan predicate,
                            uint64_t payload) {
  const pages::PageId node_id = path.back().page;
  BW_ASSIGN_OR_RETURN(pages::Page * page, file_->Write(node_id));
  NodeView node(page);
  if (node.HasRoomFor(predicate.size())) {
    BW_RETURN_IF_ERROR(node.Append(predicate, payload));
    return AdjustKeysUpward(path);
  }
  return SplitAndInsert(path, predicate, payload);
}

Status Tree::SplitAndInsert(std::vector<PathStep>& path, ByteSpan predicate,
                            uint64_t payload) {
  const pages::PageId node_id = path.back().page;
  BW_ASSIGN_OR_RETURN(pages::Page * page, file_->Write(node_id));
  NodeView node(page);
  const int level = node.level();
  const bool is_leaf = node.IsLeaf();

  // Gather all entries including the pending one (last).
  std::vector<Bytes> preds;
  std::vector<uint64_t> payloads;
  preds.reserve(node.entry_count() + 1);
  for (size_t i = 0; i < node.entry_count(); ++i) {
    EntryView e = node.entry(i);
    preds.emplace_back(e.predicate.begin(), e.predicate.end());
    payloads.push_back(e.payload);
  }
  preds.emplace_back(predicate.begin(), predicate.end());
  payloads.push_back(payload);

  SplitAssignment to_right;
  if (is_leaf) {
    std::vector<geom::Vec> points;
    points.reserve(preds.size());
    for (const Bytes& p : preds) points.push_back(extension_->DecodePoint(p));
    to_right = extension_->PickSplitPoints(points);
  } else {
    to_right = extension_->PickSplitBps(preds);
  }
  if (to_right.size() != preds.size()) {
    return Status::Internal("pickSplit returned wrong assignment size");
  }
  size_t right_count = 0;
  for (bool b : to_right) right_count += b ? 1 : 0;
  if (right_count == 0 || right_count == preds.size()) {
    return Status::Internal("pickSplit produced an empty side");
  }

  // Rewrite the original node with the left group; fill a fresh page with
  // the right group.
  const pages::PageId right_id = file_->Allocate();
  BW_ASSIGN_OR_RETURN(pages::Page * right_page, file_->Write(right_id));
  NodeView right(right_page);
  right.Format(level);
  node.Format(level);
  for (size_t i = 0; i < preds.size(); ++i) {
    NodeView& target = to_right[i] ? right : node;
    Status appended = target.Append(preds[i], payloads[i]);
    if (!appended.ok()) {
      // Defensive fallback for badly unbalanced assignments: place the
      // entry on the other side rather than failing the insert.
      NodeView& other = to_right[i] ? node : right;
      BW_RETURN_IF_ERROR(other.Append(preds[i], payloads[i]));
    }
  }
  if (node.entry_count() == 0 || right.entry_count() == 0) {
    return Status::Internal("split left an empty node");
  }

  BW_ASSIGN_OR_RETURN(Bytes left_bp, ComputeNodeBp(node_id));
  BW_ASSIGN_OR_RETURN(Bytes right_bp, ComputeNodeBp(right_id));

  if (node_id == root_) {
    const pages::PageId new_root = file_->Allocate();
    BW_ASSIGN_OR_RETURN(pages::Page * root_page, file_->Write(new_root));
    NodeView root_node(root_page);
    root_node.Format(level + 1);
    BW_RETURN_IF_ERROR(
        root_node.Append(left_bp, static_cast<uint64_t>(node_id)));
    BW_RETURN_IF_ERROR(
        root_node.Append(right_bp, static_cast<uint64_t>(right_id)));
    root_ = new_root;
    ++height_;
    return Status::OK();
  }

  // Refresh the parent's entry for the (shrunken) left node, then insert
  // the right node, which may recursively split the parent.
  std::vector<PathStep> parent_path(path.begin(), path.end() - 1);
  const pages::PageId parent_id = parent_path.back().page;
  BW_ASSIGN_OR_RETURN(pages::Page * parent_page, file_->Write(parent_id));
  NodeView parent(parent_page);
  BW_ASSIGN_OR_RETURN(size_t idx, FindChildEntry(parent, node_id));
  Status updated = parent.UpdatePredicate(idx, left_bp);
  if (!updated.ok()) {
    if (updated.code() != StatusCode::kNoSpace) return updated;
    BW_RETURN_IF_ERROR(parent.Erase(idx));
    BW_RETURN_IF_ERROR(InsertIntoNode(parent_path, left_bp,
                                      static_cast<uint64_t>(node_id)));
  }
  return InsertIntoNode(parent_path, right_bp,
                        static_cast<uint64_t>(right_id));
}

Status Tree::Insert(const geom::Vec& point, Rid rid) {
  if (point.dim() != extension_->dim()) {
    return Status::InvalidArgument("point dimensionality mismatch");
  }
  if (empty()) {
    root_ = file_->Allocate();
    BW_ASSIGN_OR_RETURN(pages::Page * page, file_->Write(root_));
    NodeView(page).Format(/*level=*/0);
    height_ = 1;
  }

  std::vector<PathStep> path;
  BW_RETURN_IF_ERROR(DescendForInsert(point, &path));

  const Bytes key = extension_->EncodePoint(point);
  const pages::PageId leaf_id = path.back().page;
  BW_ASSIGN_OR_RETURN(pages::Page * leaf_page, file_->Write(leaf_id));
  NodeView leaf(leaf_page);
  Status appended;
  if (leaf.HasRoomFor(key.size())) {
    BW_RETURN_IF_ERROR(leaf.Append(key, rid));
    appended = EnlargeUpward(path, point);
  } else {
    appended = SplitAndInsert(path, key, rid);
  }
  if (appended.ok()) ++size_;
  return appended;
}

// --------------------------------------------------------------------------
// DELETE
// --------------------------------------------------------------------------

Status Tree::CondensePath(std::vector<PathStep>& path) {
  // path.back() is an underfull node. Collect the points stored beneath
  // it, unlink it from its parent, then reinsert the points.
  const pages::PageId victim = path.back().page;

  std::vector<std::pair<geom::Vec, Rid>> orphans;
  std::vector<pages::PageId> stack = {victim};
  std::vector<pages::PageId> freed;
  while (!stack.empty()) {
    pages::PageId id = stack.back();
    stack.pop_back();
    freed.push_back(id);
    NodeView node(file_->PeekNoIo(id));
    if (node.IsLeaf()) {
      for (size_t i = 0; i < node.entry_count(); ++i) {
        EntryView e = node.entry(i);
        orphans.emplace_back(extension_->DecodePoint(e.predicate), e.rid());
      }
    } else {
      for (size_t i = 0; i < node.entry_count(); ++i) {
        stack.push_back(node.entry(i).ChildPage());
      }
    }
  }

  // Unlink from parent.
  std::vector<PathStep> parent_path(path.begin(), path.end() - 1);
  const pages::PageId parent_id = parent_path.back().page;
  BW_ASSIGN_OR_RETURN(pages::Page * parent_page, file_->Write(parent_id));
  NodeView parent(parent_page);
  BW_ASSIGN_OR_RETURN(size_t idx, FindChildEntry(parent, victim));
  BW_RETURN_IF_ERROR(parent.Erase(idx));

  if (parent.entry_count() == 0 && parent_id != root_) {
    BW_RETURN_IF_ERROR(CondensePath(parent_path));
  } else {
    BW_RETURN_IF_ERROR(AdjustKeysUpward(parent_path));
  }

  // Shrink the root while it is an internal node with a single child.
  while (height_ > 1) {
    NodeView root_node(file_->PeekNoIo(root_));
    if (root_node.IsLeaf() || root_node.entry_count() != 1) break;
    root_ = root_node.entry(0).ChildPage();
    --height_;
  }

  for (auto& [point, rid] : orphans) {
    --size_;  // Insert re-increments.
    BW_RETURN_IF_ERROR(Insert(point, rid));
  }
  return Status::OK();
}

Status Tree::Delete(const geom::Vec& point, Rid rid) {
  if (empty()) return Status::NotFound("tree is empty");
  if (point.dim() != extension_->dim()) {
    return Status::InvalidArgument("point dimensionality mismatch");
  }

  // DFS over all subtrees consistent with the exact point.
  std::vector<PathStep> path;
  std::vector<std::vector<PathStep>> stack;
  stack.push_back({PathStep{root_, 0}});
  while (!stack.empty()) {
    std::vector<PathStep> current = std::move(stack.back());
    stack.pop_back();
    const pages::PageId id = current.back().page;
    NodeView node(file_->PeekNoIo(id));
    if (node.IsLeaf()) {
      for (size_t i = 0; i < node.entry_count(); ++i) {
        EntryView e = node.entry(i);
        if (e.rid() != rid) continue;
        if (!(extension_->DecodePoint(e.predicate) == point)) continue;
        BW_ASSIGN_OR_RETURN(pages::Page * page, file_->Write(id));
        NodeView writable(page);
        BW_RETURN_IF_ERROR(writable.Erase(i));
        --size_;
        if (writable.entry_count() == 0 && id != root_) {
          return CondensePath(current);
        }
        if (id != root_ &&
            writable.Utilization() < options_.min_fill * 0.5) {
          return CondensePath(current);
        }
        if (writable.entry_count() > 0) {
          return AdjustKeysUpward(current);
        }
        return Status::OK();
      }
    } else {
      for (size_t i = 0; i < node.entry_count(); ++i) {
        EntryView e = node.entry(i);
        if (extension_->BpConsistentRange(e.predicate, point, 0.0)) {
          std::vector<PathStep> next = current;
          next.push_back(PathStep{e.ChildPage(), i});
          stack.push_back(std::move(next));
        }
      }
    }
  }
  return Status::NotFound("(point, rid) pair not present");
}

// --------------------------------------------------------------------------
// Introspection
// --------------------------------------------------------------------------

void Tree::ForEachNode(
    const std::function<void(pages::PageId, const NodeView&)>& fn) const {
  if (empty()) return;
  std::vector<pages::PageId> stack = {root_};
  while (!stack.empty()) {
    pages::PageId id = stack.back();
    stack.pop_back();
    NodeView node(file_->PeekNoIo(id));
    fn(id, node);
    if (!node.IsLeaf()) {
      for (size_t i = 0; i < node.entry_count(); ++i) {
        stack.push_back(node.entry(i).ChildPage());
      }
    }
  }
}

std::vector<Rid> Tree::LeafRids(pages::PageId leaf) const {
  NodeView node(file_->PeekNoIo(leaf));
  BW_CHECK(node.IsLeaf());
  std::vector<Rid> rids;
  rids.reserve(node.entry_count());
  for (size_t i = 0; i < node.entry_count(); ++i) {
    rids.push_back(node.entry(i).rid());
  }
  return rids;
}

std::vector<std::pair<geom::Vec, Rid>> Tree::LeafPoints(
    pages::PageId leaf) const {
  NodeView node(file_->PeekNoIo(leaf));
  BW_CHECK(node.IsLeaf());
  std::vector<std::pair<geom::Vec, Rid>> out;
  out.reserve(node.entry_count());
  for (size_t i = 0; i < node.entry_count(); ++i) {
    EntryView e = node.entry(i);
    out.emplace_back(extension_->DecodePoint(e.predicate), e.rid());
  }
  return out;
}

TreeShape Tree::Shape() const {
  TreeShape shape;
  if (empty()) return shape;
  shape.height = height_;
  shape.nodes_per_level.assign(static_cast<size_t>(height_), 0);
  shape.entries_per_level.assign(static_cast<size_t>(height_), 0);
  std::vector<double> util_sum(static_cast<size_t>(height_), 0.0);
  ForEachNode([&](pages::PageId, const NodeView& node) {
    const auto level = static_cast<size_t>(node.level());
    BW_CHECK_LT(level, shape.nodes_per_level.size());
    shape.nodes_per_level[level] += 1;
    shape.entries_per_level[level] += node.entry_count();
    util_sum[level] += node.Utilization();
  });
  shape.avg_utilization_per_level.resize(static_cast<size_t>(height_));
  for (size_t l = 0; l < util_sum.size(); ++l) {
    shape.avg_utilization_per_level[l] =
        shape.nodes_per_level[l] == 0
            ? 0.0
            : util_sum[l] / static_cast<double>(shape.nodes_per_level[l]);
  }
  return shape;
}

Status Tree::ValidateSubtree(pages::PageId page_id, int expected_level,
                             std::vector<ByteSpan>& ancestor_preds,
                             std::vector<Bytes>& ancestor_storage) const {
  const NodeView node(file_->PeekNoIo(page_id));
  if (!node.IsFormatted()) {
    return Status::Corruption("unformatted page reached by traversal");
  }
  if (node.level() != expected_level) {
    return Status::Corruption("tree is not height-balanced");
  }
  if (node.entry_count() == 0 && page_id != root_) {
    return Status::Corruption("empty non-root node");
  }

  if (node.IsLeaf()) {
    for (size_t i = 0; i < node.entry_count(); ++i) {
      geom::Vec point = extension_->DecodePoint(node.entry(i).predicate);
      for (ByteSpan pred : ancestor_preds) {
        const double d = extension_->BpMinDistance(pred, point);
        if (d > 1e-4) {
          return Status::Corruption(
              "stored point not covered by an ancestor predicate (dist " +
              std::to_string(d) + ")");
        }
      }
    }
    return Status::OK();
  }

  for (size_t i = 0; i < node.entry_count(); ++i) {
    EntryView e = node.entry(i);
    ancestor_storage.emplace_back(e.predicate.begin(), e.predicate.end());
    ancestor_preds.emplace_back(ancestor_storage.back());
    Status child = ValidateSubtree(e.ChildPage(), expected_level - 1,
                                   ancestor_preds, ancestor_storage);
    ancestor_preds.pop_back();
    ancestor_storage.pop_back();
    BW_RETURN_IF_ERROR(child);
  }
  return Status::OK();
}

Status Tree::Validate() const {
  if (empty()) return Status::OK();
  std::vector<ByteSpan> preds;
  std::vector<Bytes> storage;
  storage.reserve(static_cast<size_t>(height_));
  BW_RETURN_IF_ERROR(ValidateSubtree(root_, height_ - 1, preds, storage));

  // Leaf entries must partition the RID set: count them.
  uint64_t stored = 0;
  ForEachNode([&](pages::PageId, const NodeView& node) {
    if (node.IsLeaf()) stored += node.entry_count();
  });
  if (stored != size_) {
    return Status::Corruption("leaf entry count disagrees with tree size");
  }
  return Status::OK();
}

}  // namespace bw::gist
