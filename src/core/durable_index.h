// Durable index lifecycle: a GiST built on a storage::DurableStore so
// its pages survive crashes. Tree metadata (root, height, size, access
// method) lives in a reserved meta page (page 0) inside the same store,
// so one commit covers pages and metadata atomically — recovery never
// sees a new root pointing at pages from an uncommitted batch.
//
//   auto index = bw::core::BuildDurableIndex(vectors, opts, base, wal);
//   ...crash...
//   auto recovered = bw::core::OpenDurableIndex(base, wal, opts);
//   recovered->tree().KnnSearch(...);   // or serve via QueryService.

#ifndef BLOBWORLD_CORE_DURABLE_INDEX_H_
#define BLOBWORLD_CORE_DURABLE_INDEX_H_

#include <memory>
#include <string>
#include <vector>

#include "core/index_factory.h"
#include "storage/store.h"

namespace bw::core {

/// Page id reserved for tree metadata in every durable index store.
/// Index nodes start at page 1; the GiST never sees page 0 (it reaches
/// pages only by descending from the root).
inline constexpr pages::PageId kMetaPageId = 0;

/// Serializes the tree's metadata into the store's meta page. Called by
/// DurableIndex::Commit so the metadata rides in the same WAL batch as
/// the page changes it describes.
Status WriteTreeMeta(storage::DurableStore* store, const gist::Tree& tree);

/// Re-reads the meta page and reinstalls root/height/size into `tree` —
/// the catch-up path's post-apply refresh after shipped page images
/// (which include the meta page) replaced the store's contents under an
/// installed tree. The extension must already match what the meta page
/// records (same access method and dimensionality); InvalidArgument
/// otherwise, Corruption if the meta page or root is malformed.
Status RefreshTreeFromMeta(storage::DurableStore* store, gist::Tree* tree);

/// An index whose pages live in a DurableStore: the durable analogue of
/// BuiltIndex. Mutations (tree().Insert/Delete) are single-threaded and
/// volatile until Commit(); Checkpoint() bounds recovery replay time.
class DurableIndex {
 public:
  DurableIndex(std::unique_ptr<storage::DurableStore> store,
               std::unique_ptr<gist::Tree> tree,
               storage::RecoveryManager::Summary recovery =
                   storage::RecoveryManager::Summary())
      : store_(std::move(store)),
        tree_(std::move(tree)),
        recovery_(recovery) {}

  gist::Tree& tree() { return *tree_; }
  const gist::Tree& tree() const { return *tree_; }
  storage::DurableStore& store() { return *store_; }
  const storage::DurableStore& store() const { return *store_; }

  /// Makes everything since the previous commit durable as one atomic
  /// WAL batch (metadata included). `tag` is an application sequence
  /// number; after a crash, recovery reports the tag of the newest
  /// durable batch (see RecoveryManager::Summary::last_commit_tag).
  Status Commit(uint64_t tag) {
    BW_RETURN_IF_ERROR(WriteTreeMeta(store_.get(), *tree_));
    return store_->CommitBatch(tag);
  }
  Status Commit() { return Commit(store_->committed_batches() + 1); }

  /// Folds committed state into the base file and empties the WAL.
  Status Checkpoint() { return store_->Checkpoint(); }

  /// How this index was recovered (all-zero for a freshly built one).
  const storage::RecoveryManager::Summary& recovery() const {
    return recovery_;
  }

 private:
  std::unique_ptr<storage::DurableStore> store_;
  std::unique_ptr<gist::Tree> tree_;
  storage::RecoveryManager::Summary recovery_;
};

/// Creates an empty durable index: fresh store at (base_path, wal_path),
/// meta page reserved, extension from `options.am`, initial commit +
/// checkpoint taken. `dim` is needed up front because no vectors are.
/// `num_points_hint` is how many points the caller is about to load:
/// XJB's automatic X (`options.xjb_x == 0`) is chosen for that count,
/// exactly as BuildIndex chooses it (0 = unknown).
Result<std::unique_ptr<DurableIndex>> CreateDurableIndex(
    const std::string& base_path, const std::string& wal_path, size_t dim,
    const IndexBuildOptions& options,
    storage::StoreOptions store_options = storage::StoreOptions(),
    size_t num_points_hint = 0);

/// Builds a durable index over `vectors` (RIDs are vector indices),
/// bulk- or insertion-loaded per `options`, committed and checkpointed.
Result<std::unique_ptr<DurableIndex>> BuildDurableIndex(
    const std::vector<geom::Vec>& vectors, const IndexBuildOptions& options,
    const std::string& base_path, const std::string& wal_path,
    storage::StoreOptions store_options = storage::StoreOptions());

/// Recovers a durable index from whatever a crash left behind: replays
/// committed WAL batches, verifies checksums, re-instantiates the access
/// method recorded in the meta page (`options` supplies tuning values
/// the meta page does not record, such as amap_samples and seed), and
/// validates the tree. The returned index carries the recovery summary.
/// Recovery ends with a checkpoint when it replayed or discarded
/// anything; opening a cleanly closed index writes to neither file.
/// NotFound (and no file created) if the base file does not exist.
Result<std::unique_ptr<DurableIndex>> OpenDurableIndex(
    const std::string& base_path, const std::string& wal_path,
    IndexBuildOptions options = IndexBuildOptions(),
    storage::StoreOptions store_options = storage::StoreOptions());

}  // namespace bw::core

#endif  // BLOBWORLD_CORE_DURABLE_INDEX_H_
