// High-level entry point: build any of the paper's access methods over a
// set of feature vectors by name, bulk-loaded (STR) or insertion-loaded.
//
//   bw::core::IndexBuildOptions opts;
//   opts.am = "xjb";
//   auto index = bw::core::BuildIndex(vectors, opts);
//   auto neighbors = index->Knn(query, 200);

#ifndef BLOBWORLD_CORE_INDEX_FACTORY_H_
#define BLOBWORLD_CORE_INDEX_FACTORY_H_

#include <memory>
#include <string>
#include <vector>

#include "gist/tree.h"
#include "pages/buffer_pool.h"
#include "pages/page_store.h"
#include "util/status.h"

namespace bw::core {

/// Options controlling index construction.
struct IndexBuildOptions {
  /// Access method: "rtree", "rstar", "sstree", "srtree", "amap",
  /// "jb", "xjb".
  std::string am = "rtree";
  /// Page size in bytes (the paper uses 8 KB transfers; the scaled-down
  /// bench defaults use 4 KB to keep tree heights in the paper's regime).
  size_t page_bytes = 8192;
  /// STR bulk load (true) or repeated-insert load (false).
  bool bulk_load = true;
  /// Target fill fraction for bulk loading.
  double fill_fraction = 0.85;
  /// XJB only: number of bites kept per BP; 0 = automatic selection
  /// (largest X that does not add a tree level).
  size_t xjb_x = 10;
  /// aMAP only: number of random partitions sampled per BP.
  size_t amap_samples = 1024;
  /// JB/XJB only: bite construction ("maxvol" = improved maximal bites,
  /// "nibble" = the paper's Figure-13 heuristic).
  std::string bite_algorithm = "maxvol";
  /// XJB only: sample query points for workload-aware bite selection
  /// (empty = the paper's largest-volume heuristic).
  std::vector<geom::Vec> xjb_reference_queries;
  /// Deterministic seed for randomized heuristics.
  uint64_t seed = 42;
};

/// An owned index: page file + GiST tree + optional buffer pool,
/// packaged so callers do not manage substrate lifetimes.
class BuiltIndex {
 public:
  BuiltIndex(std::unique_ptr<pages::PageStore> file,
             std::unique_ptr<gist::Tree> tree)
      : file_(std::move(file)), tree_(std::move(tree)) {}

  gist::Tree& tree() { return *tree_; }
  const gist::Tree& tree() const { return *tree_; }
  pages::PageStore& file() { return *file_; }
  const pages::PageStore& file() const { return *file_; }

  /// k-nearest-neighbor query; stats may be null.
  Result<std::vector<gist::Neighbor>> Knn(const geom::Vec& query, size_t k,
                                          gist::TraversalStats* stats =
                                              nullptr) const {
    return tree_->KnnSearch(query, k, stats);
  }

  /// Attaches an LRU buffer pool of `capacity` pages to all reads; the
  /// pool is owned by the index. Pass 0 to detach.
  void UseBufferPool(size_t capacity);
  pages::BufferPool* buffer_pool() { return pool_.get(); }

 private:
  std::unique_ptr<pages::PageStore> file_;
  std::unique_ptr<gist::Tree> tree_;
  std::unique_ptr<pages::BufferPool> pool_;
};

/// Creates the extension named by `options.am` (factory used by tests
/// and benches that drive the GiST directly).
Result<std::unique_ptr<gist::Extension>> MakeExtension(
    size_t dim, const IndexBuildOptions& options, size_t num_points_hint);

/// Builds an index over `vectors`; RIDs are the vector indices.
Result<std::unique_ptr<BuiltIndex>> BuildIndex(
    const std::vector<geom::Vec>& vectors, const IndexBuildOptions& options);

/// The set of access-method names BuildIndex accepts.
const std::vector<std::string>& KnownAccessMethods();

}  // namespace bw::core

#endif  // BLOBWORLD_CORE_INDEX_FACTORY_H_
