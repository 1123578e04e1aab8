#include "core/index_factory.h"

#include <algorithm>
#include <numeric>

#include "am/bulk_load.h"
#include "am/rstar_tree.h"
#include "am/rtree.h"
#include "am/srtree.h"
#include "am/sstree.h"
#include "core/jagged.h"
#include "core/map_tree.h"
#include "pages/page_file.h"

namespace bw::core {

void BuiltIndex::UseBufferPool(size_t capacity) {
  if (capacity == 0) {
    tree_->set_buffer_pool(nullptr);
    pool_.reset();
    return;
  }
  pool_ = std::make_unique<pages::BufferPool>(file_.get(), capacity);
  tree_->set_buffer_pool(pool_.get());
}

Result<std::unique_ptr<gist::Extension>> MakeExtension(
    size_t dim, const IndexBuildOptions& options, size_t num_points_hint) {
  if (options.am == "rtree") {
    return std::unique_ptr<gist::Extension>(
        new am::RtreeExtension(dim, options.seed));
  }
  if (options.am == "rstar") {
    return std::unique_ptr<gist::Extension>(
        new am::RStarTreeExtension(dim, options.seed));
  }
  if (options.am == "sstree") {
    return std::unique_ptr<gist::Extension>(
        new am::SsTreeExtension(dim, options.seed));
  }
  if (options.am == "srtree") {
    return std::unique_ptr<gist::Extension>(
        new am::SrTreeExtension(dim, options.seed));
  }
  if (options.am == "amap") {
    return std::unique_ptr<gist::Extension>(new MapExtension(
        dim, options.seed, 0.40, options.amap_samples));
  }
  const BiteAlgorithm bites = options.bite_algorithm == "nibble"
                                  ? BiteAlgorithm::kFigure13Nibble
                                  : BiteAlgorithm::kMaxVolume;
  if (options.am == "jb") {
    return std::unique_ptr<gist::Extension>(
        new JbExtension(dim, options.seed, 0.40, bites));
  }
  if (options.am == "xjb") {
    size_t x = options.xjb_x;
    if (x == 0) {
      x = AutoSelectXjbX(num_points_hint, dim, options.page_bytes,
                         options.fill_fraction);
    }
    // A BP cannot hold more bites than its MBR has corners.
    x = std::min(x, size_t{1} << std::min<size_t>(dim, 12));
    auto xjb = std::make_unique<XjbExtension>(dim, x, options.seed, 0.40,
                                              bites);
    if (!options.xjb_reference_queries.empty()) {
      xjb->SetReferenceQueries(options.xjb_reference_queries);
    }
    return std::unique_ptr<gist::Extension>(std::move(xjb));
  }
  return Status::InvalidArgument("unknown access method '" + options.am +
                                 "'");
}

Result<std::unique_ptr<BuiltIndex>> BuildIndex(
    const std::vector<geom::Vec>& vectors, const IndexBuildOptions& options) {
  if (vectors.empty()) {
    return Status::InvalidArgument("cannot index an empty vector set");
  }
  const size_t dim = vectors[0].dim();

  auto file = std::make_unique<pages::PageFile>(options.page_bytes);
  BW_ASSIGN_OR_RETURN(std::unique_ptr<gist::Extension> extension,
                      MakeExtension(dim, options, vectors.size()));
  auto tree = std::make_unique<gist::Tree>(file.get(), std::move(extension));

  std::vector<gist::Rid> rids(vectors.size());
  std::iota(rids.begin(), rids.end(), 0);

  if (options.bulk_load) {
    am::BulkLoadOptions load;
    load.fill_fraction = options.fill_fraction;
    BW_RETURN_IF_ERROR(am::StrBulkLoad(tree.get(), vectors, rids, load));
  } else {
    BW_RETURN_IF_ERROR(am::InsertionLoad(tree.get(), vectors, rids));
  }
  file->ResetStats();
  return std::make_unique<BuiltIndex>(std::move(file), std::move(tree));
}

const std::vector<std::string>& KnownAccessMethods() {
  static const std::vector<std::string>* kNames = new std::vector<std::string>{
      "rtree", "rstar", "sstree", "srtree", "amap", "jb", "xjb"};
  return *kNames;
}

}  // namespace bw::core
