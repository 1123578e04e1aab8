#include "shard/partitioner.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "am/bulk_load.h"

namespace bw::shard {

void ShardBounds::Enlarge(const geom::Vec& p) {
  if (empty()) {
    lo = p;
    hi = p;
    return;
  }
  for (size_t d = 0; d < lo.dim(); ++d) {
    lo[d] = std::min(lo[d], p[d]);
    hi[d] = std::max(hi[d], p[d]);
  }
}

double ShardBounds::MinDistance(const geom::Vec& q) const {
  if (empty()) return std::numeric_limits<double>::infinity();
  double sum = 0;
  for (size_t d = 0; d < lo.dim(); ++d) {
    const double v = q[d];
    double gap = 0;
    if (v < lo[d]) {
      gap = static_cast<double>(lo[d]) - v;
    } else if (v > hi[d]) {
      gap = v - static_cast<double>(hi[d]);
    }
    sum += gap * gap;
  }
  return std::sqrt(sum);
}

Partition PartitionByStr(const std::vector<geom::Vec>& corpus,
                         size_t num_shards) {
  Partition out;
  if (num_shards == 0) num_shards = 1;
  out.points.resize(num_shards);
  out.rids.resize(num_shards);
  out.bounds.resize(num_shards);
  if (corpus.empty()) return out;

  // ceil so the last run is the short one, matching the STR tiling.
  const size_t per_shard = (corpus.size() + num_shards - 1) / num_shards;
  const std::vector<size_t> order = am::StrOrder(corpus, per_shard);
  for (size_t pos = 0; pos < order.size(); ++pos) {
    const size_t shard = std::min(pos / per_shard, num_shards - 1);
    const size_t src = order[pos];
    out.points[shard].push_back(corpus[src]);
    out.rids[shard].push_back(static_cast<gist::Rid>(src));
    out.bounds[shard].Enlarge(corpus[src]);
  }
  return out;
}

Result<std::unique_ptr<core::DurableIndex>> BuildShardIndex(
    const std::vector<geom::Vec>& points, const std::vector<gist::Rid>& rids,
    const core::IndexBuildOptions& options, const std::string& base_path,
    const std::string& wal_path, storage::StoreOptions store_options) {
  if (points.empty()) {
    return Status::InvalidArgument("cannot build an empty shard");
  }
  if (points.size() != rids.size()) {
    return Status::InvalidArgument("shard points/rids size mismatch");
  }
  BW_ASSIGN_OR_RETURN(
      std::unique_ptr<core::DurableIndex> index,
      core::CreateDurableIndex(base_path, wal_path, points[0].dim(), options,
                               store_options, points.size()));
  if (options.bulk_load) {
    am::BulkLoadOptions load;
    load.fill_fraction = options.fill_fraction;
    BW_RETURN_IF_ERROR(am::StrBulkLoad(&index->tree(), points, rids, load));
  } else {
    BW_RETURN_IF_ERROR(am::InsertionLoad(&index->tree(), points, rids));
  }
  BW_RETURN_IF_ERROR(index->Commit(/*tag=*/points.size()));
  BW_RETURN_IF_ERROR(index->Checkpoint());
  index->store().pages()->ResetStats();
  return index;
}

size_t ShardMap::OwnerOf(const geom::Vec& p) const {
  size_t best = 0;
  double best_distance = std::numeric_limits<double>::infinity();
  for (size_t s = 0; s < bounds_.size(); ++s) {
    const double distance = bounds_[s].MinDistance(p);
    if (distance < best_distance) {
      best = s;
      best_distance = distance;
    }
  }
  return best;
}

}  // namespace bw::shard
