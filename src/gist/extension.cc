#include "gist/extension.h"

#include <cmath>

namespace bw::gist {

Bytes Extension::EncodePoint(const geom::Vec& point) const {
  BW_CHECK_EQ(point.dim(), dim_);
  Bytes out;
  out.reserve(PointBytes());
  for (size_t i = 0; i < dim_; ++i) AppendFloat(out, point[i]);
  return out;
}

geom::Vec Extension::DecodePoint(ByteSpan bytes) const {
  BW_CHECK_EQ(bytes.size(), PointBytes());
  geom::Vec out(dim_);
  for (size_t i = 0; i < dim_; ++i) out[i] = ReadFloat(bytes, i);
  return out;
}

double Extension::PointDistance(ByteSpan key, const geom::Vec& query) const {
  BW_CHECK_EQ(key.size(), PointBytes());
  // Same arithmetic as query.DistanceTo(DecodePoint(key)): per-dim
  // double difference, squared, accumulated in ascending-d order.
  double acc = 0.0;
  for (size_t d = 0; d < dim_; ++d) {
    const double diff = static_cast<double>(query[d]) - ReadFloat(key, d);
    acc += diff * diff;
  }
  return std::sqrt(acc);
}

void Extension::BpMinDistanceBatch(BatchScratch& scratch,
                                   const geom::Vec& query) const {
  const size_t n = scratch.count();
  scratch.distances.resize(n);
  for (size_t e = 0; e < n; ++e) {
    scratch.distances[e] = BpMinDistance(scratch.preds[e], query);
  }
}

void Extension::BpConsistentRangeBatch(BatchScratch& scratch,
                                       const geom::Vec& query,
                                       double radius) const {
  BpMinDistanceBatch(scratch, query);
  const size_t n = scratch.count();
  scratch.consistent.resize(n);
  for (size_t e = 0; e < n; ++e) {
    scratch.consistent[e] = scratch.distances[e] <= radius ? 1 : 0;
  }
}

}  // namespace bw::gist
