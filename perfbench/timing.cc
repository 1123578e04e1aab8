#include "perfbench/timing.h"

#include <cstring>

namespace bw::perfbench {
namespace {

thread_local double t_shard_us = 0;

// Adds the lifetime of one scope to the calling thread's shard time.
class ShardScope {
 public:
  ShardScope() : start_(Clock::now()) {}
  ~ShardScope() { t_shard_us += MicrosBetween(start_, Clock::now()); }
  ShardScope(const ShardScope&) = delete;
  ShardScope& operator=(const ShardScope&) = delete;

 private:
  Clock::time_point start_;
};

class TimedFrontier : public shard::ShardFrontier {
 public:
  explicit TimedFrontier(std::unique_ptr<shard::ShardFrontier> inner)
      : inner_(std::move(inner)) {}
  ~TimedFrontier() override {
    ShardScope scope;
    inner_.reset();
  }
  TimedFrontier(const TimedFrontier&) = delete;
  TimedFrontier& operator=(const TimedFrontier&) = delete;

  Result<std::optional<gist::Neighbor>> Next() override {
    ShardScope scope;
    return inner_->Next();
  }
  Status Finish() override {
    ShardScope scope;
    return inner_->Finish();
  }
  bool degraded() const override { return inner_->degraded(); }
  uint64_t pages_skipped() const override { return inner_->pages_skipped(); }
  bool truncated() const override { return inner_->truncated(); }

 private:
  std::unique_ptr<shard::ShardFrontier> inner_;
};

}  // namespace

double TakeShardMicros() {
  const double us = t_shard_us;
  t_shard_us = 0;
  return us;
}

Result<std::unique_ptr<shard::ShardFrontier>> TimedShardBackend::OpenFrontier(
    const geom::Vec& query, const service::StreamOptions& limits) {
  ShardScope scope;
  BW_ASSIGN_OR_RETURN(std::unique_ptr<shard::ShardFrontier> frontier,
                      inner_->OpenFrontier(query, limits));
  return std::unique_ptr<shard::ShardFrontier>(
      new TimedFrontier(std::move(frontier)));
}

SpanTable::SpanTable(const std::vector<geom::Vec>& queries)
    : spans_(queries.size()) {
  for (size_t i = 0; i < queries.size(); ++i) {
    auto [it, inserted] = index_.emplace(Key(queries[i]), static_cast<long>(i));
    if (!inserted) it->second = -1;
  }
}

std::string SpanTable::Key(const geom::Vec& v) {
  std::string key(v.dim() * sizeof(float), '\0');
  std::memcpy(key.data(), v.data(), key.size());
  return key;
}

void SpanTable::Put(const geom::Vec& query, const BackendSpan& span) {
  const auto it = index_.find(Key(query));
  if (it == index_.end() || it->second < 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<size_t>(it->second)] = span;
}

BackendSpan SpanTable::Get(size_t index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_[index];
}

Result<service::QueryResponse> TimedBackend::Knn(
    const geom::Vec& query, const service::StreamOptions& stream) {
  BackendSpan span;
  TakeShardMicros();
  span.enter = Clock::now();
  Result<service::QueryResponse> response = inner_->Knn(query, stream);
  span.exit = Clock::now();
  span.shard_us = TakeShardMicros();
  span.valid = true;
  spans_->Put(query, span);
  return response;
}

}  // namespace bw::perfbench
