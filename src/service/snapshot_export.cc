#include "service/snapshot_export.h"

namespace bw::service {

std::vector<std::pair<std::string, double>> ExportSnapshotFields(
    const ServiceSnapshot& snap) {
  std::vector<std::pair<std::string, double>> fields;
  fields.reserve(48);
  auto add = [&fields](const char* name, double value) {
    fields.emplace_back(name, value);
  };
  // Throughput.
  add("elapsed_seconds", snap.elapsed_seconds);
  add("qps", snap.qps);
  add("submitted", static_cast<double>(snap.submitted));
  add("rejected", static_cast<double>(snap.rejected));
  add("completed", static_cast<double>(snap.completed));
  add("failed", static_cast<double>(snap.failed));
  // Read latency.
  add("mean_latency_us", snap.mean_latency_us);
  add("p50_latency_us", static_cast<double>(snap.p50_latency_us));
  add("p95_latency_us", static_cast<double>(snap.p95_latency_us));
  add("p99_latency_us", static_cast<double>(snap.p99_latency_us));
  add("p999_latency_us", static_cast<double>(snap.p999_latency_us));
  // Degradation accounting.
  add("truncated_streams", static_cast<double>(snap.truncated_streams));
  add("degraded_responses", static_cast<double>(snap.degraded_responses));
  add("pages_skipped", static_cast<double>(snap.pages_skipped));
  // Tree + pool traffic.
  add("leaf_accesses", static_cast<double>(snap.leaf_accesses));
  add("internal_accesses", static_cast<double>(snap.internal_accesses));
  add("pool_hits", static_cast<double>(snap.pool_hits));
  add("pool_misses", static_cast<double>(snap.pool_misses));
  add("pool_evictions", static_cast<double>(snap.pool_evictions));
  add("pool_contention", static_cast<double>(snap.pool_contention));
  // Self-healing store.
  add("store_read_retries", static_cast<double>(snap.store_read_retries));
  add("store_pages_quarantined",
      static_cast<double>(snap.store_pages_quarantined));
  add("store_quarantines_total",
      static_cast<double>(snap.store_quarantines_total));
  add("store_repairs_total", static_cast<double>(snap.store_repairs_total));
  // Write path.
  add("writes_enabled", snap.writes_enabled ? 1 : 0);
  add("write_state", static_cast<double>(snap.write_state));
  add("write_degraded", snap.write_degraded ? 1 : 0);
  add("write_queue_depth", static_cast<double>(snap.write_queue_depth));
  add("writes_submitted", static_cast<double>(snap.writes_submitted));
  add("writes_rejected", static_cast<double>(snap.writes_rejected));
  add("writes_acked", static_cast<double>(snap.writes_acked));
  add("writes_failed", static_cast<double>(snap.writes_failed));
  add("commit_batches", static_cast<double>(snap.commit_batches));
  add("generation", static_cast<double>(snap.generation));
  add("wal_live_bytes", static_cast<double>(snap.wal_live_bytes));
  // Replica catch-up.
  add("catchup_batches_applied",
      static_cast<double>(snap.catchup_batches_applied));
  add("snapshot_chunks_applied",
      static_cast<double>(snap.snapshot_chunks_applied));
  add("mean_write_latency_us", snap.mean_write_latency_us);
  add("p50_write_latency_us",
      static_cast<double>(snap.p50_write_latency_us));
  add("p99_write_latency_us",
      static_cast<double>(snap.p99_write_latency_us));
  add("p999_write_latency_us",
      static_cast<double>(snap.p999_write_latency_us));
  return fields;
}

const char* WriteStateName(WriteState state) {
  switch (state) {
    case WriteState::kServing:
      return "serving";
    case WriteState::kReadOnly:
      return "read-only";
    case WriteState::kFailed:
      return "failed";
  }
  return "unknown";
}

}  // namespace bw::service
