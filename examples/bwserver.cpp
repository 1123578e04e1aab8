// bwserver: the Blobworld network front end as a standalone binary.
// Builds (or opens) an index, wraps it in a QueryService, and serves
// the wire protocol (src/net/wire.h) over TCP until SIGTERM/SIGINT,
// then drains in-flight streams and exits cleanly — the deployment
// shape every downstream scaling direction (sharding, replicas)
// assumes.
//
//   bwserver --port 4821 --blobs 8000 --am xjb --workers 4
//   bwserver --port 4821 --index idx
//   bwserver --port 4821 --durable /tmp/bw --blobs 8000   # writable
//
// With --index PREFIX the server opens the durable index `bwadmin build`
// saved at PREFIX.bwpf / PREFIX.bwwal (crash recovery included) and
// serves it read-only. With --durable PREFIX the index is built durably
// there and online insert/delete requests are honored; without it the
// service is read-only and mutations answer InvalidArgument.
//
// With --shards N --shard_index I the server builds and serves only its
// STR slice of the synthetic corpus, preserving *global* RIDs — the
// shard-fleet member behind bwrouter. Every shard server (and the
// router) must be started with identical --blobs/--dim/--seed so the
// deterministic partition agrees across the fleet. Requires --durable.

#include <csignal>
#include <cstdio>

#include <atomic>
#include <chrono>
#include <thread>

#include "blobworld/dataset.h"
#include "core/durable_index.h"
#include "core/index_factory.h"
#include "linalg/reducer.h"
#include "net/client.h"
#include "net/server.h"
#include "service/query_service.h"
#include "shard/partitioner.h"
#include "util/flags.h"

namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true); }

bw::Result<std::vector<bw::geom::Vec>> SyntheticVectors(size_t blobs,
                                                        size_t dim,
                                                        uint64_t seed) {
  bw::blobworld::DatasetParams params;
  params.num_images = blobs;
  params.seed = seed;
  const bw::blobworld::BlobDataset dataset =
      bw::blobworld::GenerateDatasetDirect(params);
  bw::linalg::SvdReducer reducer;
  BW_RETURN_IF_ERROR(reducer.Fit(dataset.Histograms(), dim));
  return reducer.ProjectAll(dataset.Histograms(), dim);
}

}  // namespace

int main(int argc, char** argv) {
  bw::Flags flags;
  int64_t* port = flags.AddInt64("port", 4821, "TCP port (0 = ephemeral)");
  std::string* bind = flags.AddString("bind", "127.0.0.1", "bind address");
  std::string* index_path =
      flags.AddString("index", "",
                      "serve the index saved at PREFIX.bwpf/.bwwal, "
                      "read-only ('' = synthetic)");
  std::string* durable = flags.AddString(
      "durable", "",
      "build a durable, writable index at PREFIX.bwpf/.bwwal ('' = "
      "read-only in-memory index)");
  int64_t* blobs =
      flags.AddInt64("blobs", 8000, "synthetic collection size");
  std::string* am = flags.AddString("am", "xjb", "access method");
  int64_t* dim = flags.AddInt64("dim", 5, "reduced dimensionality");
  int64_t* seed = flags.AddInt64("seed", 7, "synthetic dataset seed");
  int64_t* workers = flags.AddInt64("workers", 4, "query worker threads");
  int64_t* queue_depth =
      flags.AddInt64("queue_depth", 128, "service admission queue");
  int64_t* io_threads = flags.AddInt64("io_threads", 1, "epoll loops");
  int64_t* dispatch_threads =
      flags.AddInt64("dispatch_threads", 4, "request dispatch threads");
  int64_t* max_inflight = flags.AddInt64(
      "max_inflight", 32, "per-connection in-flight request quota");
  double* max_results_per_sec = flags.AddDouble(
      "max_results_per_sec", 0, "per-connection results/sec quota (0 = off)");
  int64_t* idle_timeout_ms =
      flags.AddInt64("idle_timeout_ms", 30000, "idle connection reap");
  int64_t* fault_budget = flags.AddInt64(
      "fault_budget", 0, "per-query degraded-read budget (0 = fail closed)");
  int64_t* shards = flags.AddInt64(
      "shards", 0, "serve one STR shard of the corpus (0 = whole corpus)");
  int64_t* shard_index =
      flags.AddInt64("shard_index", 0, "which shard this server is");
  bw::Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    return parsed.code() == bw::StatusCode::kNotFound ? 0 : 2;
  }

  // --- Index -------------------------------------------------------------
  std::unique_ptr<bw::core::BuiltIndex> built;
  std::unique_ptr<bw::core::DurableIndex> durable_index;
  if (!index_path->empty()) {
    auto opened = bw::core::OpenDurableIndex(*index_path + ".bwpf",
                                             *index_path + ".bwwal");
    BW_CHECK_MSG(opened.ok(), opened.status().ToString());
    durable_index = std::move(*opened);
    std::printf("opened %s: %llu entries, height %d\n", index_path->c_str(),
                (unsigned long long)durable_index->tree().size(),
                durable_index->tree().height());
  } else {
    auto vectors = SyntheticVectors(static_cast<size_t>(*blobs),
                                    static_cast<size_t>(*dim),
                                    static_cast<uint64_t>(*seed));
    BW_CHECK_MSG(vectors.ok(), vectors.status().ToString());
    bw::core::IndexBuildOptions build;
    build.am = *am;
    build.xjb_x = 0;
    if (*shards > 0) {
      // Shard-fleet member: build this server's STR slice with global
      // RIDs so router answers merge bit-for-bit with an unsharded
      // index over the same corpus.
      BW_CHECK_MSG(!durable->empty(), "--shards requires --durable PREFIX");
      BW_CHECK_MSG(*shard_index >= 0 && *shard_index < *shards,
                   "--shard_index out of range");
      const bw::shard::Partition partition = bw::shard::PartitionByStr(
          *vectors, static_cast<size_t>(*shards));
      const size_t s = static_cast<size_t>(*shard_index);
      auto index = bw::shard::BuildShardIndex(
          partition.points[s], partition.rids[s], build, *durable + ".bwpf",
          *durable + ".bwwal");
      BW_CHECK_MSG(index.ok(), index.status().ToString());
      durable_index = std::move(*index);
      std::printf("built %s shard %lld/%lld: %zu of %lld blobs (durable)\n",
                  am->c_str(), (long long)*shard_index, (long long)*shards,
                  partition.points[s].size(), (long long)*blobs);
    } else if (durable->empty()) {
      auto index = bw::core::BuildIndex(*vectors, build);
      BW_CHECK_MSG(index.ok(), index.status().ToString());
      built = std::move(*index);
    } else {
      auto index = bw::core::BuildDurableIndex(
          *vectors, build, *durable + ".bwpf", *durable + ".bwwal");
      BW_CHECK_MSG(index.ok(), index.status().ToString());
      durable_index = std::move(*index);
    }
    if (*shards == 0) {
      std::printf("built %s over %lld synthetic blobs%s\n", am->c_str(),
                  (long long)*blobs,
                  durable->empty() ? "" : " (durable, writable)");
    }
  }

  // --- Service -----------------------------------------------------------
  bw::service::ServiceOptions service_options;
  service_options.num_workers = static_cast<size_t>(*workers);
  service_options.queue_capacity = static_cast<size_t>(*queue_depth);
  service_options.fault_budget = static_cast<size_t>(*fault_budget);
  // A durable index built here takes writes; one opened with --index is
  // served read-only.
  service_options.write.enabled = durable_index && index_path->empty();
  auto service =
      durable_index
          ? std::make_unique<bw::service::QueryService>(
                std::move(durable_index), service_options)
          : std::make_unique<bw::service::QueryService>(std::move(built),
                                                        service_options);

  // --- Server ------------------------------------------------------------
  bw::net::ServerOptions server_options;
  server_options.port = static_cast<uint16_t>(*port);
  server_options.bind_address = *bind;
  server_options.io_threads = static_cast<size_t>(*io_threads);
  server_options.dispatch_threads = static_cast<size_t>(*dispatch_threads);
  server_options.quota.max_inflight = static_cast<size_t>(*max_inflight);
  server_options.quota.max_results_per_sec = *max_results_per_sec;
  server_options.idle_timeout =
      std::chrono::milliseconds(*idle_timeout_ms);
  bw::net::Server server(service.get(), server_options);
  bw::Status started = server.Start();
  BW_CHECK_MSG(started.ok(), started.ToString());
  std::printf("bwserver listening on %s:%u (%zu workers, %lld dispatch)\n",
              bind->c_str(), server.port(),
              service->num_workers(), (long long)*dispatch_threads);
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::printf("draining...\n");
  server.Shutdown();
  const bw::net::NetStats net = server.stats();
  const bw::service::ServiceSnapshot snap = service->Snapshot();
  std::printf("served %llu requests (%llu responses) over %llu connections; "
              "shed %llu quota / %llu dispatch / %llu shutdown; "
              "%llu queries completed, p99 %llu us\n",
              (unsigned long long)net.requests,
              (unsigned long long)net.responses,
              (unsigned long long)net.accepted,
              (unsigned long long)net.shed_quota,
              (unsigned long long)net.shed_dispatch,
              (unsigned long long)net.shed_shutdown,
              (unsigned long long)snap.completed,
              (unsigned long long)snap.p99_latency_us);
  return 0;
}
