// bwrouter: the scatter-gather shard router as a standalone binary.
// Serves the same wire protocol as bwserver (same clients, same admin
// tooling) but answers every query by merging the budgeted best-first
// answers of a fleet of STR-partitioned shards, with replica failover
// and fault-budgeted degraded answers (src/shard/router.h).
//
// Remote fleet — shards are bwserver processes started with matching
// corpus flags and --shards/--shard_index:
//
//   bwserver --port 4830 --durable /tmp/s0 --blobs 8000 --shards 3 --shard_index 0
//   bwserver --port 4831 --durable /tmp/s1 --blobs 8000 --shards 3 --shard_index 1
//   bwserver --port 4832 --durable /tmp/s2 --blobs 8000 --shards 3 --shard_index 2
//   bwrouter --port 4821 --blobs 8000
//            --endpoints "127.0.0.1:4830;127.0.0.1:4831;127.0.0.1:4832"
//
// --endpoints groups replicas with ',' inside a shard and separates
// shards with ';' ("hostA:1,hostB:1;hostC:2" = two shards, the first
// with two replicas). The router recomputes the STR partition from the
// same deterministic corpus flags (--blobs/--dim/--seed) the shard
// servers used, so its routing boxes match the fleet's slices without
// any map-file exchange.
//
// Local fleet — no endpoints: the router builds the whole sharded
// deployment in-process under --durable (demo / single-box mode):
//
//   bwrouter --port 4821 --blobs 8000 --local_shards 3 --replicas 2
//            --durable /tmp/bwfleet

#include <csignal>
#include <cstdio>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>

#include "blobworld/dataset.h"
#include "linalg/reducer.h"
#include "net/server.h"
#include "shard/fleet.h"
#include "shard/partitioner.h"
#include "shard/router.h"
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

/// "--endpoints a,b;c" -> {{a,b},{c}}: shards split on ';', replicas
/// on ','.
std::vector<std::vector<std::string>> ParseEndpoints(
    const std::string& spec) {
  std::vector<std::vector<std::string>> shards;
  size_t start = 0;
  while (start <= spec.size()) {
    size_t semi = spec.find(';', start);
    if (semi == std::string::npos) semi = spec.size();
    const std::string group = spec.substr(start, semi - start);
    if (!group.empty()) {
      std::vector<std::string> replicas;
      size_t rs = 0;
      while (rs <= group.size()) {
        size_t comma = group.find(',', rs);
        if (comma == std::string::npos) comma = group.size();
        const std::string endpoint = group.substr(rs, comma - rs);
        if (!endpoint.empty()) replicas.push_back(endpoint);
        rs = comma + 1;
      }
      if (!replicas.empty()) shards.push_back(std::move(replicas));
    }
    start = semi + 1;
  }
  return shards;
}

bw::Result<std::pair<std::string, uint16_t>> SplitHostPort(
    const std::string& endpoint) {
  const size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos) {
    return bw::Status::InvalidArgument("endpoint wants host:port, got '" +
                                       endpoint + "'");
  }
  const int port = std::atoi(endpoint.c_str() + colon + 1);
  if (port <= 0 || port >= 65536) {
    return bw::Status::InvalidArgument("bad port in endpoint '" + endpoint +
                                       "'");
  }
  return std::make_pair(endpoint.substr(0, colon),
                        static_cast<uint16_t>(port));
}

}  // namespace

int main(int argc, char** argv) {
  bw::Flags flags;
  int64_t* port = flags.AddInt64("port", 4821, "TCP port (0 = ephemeral)");
  std::string* bind = flags.AddString("bind", "127.0.0.1", "bind address");
  std::string* endpoints = flags.AddString(
      "endpoints", "",
      "remote fleet: ';'-separated shards, ','-separated replicas "
      "('' = build a local fleet instead)");
  int64_t* blobs =
      flags.AddInt64("blobs", 8000, "synthetic collection size");
  std::string* am = flags.AddString("am", "xjb", "access method (local fleet)");
  int64_t* dim = flags.AddInt64("dim", 5, "reduced dimensionality");
  int64_t* seed = flags.AddInt64("seed", 7, "synthetic dataset seed");
  int64_t* local_shards =
      flags.AddInt64("local_shards", 3, "shards in a local fleet");
  int64_t* replicas =
      flags.AddInt64("replicas", 1, "replicas per shard in a local fleet");
  std::string* durable = flags.AddString(
      "durable", "/tmp/bwfleet", "directory for local-fleet shard indexes");
  int64_t* fault_budget = flags.AddInt64(
      "fault_budget", 1,
      "dead shards one query tolerates before failing (0 = fail closed)");
  int64_t* probe_interval_ms = flags.AddInt64(
      "probe_interval_ms", 500, "replica health-probe period (0 = off)");
  int64_t* probe_backoff_max = flags.AddInt64(
      "probe_backoff_max", 8,
      "max sweeps skipped between probes of a repeatedly dead replica");
  int64_t* catchup_interval_ms = flags.AddInt64(
      "catchup_interval_ms", 1000,
      "stale-replica WAL catch-up period (0 = off)");
  bool* hedge = flags.AddBool(
      "hedge", true,
      "hedge slow replica reads against a sibling replica");
  double* hedge_quantile = flags.AddDouble(
      "hedge_quantile", 0.99,
      "per-backend latency quantile that arms the hedge timer");
  int64_t* hedge_floor_us = flags.AddInt64(
      "hedge_floor_us", 1000, "minimum hedge delay");
  int64_t* hedge_cap_us = flags.AddInt64(
      "hedge_cap_us", 200000, "maximum hedge delay");
  bool* breaker = flags.AddBool(
      "breaker", true,
      "per-backend circuit breakers on error/latency-outlier streaks");
  int64_t* breaker_cooldown_ms = flags.AddInt64(
      "breaker_cooldown_ms", 1000,
      "open-breaker cooldown before a half-open trial");
  int64_t* jitter_seed = flags.AddInt64(
      "jitter_seed", 0,
      "seed for probe/hedge/backoff jitter (deterministic schedules)");
  int64_t* workers =
      flags.AddInt64("workers", 4, "query workers per local-fleet shard");
  int64_t* io_threads = flags.AddInt64("io_threads", 1, "epoll loops");
  int64_t* dispatch_threads =
      flags.AddInt64("dispatch_threads", 4, "request dispatch threads");
  int64_t* max_inflight = flags.AddInt64(
      "max_inflight", 32, "per-connection in-flight request quota");
  int64_t* idle_timeout_ms =
      flags.AddInt64("idle_timeout_ms", 30000, "idle connection reap");
  bw::Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    return parsed.code() == bw::StatusCode::kNotFound ? 0 : 2;
  }

  bw::shard::RouterOptions router_options;
  router_options.fault_budget = static_cast<size_t>(*fault_budget);
  router_options.probe_interval =
      std::chrono::milliseconds(*probe_interval_ms);
  router_options.probe_backoff_max =
      static_cast<uint32_t>(*probe_backoff_max);
  router_options.catchup_interval =
      std::chrono::milliseconds(*catchup_interval_ms);
  router_options.hedge = *hedge;
  router_options.hedge_quantile = *hedge_quantile;
  router_options.hedge_delay_floor_us = static_cast<uint64_t>(*hedge_floor_us);
  router_options.hedge_delay_cap_us = static_cast<uint64_t>(*hedge_cap_us);
  router_options.breaker.enabled = *breaker;
  router_options.breaker.cooldown_us =
      static_cast<uint64_t>(*breaker_cooldown_ms) * 1000;
  router_options.jitter_seed = static_cast<uint64_t>(*jitter_seed);

  std::unique_ptr<bw::shard::ShardFleet> fleet;          // local mode.
  std::unique_ptr<bw::shard::Router> remote_router;      // remote mode.
  bw::shard::Router* router = nullptr;

  if (endpoints->empty()) {
    // --- Local fleet: shards built and served in-process --------------
    auto vectors = SyntheticVectors(static_cast<size_t>(*blobs),
                                    static_cast<size_t>(*dim),
                                    static_cast<uint64_t>(*seed));
    BW_CHECK_MSG(vectors.ok(), vectors.status().ToString());
    std::filesystem::create_directories(*durable);
    bw::shard::FleetOptions fleet_options;
    fleet_options.num_shards = static_cast<size_t>(*local_shards);
    fleet_options.replicas_per_shard = static_cast<size_t>(*replicas);
    fleet_options.build.am = *am;
    fleet_options.build.xjb_x = 0;
    fleet_options.service.num_workers = static_cast<size_t>(*workers);
    fleet_options.service.write.enabled = true;
    fleet_options.router = router_options;
    auto built = bw::shard::ShardFleet::Build(*vectors, *durable,
                                              fleet_options);
    BW_CHECK_MSG(built.ok(), built.status().ToString());
    fleet = std::move(*built);
    router = fleet->router();
    std::printf("bwrouter: local fleet, %zu shards x %lld replicas over "
                "%lld blobs (%s)\n",
                fleet->num_shards(), (long long)*replicas, (long long)*blobs,
                am->c_str());
  } else {
    // --- Remote fleet: recompute the STR partition the shard servers
    // used (same corpus flags => same slices), then dial endpoints.
    auto vectors = SyntheticVectors(static_cast<size_t>(*blobs),
                                    static_cast<size_t>(*dim),
                                    static_cast<uint64_t>(*seed));
    BW_CHECK_MSG(vectors.ok(), vectors.status().ToString());
    const std::vector<std::vector<std::string>> groups =
        ParseEndpoints(*endpoints);
    BW_CHECK_MSG(!groups.empty(), "--endpoints parsed to zero shards");
    const bw::shard::Partition partition =
        bw::shard::PartitionByStr(*vectors, groups.size());
    std::vector<bw::shard::Router::Shard> shards(groups.size());
    for (size_t s = 0; s < groups.size(); ++s) {
      for (const std::string& endpoint : groups[s]) {
        auto host_port = SplitHostPort(endpoint);
        BW_CHECK_MSG(host_port.ok(), host_port.status().ToString());
        bw::net::ClientOptions client_options;
        client_options.peer = "bwrouter";
        client_options.features =
            bw::net::kFeatureStreaming | bw::net::kFeatureRouter;
        auto backend = std::make_unique<bw::shard::RemoteShardBackend>(
            host_port->first, host_port->second, client_options);
        shards[s].replicas.push_back(std::move(backend));
      }
    }
    remote_router = std::make_unique<bw::shard::Router>(
        bw::shard::ShardMap((*vectors)[0].dim(), partition.bounds),
        std::move(shards), router_options);
    router = remote_router.get();
    std::printf("bwrouter: remote fleet, %zu shards (%s)\n", groups.size(),
                endpoints->c_str());
  }

  // --- Serve the router behind the standard wire front end ------------
  bw::net::ServerOptions server_options;
  server_options.port = static_cast<uint16_t>(*port);
  server_options.bind_address = *bind;
  server_options.io_threads = static_cast<size_t>(*io_threads);
  server_options.dispatch_threads = static_cast<size_t>(*dispatch_threads);
  server_options.quota.max_inflight = static_cast<size_t>(*max_inflight);
  server_options.idle_timeout = std::chrono::milliseconds(*idle_timeout_ms);
  bw::net::Server server(router, server_options);
  bw::Status started = server.Start();
  BW_CHECK_MSG(started.ok(), started.ToString());
  std::printf("bwrouter listening on %s:%u (%zu shards, fault budget %lld)\n",
              bind->c_str(), server.port(), router->num_shards(),
              (long long)*fault_budget);
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::printf("draining...\n");
  server.Shutdown();
  const bw::net::NetStats net = server.stats();
  const bw::shard::RouterStats rs = router->stats();
  std::printf("served %llu requests over %llu connections; "
              "%llu queries: %llu shard visits, %llu pruned, "
              "%llu failovers, %llu degraded; "
              "%llu catch-ups (%llu WAL batches, %llu snapshots)\n",
              (unsigned long long)net.requests,
              (unsigned long long)net.accepted,
              (unsigned long long)rs.queries,
              (unsigned long long)rs.shards_visited,
              (unsigned long long)rs.shards_pruned,
              (unsigned long long)rs.failovers,
              (unsigned long long)rs.degraded_queries,
              (unsigned long long)rs.catchups,
              (unsigned long long)rs.wal_batches_shipped,
              (unsigned long long)rs.snapshots_shipped);
  std::printf("tail tolerance: %llu hedges (%llu won), "
              "breakers %llu opened / %llu half-opened / %llu closed, "
              "%llu budget-exhausted queries\n",
              (unsigned long long)rs.hedges_attempted,
              (unsigned long long)rs.hedges_won,
              (unsigned long long)rs.breaker_opens,
              (unsigned long long)rs.breaker_half_opens,
              (unsigned long long)rs.breaker_closes,
              (unsigned long long)rs.budget_exhausted);
  return 0;
}
