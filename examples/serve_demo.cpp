// Concurrent serving demo: many simulated users streaming "more results
// until I stop scrolling" queries against one shared index — the
// Blobworld front-end scenario the paper's nearest-neighbor search
// exists for.
//
// Three modes:
//
//   $ ./serve_demo                      # in-process: users call the
//                                       # QueryService directly
//   $ ./serve_demo --port 4821          # run the real network server
//                                       # until SIGINT/SIGTERM
//   $ ./serve_demo --connect 127.0.0.1:4821
//                                       # drive a live server with the
//                                       # same user mix over net::Client
//
// The in-process and --connect modes run the identical three request
// shapes (exact k-NN, radius-budgeted streams, deadline-capped streams),
// so diffing their output shows exactly what the wire adds: distinct
// shed codes, per-connection quotas, and streamed result batches.

#include <csignal>
#include <cstdio>
#include <cstdlib>

#include <atomic>
#include <thread>
#include <vector>

#include "blobworld/dataset.h"
#include "core/index_factory.h"
#include "linalg/reducer.h"
#include "net/client.h"
#include "net/server.h"
#include "service/query_service.h"
#include "util/flags.h"

namespace {

std::atomic<bool> g_stop{false};
void HandleSignal(int) { g_stop.store(true); }

std::vector<bw::geom::Vec> BuildVectors() {
  bw::blobworld::DatasetParams params;
  params.num_images = 1000;
  params.seed = 7;
  const bw::blobworld::BlobDataset dataset =
      bw::blobworld::GenerateDatasetDirect(params);
  bw::linalg::SvdReducer reducer;
  BW_CHECK_OK(reducer.Fit(dataset.Histograms(), 5));
  return reducer.ProjectAll(dataset.Histograms(), 5);
}

std::unique_ptr<bw::core::BuiltIndex> BuildDemoIndex(
    const std::vector<bw::geom::Vec>& vectors) {
  bw::core::IndexBuildOptions build;
  build.am = "xjb";
  build.xjb_x = 0;
  auto index = bw::core::BuildIndex(vectors, build);
  BW_CHECK_MSG(index.ok(), index.status().ToString());
  std::printf("index: %s over %zu blobs, height %d\n", build.am.c_str(),
              vectors.size(), (*index)->tree().height());
  return std::move(*index);
}

// The original in-process flow: eight users calling the service
// directly, no network between them and the worker pool.
int RunInProcess() {
  const std::vector<bw::geom::Vec> vectors = BuildVectors();
  auto index = BuildDemoIndex(vectors);

  bw::service::ServiceOptions options;
  options.num_workers = 4;
  options.queue_capacity = 32;
  bw::service::QueryService service(std::move(index), options);

  std::vector<std::thread> users;
  for (size_t u = 0; u < 8; ++u) {
    users.emplace_back([&service, &vectors, u] {
      const bw::geom::Vec& focus = vectors[(u * 131) % vectors.size()];
      if (u % 3 == 0) {
        auto response = service.Knn(focus, 20);
        BW_CHECK_MSG(response.ok(), response.status().ToString());
        std::printf("user %zu: top-20 in %.0f us (%llu leaf I/Os)\n", u,
                    response->metrics.latency_us,
                    (unsigned long long)response->metrics.leaf_accesses);
      } else if (u % 3 == 1) {
        bw::service::StreamOptions stream;
        stream.budget_radius = 0.05;
        auto future = service.SubmitStream(focus, stream);
        BW_CHECK_MSG(future.ok(), future.status().ToString());
        auto response = future->get();
        BW_CHECK_MSG(response.ok(), response.status().ToString());
        std::printf("user %zu: %zu blobs within r=%.2f in %.0f us\n", u,
                    response->neighbors.size(), stream.budget_radius,
                    response->metrics.latency_us);
      } else {
        bw::service::StreamOptions stream;
        stream.max_results = 50;
        stream.deadline_us = 200;
        auto future = service.SubmitStream(focus, stream);
        BW_CHECK_MSG(future.ok(), future.status().ToString());
        auto response = future->get();
        BW_CHECK_MSG(response.ok(), response.status().ToString());
        std::printf("user %zu: %zu results before the %.0f us deadline%s\n",
                    u, response->neighbors.size(), stream.deadline_us,
                    response->metrics.truncated ? " (truncated)" : "");
      }
    });
  }
  for (auto& t : users) t.join();

  const bw::service::ServiceSnapshot snap = service.Snapshot();
  std::printf(
      "\nservice: %llu completed (%llu rejected), p50 %llu us, p95 %llu us, "
      "p99 %llu us, %llu node visits\n",
      (unsigned long long)snap.completed, (unsigned long long)snap.rejected,
      (unsigned long long)snap.p50_latency_us,
      (unsigned long long)snap.p95_latency_us,
      (unsigned long long)snap.p99_latency_us,
      (unsigned long long)(snap.internal_accesses + snap.leaf_accesses));
  return 0;
}

// --port: the same index and service, fronted by the real epoll server.
int RunServer(uint16_t port) {
  const std::vector<bw::geom::Vec> vectors = BuildVectors();
  auto index = BuildDemoIndex(vectors);

  bw::service::ServiceOptions options;
  options.num_workers = 4;
  options.queue_capacity = 32;
  bw::service::QueryService service(std::move(index), options);

  bw::net::ServerOptions server_options;
  server_options.port = port;
  bw::net::Server server(&service, server_options);
  BW_CHECK_OK(server.Start());
  std::printf("serve_demo listening on 127.0.0.1:%u — drive it with\n"
              "  ./serve_demo --connect 127.0.0.1:%u\n",
              server.port(), server.port());
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.Shutdown();
  const bw::net::NetStats net = server.stats();
  std::printf("served %llu requests over %llu connections\n",
              (unsigned long long)net.requests,
              (unsigned long long)net.accepted);
  return 0;
}

// --connect: the eight-user mix, but every request crosses the wire.
// One Client per user — the client is deliberately not thread-safe;
// concurrency comes from connections, like real front-end processes.
int RunClients(const std::string& host, uint16_t port) {
  const std::vector<bw::geom::Vec> vectors = BuildVectors();

  std::vector<std::thread> users;
  for (size_t u = 0; u < 8; ++u) {
    users.emplace_back([&vectors, &host, port, u] {
      auto client = bw::net::Client::Connect(host, port);
      BW_CHECK_MSG(client.ok(), client.status().ToString());
      const bw::geom::Vec& focus = vectors[(u * 131) % vectors.size()];
      if (u % 3 == 0) {
        auto reply = (*client)->Knn(focus, 20);
        BW_CHECK_MSG(reply.ok(), reply.status().ToString());
        BW_CHECK_MSG(reply->ok(), reply->status.ToString());
        std::printf("user %zu: top-20 over the wire in %.0f us server-side\n",
                    u, reply->server_latency_us);
      } else if (u % 3 == 1) {
        auto reply = (*client)->Range(focus, 0.05);
        BW_CHECK_MSG(reply.ok(), reply.status().ToString());
        BW_CHECK_MSG(reply->ok(), reply->status.ToString());
        std::printf("user %zu: %zu blobs within r=0.05 over the wire\n", u,
                    reply->neighbors.size());
      } else {
        bw::net::QueryLimits limits;
        limits.deadline_us = 200;
        auto reply = (*client)->Knn(focus, 50, limits);
        BW_CHECK_MSG(reply.ok(), reply.status().ToString());
        BW_CHECK_MSG(reply->ok(), reply->status.ToString());
        std::printf("user %zu: %zu results before the 200 us deadline%s\n",
                    u, reply->neighbors.size(),
                    reply->truncated ? " (truncated)" : "");
      }
    });
  }
  for (auto& t : users) t.join();

  // Service-wide view, over the wire this time.
  auto client = bw::net::Client::Connect(host, port);
  BW_CHECK_MSG(client.ok(), client.status().ToString());
  auto health = (*client)->Health();
  BW_CHECK_MSG(health.ok(), health.status().ToString());
  std::printf("\nserver health: write_state=%u generation=%llu "
              "pages_quarantined=%llu uptime=%.1fs\n",
              health->write_state, (unsigned long long)health->generation,
              (unsigned long long)health->pages_quarantined,
              health->uptime_seconds);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bw::Flags flags;
  int64_t* port = flags.AddInt64("port", 0, "serve on this port until ^C");
  std::string* connect = flags.AddString(
      "connect", "", "host:port of a live server to drive over the wire");
  bw::Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    return parsed.code() == bw::StatusCode::kNotFound ? 0 : 2;
  }

  if (!connect->empty()) {
    const size_t colon = connect->rfind(':');
    BW_CHECK_MSG(colon != std::string::npos, "--connect wants host:port");
    const std::string host = connect->substr(0, colon);
    const int p = std::atoi(connect->c_str() + colon + 1);
    BW_CHECK_MSG(p > 0 && p < 65536, "--connect wants a valid port");
    return RunClients(host, static_cast<uint16_t>(p));
  }
  if (*port > 0) return RunServer(static_cast<uint16_t>(*port));
  return RunInProcess();
}
