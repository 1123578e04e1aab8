// Concurrent query-service throughput on the fig07-style workload
// (Blobworld vectors, 200-NN queries): sweeps worker threads under a
// closed-loop load generator and reports aggregate QPS + tail latency,
// verifying every concurrent result set against serial execution. An
// optional open-loop run offers a fixed arrival rate and measures the
// admission-control reject fraction.
//
// Every page is memory-resident and served without simulated I/O, so
// the sweep measures CPU scaling: worker counts beyond the host's cores
// cannot speed it up. Flags accept hyphenated spellings as well
// (--write-fraction == --write_fraction), like every bench binary.
// `--json_out=PATH` records the sweep as a flat JSON object. The exit
// status is nonzero if any concurrent answer, in process or over the
// wire (`--net`), differs from serial execution.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <optional>
#include <thread>
#include <vector>

#include <deque>

#include <filesystem>

#include "bench/bench_common.h"
#include "core/durable_index.h"
#include "net/client.h"
#include "net/server.h"
#include "service/query_service.h"
#include "shard/fleet.h"
#include "shard/router.h"
#include "storage/store.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"

namespace {

struct RunOutcome {
  double seconds = 0;
  double qps = 0;
  bool identical = true;
  bw::service::ServiceSnapshot snap;
};

// Closed loop: `clients` submitter threads, each keeping one query in
// flight (submit, wait, next), until the workload is exhausted.
RunOutcome RunClosedLoop(const bw::gist::Tree& tree,
                         const std::vector<bw::geom::Vec>& queries, size_t k,
                         const bw::service::ServiceOptions& options,
                         size_t clients,
                         const std::vector<std::vector<bw::gist::Rid>>&
                             expected) {
  bw::service::QueryService service(tree, options);
  std::vector<std::vector<bw::gist::Rid>> got(queries.size());
  std::atomic<size_t> next{0};
  std::atomic<bool> all_ok{true};

  bw::Stopwatch watch;
  std::vector<std::thread> pool;
  pool.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    pool.emplace_back([&] {
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= queries.size()) return;
        auto future = service.SubmitKnn(queries[i], k);
        if (!future.ok()) {  // kBlock never rejects; guard anyway.
          all_ok.store(false);
          continue;
        }
        auto response = future->get();
        if (!response.ok()) {
          all_ok.store(false);
          continue;
        }
        got[i].reserve(response->neighbors.size());
        for (const auto& n : response->neighbors) got[i].push_back(n.rid);
      }
    });
  }
  for (auto& t : pool) t.join();

  RunOutcome out;
  out.seconds = watch.ElapsedSeconds();
  out.qps = static_cast<double>(queries.size()) / out.seconds;
  out.snap = service.Snapshot();
  out.identical = all_ok.load() && got == expected;
  return out;
}

// Open loop: one submitter offers queries at `offered_qps`; queries that
// find the queue full are rejected by admission control and counted.
RunOutcome RunOpenLoop(const bw::gist::Tree& tree,
                       const std::vector<bw::geom::Vec>& queries, size_t k,
                       bw::service::ServiceOptions options,
                       double offered_qps) {
  options.overflow = bw::service::OverflowPolicy::kReject;
  bw::service::QueryService service(tree, options);
  std::vector<std::optional<bw::service::QueryService::ResponseFuture>>
      futures(queries.size());

  const auto start = std::chrono::steady_clock::now();
  const std::chrono::duration<double> interval(1.0 / offered_qps);
  for (size_t i = 0; i < queries.size(); ++i) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    interval * static_cast<double>(i)));
    auto future = service.SubmitKnn(queries[i], k);
    if (future.ok()) futures[i] = std::move(*future);
  }
  size_t completed = 0;
  for (auto& f : futures) {
    if (f.has_value() && f->get().ok()) ++completed;
  }
  RunOutcome out;
  out.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  out.qps = static_cast<double>(completed) / out.seconds;
  out.snap = service.Snapshot();
  return out;
}

struct MixedOutcome {
  double seconds = 0;
  double ops_per_sec = 0;
  size_t ops = 0;
  size_t write_ops = 0;
  size_t admission_rejects = 0;
  bw::service::ServiceSnapshot snap;
};

// Mixed closed loop over a durable index: each client keeps one
// operation in flight, flipping a deterministic per-op coin between a
// k-NN query and an online insert. Writes submitted while the service
// sheds (queue full or read-only) count as admission rejects; admitted
// writes are waited to their ack, so write latency covers queue wait +
// apply + the batch's commit fsync.
MixedOutcome RunMixedLoop(bw::core::DurableIndex* index,
                          const std::vector<bw::geom::Vec>& vectors,
                          const std::vector<bw::geom::Vec>& queries, size_t k,
                          const bw::service::ServiceOptions& options,
                          size_t clients, double write_fraction,
                          size_t total_ops) {
  bw::service::QueryService service(index, options);
  const uint32_t write_cut =
      static_cast<uint32_t>(write_fraction * 1000.0 + 0.5);
  std::atomic<size_t> next{0};
  std::atomic<size_t> write_ops{0};
  std::atomic<size_t> rejects{0};

  bw::Stopwatch watch;
  std::vector<std::thread> pool;
  pool.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    pool.emplace_back([&] {
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= total_ops) return;
        const bool is_write =
            (static_cast<uint32_t>(i) * 2654435761u) % 1000 < write_cut;
        if (is_write) {
          write_ops.fetch_add(1);
          auto future = service.SubmitInsert(
              vectors[i % vectors.size()],
              static_cast<bw::gist::Rid>(vectors.size() + i));
          if (!future.ok()) {
            rejects.fetch_add(1);
            continue;
          }
          (void)future->get();  // closed loop: wait for the ack.
        } else {
          auto future = service.SubmitKnn(queries[i % queries.size()], k);
          if (!future.ok()) continue;
          (void)future->get();
        }
      }
    });
  }
  for (auto& t : pool) t.join();

  MixedOutcome out;
  out.seconds = watch.ElapsedSeconds();
  out.ops = total_ops;
  out.ops_per_sec = static_cast<double>(total_ops) / out.seconds;
  out.write_ops = write_ops.load();
  out.admission_rejects = rejects.load();
  out.snap = service.Snapshot();
  service.Shutdown();
  return out;
}

// Sorted-rid comparison for the wire runs: the in-process baseline
// answers via SubmitKnn and the wire via the NN stream — both exact and
// distance-sorted, but equal-distance neighbors may tie-break
// differently, so order-sensitive comparison would false-alarm.
bool SameRids(std::vector<bw::gist::Rid> a, std::vector<bw::gist::Rid> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

struct NetOutcome {
  double seconds = 0;
  double qps = 0;
  bool identical = true;
  double p50_us = 0;  // client-observed end-to-end latency.
  double p99_us = 0;
  double p999_us = 0;
};

// Closed loop over the wire: `clients` threads, each with its own TCP
// connection, each keeping one synchronous request in flight.
NetOutcome RunNetClosedLoop(uint16_t port,
                            const std::vector<bw::geom::Vec>& queries,
                            size_t k, size_t clients,
                            const std::vector<std::vector<bw::gist::Rid>>&
                                expected) {
  std::atomic<size_t> next{0};
  std::atomic<bool> all_ok{true};
  std::vector<double> latencies(queries.size(), 0);

  bw::Stopwatch watch;
  std::vector<std::thread> pool;
  pool.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    pool.emplace_back([&] {
      auto client = bw::net::Client::Connect("127.0.0.1", port);
      BW_CHECK_MSG(client.ok(), client.status().ToString());
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= queries.size()) return;
        const auto start = std::chrono::steady_clock::now();
        auto reply = (*client)->Knn(queries[i], k);
        if (!reply.ok() || !reply->ok()) {
          all_ok.store(false);
          continue;
        }
        latencies[i] = std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - start)
                           .count();
        std::vector<bw::gist::Rid> rids;
        rids.reserve(reply->neighbors.size());
        for (const auto& n : reply->neighbors) rids.push_back(n.rid);
        if (!SameRids(std::move(rids), expected[i])) all_ok.store(false);
      }
    });
  }
  for (auto& t : pool) t.join();

  NetOutcome out;
  out.seconds = watch.ElapsedSeconds();
  out.qps = static_cast<double>(queries.size()) / out.seconds;
  out.identical = all_ok.load();
  std::sort(latencies.begin(), latencies.end());
  if (!latencies.empty()) {
    out.p50_us = latencies[latencies.size() / 2];
    out.p99_us = latencies[std::min(latencies.size() - 1,
                                    latencies.size() * 99 / 100)];
    out.p999_us = latencies[std::min(latencies.size() - 1,
                                     latencies.size() * 999 / 1000)];
  }
  return out;
}

// One connection, a sliding window of `window` pipelined requests
// (window=1 degenerates to strict request/response ping-pong — the
// pipelining comparison baseline).
NetOutcome RunNetPipelined(uint16_t port,
                           const std::vector<bw::geom::Vec>& queries,
                           size_t k, size_t window,
                           const std::vector<std::vector<bw::gist::Rid>>&
                               expected) {
  auto client = bw::net::Client::Connect("127.0.0.1", port);
  BW_CHECK_MSG(client.ok(), client.status().ToString());
  NetOutcome out;
  std::deque<std::pair<uint64_t, size_t>> inflight;  // (request id, query).
  size_t submitted = 0;
  bw::Stopwatch watch;
  while (submitted < queries.size() || !inflight.empty()) {
    while (submitted < queries.size() && inflight.size() < window) {
      auto id = (*client)->SubmitKnn(queries[submitted], k);
      BW_CHECK_MSG(id.ok(), id.status().ToString());
      inflight.emplace_back(*id, submitted);
      ++submitted;
    }
    const auto [id, qi] = inflight.front();
    inflight.pop_front();
    auto reply = (*client)->AwaitQuery(id);
    BW_CHECK_MSG(reply.ok(), reply.status().ToString());
    if (!reply->ok()) {
      out.identical = false;
      continue;
    }
    std::vector<bw::gist::Rid> rids;
    rids.reserve(reply->neighbors.size());
    for (const auto& n : reply->neighbors) rids.push_back(n.rid);
    if (!SameRids(std::move(rids), expected[qi])) out.identical = false;
  }
  out.seconds = watch.ElapsedSeconds();
  out.qps = static_cast<double>(queries.size()) / out.seconds;
  return out;
}

struct ShardOutcome {
  double seconds = 0;
  double qps = 0;
  bool identical = true;
  double visits_per_query = 0;  // shards actually opened, per query.
  double pruned_per_query = 0;  // shards skipped by the root bound.
};

// Closed loop straight against the router (no sockets): `clients`
// threads each keep one scatter-gather k-NN in flight.
ShardOutcome RunShardedLoop(bw::shard::Router* router,
                            const std::vector<bw::geom::Vec>& queries,
                            size_t k, size_t clients,
                            const std::vector<std::vector<bw::gist::Rid>>&
                                expected) {
  const bw::shard::RouterStats before = router->stats();
  std::atomic<size_t> next{0};
  std::atomic<bool> all_ok{true};

  bw::Stopwatch watch;
  std::vector<std::thread> pool;
  pool.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    pool.emplace_back([&] {
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= queries.size()) return;
        bw::service::StreamOptions stream;
        stream.max_results = k;
        auto response = router->Knn(queries[i], stream);
        if (!response.ok() || response->degraded()) {
          all_ok.store(false);
          continue;
        }
        std::vector<bw::gist::Rid> rids;
        rids.reserve(response->neighbors.size());
        for (const auto& n : response->neighbors) rids.push_back(n.rid);
        if (!SameRids(std::move(rids), expected[i])) all_ok.store(false);
      }
    });
  }
  for (auto& t : pool) t.join();

  ShardOutcome out;
  out.seconds = watch.ElapsedSeconds();
  out.qps = static_cast<double>(queries.size()) / out.seconds;
  out.identical = all_ok.load();
  const bw::shard::RouterStats after = router->stats();
  const double n = static_cast<double>(queries.size());
  out.visits_per_query =
      static_cast<double>(after.shards_visited - before.shards_visited) / n;
  out.pruned_per_query =
      static_cast<double>(after.shards_pruned - before.shards_pruned) / n;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bw::Flags flags;
  auto* config = bw::bench::ExperimentConfig::Register(&flags);
  std::string* am = flags.AddString("am", "rtree", "access method to serve");
  int64_t* clients =
      flags.AddInt64("clients", 16, "closed-loop client threads");
  double* open_loop_qps = flags.AddDouble(
      "open_loop_qps", 0.0,
      "offered arrival rate for an extra open-loop run (0 = skip)");
  double* write_fraction = flags.AddDouble(
      "write_fraction", 0.0,
      "mixed-workload run over a durable index: fraction of operations "
      "that are online inserts (0 = skip)");
  bool* net = flags.AddBool(
      "net", false,
      "also serve over a loopback bwserver front end and compare wire "
      "QPS (multi-connection and single-connection pipelined) against "
      "the in-process baseline");
  int64_t* pipeline_window = flags.AddInt64(
      "pipeline_window", 16,
      "in-flight requests on the single-connection pipelined net run");
  int64_t* shards = flags.AddInt64(
      "shards", 0,
      "scatter-gather mode: compare a single-shard fleet against this "
      "many STR shards behind the k-NN router and exit (0 = skip)");
  std::string* json_out = flags.AddString(
      "json_out", "", "write sweep results to this JSON file ('' = skip)");
  int exit_code = 0;
  if (!bw::bench::ParseFlagsOrExit(flags, argc, argv, &exit_code)) {
    return exit_code;
  }
  config->Resolve();

  std::printf("=== Query-service throughput (fig07-style workload) ===\n");
  bw::Stopwatch watch;
  const bw::bench::ExperimentData data = bw::bench::PrepareExperiment(*config);
  std::printf("prepared %zu blobs in %.1fs\n", data.vectors.size(),
              watch.ElapsedSeconds());

  bw::core::IndexBuildOptions build;
  build.am = *am;
  build.page_bytes = static_cast<size_t>(config->page_bytes);
  build.fill_fraction = config->fill;
  build.seed = static_cast<uint64_t>(config->seed);
  watch.Restart();
  auto built = bw::core::BuildIndex(data.vectors, build);
  BW_CHECK_MSG(built.ok(), built.status().ToString());
  const bw::gist::Tree& tree = (*built)->tree();
  std::printf("built %s (height %d) in %.1fs\n", am->c_str(), tree.height(),
              watch.ElapsedSeconds());

  // Query points: the workload's focus blobs, as in fig07.
  std::vector<bw::geom::Vec> queries;
  queries.reserve(data.query_foci.size());
  for (uint32_t focus : data.query_foci) {
    queries.push_back(data.vectors[focus]);
  }
  const size_t k = static_cast<size_t>(config->k);

  // Serial reference execution (also the identity baseline).
  std::vector<std::vector<bw::gist::Rid>> expected(queries.size());
  watch.Restart();
  for (size_t i = 0; i < queries.size(); ++i) {
    auto result = tree.KnnSearch(queries[i], k, nullptr);
    BW_CHECK_MSG(result.ok(), result.status().ToString());
    expected[i].reserve(result->size());
    for (const auto& n : *result) expected[i].push_back(n.rid);
  }
  std::printf("serial reference: %.0f QPS\n\n",
              static_cast<double>(queries.size()) / watch.ElapsedSeconds());

  if (*shards > 1) {
    // --- Scatter-gather mode: one unsharded fleet vs N STR shards, the
    // same corpus and workload, answers checked against the single-tree
    // reference. Visits/query below N demonstrate the router's
    // early-termination bound pruning whole shards.
    const std::string scratch =
        "/tmp/bw_scatter_" + std::to_string(::getpid());
    bw::bench::MetricsJson sg;
    sg.Set("bench", std::string("scatter_gather"));
    sg.Set("am", *am);
    sg.Set("blobs", static_cast<double>(data.vectors.size()));
    sg.Set("queries", static_cast<double>(queries.size()));
    sg.Set("k", static_cast<double>(k));
    sg.Set("shards", static_cast<double>(*shards));
    sg.Set("clients", static_cast<double>(*clients));
    bw::TablePrinter table({"shards", "QPS", "speedup", "visits/query",
                            "pruned/query", "identical"});
    double qps_single = 0;
    double qps_sharded = 0;
    bool all_identical = true;
    for (const size_t num_shards :
         {static_cast<size_t>(1), static_cast<size_t>(*shards)}) {
      bw::shard::FleetOptions fleet_options;
      fleet_options.num_shards = num_shards;
      fleet_options.build = build;
      fleet_options.service.num_workers =
          static_cast<size_t>(config->threads);
      const std::string dir = scratch + "_" + std::to_string(num_shards);
      std::filesystem::create_directories(dir);
      watch.Restart();
      auto fleet =
          bw::shard::ShardFleet::Build(data.vectors, dir, fleet_options);
      BW_CHECK_MSG(fleet.ok(), fleet.status().ToString());
      std::printf("built %zu-shard fleet in %.1fs\n", num_shards,
                  watch.ElapsedSeconds());
      const ShardOutcome run =
          RunShardedLoop((*fleet)->router(), queries, k,
                         static_cast<size_t>(*clients), expected);
      if (num_shards == 1) {
        qps_single = run.qps;
      } else {
        qps_sharded = run.qps;
      }
      all_identical = all_identical && run.identical;
      table.AddRow(
          {bw::TablePrinter::Count(static_cast<long long>(num_shards)),
           bw::TablePrinter::Num(run.qps, 1),
           bw::TablePrinter::Num(
               qps_single > 0 ? run.qps / qps_single : 1.0, 2),
           bw::TablePrinter::Num(run.visits_per_query, 2),
           bw::TablePrinter::Num(run.pruned_per_query, 2),
           run.identical ? "yes" : "NO"});
      const std::string prefix =
          num_shards == 1 ? "single" : "sharded";
      sg.Set("qps_" + prefix, run.qps);
      sg.Set("visits_per_query_" + prefix, run.visits_per_query);
      sg.Set("pruned_per_query_" + prefix, run.pruned_per_query);
      sg.Set("identical_" + prefix, run.identical ? 1.0 : 0.0);
      fleet->reset();  // close shard stores before deleting their files.
      std::filesystem::remove_all(dir);
    }
    if (qps_single > 0) {
      sg.Set("sharded_speedup", qps_sharded / qps_single);
    }
    std::printf("scatter-gather (router, %lld clients, k=%zu):\n%s\n",
                static_cast<long long>(*clients), k,
                table.ToString().c_str());
    if (!json_out->empty()) {
      sg.Write(*json_out);
      std::printf("wrote %s\n", json_out->c_str());
    }
    return all_identical ? 0 : 1;
  }

  bw::service::ServiceOptions options;
  options.queue_capacity = static_cast<size_t>(config->queue_depth);
  options.overflow = bw::service::OverflowPolicy::kBlock;

  std::vector<size_t> sweep = {1, 2, 4};
  if (std::find(sweep.begin(), sweep.end(),
                static_cast<size_t>(config->threads)) == sweep.end()) {
    sweep.push_back(static_cast<size_t>(config->threads));
    std::sort(sweep.begin(), sweep.end());
  }

  using bw::TablePrinter;
  bw::bench::MetricsJson json;
  json.Set("bench", std::string("service_throughput"));
  json.Set("am", *am);
  TablePrinter table({"workers", "QPS", "speedup", "p50 us", "p95 us",
                      "p99 us", "mean us", "identical"});
  double qps_at_1 = 0, qps_at_4 = 0;
  bool all_identical = true;
  for (size_t workers : sweep) {
    options.num_workers = workers;
    const RunOutcome run =
        RunClosedLoop(tree, queries, k, options,
                      std::max<size_t>(*clients, workers), expected);
    if (workers == 1) qps_at_1 = run.qps;
    if (workers == 4) qps_at_4 = run.qps;
    all_identical = all_identical && run.identical;
    const auto& s = run.snap;
    table.AddRow(
        {TablePrinter::Count(static_cast<long long>(workers)),
         TablePrinter::Num(run.qps, 1),
         TablePrinter::Num(qps_at_1 > 0 ? run.qps / qps_at_1 : 1.0, 2),
         TablePrinter::Count(static_cast<long long>(s.p50_latency_us)),
         TablePrinter::Count(static_cast<long long>(s.p95_latency_us)),
         TablePrinter::Count(static_cast<long long>(s.p99_latency_us)),
         TablePrinter::Num(s.mean_latency_us, 0),
         run.identical ? "yes" : "NO"});
    json.Set("qps_" + std::to_string(workers) + "w", run.qps);
  }
  json.Set("identical", all_identical ? 1.0 : 0.0);
  std::printf("closed loop: %zu clients, queue depth %lld, k=%lld\n%s\n",
              static_cast<size_t>(*clients),
              static_cast<long long>(config->queue_depth),
              static_cast<long long>(config->k), table.ToString().c_str());

  if (*net) {
    // The same service configuration the 4-worker baseline ran, fronted
    // by the real epoll server on a loopback socket. The dispatch tier is
    // sized to the client count so the gateway, not the wire, is never
    // the bottleneck being measured.
    options.num_workers = 4;
    bw::service::QueryService service(tree, options);
    bw::net::ServerOptions nopts;
    nopts.dispatch_threads = std::max<size_t>(4, static_cast<size_t>(*clients));
    nopts.quota.max_inflight =
        std::max<size_t>(64, static_cast<size_t>(*pipeline_window) * 2);
    bw::net::Server server(&service, nopts);
    BW_CHECK_OK(server.Start());

    const NetOutcome wire = RunNetClosedLoop(
        server.port(), queries, k, std::max<size_t>(*clients, 4), expected);
    const NetOutcome piped = RunNetPipelined(
        server.port(), queries, k, static_cast<size_t>(*pipeline_window),
        expected);
    const NetOutcome serial_conn =
        RunNetPipelined(server.port(), queries, k, 1, expected);
    server.Shutdown();

    const double net_ratio = qps_at_4 > 0 ? wire.qps / qps_at_4 : 0.0;
    const double pipeline_speedup =
        serial_conn.qps > 0 ? piped.qps / serial_conn.qps : 0.0;
    const bool net_identical =
        wire.identical && piped.identical && serial_conn.identical;
    all_identical = all_identical && net_identical;
    std::printf(
        "net front end (loopback, 4 workers, %lld dispatch):\n"
        "  closed loop over %zu connections: %.1f QPS (%.2fx in-process), "
        "p50 %.0f us, p99 %.0f us, identical %s\n"
        "  single connection, window %lld: %.1f QPS; window 1: %.1f QPS "
        "-> pipelining %.2fx (target >= 1.5x)\n\n",
        (long long)nopts.dispatch_threads,
        std::max<size_t>(*clients, 4), wire.qps, net_ratio, wire.p50_us,
        wire.p99_us, net_identical ? "yes" : "NO",
        (long long)*pipeline_window, piped.qps, serial_conn.qps,
        pipeline_speedup);
    json.Set("qps_net_4w", wire.qps);
    json.Set("net_over_inprocess_4w", net_ratio);
    json.Set("net_p50_us", wire.p50_us);
    json.Set("net_p99_us", wire.p99_us);
    json.Set("net_p999_us", wire.p999_us);
    json.Set("qps_net_pipelined_1conn", piped.qps);
    json.Set("qps_net_sequential_1conn", serial_conn.qps);
    json.Set("net_pipelining_speedup", pipeline_speedup);
    json.Set("net_identical", net_identical ? 1.0 : 0.0);
  }

  if (*write_fraction > 0) {
    // The write path needs a WAL: rebuild the index durably in scratch
    // files, then serve the mixed workload against it.
    const std::string scratch = "/tmp/bw_svc_thr_" + std::to_string(::getpid());
    const std::string dbase = scratch + ".bwpf";
    const std::string dwal = scratch + ".bwwal";
    bw::storage::StoreOptions store_options;
    store_options.checkpoint_every_commits = 64;
    watch.Restart();
    auto durable = bw::core::BuildDurableIndex(data.vectors, build, dbase,
                                               dwal, store_options);
    BW_CHECK_MSG(durable.ok(), durable.status().ToString());
    std::printf("built durable %s for the mixed run in %.1fs\n", am->c_str(),
                watch.ElapsedSeconds());

    bw::service::ServiceOptions mixed = options;
    mixed.num_workers = static_cast<size_t>(config->threads);
    mixed.write.enabled = true;
    const size_t total_ops = std::max<size_t>(queries.size() * 4, 2000);
    const MixedOutcome run = RunMixedLoop(
        durable->get(), data.vectors, queries, k, mixed,
        std::max<size_t>(*clients, mixed.num_workers), *write_fraction,
        total_ops);
    const auto& s = run.snap;
    std::printf(
        "mixed loop: %zu ops (%.0f%% writes) with %zu workers -> %.1f "
        "ops/s\n  writes: acked %llu, rejected %llu (admission %zu), "
        "failed %llu, p50 %llu us, p99 %llu us, commit batches %llu\n"
        "  reads: p50 %llu us, p99 %llu us\n",
        run.ops, 100.0 * *write_fraction, mixed.num_workers, run.ops_per_sec,
        (unsigned long long)s.writes_acked,
        (unsigned long long)s.writes_rejected, run.admission_rejects,
        (unsigned long long)s.writes_failed,
        (unsigned long long)s.p50_write_latency_us,
        (unsigned long long)s.p99_write_latency_us,
        (unsigned long long)s.commit_batches,
        (unsigned long long)s.p50_latency_us,
        (unsigned long long)s.p99_latency_us);
    json.Set("write_fraction", *write_fraction);
    json.Set("mixed_ops_per_sec", run.ops_per_sec);
    json.Set("write_p50_us", static_cast<double>(s.p50_write_latency_us));
    json.Set("write_p99_us", static_cast<double>(s.p99_write_latency_us));
    json.Set("write_p999_us", static_cast<double>(s.p999_write_latency_us));
    json.Set("read_p999_us", static_cast<double>(s.p999_latency_us));
    json.Set("mean_write_latency_us", s.mean_write_latency_us);
    json.Set("writes_acked", static_cast<double>(s.writes_acked));
    json.Set("writes_rejected", static_cast<double>(s.writes_rejected));
    json.Set("writes_failed", static_cast<double>(s.writes_failed));
    json.Set("commit_batches", static_cast<double>(s.commit_batches));

    durable->reset();
    std::remove(dbase.c_str());
    std::remove(dwal.c_str());
  }

  if (!json_out->empty()) {
    json.Write(*json_out);
    std::printf("wrote %s\n", json_out->c_str());
  }

  if (*open_loop_qps > 0) {
    options.num_workers = static_cast<size_t>(config->threads);
    const RunOutcome run =
        RunOpenLoop(tree, queries, k, options, *open_loop_qps);
    const auto& s = run.snap;
    std::printf("open loop: offered %.0f QPS with %zu workers -> achieved "
                "%.1f QPS, rejected %llu/%llu (%.1f%%), p99 %llu us\n",
                *open_loop_qps, options.num_workers, run.qps,
                (unsigned long long)s.rejected,
                (unsigned long long)(s.rejected + s.submitted),
                100.0 * static_cast<double>(s.rejected) /
                    static_cast<double>(s.rejected + s.submitted),
                (unsigned long long)s.p99_latency_us);
  }
  return all_identical ? 0 : 1;
}
