// Tail-latency bench: what hedged replica reads buy under a brownout.
//
// Builds an in-process fleet (--shards x 2 replicas) twice over the
// same corpus, browns out replica 0 of every shard (+--brownout_us per
// shard fetch — the replica stays alive and correct, just slow), and
// runs the same query set through both routers:
//
//   unhedged:  hedge off, breakers off — every fetch eats the brownout.
//   hedged:    the tail-tolerant defaults — a stalled fetch is raced
//              against the healthy sibling's whole fetch and the
//              breaker learns to stop preferring the slow replica.
//
// Reports exact client-side p50/p99/p99.9 per mode plus the router's
// hedge/breaker counters, and verifies the headline contract: hedged
// answers are bit-identical (rid and distance) to unhedged answers.
// With the default 20 queries, p99 and p99.9 are the maximum; raise
// --queries for a real tail. Writes JSON with --json_out.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "service/query_service.h"
#include "shard/fleet.h"
#include "shard/router.h"
#include "util/random.h"

namespace bw::bench {
namespace {

/// Exact percentile over one mode's per-query latencies (sorted copy;
/// the sample counts here are far too small for a histogram sketch).
uint64_t PercentileUs(std::vector<uint64_t> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t index = std::min(
      samples.size() - 1,
      static_cast<size_t>(q * static_cast<double>(samples.size())));
  return samples[index];
}

struct ModeResult {
  std::vector<uint64_t> latencies_us;                    // per query.
  std::vector<std::vector<gist::Neighbor>> answers;      // per query.
  shard::RouterStats stats;
};

ModeResult RunMode(shard::ShardFleet* fleet,
                   const std::vector<geom::Vec>& queries, size_t k) {
  ModeResult result;
  for (const geom::Vec& query : queries) {
    service::StreamOptions stream;
    stream.max_results = static_cast<uint32_t>(k);
    const auto start = std::chrono::steady_clock::now();
    auto response = fleet->router()->Knn(query, stream);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    BW_CHECK_MSG(response.ok(), response.status().ToString());
    BW_CHECK_MSG(!response->degraded(), "browned-out fleet degraded a query");
    result.latencies_us.push_back(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
            .count()));
    result.answers.push_back(std::move(response->neighbors));
  }
  result.stats = fleet->router()->stats();
  return result;
}

}  // namespace
}  // namespace bw::bench

int main(int argc, char** argv) {
  using namespace bw;
  using namespace bw::bench;

  Flags flags;
  int64_t* blobs = flags.AddInt64("blobs", 4000, "corpus size");
  int64_t* dim = flags.AddInt64("dim", 5, "reduced dimensionality");
  int64_t* seed = flags.AddInt64("seed", 7, "dataset + query seed");
  int64_t* shards = flags.AddInt64("shards", 2, "shards (x2 replicas each)");
  int64_t* queries = flags.AddInt64("queries", 20, "queries per mode");
  int64_t* k = flags.AddInt64("k", 3, "neighbors per query");
  int64_t* brownout_us = flags.AddInt64(
      "brownout_us", 200000,
      "per-fetch delay injected into replica 0 of every shard");
  std::string* dir = flags.AddString(
      "dir", "/tmp/bw_tail_latency", "scratch directory for fleet indexes");
  std::string* json_out = flags.AddString(
      "json_out", "", "write machine-readable results here ('' = skip)");
  int exit_code = 0;
  if (!ParseFlagsOrExit(flags, argc, argv, &exit_code)) return exit_code;

  // The same deterministic corpus bwrouter / the fleet tests use.
  blobworld::DatasetParams params;
  params.num_images = static_cast<size_t>(*blobs);
  params.seed = static_cast<uint64_t>(*seed);
  const blobworld::BlobDataset dataset =
      blobworld::GenerateDatasetDirect(params);
  linalg::SvdReducer reducer;
  Status fitted =
      reducer.Fit(dataset.Histograms(), static_cast<size_t>(*dim));
  BW_CHECK_MSG(fitted.ok(), fitted.ToString());
  const std::vector<geom::Vec> corpus =
      reducer.ProjectAll(dataset.Histograms(), static_cast<size_t>(*dim));

  std::vector<geom::Vec> query_set;
  Rng rng(static_cast<uint64_t>(*seed) * 0x51ed2701);
  for (int64_t q = 0; q < *queries; ++q) {
    query_set.push_back(corpus[rng.NextBelow(corpus.size())]);
  }

  // Two fleets over the same corpus: only the router's tail-tolerance
  // options differ. set_delay_us browns out replica 0 of every shard in
  // both, so the unhedged router (which always prefers replica 0) pays
  // the spike on every shard fetch.
  const auto build_fleet = [&](const char* name, bool hedge) {
    shard::FleetOptions options;
    options.num_shards = static_cast<size_t>(*shards);
    options.replicas_per_shard = 2;
    options.build.am = "xjb";
    options.build.xjb_x = 0;
    options.router.hedge = hedge;
    options.router.breaker.enabled = hedge;
    options.router.hedge_delay_floor_us = 1'000;
    options.router.hedge_delay_fallback_us = 5'000;
    options.router.jitter_seed = static_cast<uint64_t>(*seed);
    const std::string path = *dir + "/" + name;
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
    auto fleet = shard::ShardFleet::Build(corpus, path, options);
    BW_CHECK_MSG(fleet.ok(), fleet.status().ToString());
    for (size_t s = 0; s < options.num_shards; ++s) {
      (*fleet)->backend(s, 0)->set_delay_us(
          static_cast<uint64_t>(*brownout_us));
    }
    return std::move(*fleet);
  };

  std::printf("tail_latency: %lld blobs, %lld shards x 2 replicas, "
              "%lld queries (k=%lld), replica 0 browned +%lldus/fetch\n",
              (long long)*blobs, (long long)*shards, (long long)*queries,
              (long long)*k, (long long)*brownout_us);

  auto unhedged_fleet = build_fleet("unhedged", false);
  const ModeResult unhedged =
      RunMode(unhedged_fleet.get(), query_set, static_cast<size_t>(*k));
  unhedged_fleet.reset();

  auto hedged_fleet = build_fleet("hedged", true);
  const ModeResult hedged =
      RunMode(hedged_fleet.get(), query_set, static_cast<size_t>(*k));
  hedged_fleet.reset();

  // Headline contract: hedging changes when answers arrive, never what
  // they are. Bit-identical per query, by position.
  for (size_t q = 0; q < query_set.size(); ++q) {
    BW_CHECK_MSG(unhedged.answers[q].size() == hedged.answers[q].size(),
                 "hedged answer count diverged");
    for (size_t i = 0; i < unhedged.answers[q].size(); ++i) {
      BW_CHECK_MSG(
          unhedged.answers[q][i].rid == hedged.answers[q][i].rid &&
              unhedged.answers[q][i].distance == hedged.answers[q][i].distance,
          "hedged answers not bit-identical");
    }
  }

  const auto report = [](const char* name, const ModeResult& mode) {
    std::printf("%-9s p50 %8llu us   p99 %8llu us   p99.9 %8llu us\n", name,
                (unsigned long long)PercentileUs(mode.latencies_us, 0.50),
                (unsigned long long)PercentileUs(mode.latencies_us, 0.99),
                (unsigned long long)PercentileUs(mode.latencies_us, 0.999));
  };
  report("unhedged", unhedged);
  report("hedged", hedged);
  const uint64_t unhedged_p99 = PercentileUs(unhedged.latencies_us, 0.99);
  const uint64_t hedged_p99 = PercentileUs(hedged.latencies_us, 0.99);
  std::printf("hedged p99 / unhedged p99 = %.3f "
              "(hedges %llu attempted / %llu won, breaker opens %llu)\n",
              unhedged_p99 == 0
                  ? 0.0
                  : static_cast<double>(hedged_p99) /
                        static_cast<double>(unhedged_p99),
              (unsigned long long)hedged.stats.hedges_attempted,
              (unsigned long long)hedged.stats.hedges_won,
              (unsigned long long)hedged.stats.breaker_opens);
  std::printf("answers bit-identical across modes: yes\n");

  if (!json_out->empty()) {
    MetricsJson json;
    json.Set("bench", std::string("tail_latency"));
    json.Set("blobs", static_cast<double>(*blobs));
    json.Set("shards", static_cast<double>(*shards));
    json.Set("replicas_per_shard", 2.0);
    json.Set("queries", static_cast<double>(*queries));
    json.Set("k", static_cast<double>(*k));
    json.Set("brownout_us_per_fetch", static_cast<double>(*brownout_us));
    json.Set("unhedged_p50_us",
             static_cast<double>(PercentileUs(unhedged.latencies_us, 0.50)));
    json.Set("unhedged_p99_us", static_cast<double>(unhedged_p99));
    json.Set("unhedged_p999_us",
             static_cast<double>(PercentileUs(unhedged.latencies_us, 0.999)));
    json.Set("hedged_p50_us",
             static_cast<double>(PercentileUs(hedged.latencies_us, 0.50)));
    json.Set("hedged_p99_us", static_cast<double>(hedged_p99));
    json.Set("hedged_p999_us",
             static_cast<double>(PercentileUs(hedged.latencies_us, 0.999)));
    json.Set("p99_ratio_hedged_over_unhedged",
             unhedged_p99 == 0 ? 0.0
                               : static_cast<double>(hedged_p99) /
                                     static_cast<double>(unhedged_p99));
    json.Set("hedges_attempted",
             static_cast<double>(hedged.stats.hedges_attempted));
    json.Set("hedges_won", static_cast<double>(hedged.stats.hedges_won));
    json.Set("breaker_opens",
             static_cast<double>(hedged.stats.breaker_opens));
    json.Set("breaker_closes",
             static_cast<double>(hedged.stats.breaker_closes));
    json.Set("answers_bit_identical", std::string("true"));
    json.Write(*json_out);
    std::printf("wrote %s\n", json_out->c_str());
  }
  return 0;
}
