// google-benchmark microbenchmarks for the bounding-predicate kernels,
// supporting Section 5.3's claim that the new BPs' distance/consistency
// functions "are based around simple rectangle geometry and should not
// add significantly to query execution time".
//
// Measures, per BP type: construction from a leaf's points, the
// MinDistance kernel that drives k-NN ordering, the range-query
// consistency check, and — the read-path headline — batched node scans
// (one BpMinDistanceBatch / BpConsistentRangeBatch call over a whole
// node's entries) against the per-entry scalar loop they replace, and
// one whole k-NN traversal (BM_KnnSearch: node scans, candidate upkeep
// and frontier together) at k = 10 and k = 200.
// `--json_out=PATH` additionally runs a self-timed scalar-vs-batched
// comparison and writes entries/sec + speedups as a flat JSON object.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "am/rtree.h"
#include "am/srtree.h"
#include "am/sstree.h"
#include "bench/bench_common.h"
#include "core/index_factory.h"
#include "core/jagged.h"
#include "core/map_tree.h"
#include "gist/tree.h"
#include "pages/resident_reader.h"
#include "tests/test_helpers.h"
#include "util/cpu.h"
#include "util/stopwatch.h"

namespace {

constexpr size_t kDim = 5;
constexpr size_t kLeafPoints = 100;
// Entries per simulated internal node: the fanout regime of 4 KB pages
// with 40-200 byte BPs.
constexpr size_t kNodeEntries = 64;
constexpr double kRangeRadius = 5.0;

const char* const kAms[] = {"rtree", "sstree", "srtree", "amap", "jb", "xjb"};

// AMs whose covered-query path runs the flattened jagged-bite stack
// (region decomposition search) rather than plain box geometry.
const char* const kJaggedAms[] = {"jb", "xjb"};

std::unique_ptr<bw::gist::Extension> MakeExt(const std::string& name) {
  bw::core::IndexBuildOptions options;
  options.am = name;
  options.amap_samples = 1024;
  options.xjb_x = 10;
  auto ext = bw::core::MakeExtension(kDim, options, 20000);
  BW_CHECK_MSG(ext.ok(), ext.status().ToString());
  return std::move(ext).value();
}

/// One simulated internal node: kNodeEntries BPs, each built from one
/// tight point cluster — the spatial-partitioning shape real sibling
/// entries have after bulk load, where most queries fall *outside* most
/// entry MBRs — plus the staged batch scratch viewing them.
///
/// With `covering`, each BP is instead built from space-spanning
/// uniform points so nearly every query lands *inside* every entry's
/// MBR: that drives the covered-query slow path on every entry, which
/// for the jagged AMs is the flattened bite-stack region search.
struct NodeFixture {
  std::unique_ptr<bw::gist::Extension> ext;
  std::vector<bw::gist::Bytes> bps;
  bw::gist::BatchScratch scratch;
  std::vector<bw::geom::Vec> queries;
  std::vector<double> scalar_out;

  explicit NodeFixture(const std::string& am, bool covering = false)
      : ext(MakeExt(am)) {
    bps.reserve(kNodeEntries);
    scratch.preds.reserve(kNodeEntries);
    for (size_t e = 0; e < kNodeEntries; ++e) {
      const auto points =
          covering ? bw::testing::MakeUniformPoints(kLeafPoints, kDim, 100 + e)
                   : bw::testing::MakeClusteredPoints(kLeafPoints, kDim, 1,
                                                      100 + e);
      bps.push_back(ext->BpFromPoints(points));
    }
    for (const bw::gist::Bytes& bp : bps) {
      scratch.preds.push_back(bw::gist::ByteSpan(bp.data(), bp.size()));
    }
    queries = bw::testing::MakeUniformPoints(256, kDim, 11);
    scalar_out.resize(kNodeEntries);
  }

  void ScalarMinDist(const bw::geom::Vec& q) {
    for (size_t e = 0; e < kNodeEntries; ++e) {
      scalar_out[e] = ext->BpMinDistance(scratch.preds[e], q);
    }
  }

  void ScalarConsistent(const bw::geom::Vec& q) {
    for (size_t e = 0; e < kNodeEntries; ++e) {
      scalar_out[e] = ext->BpConsistentRange(scratch.preds[e], q, kRangeRadius)
                          ? 1.0
                          : 0.0;
    }
  }
};

void BM_BpConstruct(benchmark::State& state, const std::string& am) {
  auto ext = MakeExt(am);
  const auto points = bw::testing::MakeClusteredPoints(kLeafPoints, kDim, 3, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ext->BpFromPoints(points));
  }
}

void BM_BpMinDistance(benchmark::State& state, const std::string& am) {
  auto ext = MakeExt(am);
  const auto points = bw::testing::MakeClusteredPoints(kLeafPoints, kDim, 3, 7);
  const auto queries = bw::testing::MakeUniformPoints(256, kDim, 11);
  const bw::gist::Bytes bp = ext->BpFromPoints(points);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ext->BpMinDistance(bp, queries[i++ & 255]));
  }
}

void BM_BpConsistentRange(benchmark::State& state, const std::string& am) {
  auto ext = MakeExt(am);
  const auto points = bw::testing::MakeClusteredPoints(kLeafPoints, kDim, 3, 7);
  const auto queries = bw::testing::MakeUniformPoints(256, kDim, 13);
  const bw::gist::Bytes bp = ext->BpFromPoints(points);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ext->BpConsistentRange(bp, queries[i++ & 255], kRangeRadius));
  }
}

void BM_NodeScanMinDistScalar(benchmark::State& state, const std::string& am) {
  NodeFixture node(am);
  size_t i = 0;
  for (auto _ : state) {
    node.ScalarMinDist(node.queries[i++ & 255]);
    benchmark::DoNotOptimize(node.scalar_out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          kNodeEntries);
}

void BM_NodeScanMinDistBatch(benchmark::State& state, const std::string& am) {
  NodeFixture node(am);
  size_t i = 0;
  for (auto _ : state) {
    node.ext->BpMinDistanceBatch(node.scratch, node.queries[i++ & 255]);
    benchmark::DoNotOptimize(node.scratch.distances.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          kNodeEntries);
}

void BM_NodeScanConsistentScalar(benchmark::State& state,
                                 const std::string& am) {
  NodeFixture node(am);
  size_t i = 0;
  for (auto _ : state) {
    node.ScalarConsistent(node.queries[i++ & 255]);
    benchmark::DoNotOptimize(node.scalar_out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          kNodeEntries);
}

void BM_NodeScanConsistentBatch(benchmark::State& state,
                                const std::string& am) {
  NodeFixture node(am);
  size_t i = 0;
  for (auto _ : state) {
    node.ext->BpConsistentRangeBatch(node.scratch, node.queries[i++ & 255],
                                     kRangeRadius);
    benchmark::DoNotOptimize(node.scratch.consistent.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          kNodeEntries);
}

// The covered-path node scan: every entry MBR contains most queries,
// so a jagged AM runs the bite-stack region search per entry instead
// of the outside-the-box fast path.
void BM_NodeScanMinDistCoveredScalar(benchmark::State& state,
                                     const std::string& am) {
  NodeFixture node(am, /*covering=*/true);
  size_t i = 0;
  for (auto _ : state) {
    node.ScalarMinDist(node.queries[i++ & 255]);
    benchmark::DoNotOptimize(node.scalar_out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          kNodeEntries);
}

void BM_NodeScanMinDistCoveredBatch(benchmark::State& state,
                                    const std::string& am) {
  NodeFixture node(am, /*covering=*/true);
  size_t i = 0;
  for (auto _ : state) {
    node.ext->BpMinDistanceBatch(node.scratch, node.queries[i++ & 255]);
    benchmark::DoNotOptimize(node.scratch.distances.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          kNodeEntries);
}

// One k-NN query (state.range(0) = k) over a fixed bulk-loaded tree of
// 20k clustered points, read through a per-query ResidentReader as the
// query service reads; queries are indexed points, as in the paper.
void BM_KnnSearch(benchmark::State& state, const std::string& am) {
  const auto points = bw::testing::MakeClusteredPoints(20000, kDim, 40, 17);
  bw::core::IndexBuildOptions options;
  options.am = am;
  auto built = bw::core::BuildIndex(points, options);
  BW_CHECK_MSG(built.ok(), built.status().ToString());
  const bw::gist::Tree& tree = (*built)->tree();
  const size_t k = static_cast<size_t>(state.range(0));
  size_t i = 0;
  for (auto _ : state) {
    bw::pages::ResidentReader reader(tree.file());
    auto result = tree.KnnSearch(points[(i++ * 7919) % points.size()], k,
                                 nullptr, &reader);
    BW_CHECK(result.ok());
    benchmark::DoNotOptimize(result->data());
  }
}

void RegisterAll() {
  for (const char* am : {"rtree", "xjb"}) {
    benchmark::RegisterBenchmark(
        (std::string("BM_KnnSearch/") + am).c_str(),
        [am](benchmark::State& s) { BM_KnnSearch(s, am); })
        ->Arg(10)
        ->Arg(200);
  }
  for (const char* am : kAms) {
    benchmark::RegisterBenchmark(
        (std::string("BM_BpConstruct/") + am).c_str(),
        [am](benchmark::State& s) { BM_BpConstruct(s, am); });
    benchmark::RegisterBenchmark(
        (std::string("BM_BpMinDistance/") + am).c_str(),
        [am](benchmark::State& s) { BM_BpMinDistance(s, am); });
    benchmark::RegisterBenchmark(
        (std::string("BM_BpConsistentRange/") + am).c_str(),
        [am](benchmark::State& s) { BM_BpConsistentRange(s, am); });
    benchmark::RegisterBenchmark(
        (std::string("BM_NodeScanMinDist_scalar/") + am).c_str(),
        [am](benchmark::State& s) { BM_NodeScanMinDistScalar(s, am); });
    benchmark::RegisterBenchmark(
        (std::string("BM_NodeScanMinDist_batch/") + am).c_str(),
        [am](benchmark::State& s) { BM_NodeScanMinDistBatch(s, am); });
    benchmark::RegisterBenchmark(
        (std::string("BM_NodeScanConsistent_scalar/") + am).c_str(),
        [am](benchmark::State& s) { BM_NodeScanConsistentScalar(s, am); });
    benchmark::RegisterBenchmark(
        (std::string("BM_NodeScanConsistent_batch/") + am).c_str(),
        [am](benchmark::State& s) { BM_NodeScanConsistentBatch(s, am); });
  }
  for (const char* am : kJaggedAms) {
    benchmark::RegisterBenchmark(
        (std::string("BM_NodeScanMinDist_covered_scalar/") + am).c_str(),
        [am](benchmark::State& s) { BM_NodeScanMinDistCoveredScalar(s, am); });
    benchmark::RegisterBenchmark(
        (std::string("BM_NodeScanMinDist_covered_batch/") + am).c_str(),
        [am](benchmark::State& s) { BM_NodeScanMinDistCoveredBatch(s, am); });
  }
}

/// Self-timed entries/sec of `fn` over whole-node scans (fn must scan
/// kNodeEntries entries per call). Runs ~0.2 s after a warm-up.
template <typename Fn>
double MeasureEntriesPerSec(NodeFixture& node, Fn&& fn) {
  size_t i = 0;
  for (int warm = 0; warm < 1000; ++warm) fn(node.queries[i++ & 255]);
  bw::Stopwatch watch;
  size_t iters = 0;
  do {
    for (int burst = 0; burst < 500; ++burst) fn(node.queries[i++ & 255]);
    iters += 500;
  } while (watch.ElapsedSeconds() < 0.2);
  return static_cast<double>(iters) * kNodeEntries / watch.ElapsedSeconds();
}

void WriteJsonComparison(const std::string& path) {
  bw::bench::MetricsJson json;
  json.Set("bench", std::string("micro_bp_kernels"));
  json.Set("node_entries", static_cast<double>(kNodeEntries));
  json.Set("dim", static_cast<double>(kDim));
  std::printf("\n=== node-scan scalar vs batched (entries/sec, %zu-entry "
              "nodes) ===\n", kNodeEntries);
  for (const char* am : kAms) {
    NodeFixture node(am);
    const double min_scalar = MeasureEntriesPerSec(
        node, [&](const bw::geom::Vec& q) { node.ScalarMinDist(q); });
    const double min_batch = MeasureEntriesPerSec(
        node, [&](const bw::geom::Vec& q) {
          node.ext->BpMinDistanceBatch(node.scratch, q);
        });
    const double con_scalar = MeasureEntriesPerSec(
        node, [&](const bw::geom::Vec& q) { node.ScalarConsistent(q); });
    const double con_batch = MeasureEntriesPerSec(
        node, [&](const bw::geom::Vec& q) {
          node.ext->BpConsistentRangeBatch(node.scratch, q, kRangeRadius);
        });
    const std::string key(am);
    json.Set("min_dist_scalar_eps_" + key, min_scalar);
    json.Set("min_dist_batch_eps_" + key, min_batch);
    json.Set("min_dist_batch_speedup_" + key, min_batch / min_scalar);
    json.Set("consistent_scalar_eps_" + key, con_scalar);
    json.Set("consistent_batch_eps_" + key, con_batch);
    json.Set("consistent_batch_speedup_" + key, con_batch / con_scalar);
    std::printf("%-7s min-dist %10.3gM -> %10.3gM (%.2fx)   "
                "consistent %10.3gM -> %10.3gM (%.2fx)\n",
                am, min_scalar / 1e6, min_batch / 1e6, min_batch / min_scalar,
                con_scalar / 1e6, con_batch / 1e6, con_batch / con_scalar);
  }
  // SIMD vs autovec: the same batched node scan with dispatch pinned to
  // the compiler-autovectorized scalar path vs the hand-written
  // AVX2/FMA variants. The delta isolates what the explicit kernels buy
  // over what the optimizer already extracts from the scalar source.
  const bool avx2 = [] {
#if defined(BW_HAVE_AVX2)
    return bw::util::CpuSupportsAvx2Fma();
#else
    return false;
#endif
  }();
  json.Set("kernel_isa_avx2_available", avx2 ? 1.0 : 0.0);
  std::printf("\n=== batched node scan, autovec scalar vs pinned AVX2 "
              "(entries/sec) ===\n");
  for (const char* am : kAms) {
    NodeFixture node(am);
    const auto batch_scan = [&](const bw::geom::Vec& q) {
      node.ext->BpMinDistanceBatch(node.scratch, q);
    };
    double autovec = 0.0;
    {
      bw::util::ScopedKernelIsa pin(bw::util::KernelIsa::kScalar);
      autovec = MeasureEntriesPerSec(node, batch_scan);
    }
    const std::string key(am);
    json.Set("min_dist_batch_eps_autovec_" + key, autovec);
    if (avx2) {
      bw::util::ScopedKernelIsa pin(bw::util::KernelIsa::kAvx2);
      const double simd = MeasureEntriesPerSec(node, batch_scan);
      json.Set("min_dist_batch_eps_avx2_" + key, simd);
      json.Set("simd_over_autovec_" + key, simd / autovec);
      std::printf("%-7s autovec %10.3gM -> avx2 %10.3gM (%.2fx)\n", am,
                  autovec / 1e6, simd / 1e6, simd / autovec);
    } else {
      std::printf("%-7s autovec %10.3gM (avx2 unavailable)\n", am,
                  autovec / 1e6);
    }
  }
  // Covered-path scans for the jagged AMs: space-spanning entries put
  // the query inside every MBR, so each entry runs the flattened
  // bite-stack region search instead of the outside-the-box geometry.
  std::printf("\n=== covered node scan (jagged bite stack, entries/sec) "
              "===\n");
  for (const char* am : kJaggedAms) {
    NodeFixture node(am, /*covering=*/true);
    const double covered_scalar = MeasureEntriesPerSec(
        node, [&](const bw::geom::Vec& q) { node.ScalarMinDist(q); });
    const double covered_batch = MeasureEntriesPerSec(
        node, [&](const bw::geom::Vec& q) {
          node.ext->BpMinDistanceBatch(node.scratch, q);
        });
    const std::string key(am);
    json.Set("min_dist_covered_scalar_eps_" + key, covered_scalar);
    json.Set("min_dist_covered_batch_eps_" + key, covered_batch);
    json.Set("min_dist_covered_batch_speedup_" + key,
             covered_batch / covered_scalar);
    std::printf("%-7s covered %10.3gM -> %10.3gM (%.2fx)\n", am,
                covered_scalar / 1e6, covered_batch / 1e6,
                covered_batch / covered_scalar);
  }
  json.Write(path);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_out = bw::bench::ExtractJsonOutFlag(&argc, argv);
  RegisterAll();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!json_out.empty()) WriteJsonComparison(json_out);
  return 0;
}
