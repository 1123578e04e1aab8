// Shared experiment harness for the bench binaries: builds the synthetic
// Blobworld data, the SVD-reduced vectors, the paper's query workload,
// and runs the amdb analysis for a named access method.
//
// Scale: paper = 221 231 blobs / 35 000 images / 5 531 queries on 8 KB
// pages. Default bench scale = 20 000 blobs / 400 queries on 4 KB pages,
// which keeps every tree in the same height regime as the paper (R-tree
// height 3, XJB 4, JB 5-6) while finishing in seconds. Pass --paper_scale
// to run the full-size experiment.

#ifndef BLOBWORLD_BENCH_BENCH_COMMON_H_
#define BLOBWORLD_BENCH_BENCH_COMMON_H_

#include <string>
#include <utility>
#include <vector>

#include "amdb/analysis.h"
#include "blobworld/dataset.h"
#include "blobworld/pipeline.h"
#include "core/index_factory.h"
#include "linalg/reducer.h"
#include "util/flags.h"

namespace bw::bench {

/// Common experiment configuration, parsed from command-line flags.
struct ExperimentConfig {
  int64_t blobs = 20000;
  int64_t queries = 400;
  int64_t k = 200;          // neighbors per query (paper: 200).
  int64_t dim = 5;          // SVD dimensionality (paper: 5).
  int64_t page_bytes = 4096;
  double fill = 0.85;
  int64_t latent_clusters = 60;
  double cluster_sigma = 0.5;   // within-cluster Lab spread.
  double noise = 0.02;          // direct-mode histogram noise.
  double blend = 0.2;           // fraction of two-color blend blobs.
  double zipf = 0.8;            // cluster popularity skew.
  int64_t local_dims = 2;       // appearance-sheet dimensionality.
  int64_t seed = 1234;
  bool paper_scale = false;
  // Load-generator plumbing shared by the concurrent-service benches
  // (and reusable from any bench): service worker threads and bounded
  // submission-queue capacity (`--threads`, `--queue-depth`).
  int64_t threads = 4;
  int64_t queue_depth = 64;

  /// Registers the shared flags on `flags` and returns a config bound to
  /// them (call Resolve() after parsing).
  static ExperimentConfig* Register(Flags* flags);
  /// Applies --paper_scale and sanity-checks values.
  void Resolve();
};

/// The reduced-vector data set + workload of one experiment.
struct ExperimentData {
  blobworld::BlobDataset dataset;
  linalg::SvdReducer reducer;
  std::vector<geom::Vec> vectors;   // SVD-reduced, config.dim dimensions.
  std::vector<uint32_t> query_foci;
  amdb::Workload workload;
};

/// Generates the data set (direct latent sampling), fits the SVD, and
/// samples the query workload. Deterministic in config.seed.
ExperimentData PrepareExperiment(const ExperimentConfig& config);

/// Builds the named AM over `data` and runs the amdb analysis.
Result<amdb::AnalysisReport> AnalyzeAm(const std::string& am,
                                       const ExperimentData& data,
                                       const ExperimentConfig& config,
                                       bool bulk_load = true);

/// Standard flag-parse prologue for bench main()s: returns false if the
/// process should exit (help requested or bad flags; *exit_code is set).
bool ParseFlagsOrExit(Flags& flags, int argc, char** argv, int* exit_code);

/// Flat, insertion-ordered metric collection written as one JSON object.
/// The bench binaries use it to emit machine-readable result files (the
/// committed BENCH_*.json records) next to their human-readable tables.
class MetricsJson {
 public:
  /// Adds one key; BW_CHECK-fails if the key is already set, so a
  /// record never carries a key twice.
  void Set(const std::string& key, double value);
  void Set(const std::string& key, const std::string& value);

  /// Serializes `{ "k": v, ... }` with one key per line.
  std::string ToString() const;
  /// Writes ToString() to `path`; BW_CHECKs on I/O failure.
  void Write(const std::string& path) const;

 private:
  void Add(const std::string& key, std::string value);

  std::vector<std::pair<std::string, std::string>> entries_;
};

/// Removes a `--json_out=PATH` (or `--json-out=PATH`) argument from
/// argv, compacting it in place and updating *argc, and returns PATH
/// ("" when absent). Needed by benches whose remaining flags are parsed
/// by google-benchmark, which rejects arguments it does not know.
std::string ExtractJsonOutFlag(int* argc, char** argv);

}  // namespace bw::bench

#endif  // BLOBWORLD_BENCH_BENCH_COMMON_H_
