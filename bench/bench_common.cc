#include "bench/bench_common.h"

#include <cstdio>

#include "util/logging.h"

namespace bw::bench {

namespace {
// Static storage tying flag pointers to the returned config.
struct BoundFlags {
  int64_t* blobs;
  int64_t* queries;
  int64_t* k;
  int64_t* dim;
  int64_t* page_bytes;
  double* fill;
  int64_t* latent_clusters;
  double* cluster_sigma;
  double* noise;
  double* blend;
  double* zipf;
  int64_t* local_dims;
  int64_t* seed;
  bool* paper_scale;
  int64_t* threads;
  int64_t* queue_depth;
  ExperimentConfig config;
};
BoundFlags* g_bound = nullptr;
}  // namespace

ExperimentConfig* ExperimentConfig::Register(Flags* flags) {
  static BoundFlags bound;
  g_bound = &bound;
  bound.blobs = flags->AddInt64("blobs", 20000, "number of blobs to index");
  bound.queries = flags->AddInt64("queries", 400, "number of NN queries");
  bound.k = flags->AddInt64("k", 200, "neighbors retrieved per query");
  bound.dim = flags->AddInt64("dim", 5, "SVD dimensionality of the index");
  bound.page_bytes = flags->AddInt64("page_bytes", 4096, "page size");
  bound.fill = flags->AddDouble("fill", 0.85, "bulk-load fill fraction");
  bound.latent_clusters =
      flags->AddInt64("latent_clusters", 60, "appearance clusters");
  bound.cluster_sigma = flags->AddDouble(
      "cluster_sigma", 0.5, "within-cluster Lab color spread");
  bound.noise =
      flags->AddDouble("noise", 0.02, "per-bin histogram sampling noise");
  bound.blend =
      flags->AddDouble("blend", 0.2, "fraction of two-color blend blobs");
  bound.zipf =
      flags->AddDouble("zipf", 0.8, "cluster popularity skew exponent");
  bound.local_dims = flags->AddInt64(
      "local_dims", 2, "per-cluster appearance-sheet dimensionality");
  bound.seed = flags->AddInt64("seed", 1234, "master random seed");
  bound.paper_scale = flags->AddBool(
      "paper_scale", false,
      "run at the paper's scale (221231 blobs, 5531 queries, 8KB pages)");
  bound.threads =
      flags->AddInt64("threads", 4, "query-service worker threads");
  bound.queue_depth = flags->AddInt64(
      "queue_depth", 64, "query-service submission queue capacity");
  return &bound.config;
}

void ExperimentConfig::Resolve() {
  BW_CHECK(g_bound != nullptr);
  blobs = *g_bound->blobs;
  queries = *g_bound->queries;
  k = *g_bound->k;
  dim = *g_bound->dim;
  page_bytes = *g_bound->page_bytes;
  fill = *g_bound->fill;
  latent_clusters = *g_bound->latent_clusters;
  cluster_sigma = *g_bound->cluster_sigma;
  noise = *g_bound->noise;
  blend = *g_bound->blend;
  zipf = *g_bound->zipf;
  local_dims = *g_bound->local_dims;
  seed = *g_bound->seed;
  paper_scale = *g_bound->paper_scale;
  threads = *g_bound->threads;
  queue_depth = *g_bound->queue_depth;
  if (paper_scale) {
    blobs = 221231;
    queries = 5531;
    page_bytes = 8192;
  }
  BW_CHECK_GT(blobs, 0);
  BW_CHECK_GT(queries, 0);
  BW_CHECK_GT(dim, 0);
  BW_CHECK_GT(threads, 0);
  BW_CHECK_GT(queue_depth, 0);
}

ExperimentData PrepareExperiment(const ExperimentConfig& config) {
  ExperimentData data;

  blobworld::DatasetParams params;
  params.blobs_per_image = 5.0;
  params.num_images =
      static_cast<size_t>(config.blobs) / 5 + 1;  // ~5 blobs per image.
  params.latent_clusters = static_cast<size_t>(config.latent_clusters);
  params.within_cluster_sigma = config.cluster_sigma;
  params.direct_noise = config.noise;
  params.blend_fraction = config.blend;
  params.zipf_exponent = config.zipf;
  params.local_dims = static_cast<size_t>(config.local_dims);
  params.seed = static_cast<uint64_t>(config.seed);
  data.dataset = blobworld::GenerateDatasetDirect(params);

  BW_CHECK_OK(data.reducer.Fit(data.dataset.Histograms(),
                               static_cast<size_t>(config.dim)));
  data.vectors = data.reducer.ProjectAll(data.dataset.Histograms(),
                                         static_cast<size_t>(config.dim));

  data.query_foci = blobworld::SampleQueryBlobs(
      data.dataset, static_cast<size_t>(config.queries),
      static_cast<uint64_t>(config.seed) ^ 0xF0C1);
  data.workload = amdb::Workload::NnOverFoci(data.vectors, data.query_foci,
                                             static_cast<size_t>(config.k));
  return data;
}

Result<amdb::AnalysisReport> AnalyzeAm(const std::string& am,
                                       const ExperimentData& data,
                                       const ExperimentConfig& config,
                                       bool bulk_load) {
  core::IndexBuildOptions options;
  options.am = am;
  options.page_bytes = static_cast<size_t>(config.page_bytes);
  options.bulk_load = bulk_load;
  options.fill_fraction = config.fill;
  options.seed = static_cast<uint64_t>(config.seed);
  BW_ASSIGN_OR_RETURN(std::unique_ptr<core::BuiltIndex> index,
                      core::BuildIndex(data.vectors, options));

  amdb::AnalysisOptions analysis;
  analysis.target_utilization = config.fill;
  return amdb::AnalyzeWorkload(index->tree(), data.workload, analysis);
}

void MetricsJson::Set(const std::string& key, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  Add(key, buffer);
}

void MetricsJson::Set(const std::string& key, const std::string& value) {
  Add(key, "\"" + value + "\"");
}

void MetricsJson::Add(const std::string& key, std::string value) {
  for (const auto& entry : entries_) {
    BW_CHECK_MSG(entry.first != key, "duplicate metrics key: " + key);
  }
  entries_.emplace_back(key, std::move(value));
}

std::string MetricsJson::ToString() const {
  std::string out = "{\n";
  for (size_t i = 0; i < entries_.size(); ++i) {
    out += "  \"" + entries_[i].first + "\": " + entries_[i].second;
    if (i + 1 < entries_.size()) out += ",";
    out += "\n";
  }
  out += "}\n";
  return out;
}

void MetricsJson::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  BW_CHECK_MSG(f != nullptr, "cannot open json_out file: " + path);
  const std::string body = ToString();
  const size_t written = std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  BW_CHECK_MSG(written == body.size(), "short write to " + path);
}

std::string ExtractJsonOutFlag(int* argc, char** argv) {
  std::string path;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json_out=", 0) == 0 || arg.rfind("--json-out=", 0) == 0) {
      path = arg.substr(arg.find('=') + 1);
      continue;  // drop it from argv.
    }
    argv[out++] = argv[i];
  }
  *argc = out;
  return path;
}

bool ParseFlagsOrExit(Flags& flags, int argc, char** argv, int* exit_code) {
  Status status = flags.Parse(argc, argv);
  if (status.ok()) return true;
  if (status.code() == StatusCode::kNotFound) {
    *exit_code = 0;  // --help.
  } else {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    *exit_code = 2;
  }
  return false;
}

}  // namespace bw::bench
