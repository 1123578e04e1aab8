// The benchmark's three closed-loop workloads. Each one builds the
// system from the generated inputs (the timed set-up), derives the
// expected answers outside any timed section, runs four client threads
// that each keep one request outstanding through a warm-up and then a
// measured window, checks every answer, and reports the end-to-end
// metrics; a traced run adds a second, decorated window and the
// per-layer metrics.

#ifndef BLOBWORLD_PERFBENCH_WORKLOADS_H_
#define BLOBWORLD_PERFBENCH_WORKLOADS_H_

#include <chrono>
#include <string>
#include <vector>

#include "perfbench/inputs.h"
#include "perfbench/report.h"

namespace bw::perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;  // measured window.
  bool trace = false;
  /// Seconds-long self-test scale: small corpora, short warm-up.
  bool tiny = false;
  /// Self-test of the correctness gate: one expected answer is altered
  /// before the run, so a working gate must fail it.
  bool corrupt_expected = false;
  /// Directory for every durable file the run creates.
  std::string scratch;
  /// When the run began; a window never waits for a quiet host past a
  /// fixed time after it, which bounds the run's length.
  std::chrono::steady_clock::time_point started =
      std::chrono::steady_clock::now();
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
};

/// Names of the workloads RunWorkload accepts.
const std::vector<std::string>& WorkloadNames();

/// The input set `config.workload` needs.
InputSpec InputSpecFor(const RunConfig& config);

/// Runs one workload end to end. `gen_s` is the input-generation time,
/// reported with the per-layer metrics and never compared.
RunResult RunWorkload(const RunConfig& config, const Inputs& inputs,
                      double gen_s);

}  // namespace bw::perfbench

#endif  // BLOBWORLD_PERFBENCH_WORKLOADS_H_
