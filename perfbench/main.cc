// bw_perfbench: one run of one benchmark workload. Prints a provenance
// line and then, as the last line of standard output, the result:
//
//   {"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). Exits 1 when any answer fails the correctness gate.
// perfbench/run.py builds this binary and is the usual entry point.

#include <cstdio>
#include <filesystem>
#include <string>

#include "perfbench/inputs.h"
#include "perfbench/report.h"
#include "perfbench/timing.h"
#include "perfbench/workloads.h"
#include "util/flags.h"
#include "util/logging.h"

int main(int argc, char** argv) {
  using namespace bw::perfbench;
  bw::Flags flags;
  std::string* workload = flags.AddString("workload", "", "workload to run");
  int64_t* seed = flags.AddInt64("seed", 1, "input seed");
  double* seconds = flags.AddDouble("seconds", 10, "measured window, seconds");
  int64_t* trace = flags.AddInt64(
      "trace", 0, "1 = add the decorated window and per-layer metrics");
  bool* tiny = flags.AddBool("tiny", false, "seconds-long self-test scale");
  bool* corrupt = flags.AddBool(
      "corrupt_expected", false,
      "alter one expected answer (self-test: the gate must fail the run)");
  std::string* scratch =
      flags.AddString("scratch", "", "directory for the run's durable files");
  std::string* git_sha = flags.AddString("git_sha", "", "provenance: commit");
  std::string* digest =
      flags.AddString("source_digest", "", "provenance: digest of the sources");
  const bw::Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    if (parsed.code() == bw::StatusCode::kNotFound) return 0;
    std::fprintf(stderr, "%s\n", parsed.ToString().c_str());
    return 2;
  }
  bool known = false;
  for (const std::string& name : WorkloadNames()) known |= name == *workload;
  if (!known || *seconds <= 0 || (*trace != 0 && *trace != 1) ||
      scratch->empty() || *seed < 0) {
    std::fprintf(stderr,
                 "usage: bw_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --scratch DIR\n");
    return 2;
  }

  RunConfig config;
  config.workload = *workload;
  config.seed = static_cast<uint64_t>(*seed);
  config.seconds = *seconds;
  config.trace = *trace == 1;
  config.tiny = *tiny;
  config.corrupt_expected = *corrupt;
  config.scratch = std::filesystem::absolute(*scratch).string();
  std::filesystem::create_directories(config.scratch);

  Provenance provenance;
  provenance.git_sha = *git_sha;
  provenance.source_digest = *digest;
  provenance.seed = config.seed;
  provenance.scratch_path = config.scratch;
  JsonObject header;
  header.Add("workload", config.workload);
  header.Add("trace", config.trace);
  header.Add("provenance", ProvenanceObject(provenance));

  // Inputs first: generation forks, which must precede every thread.
  const auto gen_start = Clock::now();
  auto inputs = GenerateInputs(InputSpecFor(config));
  BW_CHECK_MSG(inputs.ok(), inputs.status().ToString());
  const double gen_s = MicrosBetween(gen_start, Clock::now()) * 1e-6;
  std::fprintf(stderr, "inputs: %zu blobs, %zu queries, %zu held out in %.2fs\n",
               inputs->corpus.size(), inputs->queries.size(),
               inputs->held_out.size(), gen_s);

  const RunResult result = RunWorkload(config, *inputs, gen_s);
  std::filesystem::remove_all(config.scratch);

  const std::vector<Metric>& metrics =
      config.trace ? result.per_layer : result.end_to_end;
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-30s %16.4f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  JsonObject out;
  out.Add("correct", result.correct);
  out.Add("attempted", static_cast<double>(result.attempted));
  out.Add("failed", static_cast<double>(result.failed));
  out.Add("metrics", MetricsObject(metrics));
  std::printf("%s\n%s\n", header.ToString().c_str(), out.ToString().c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
