// Result reporting for the benchmark: a strict JSON object writer,
// exact percentiles over raw samples, process resource readings, and the
// provenance block every result carries.

#ifndef BLOBWORLD_PERFBENCH_REPORT_H_
#define BLOBWORLD_PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace bw::perfbench {

/// One JSON object, written in insertion order. Adding a key twice,
/// or a number that JSON cannot represent (NaN, infinity), aborts the
/// run: a result file with a repeated key parses differently under
/// different JSON readers.
class JsonObject {
 public:
  void Add(const std::string& key, double value);
  void Add(const std::string& key, const std::string& value);
  void Add(const std::string& key, const char* value) {
    Add(key, std::string(value));
  }
  void Add(const std::string& key, bool value);
  void Add(const std::string& key, const JsonObject& value);

  /// The object on one line.
  std::string ToString() const;

 private:
  void AddRaw(const std::string& key, std::string json);

  std::vector<std::pair<std::string, std::string>> entries_;
};

/// A named metric with its unit, as printed in the result line.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// {"name": {"value": v, "unit": u}, ...} over `metrics`.
JsonObject MetricsObject(const std::vector<Metric>& metrics);

/// Exact nearest-rank percentile (q in [0, 1]) of raw samples; 0 for an
/// empty set. Takes the samples by value because it reorders them.
double Percentile(std::vector<double> samples, double q);

/// CPU time (user + system) consumed by this process so far, seconds.
double ProcessCpuSeconds();

/// Steal time of the host (time it ran something else on this
/// machine's vCPUs) summed over all CPUs since boot, seconds; 0 where
/// the kernel does not report it.
double StealSeconds();

/// Peak resident set size of this process (VmHWM), MiB.
double PeakRssMiB();

/// Bytes this process has passed to write-family system calls (the
/// `wchar` line of /proc/self/io).
uint64_t WrittenBytes();

/// Host, build and run provenance recorded with every result.
struct Provenance {
  std::string git_sha;
  std::string source_digest;
  uint64_t seed = 0;
  std::string scratch_path;
};
JsonObject ProvenanceObject(const Provenance& provenance);

}  // namespace bw::perfbench

#endif  // BLOBWORLD_PERFBENCH_REPORT_H_
