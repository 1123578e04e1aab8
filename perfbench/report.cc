#include "perfbench/report.h"

#include <sys/statfs.h>
#include <sys/utsname.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/cpu.h"
#include "util/logging.h"

namespace bw::perfbench {
namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

// First "key: value" line of a /proc file whose key matches; "" if none.
std::string ProcField(const char* path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) != 0) continue;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    size_t start = line.find_first_not_of(" \t", colon + 1);
    return start == std::string::npos ? "" : line.substr(start);
  }
  return "";
}

std::string FilesystemType(const std::string& path) {
  struct statfs fs;
  if (::statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0x01021994: return "tmpfs";
    case 0xEF53: return "ext4";
    case 0x794c7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

}  // namespace

void JsonObject::AddRaw(const std::string& key, std::string json) {
  for (const auto& entry : entries_) {
    BW_CHECK_MSG(entry.first != key, "duplicate JSON key '" + key + "'");
  }
  entries_.emplace_back(key, std::move(json));
}

void JsonObject::Add(const std::string& key, double value) {
  BW_CHECK_MSG(std::isfinite(value),
               "JSON key '" + key + "' has a non-finite value");
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  AddRaw(key, buf);
}

void JsonObject::Add(const std::string& key, const std::string& value) {
  AddRaw(key, Quote(value));
}

void JsonObject::Add(const std::string& key, bool value) {
  AddRaw(key, value ? "true" : "false");
}

void JsonObject::Add(const std::string& key, const JsonObject& value) {
  AddRaw(key, value.ToString());
}

std::string JsonObject::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(entries_[i].first) + ": " + entries_[i].second;
  }
  return out + "}";
}

JsonObject MetricsObject(const std::vector<Metric>& metrics) {
  JsonObject out;
  for (const Metric& m : metrics) {
    JsonObject entry;
    entry.Add("value", m.value);
    entry.Add("unit", m.unit);
    out.Add(m.name, entry);
  }
  return out;
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const size_t index = static_cast<size_t>(
      std::clamp(rank, 1.0, static_cast<double>(samples.size()))) - 1;
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[index];
}

double ProcessCpuSeconds() {
  struct timespec ts;
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double StealSeconds() {
  // "cpu  user nice system idle iowait irq softirq steal ..." in ticks.
  std::ifstream in("/proc/stat");
  std::string label;
  double fields[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  in >> label;
  for (double& f : fields) in >> f;
  if (!in || label != "cpu") return 0;
  return fields[7] / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double PeakRssMiB() {
  // "VmHWM:    123456 kB"
  return std::strtod(ProcField("/proc/self/status", "VmHWM").c_str(),
                     nullptr) /
         1024.0;
}

uint64_t WrittenBytes() {
  return std::strtoull(ProcField("/proc/self/io", "wchar").c_str(), nullptr,
                       10);
}

JsonObject ProvenanceObject(const Provenance& p) {
  struct utsname uts;
  std::string kernel = "unknown";
  if (::uname(&uts) == 0) {
    kernel = std::string(uts.sysname) + " " + uts.release + " " + uts.machine;
  }
  const char* isa_env = std::getenv("BW_KERNEL_ISA");
  JsonObject out;
  out.Add("nproc", static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN)));
  out.Add("cpu_model", ProcField("/proc/cpuinfo", "model name"));
  out.Add("kernel", kernel);
  out.Add("compiler", BW_PERFBENCH_COMPILER);
  out.Add("build_type", BW_PERFBENCH_BUILD_TYPE);
  out.Add("kernel_isa", util::ActiveKernelIsa() == util::KernelIsa::kAvx2
                            ? "avx2"
                            : "scalar");
  out.Add("kernel_isa_env", isa_env == nullptr ? "" : isa_env);
  out.Add("git_sha", p.git_sha);
  out.Add("source_digest", p.source_digest);
  out.Add("seed", static_cast<double>(p.seed));
  out.Add("scratch_path", p.scratch_path);
  out.Add("scratch_fs", FilesystemType(p.scratch_path));
  return out;
}

}  // namespace bw::perfbench
