#include "perfbench/workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "core/durable_index.h"
#include "core/index_factory.h"
#include "net/client.h"
#include "net/server.h"
#include "perfbench/timing.h"
#include "service/query_service.h"
#include "shard/fleet.h"
#include "shard/router.h"
#include "util/logging.h"

namespace bw::perfbench {
namespace {

// One client thread per core of the 4-vCPU host the benchmark was
// designed on; each keeps one request outstanding.
constexpr size_t kClients = 4;

// ---------------------------------------------------------------------------
// Metric tables. Every run prints every end-to-end metric (untraced) or
// every per-layer metric (traced); a layer the workload does not cross
// reports 0.
// ---------------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},         {"qps", "1/s"},
    {"p50_us", "us"},         {"p99_us", "us"},
    {"cpu_us_per_op", "us"},  {"peak_rss_mb", "MiB"},
    {"ok_frac", "fraction"},
};

const std::vector<MetricDef> kPerLayer = {
    {"bench.gen_s", "s"},
    {"bench.trace_qps_ratio", "ratio"},
    {"core.build_s", "s"},
    {"gist.nodes_per_query", "count"},
    {"gist.serial_us", "us"},
    {"gist.ns_per_node", "ns"},
    {"pages.hit_rate", "fraction"},
    {"pages.evictions_per_query", "count"},
    {"pages.contention_per_query", "count"},
    {"service.exec_us", "us"},
    {"service.queue_wait_us", "us"},
    {"service.handoff_us", "us"},
    {"service.read_p99_us", "us"},
    {"service.write_ack_p50_us", "us"},
    {"service.write_ack_p99_us", "us"},
    {"service.write_queue_wait_us", "us"},
    {"service.write_apply_us", "us"},
    {"service.write_lock_commit_us", "us"},
    {"service.writes_per_commit", "count"},
    {"storage.bytes_per_write", "B"},
    {"net.inbound_us", "us"},
    {"net.outbound_us", "us"},
    {"net.bytes_per_query", "B"},
    {"shard.router_self_us", "us"},
    {"shard.frontier_us", "us"},
    {"shard.visited_per_query", "count"},
    {"shard.pruned_per_query", "count"},
};

using Values = std::map<std::string, double>;

std::vector<Metric> Collect(const std::vector<MetricDef>& defs,
                            const Values& values, bool require_all) {
  for (const auto& [name, value] : values) {
    const bool known = std::any_of(defs.begin(), defs.end(), [&](auto& d) {
      return name == d.name;
    });
    BW_CHECK_MSG(known, "metric '" + name + "' is not in the metric table");
  }
  std::vector<Metric> out;
  for (const MetricDef& def : defs) {
    const auto it = values.find(def.name);
    BW_CHECK_MSG(!require_all || it != values.end(),
                 std::string("metric '") + def.name + "' was not measured");
    out.push_back({def.name, def.unit, it == values.end() ? 0.0 : it->second});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Sizes.
// ---------------------------------------------------------------------------

struct Scale {
  size_t blobs;
  size_t queries;
  size_t held_out;
  size_t page_bytes;
  size_t k;
  // Set-ups per run; setup_s is their median.
  size_t setup_reps;
  // Least warm-up before the measured window, seconds.
  double warmup_s;
};

Scale ScaleOf(const RunConfig& c) {
  if (c.workload == "knn_paper_scale") {
    // The paper's collection: 221,231 blobs, 5,531 query blobs, 8 KB
    // pages, 200-NN. One set-up: it takes ~20 s, and the run budget of
    // the whole benchmark cannot afford repeating it.
    return c.tiny ? Scale{3000, 200, 0, 8192, 200, 2, 0.2}
                  : Scale{221231, 5531, 0, 8192, 200, 1, 1.5};
  }
  if (c.workload == "knn_wire_router") {
    return c.tiny ? Scale{2000, 200, 0, 4096, 10, 2, 0.2}
                  : Scale{20000, 2000, 0, 4096, 10, 5, 1.5};
  }
  // The write loop warms up longer: its writes get cheaper over its first
  // ~20 s (a second 10 s window ran 15-29% faster than the first after
  // 1.5 s of warm-up, 4-12% after 10 s), and a window that opens on that
  // slope measures how far down it the run happened to be.
  return c.tiny ? Scale{2000, 200, 256, 4096, 200, 2, 0.2}
                : Scale{20000, 2000, 4096, 4096, 200, 5, 10.0};
}

core::IndexBuildOptions XjbBuild(const Scale& scale) {
  core::IndexBuildOptions build;
  build.am = "xjb";
  build.page_bytes = scale.page_bytes;
  return build;
}

// ---------------------------------------------------------------------------
// The closed loop.
// ---------------------------------------------------------------------------

// The measured window. The client threads run from before it opens
// until it closes; the thread driving the loop opens it (RunClosedLoop).
class Window {
 public:
  bool Contains(Clock::time_point t) const {
    const Clock::rep at = t.time_since_epoch().count();
    return at >= begin_.load(std::memory_order_acquire) &&
           at < end_.load(std::memory_order_acquire);
  }
  bool Closed(Clock::time_point t) const {
    return t.time_since_epoch().count() >=
           end_.load(std::memory_order_acquire);
  }
  double Offset(Clock::time_point t) const {
    return std::chrono::duration<double>(
               t.time_since_epoch() -
               Clock::duration(begin_.load(std::memory_order_acquire)))
        .count();
  }
  Clock::time_point end() const {
    return Clock::time_point(Clock::duration(end_.load()));
  }

  void Open(Clock::time_point begin, double seconds) {
    const auto length = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
    end_.store((begin + length).time_since_epoch().count(),
               std::memory_order_release);
    begin_.store(begin.time_since_epoch().count(), std::memory_order_release);
  }

 private:
  static constexpr Clock::rep kNever = std::numeric_limits<Clock::rep>::max();
  std::atomic<Clock::rep> begin_{kNever};
  std::atomic<Clock::rep> end_{kNever};
};

struct Sample {
  double latency_us;
  double done_s;  // completion, seconds into the window.
};

// What one client saw. Padded to its own cache lines: the counters are
// bumped on every operation.
struct alignas(64) ClientLog {
  size_t next_query = 0;  // this client's next index into the query set.
  std::vector<Sample> reads;
  std::vector<Sample> writes;
  uint64_t attempted = 0;  // operations that ended inside the window.
  uint64_t failed = 0;     // ... with an error or a refusal.
  uint64_t wrong = 0;      // answers that failed the gate (any time).
  // Traced windows only.
  std::vector<double> exec_us, queue_us, handoff_us;
  uint64_t pool_hits = 0, pool_misses = 0, pool_evictions = 0,
           pool_contention = 0;
  std::vector<double> write_queue_us, write_apply_us, write_lock_commit_us;
  std::vector<double> inbound_us, outbound_us, router_self_us, frontier_us;
};

// The measured window is cut into slices of this length. On a shared
// virtual machine a co-tenant's burst shows up as steal time (the host
// running someone else on this machine's vCPUs, or waking an idle vCPU
// late), and a closed loop whose requests cross several threads loses
// far more throughput than the stolen share while it lasts: at 10% steal
// the router loop completes half as many requests. Steal comes in
// bursts shorter than a second, so the end-to-end metrics come from the
// quiet slices: every slice with at most kQuietSteal of the CPUs' time
// stolen, or, when fewer than kQuietShare of the slices are that quiet,
// the kQuietShare with the least steal. (In a busy spell the quietest
// quarter of the slices still lost up to 10% to steal.)
constexpr double kSliceSeconds = 0.1;
constexpr double kQuietSteal = 0.02;
constexpr double kQuietShare = 0.1;

double CpuCount() {
  static const double n =
      static_cast<double>(std::max(1u, std::thread::hardware_concurrency()));
  return n;
}

struct Slice {
  double seconds = 0;
  double cpu_s = 0;    // process CPU time.
  double steal_s = 0;  // host steal time, summed over CPUs.
};

struct Usage {
  std::vector<Slice> slices;
  uint64_t written = 0;  // bytes this process wrote in the window.
  // Peak resident memory when the window opens: set-up and warm-up are
  // done, and the window's own latency samples are not yet allocated.
  double peak_rss_mb = 0;
};

// Once the workload's warm-up is over the loop runs on while the host is
// busy, until the steal over the last second is at most
// kQuietStartSteal of the CPUs' time; then the window opens. A run that
// starts in a busy spell (they last tens of seconds) would otherwise
// report the host: its quietest slices still lose 15-20% to steal, and
// the router's p99 triples. The wait lasts kMaxQuietWaitSeconds at most,
// and never past kLatestOpenSeconds after the run began, which bounds
// the length of a run on a host that stays busy; a spell that outlasts
// it is left to the slice selection.
constexpr double kQuietStartSteal = 0.05;
constexpr double kMaxQuietWaitSeconds = 15;
constexpr double kLatestOpenSeconds = 30;

Clock::duration SecondsDuration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

// Runs op(client) on kClients threads, each looping until the window
// closes, and opens the window after the warm-up; edge(true) and
// edge(false) run on the calling thread at the window's start and end.
Usage RunClosedLoop(const RunConfig& config, Window& window,
                    const std::function<void(size_t)>& op,
                    const std::function<void(bool)>& edge) {
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      while (!window.Closed(Clock::now())) op(c);
    });
  }
  const Clock::duration slice = SecondsDuration(kSliceSeconds);
  const size_t slices_per_second =
      static_cast<size_t>(std::lround(1.0 / kSliceSeconds));
  const Clock::time_point started = Clock::now();
  const Clock::time_point warm =
      started + SecondsDuration(ScaleOf(config).warmup_s);
  Clock::time_point at = started;
  const Clock::time_point give_up =
      std::min(warm + SecondsDuration(kMaxQuietWaitSeconds),
               config.started + SecondsDuration(kLatestOpenSeconds));
  std::deque<double> steal_readings = {StealSeconds()};  // the last second.
  for (;;) {
    at += slice;
    std::this_thread::sleep_until(at);
    steal_readings.push_back(StealSeconds());
    if (steal_readings.size() > slices_per_second + 1) {
      steal_readings.pop_front();
    }
    if (at < warm) continue;
    const double span_s =
        static_cast<double>(steal_readings.size() - 1) * kSliceSeconds;
    const bool quiet = steal_readings.back() - steal_readings.front() <=
                       kQuietStartSteal * CpuCount() * span_s;
    if (quiet || at >= give_up) break;
  }
  std::fprintf(stderr, "window opens after %.1fs of warm-up, %.1fs of it "
               "waiting for a quiet host\n",
               MicrosBetween(started, at) * 1e-6,
               MicrosBetween(warm, at) * 1e-6);
  window.Open(at, config.seconds);

  Usage usage;
  usage.peak_rss_mb = PeakRssMiB();
  const uint64_t written = WrittenBytes();
  double cpu = ProcessCpuSeconds();
  double steal = StealSeconds();
  edge(true);
  for (; at < window.end();) {
    const Clock::time_point next = std::min(window.end(), at + slice);
    std::this_thread::sleep_until(next);
    const double cpu_now = ProcessCpuSeconds();
    const double steal_now = StealSeconds();
    usage.slices.push_back(
        {MicrosBetween(at, next) * 1e-6, cpu_now - cpu, steal_now - steal});
    at = next;
    cpu = cpu_now;
    steal = steal_now;
  }
  usage.written = WrittenBytes() - written;
  edge(false);
  for (std::thread& t : threads) t.join();
  return usage;
}

// Records one finished operation in the client's log.
void Record(ClientLog& log, const Window& window, Clock::time_point start,
            Clock::time_point end, bool ok, bool write) {
  if (!window.Contains(end)) return;
  ++log.attempted;
  if (!ok) {
    ++log.failed;
    return;
  }
  (write ? log.writes : log.reads)
      .push_back({MicrosBetween(start, end), window.Offset(end)});
}

struct LoopTotals {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  double peak_rss_mb = 0;
  // Whole window, by kind.
  std::vector<double> read_us, write_us;
  // The quiet slices: every completed operation's latency, their time
  // and the process CPU time spent in them.
  std::vector<double> quiet_us;
  double quiet_s = 0;
  double quiet_cpu_s = 0;

  double qps() const {
    return quiet_s > 0 ? static_cast<double>(quiet_us.size()) / quiet_s : 0;
  }
};

LoopTotals Totals(const std::vector<ClientLog>& logs, const Usage& usage) {
  LoopTotals t;
  t.peak_rss_mb = usage.peak_rss_mb;
  std::vector<double> steal;
  for (const Slice& slice : usage.slices) steal.push_back(slice.steal_s);
  const double most_steal =
      std::max(kQuietSteal * kSliceSeconds * CpuCount(),
               Percentile(steal, kQuietShare));
  std::vector<char> quiet(usage.slices.size(), 0);
  for (size_t i = 0; i < usage.slices.size(); ++i) {
    const Slice& slice = usage.slices[i];
    if (slice.steal_s > most_steal) continue;
    quiet[i] = 1;
    t.quiet_s += slice.seconds;
    t.quiet_cpu_s += slice.cpu_s;
  }
  const auto in_quiet = [&](const Sample& s) {
    const size_t i = std::min(quiet.size() - 1,
                              static_cast<size_t>(s.done_s / kSliceSeconds));
    return quiet[i] != 0;
  };
  std::fprintf(stderr,
               "window: %.1fs of %.1fs in quiet slices (steal <= %.1f%%)\n",
               t.quiet_s, kSliceSeconds * static_cast<double>(quiet.size()),
               100.0 * most_steal / (kSliceSeconds * CpuCount()));
  for (const ClientLog& log : logs) {
    t.attempted += log.attempted;
    t.failed += log.failed;
    t.wrong += log.wrong;
    for (const Sample& s : log.reads) {
      t.read_us.push_back(s.latency_us);
      if (in_quiet(s)) t.quiet_us.push_back(s.latency_us);
    }
    for (const Sample& s : log.writes) {
      t.write_us.push_back(s.latency_us);
      if (in_quiet(s)) t.quiet_us.push_back(s.latency_us);
    }
  }
  return t;
}

std::vector<double> Concat(const std::vector<ClientLog>& logs,
                           std::vector<double> ClientLog::*field) {
  std::vector<double> out;
  for (const ClientLog& log : logs) {
    out.insert(out.end(), (log.*field).begin(), (log.*field).end());
  }
  return out;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

// The end-to-end metrics of one measured window. Throughput, latency and
// CPU per operation come from the quiet slices; latency percentiles cover
// every operation the clients sent (reads and, where the workload writes,
// durable writes).
void EndToEnd(const LoopTotals& t, double setup_s, Values* out) {
  const double ops = static_cast<double>(t.quiet_us.size());
  (*out)["setup_s"] = setup_s;
  (*out)["qps"] = t.qps();
  (*out)["p50_us"] = Percentile(t.quiet_us, 0.5);
  (*out)["p99_us"] = Percentile(t.quiet_us, 0.99);
  (*out)["cpu_us_per_op"] = ops > 0 ? t.quiet_cpu_s * 1e6 / ops : 0.0;
  (*out)["peak_rss_mb"] = t.peak_rss_mb;
  (*out)["ok_frac"] =
      t.attempted > 0 ? static_cast<double>(t.attempted - t.failed) /
                            static_cast<double>(t.attempted)
                      : 0.0;
}

// Per-layer service metrics from the QueryMetrics of traced reads.
void ServiceLayers(const std::vector<ClientLog>& logs, Values* out) {
  uint64_t hits = 0, misses = 0, evictions = 0, contention = 0;
  for (const ClientLog& log : logs) {
    hits += log.pool_hits;
    misses += log.pool_misses;
    evictions += log.pool_evictions;
    contention += log.pool_contention;
  }
  const std::vector<double> exec = Concat(logs, &ClientLog::exec_us);
  const double reads = static_cast<double>(exec.size());
  (*out)["service.exec_us"] = Median(exec);
  (*out)["service.queue_wait_us"] = Median(Concat(logs, &ClientLog::queue_us));
  (*out)["service.handoff_us"] = Median(Concat(logs, &ClientLog::handoff_us));
  (*out)["pages.hit_rate"] =
      hits + misses > 0 ? static_cast<double>(hits) /
                              static_cast<double>(hits + misses)
                        : 0.0;
  (*out)["pages.evictions_per_query"] =
      reads > 0 ? static_cast<double>(evictions) / reads : 0.0;
  (*out)["pages.contention_per_query"] =
      reads > 0 ? static_cast<double>(contention) / reads : 0.0;
}

// Records the layer split of one traced in-process read.
void RecordServiceRead(ClientLog& log, const service::QueryMetrics& m,
                       double client_us) {
  log.exec_us.push_back(m.latency_us);
  log.queue_us.push_back(m.queue_wait_us);
  log.handoff_us.push_back(client_us - m.queue_wait_us - m.latency_us);
  log.pool_hits += m.pool_hits;
  log.pool_misses += m.pool_misses;
  log.pool_evictions += m.pool_evictions;
  log.pool_contention += m.pool_contention;
}

// ---------------------------------------------------------------------------
// Serial reference pass: single-thread Tree::KnnSearch over the query
// set, outside any timed section. It yields the expected answers, the
// exact node count per query, and the serial traversal time.
// ---------------------------------------------------------------------------

struct SerialPass {
  std::vector<std::vector<gist::Neighbor>> answers;
  std::vector<double> query_us;
  double nodes_per_query = 0;
};

SerialPass RunSerialPass(const gist::Tree& tree,
                         const std::vector<geom::Vec>& queries, size_t k) {
  SerialPass pass;
  gist::TraversalStats stats;
  uint64_t nodes = 0;
  for (const geom::Vec& q : queries) {
    stats.Clear();
    const auto start = Clock::now();
    auto result = tree.KnnSearch(q, k, &stats);
    pass.query_us.push_back(MicrosBetween(start, Clock::now()));
    BW_CHECK_MSG(result.ok(), result.status().ToString());
    nodes += stats.TotalAccesses();
    pass.answers.push_back(std::move(result.value()));
  }
  pass.nodes_per_query =
      static_cast<double>(nodes) / static_cast<double>(queries.size());
  return pass;
}

void SerialLayers(const SerialPass& pass, Values* out) {
  const double serial_us = Median(pass.query_us);
  (*out)["gist.nodes_per_query"] = pass.nodes_per_query;
  (*out)["gist.serial_us"] = serial_us;
  (*out)["gist.ns_per_node"] = serial_us * 1000.0 / pass.nodes_per_query;
}

bool SameAnswer(const std::vector<gist::Neighbor>& got,
                const std::vector<gist::Neighbor>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].rid != want[i].rid || got[i].distance != want[i].distance) {
      return false;
    }
  }
  return true;
}

std::vector<gist::Rid> SortedRids(const std::vector<gist::Neighbor>& n) {
  std::vector<gist::Rid> rids;
  rids.reserve(n.size());
  for (const gist::Neighbor& x : n) rids.push_back(x.rid);
  std::sort(rids.begin(), rids.end());
  return rids;
}

// Set-up repeated `reps` times: setup() builds and starts the system
// and returns the seconds spent inside the build call; teardown()
// releases all but the last instance, untimed.
void RepeatSetup(size_t reps, const std::function<double()>& setup,
                 const std::function<void()>& teardown, Values* out) {
  std::vector<double> total, build;
  for (size_t r = 0; r < reps; ++r) {
    if (r > 0) teardown();
    const auto start = Clock::now();
    build.push_back(setup());
    total.push_back(MicrosBetween(start, Clock::now()) * 1e-6);
  }
  (*out)["setup_s"] = Median(total);
  (*out)["core.build_s"] = Median(build);
}

double Seconds(Clock::time_point start) {
  return MicrosBetween(start, Clock::now()) * 1e-6;
}

void PrintLine(const char* format, ...) __attribute__((format(printf, 1, 2)));
void PrintLine(const char* format, ...) {
  va_list args;
  va_start(args, format);
  std::vfprintf(stderr, format, args);
  va_end(args);
  std::fputc('\n', stderr);
}

// ---------------------------------------------------------------------------
// knn_paper_scale
// ---------------------------------------------------------------------------

void RunPaperScale(const RunConfig& config, const Inputs& in, Values* values,
                   RunResult* result) {
  const Scale scale = ScaleOf(config);
  const core::IndexBuildOptions build = XjbBuild(scale);
  std::unique_ptr<service::QueryService> service;
  RepeatSetup(
      scale.setup_reps,
      [&] {
        const auto start = Clock::now();
        auto built = core::BuildIndex(in.corpus, build);
        const double build_s = Seconds(start);
        BW_CHECK_MSG(built.ok(), built.status().ToString());
        service = std::make_unique<service::QueryService>(
            std::move(built.value()), service::ServiceOptions());
        return build_s;
      },
      [&] { service.reset(); }, values);
  PrintLine("knn_paper_scale: %zu blobs, tree height %d, setup %.2fs",
            in.corpus.size(), service->tree().height(), (*values)["setup_s"]);

  SerialPass serial = RunSerialPass(service->tree(), in.queries, scale.k);
  if (config.corrupt_expected) serial.answers[0][0].rid ^= 1;
  SerialLayers(serial, values);

  const size_t q = in.queries.size();
  auto run_window = [&](bool traced) {
    std::vector<ClientLog> logs(kClients);
    for (size_t c = 0; c < kClients; ++c) logs[c].next_query = c % q;
    Window window;
    const Usage usage = RunClosedLoop(
        config, window,
        [&](size_t c) {
          ClientLog& log = logs[c];
          const size_t i = log.next_query;
          log.next_query = (i + kClients) % q;
          const auto start = Clock::now();
          auto submitted = service->SubmitKnn(in.queries[i], scale.k);
          service::QueryService::Response response =
              submitted.ok() ? submitted->get()
                             : service::QueryService::Response(
                                   submitted.status());
          const auto end = Clock::now();
          const bool ok = response.ok() && !response->degraded();
          if (ok && !SameAnswer(response->neighbors, serial.answers[i])) {
            ++log.wrong;
          }
          Record(log, window, start, end, ok, false);
          if (traced && ok && window.Contains(end)) {
            RecordServiceRead(log, response->metrics,
                              MicrosBetween(start, end));
          }
        },
        [](bool) {});
    if (traced) ServiceLayers(logs, values);
    return Totals(logs, usage);
  };

  const LoopTotals totals = run_window(false);
  EndToEnd(totals, (*values)["setup_s"], values);
  result->attempted = totals.attempted;
  result->failed = totals.failed;
  result->correct = totals.wrong == 0;
  if (config.trace) {
    const LoopTotals traced = run_window(true);
    (*values)["bench.trace_qps_ratio"] = traced.qps() / totals.qps();
    (*values)["service.read_p99_us"] = Percentile(traced.read_us, 0.99);
    result->correct = result->correct && traced.wrong == 0;
  }
  service->Shutdown();
}

// ---------------------------------------------------------------------------
// knn_wire_router
// ---------------------------------------------------------------------------

struct WireStack {
  std::unique_ptr<net::Server> server;
  std::vector<std::unique_ptr<net::Client>> clients;

  void Start(net::Backend* backend) {
    server = std::make_unique<net::Server>(backend, net::ServerOptions());
    BW_CHECK_OK(server->Start());
    for (size_t c = 0; c < kClients; ++c) {
      auto client = net::Client::Connect("127.0.0.1", server->port());
      BW_CHECK_MSG(client.ok(), client.status().ToString());
      clients.push_back(std::move(client.value()));
    }
  }
  void Stop() {
    clients.clear();
    if (server != nullptr) server->Shutdown();
    server.reset();
  }
};

void RunWireRouter(const RunConfig& config, const Inputs& in, Values* values,
                   RunResult* result) {
  const Scale scale = ScaleOf(config);
  const std::string dir = config.scratch + "/fleet";
  shard::FleetOptions fleet_options;
  fleet_options.num_shards = 8;
  fleet_options.replicas_per_shard = 1;
  fleet_options.build = XjbBuild(scale);
  std::unique_ptr<shard::ShardFleet> fleet;
  WireStack wire;
  RepeatSetup(
      scale.setup_reps,
      [&] {
        std::filesystem::create_directories(dir);
        const auto start = Clock::now();
        auto built = shard::ShardFleet::Build(in.corpus, dir, fleet_options);
        const double build_s = Seconds(start);
        BW_CHECK_MSG(built.ok(), built.status().ToString());
        fleet = std::move(built.value());
        wire.Start(fleet->router());
        return build_s;
      },
      [&] {
        wire.Stop();
        fleet.reset();
        std::filesystem::remove_all(dir);
      },
      values);
  PrintLine("knn_wire_router: %zu blobs in %zu shards, setup %.3fs",
            in.corpus.size(), fleet->num_shards(), (*values)["setup_s"]);

  // Reference: one unsharded XJB index over the same corpus. Equal
  // distances may tie-break differently across shards, so answers are
  // compared as sorted record-id sets.
  std::vector<std::vector<gist::Rid>> expected;
  {
    auto unsharded = core::BuildIndex(in.corpus, XjbBuild(scale));
    BW_CHECK_MSG(unsharded.ok(), unsharded.status().ToString());
    const SerialPass serial =
        RunSerialPass((*unsharded)->tree(), in.queries, scale.k);
    SerialLayers(serial, values);
    for (const auto& answer : serial.answers) {
      expected.push_back(SortedRids(answer));
    }
  }
  if (config.corrupt_expected) expected[0][0] ^= 1;

  const size_t q = in.queries.size();
  uint64_t wrong = 0;
  if (config.trace) {
    // One full pass through the router itself: shard visits and prunes
    // per query are exact counts.
    const shard::RouterStats before = fleet->router()->stats();
    for (size_t i = 0; i < q; ++i) {
      service::StreamOptions stream;
      stream.max_results = scale.k;
      auto response = fleet->router()->Knn(in.queries[i], stream);
      if (!response.ok() || SortedRids(response->neighbors) != expected[i]) {
        ++wrong;
      }
    }
    const shard::RouterStats after = fleet->router()->stats();
    (*values)["shard.visited_per_query"] =
        static_cast<double>(after.shards_visited - before.shards_visited) /
        static_cast<double>(q);
    (*values)["shard.pruned_per_query"] =
        static_cast<double>(after.shards_pruned - before.shards_pruned) /
        static_cast<double>(q);
  }

  // `spans` is null for the untraced window; the traced one also reads
  // the pool, router and server counters at the window's edges.
  auto run_window = [&](WireStack& stack, shard::Router* router,
                        const SpanTable* spans) {
    std::vector<ClientLog> logs(kClients);
    for (size_t c = 0; c < kClients; ++c) logs[c].next_query = c % q;
    Window window;
    std::vector<service::ServiceSnapshot> pools_before(fleet->num_shards());
    shard::RouterStats router_before;
    net::NetStats net_before;
    const Usage usage = RunClosedLoop(
        config, window,
        [&](size_t c) {
          ClientLog& log = logs[c];
          const size_t i = log.next_query;
          log.next_query = (i + kClients) % q;
          const auto start = Clock::now();
          auto reply = stack.clients[c]->Knn(in.queries[i], scale.k);
          const auto end = Clock::now();
          const bool ok = reply.ok() && reply->ok() && !reply->degraded;
          if (ok && SortedRids(reply->neighbors) != expected[i]) ++log.wrong;
          Record(log, window, start, end, ok, false);
          if (spans != nullptr && ok && window.Contains(end)) {
            const BackendSpan span = spans->Get(i);
            if (span.valid && span.enter >= start && span.exit <= end) {
              const double server_us = MicrosBetween(span.enter, span.exit);
              log.inbound_us.push_back(MicrosBetween(start, span.enter));
              log.outbound_us.push_back(MicrosBetween(span.exit, end));
              log.router_self_us.push_back(server_us - span.shard_us);
              log.frontier_us.push_back(span.shard_us);
            }
          }
        },
        [&](bool begin) {
          if (spans == nullptr) return;
          uint64_t hits = 0, misses = 0, evictions = 0, contention = 0;
          for (size_t s = 0; s < fleet->num_shards(); ++s) {
            const service::ServiceSnapshot snap =
                fleet->service(s, 0)->Snapshot();
            if (begin) {
              pools_before[s] = snap;
              continue;
            }
            hits += snap.pool_hits - pools_before[s].pool_hits;
            misses += snap.pool_misses - pools_before[s].pool_misses;
            evictions += snap.pool_evictions - pools_before[s].pool_evictions;
            contention +=
                snap.pool_contention - pools_before[s].pool_contention;
          }
          const shard::RouterStats rs = router->stats();
          const net::NetStats ns = stack.server->stats();
          if (begin) {
            router_before = rs;
            net_before = ns;
            return;
          }
          const double queries =
              static_cast<double>(rs.queries - router_before.queries);
          (*values)["pages.hit_rate"] =
              hits + misses > 0 ? static_cast<double>(hits) /
                                      static_cast<double>(hits + misses)
                                : 0.0;
          (*values)["pages.evictions_per_query"] =
              static_cast<double>(evictions) / queries;
          (*values)["pages.contention_per_query"] =
              static_cast<double>(contention) / queries;
          (*values)["net.bytes_per_query"] =
              static_cast<double>((ns.bytes_in - net_before.bytes_in) +
                                  (ns.bytes_out - net_before.bytes_out)) /
              static_cast<double>(ns.requests - net_before.requests);
        });
    if (spans != nullptr) {
      (*values)["net.inbound_us"] = Median(Concat(logs, &ClientLog::inbound_us));
      (*values)["net.outbound_us"] =
          Median(Concat(logs, &ClientLog::outbound_us));
      (*values)["shard.router_self_us"] =
          Median(Concat(logs, &ClientLog::router_self_us));
      (*values)["shard.frontier_us"] =
          Median(Concat(logs, &ClientLog::frontier_us));
    }
    return Totals(logs, usage);
  };

  const LoopTotals totals = run_window(wire, fleet->router(), nullptr);
  EndToEnd(totals, (*values)["setup_s"], values);
  result->attempted = totals.attempted;
  result->failed = totals.failed;
  wrong += totals.wrong;
  wire.Stop();

  if (config.trace) {
    // A second router over timing decorators of the same replicas,
    // served through a timing decorator of the wire backend.
    std::vector<shard::Router::Shard> shards(fleet->num_shards());
    for (size_t s = 0; s < fleet->num_shards(); ++s) {
      shards[s].replicas.push_back(
          std::make_unique<TimedShardBackend>(fleet->backend(s, 0)));
    }
    shard::Router traced_router(fleet->map(), std::move(shards),
                                shard::RouterOptions());
    SpanTable spans(in.queries);
    TimedBackend traced_backend(&traced_router, &spans);
    WireStack traced_wire;
    traced_wire.Start(&traced_backend);
    const LoopTotals traced = run_window(traced_wire, &traced_router, &spans);
    traced_wire.Stop();
    (*values)["bench.trace_qps_ratio"] = traced.qps() / totals.qps();
    (*values)["service.read_p99_us"] = Percentile(traced.read_us, 0.99);
    wrong += traced.wrong;
  }
  result->correct = wrong == 0;
  fleet.reset();
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// mixed_durable_write
// ---------------------------------------------------------------------------

// One operation in this many is a write. At one in five the writer held
// the tree exclusively ~75% of the time, and the loop flipped between
// runs: read p50 120 or 215 us, throughput +-12%. At one in twenty the
// writes still take most of the loop's time (about as many writes per
// second as at one in five) and the figures repeat within a few percent.
constexpr uint64_t kWriteEvery = 20;

// The writer side of the mixed loop: which held-out blobs are live.
// Writes insert the next held-out blob until `kLiveInserts` inserts are
// acked and live, then delete the oldest live one, so the index size
// stays flat. Deletes only ever target acked inserts, so none can miss;
// a write that fails leaves its blob in neither list, unchecked.
class WritePlan {
 public:
  static constexpr size_t kLiveInserts = 64;

  // The next write: (held-out sequence number, is_delete).
  std::pair<uint64_t, bool> Next() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (live_.size() >= kLiveInserts) {
      const uint64_t j = live_.front();
      live_.pop_front();
      return {j, true};
    }
    return {next_insert_++, false};
  }
  void Acked(uint64_t j, bool is_delete) {
    std::lock_guard<std::mutex> lock(mutex_);
    (is_delete ? deleted_ : live_).push_back(j);
  }

  // Read after the clients have joined.
  const std::deque<uint64_t>& live() const { return live_; }
  const std::deque<uint64_t>& deleted() const { return deleted_; }

 private:
  std::mutex mutex_;
  std::deque<uint64_t> live_;     // acked inserts not (yet) deleted.
  std::deque<uint64_t> deleted_;  // acked deletes.
  uint64_t next_insert_ = 0;
};

// Brute-force k-NN over the live set, by (distance, rid).
std::vector<gist::Neighbor> BruteForceKnn(
    const std::vector<std::pair<const geom::Vec*, gist::Rid>>& live,
    const geom::Vec& q, size_t k) {
  std::vector<gist::Neighbor> all;
  all.reserve(live.size());
  for (const auto& [point, rid] : live) {
    gist::Neighbor n;
    n.rid = rid;
    n.distance = std::sqrt(q.DistanceSquaredTo(*point));
    all.push_back(n);
  }
  const size_t take = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + take, all.end(),
                    [](const gist::Neighbor& a, const gist::Neighbor& b) {
                      return std::tie(a.distance, a.rid) <
                             std::tie(b.distance, b.rid);
                    });
  all.resize(take);
  return all;
}

// The tree's distance kernels may differ from the scalar reference in
// the last bits, so distances match within a relative 1e-9, and record
// ids must match except among neighbors tied at the k-th distance.
bool MatchesBruteForce(const std::vector<gist::Neighbor>& got,
                       const std::vector<gist::Neighbor>& want) {
  if (got.size() != want.size()) return false;
  if (want.empty()) return true;
  const auto close = [](double a, double b) {
    return std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(b));
  };
  const double kth = want.back().distance;
  std::vector<gist::Rid> got_inner, want_inner;
  for (size_t i = 0; i < want.size(); ++i) {
    if (!close(got[i].distance, want[i].distance)) return false;
    if (!close(want[i].distance, kth)) want_inner.push_back(want[i].rid);
    if (!close(got[i].distance, kth)) got_inner.push_back(got[i].rid);
  }
  std::sort(got_inner.begin(), got_inner.end());
  std::sort(want_inner.begin(), want_inner.end());
  return got_inner == want_inner;
}

void RunMixedDurableWrite(const RunConfig& config, const Inputs& in,
                          Values* values, RunResult* result) {
  const Scale scale = ScaleOf(config);
  const std::string dir = config.scratch + "/mixed";
  // Store defaults: one WAL fsync per commit; the service commits once
  // per writer batch and acks a write only after its batch's commit.
  service::ServiceOptions options;
  options.write.enabled = true;
  std::unique_ptr<core::DurableIndex> index;
  std::unique_ptr<service::QueryService> service;
  RepeatSetup(
      scale.setup_reps,
      [&] {
        std::filesystem::create_directories(dir);
        const auto start = Clock::now();
        auto built = core::BuildDurableIndex(in.corpus, XjbBuild(scale),
                                             dir + "/index.bwpf",
                                             dir + "/index.bwwal");
        const double build_s = Seconds(start);
        BW_CHECK_MSG(built.ok(), built.status().ToString());
        index = std::move(built.value());
        service = std::make_unique<service::QueryService>(index.get(), options);
        return build_s;
      },
      [&] {
        service.reset();
        index.reset();
        std::filesystem::remove_all(dir);
      },
      values);
  PrintLine("mixed_durable_write: %zu blobs, %zu held out, setup %.3fs",
            in.corpus.size(), in.held_out.size(), (*values)["setup_s"]);

  // Serial traversal profile of the tree as built (answers change once
  // writes land, so reads are checked after the run instead).
  SerialLayers(RunSerialPass(service->tree(), in.queries, scale.k), values);

  const size_t q = in.queries.size();
  const gist::Rid first_insert_rid = in.corpus.size();
  WritePlan plan;
  std::atomic<uint64_t> op_seq{0};
  uint64_t wrong = 0;

  auto run_window = [&](bool traced) {
    std::vector<ClientLog> logs(kClients);
    for (size_t c = 0; c < kClients; ++c) logs[c].next_query = c % q;
    Window window;
    service::ServiceSnapshot snap_before;
    double acked_writes = 0;
    double commits = 0;
    const Usage usage = RunClosedLoop(
        config, window,
        [&](size_t c) {
          ClientLog& log = logs[c];
          if (op_seq.fetch_add(1, std::memory_order_relaxed) % kWriteEvery ==
              kWriteEvery - 1) {
            const auto [j, is_delete] = plan.Next();
            const geom::Vec& point = in.held_out[j % in.held_out.size()];
            const gist::Rid rid = first_insert_rid + j;
            const auto start = Clock::now();
            auto submitted = is_delete ? service->SubmitDelete(point, rid)
                                       : service->SubmitInsert(point, rid);
            service::QueryService::MutationResult outcome =
                submitted.ok() ? submitted->get()
                               : service::QueryService::MutationResult(
                                     submitted.status());
            const auto end = Clock::now();
            if (outcome.ok()) plan.Acked(j, is_delete);
            Record(log, window, start, end, outcome.ok(), true);
            if (traced && outcome.ok() && window.Contains(end)) {
              log.write_queue_us.push_back(outcome->queue_wait_us);
              log.write_apply_us.push_back(outcome->apply_us);
              log.write_lock_commit_us.push_back(MicrosBetween(start, end) -
                                                 outcome->queue_wait_us -
                                                 outcome->apply_us);
            }
            return;
          }
          const size_t i = log.next_query;
          log.next_query = (i + kClients) % q;
          const auto start = Clock::now();
          auto submitted = service->SubmitKnn(in.queries[i], scale.k);
          service::QueryService::Response response =
              submitted.ok() ? submitted->get()
                             : service::QueryService::Response(
                                   submitted.status());
          const auto end = Clock::now();
          const bool ok = response.ok() && !response->degraded();
          if (ok && response->neighbors.size() != scale.k) ++log.wrong;
          Record(log, window, start, end, ok, false);
          if (traced && ok && window.Contains(end)) {
            RecordServiceRead(log, response->metrics,
                              MicrosBetween(start, end));
          }
        },
        [&](bool begin) {
          if (!traced) return;
          const service::ServiceSnapshot snap = service->Snapshot();
          if (begin) {
            snap_before = snap;
            return;
          }
          acked_writes =
              static_cast<double>(snap.writes_acked - snap_before.writes_acked);
          commits = static_cast<double>(snap.commit_batches -
                                        snap_before.commit_batches);
        });
    if (traced) {
      ServiceLayers(logs, values);
      (*values)["service.write_queue_wait_us"] =
          Median(Concat(logs, &ClientLog::write_queue_us));
      (*values)["service.write_apply_us"] =
          Median(Concat(logs, &ClientLog::write_apply_us));
      (*values)["service.write_lock_commit_us"] =
          Median(Concat(logs, &ClientLog::write_lock_commit_us));
      (*values)["service.writes_per_commit"] =
          commits > 0 ? acked_writes / commits : 0.0;
      (*values)["storage.bytes_per_write"] =
          acked_writes > 0 ? static_cast<double>(usage.written) / acked_writes
                           : 0.0;
    }
    return Totals(logs, usage);
  };

  const LoopTotals totals = run_window(false);
  EndToEnd(totals, (*values)["setup_s"], values);
  result->attempted = totals.attempted;
  result->failed = totals.failed;
  wrong += totals.wrong;
  if (config.trace) {
    const LoopTotals traced = run_window(true);
    (*values)["bench.trace_qps_ratio"] = traced.qps() / totals.qps();
    (*values)["service.read_p99_us"] = Percentile(traced.read_us, 0.99);
    (*values)["service.write_ack_p50_us"] = Percentile(traced.write_us, 0.5);
    (*values)["service.write_ack_p99_us"] = Percentile(traced.write_us, 0.99);
    wrong += traced.wrong;
  }

  // Quiesced: every client has joined, so every write is acked or failed.
  // An exact-match query must find each live insert and no deleted one.
  const auto exact_match = [&](uint64_t j) {
    const gist::Rid rid = first_insert_rid + j;
    auto submitted =
        service->SubmitRange(in.held_out[j % in.held_out.size()], 0.0);
    BW_CHECK_MSG(submitted.ok(), submitted.status().ToString());
    const service::QueryService::Response response = submitted->get();
    BW_CHECK_MSG(response.ok(), response.status().ToString());
    return std::any_of(response->neighbors.begin(), response->neighbors.end(),
                       [&](const gist::Neighbor& n) { return n.rid == rid; });
  };
  uint64_t lost = 0, resurrected = 0;
  for (uint64_t j : plan.live()) lost += exact_match(j) ? 0 : 1;
  for (uint64_t j : plan.deleted()) resurrected += exact_match(j) ? 1 : 0;

  // A sample of k-NN answers against brute force over the final live set.
  std::vector<std::pair<const geom::Vec*, gist::Rid>> live;
  for (size_t i = 0; i < in.corpus.size(); ++i) {
    live.emplace_back(&in.corpus[i], i);
  }
  for (uint64_t j : plan.live()) {
    live.emplace_back(&in.held_out[j % in.held_out.size()],
                      first_insert_rid + j);
  }
  uint64_t mismatched = 0;
  const size_t sample = std::min<size_t>(q, 16);
  for (size_t s = 0; s < sample; ++s) {
    const geom::Vec& query = in.queries[s * (q / sample)];
    std::vector<gist::Neighbor> want = BruteForceKnn(live, query, scale.k);
    if (config.corrupt_expected && s == 0) want[0].rid ^= 1;
    auto got = service->Knn(query, scale.k);
    if (!got.ok() || !MatchesBruteForce(got->neighbors, want)) ++mismatched;
  }
  PrintLine("mixed_durable_write: %zu live inserts, %zu deletes checked; "
            "%llu lost, %llu resurrected, %llu of %zu k-NN samples wrong",
            plan.live().size(), plan.deleted().size(),
            static_cast<unsigned long long>(lost),
            static_cast<unsigned long long>(resurrected),
            static_cast<unsigned long long>(mismatched), sample);
  result->correct = wrong == 0 && lost == 0 && resurrected == 0 &&
                    mismatched == 0;
  service->Shutdown();
  service.reset();
  index.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "knn_paper_scale", "knn_wire_router", "mixed_durable_write"};
  return names;
}

InputSpec InputSpecFor(const RunConfig& config) {
  const Scale scale = ScaleOf(config);
  InputSpec spec;
  spec.blobs = scale.blobs;
  spec.queries = scale.queries;
  spec.held_out = scale.held_out;
  spec.seed = config.seed;
  return spec;
}

RunResult RunWorkload(const RunConfig& config, const Inputs& inputs,
                      double gen_s) {
  RunResult result;
  Values values;
  values["bench.gen_s"] = gen_s;
  if (config.workload == "knn_paper_scale") {
    RunPaperScale(config, inputs, &values, &result);
  } else if (config.workload == "knn_wire_router") {
    RunWireRouter(config, inputs, &values, &result);
  } else {
    BW_CHECK_EQ(config.workload, "mixed_durable_write");
    RunMixedDurableWrite(config, inputs, &values, &result);
  }
  Values end_to_end, per_layer;
  for (const auto& [name, value] : values) {
    const bool e2e = std::any_of(kEndToEnd.begin(), kEndToEnd.end(),
                                 [&](auto& d) { return name == d.name; });
    (e2e ? end_to_end : per_layer)[name] = value;
  }
  result.end_to_end = Collect(kEndToEnd, end_to_end, true);
  if (config.trace) result.per_layer = Collect(kPerLayer, per_layer, false);
  return result;
}

}  // namespace bw::perfbench
