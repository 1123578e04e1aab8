// bwchaos: bw::net::ChaosProxy as a standalone binary, for parking a
// deterministic fault injector between any wire-protocol client and
// server from a shell script (the CI chaos-net stage does exactly
// this). No root, tc, or iptables needed:
//
//   bwserver --port 4830 ... &
//   bwchaos --listen_port 4840 --target 127.0.0.1:4830
//           --seed 42 --delay_prob 0.2 --delay_ms 10
//           --drop_frame_prob 0.02 --blackhole_prob 0.01 &
//   net_smoke --port 4840        # every byte now crosses the chaos
//
// The fault schedule is a pure function of --seed and the connection
// order, so a failing run replays bit-identically. Counters print at
// shutdown (SIGINT/SIGTERM).

#include <csignal>
#include <cstdio>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "net/chaos_proxy.h"
#include "util/flags.h"

namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true); }

}  // namespace

int main(int argc, char** argv) {
  bw::Flags flags;
  int64_t* listen_port =
      flags.AddInt64("listen_port", 4840, "proxy port (0 = ephemeral)");
  std::string* target = flags.AddString(
      "target", "127.0.0.1:4830", "host:port the proxy relays to");
  int64_t* seed =
      flags.AddInt64("seed", 0, "fault-schedule seed (deterministic)");
  double* delay_prob = flags.AddDouble(
      "delay_prob", 0.0, "per-read probability of added latency");
  int64_t* delay_ms =
      flags.AddInt64("delay_ms", 20, "latency added per delayed read");
  double* drop_frame_prob = flags.AddDouble(
      "drop_frame_prob", 0.0,
      "per-read probability of truncate-then-close (a cut frame)");
  double* reset_prob = flags.AddDouble(
      "reset_prob", 0.0, "per-connection probability of reset at accept");
  double* blackhole_prob = flags.AddDouble(
      "blackhole_prob", 0.0,
      "per-read probability a direction goes silent (one-way partition)");
  int64_t* max_connections =
      flags.AddInt64("max_connections", 256, "accept cap");
  int64_t* brownout_start_ms = flags.AddInt64(
      "brownout_start_ms", 0,
      "brownout window start, relative to proxy start");
  int64_t* brownout_duration_ms = flags.AddInt64(
      "brownout_duration_ms", 0,
      "brownout window length (0 = no brownout)");
  int64_t* brownout_delay_ms = flags.AddInt64(
      "brownout_delay_ms", 200,
      "base latency spike per browned-out read (+ up to 25% seeded jitter)");
  int64_t* brownout_trickle_bytes = flags.AddInt64(
      "brownout_trickle_bytes", 0,
      "trickle browned-out reads in chunks of this size (0 = one spike)");
  bw::Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    return parsed.code() == bw::StatusCode::kNotFound ? 0 : 2;
  }

  const size_t colon = target->rfind(':');
  const int target_port =
      colon == std::string::npos ? 0 : std::atoi(target->c_str() + colon + 1);
  if (colon == std::string::npos || target_port <= 0 || target_port >= 65536) {
    std::fprintf(stderr, "bwchaos: --target wants host:port, got '%s'\n",
                 target->c_str());
    return 2;
  }

  bw::net::ChaosOptions options;
  options.seed = static_cast<uint64_t>(*seed);
  options.delay_prob = *delay_prob;
  options.delay_ms = static_cast<uint32_t>(*delay_ms);
  options.drop_frame_prob = *drop_frame_prob;
  options.reset_prob = *reset_prob;
  options.blackhole_prob = *blackhole_prob;
  options.max_connections = static_cast<size_t>(*max_connections);
  options.brownout_start_ms = static_cast<uint64_t>(*brownout_start_ms);
  options.brownout_duration_ms = static_cast<uint64_t>(*brownout_duration_ms);
  options.brownout_delay_ms = static_cast<uint32_t>(*brownout_delay_ms);
  options.brownout_trickle_bytes =
      static_cast<size_t>(*brownout_trickle_bytes);

  bw::net::ChaosProxy proxy;
  bw::Status started =
      proxy.Start(static_cast<uint16_t>(*listen_port), target->substr(0, colon),
                  static_cast<uint16_t>(target_port), options);
  if (!started.ok()) {
    std::fprintf(stderr, "bwchaos: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("bwchaos relaying 127.0.0.1:%u -> %s "
              "(seed %llu, delay %.3f/%ums, drop %.3f, reset %.3f, "
              "blackhole %.3f)\n",
              proxy.port(), target->c_str(), (unsigned long long)*seed,
              *delay_prob, (unsigned)*delay_ms, *drop_frame_prob, *reset_prob,
              *blackhole_prob);
  if (*brownout_duration_ms > 0) {
    std::printf("bwchaos brownout: [%lld, %lld) ms, +%lldms per read, "
                "trickle %lld bytes\n",
                (long long)*brownout_start_ms,
                (long long)(*brownout_start_ms + *brownout_duration_ms),
                (long long)*brownout_delay_ms,
                (long long)*brownout_trickle_bytes);
  }
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  proxy.Stop();
  const bw::net::ChaosStats s = proxy.stats();
  std::printf("bwchaos: %llu connections, %llu resets, %llu delays, "
              "%llu truncations, %llu blackholes, %llu brownout reads, "
              "%llu bytes relayed\n",
              (unsigned long long)s.connections, (unsigned long long)s.resets,
              (unsigned long long)s.delays, (unsigned long long)s.truncations,
              (unsigned long long)s.blackholes,
              (unsigned long long)s.brownout_reads,
              (unsigned long long)s.bytes_relayed);
  return 0;
}
