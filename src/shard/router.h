// The scatter-gather shard router: a net::Backend that answers k-NN,
// range, and mutation requests over a fleet of STR-partitioned shards,
// each with one or more bit-identical replicas.
//
// k-NN is a budgeted best-first merge (DESIGN.md §12). The router keeps
// a global min-heap whose entries are either an *unfetched* shard keyed
// by its root bound (ShardMap::RootBound — the Euclidean point-to-box
// lower bound on everything the shard stores) or a *fetched* shard
// keyed by the exact distance of its next unmerged result. Popping the
// heap therefore always yields the globally smallest candidate; results
// come out in (distance, rid) order, exactly like a single index's
// KnnSearch (at an equal key an unfetched shard pops first, then the
// smaller rid). A shard fetched after j results were merged is asked
// for at most k - j of its own.
// Shards are fetched lazily: an unfetched shard is only asked when its
// root bound reaches the top of the heap, and the query terminates the
// moment k results exist — every remaining heap key (bound or result)
// is then >= the k-th distance, so unfetched shards are provably
// irrelevant and are counted as pruned, never visited.
//
// Replica failover (the state machine in DESIGN.md §12): a shard's
// answer is fetched whole from one replica. A replica that fails a
// probe or a fetch is marked kDead, and the query fetches the shard's
// whole answer again from the next live replica, so the results a
// shard contributes are always one replica's answer. kDead replicas
// return via a successful health probe. A replica that fails a
// mutation which another replica of the same shard acked is marked
// kStale instead: its contents have diverged (it lacks an acked
// write). The catch-up driver (CatchupNow / the catchup_interval
// thread) cures kStale without an operator: it streams the missed WAL suffix from a
// healthy sibling (or a full-store snapshot when the suffix was
// retired past a checkpoint), verifies bit-identity with a
// checksum-over-tree handshake, and only then flips the replica
// kStale -> kCatchingUp -> kHealthy, back into rotation. See
// DESIGN.md §13.
//
// When every replica of a shard is dead the shard itself is dead for
// this query. RouterOptions::fault_budget says how many dead shards a
// query tolerates: within budget the query completes with
// Completeness::kDegraded (every returned neighbor genuine, some may be
// missing — the same contract as the storage tier's degraded reads);
// beyond it the query fails kUnavailable. Per-shard degraded
// accounting (pages_skipped, degraded, truncated) is summed into the
// merged response's metrics.

#ifndef BLOBWORLD_SHARD_ROUTER_H_
#define BLOBWORLD_SHARD_ROUTER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/backend.h"
#include "shard/partitioner.h"
#include "shard/shard_backend.h"
#include "shard/tail_tolerance.h"
#include "util/histogram.h"
#include "util/random.h"

namespace bw::shard {

struct RouterOptions {
  /// Dead shards one query may tolerate before failing kUnavailable.
  /// 0 is fail-closed: the first shard with no live replica fails the
  /// query (mirrors ServiceOptions::fault_budget's default).
  size_t fault_budget = 0;
  /// Background health-probe period; zero disables the probe thread
  /// (tests drive ProbeNow() by hand instead).
  std::chrono::milliseconds probe_interval{0};
  /// After consecutive probe failures a replica's next probes are
  /// skipped for 1, 2, 4, ... sweeps (capped here, jittered by ±1): a
  /// down replica stops eating a probe per sweep, and a fleet of
  /// routers doesn't stampede it the instant it restarts.
  uint32_t probe_backoff_max = 8;
  /// Background catch-up period for kStale replicas; zero disables the
  /// thread (tests and bwadmin drive CatchupNow() by hand).
  std::chrono::milliseconds catchup_interval{0};
  /// WAL-shipping transfer shape per catch-up round.
  size_t catchup_max_batches = 64;
  size_t catchup_max_bytes = 1u << 20;
  /// Bound on rounds one CatchupNow pass spends per replica before
  /// giving up (a replica that cannot converge — e.g. under continuous
  /// writes — goes back to kStale and is retried next pass).
  size_t catchup_max_rounds = 64;
  /// Seed for probe-backoff and hedge-delay jitter (deterministic
  /// tests pin it; each jitter consumer draws from its own
  /// JitterStream derived from this seed).
  uint64_t jitter_seed = 0x9e3779b97f4a7c15ull;

  // --- Tail tolerance (DESIGN.md §15) ------------------------------------

  /// Hedged replica reads: when a replica's fetch has stalled past its
  /// hedge delay — that backend's recent latency quantile, clamped to
  /// [floor, cap] — a sibling replica's whole fetch races it and the
  /// first answer wins; the loser's answer is dropped when it arrives.
  /// Only engages when a shard has >= 2 replicas.
  bool hedge = true;
  double hedge_quantile = 0.99;
  uint64_t hedge_delay_floor_us = 1'000;
  uint64_t hedge_delay_cap_us = 200'000;
  /// Hedge delay used until a backend has recorded enough samples for
  /// its quantile to mean anything.
  uint64_t hedge_delay_fallback_us = 50'000;

  /// Per-backend circuit breakers (advisory: they reorder replica
  /// preference, never manufacture unavailability — see
  /// tail_tolerance.h).
  BreakerOptions breaker;

  /// Smallest per-attempt deadline slice worth sending. When a query's
  /// remaining deadline budget drops below this, the router stops
  /// re-scattering (the shard degrades under the fault budget) rather
  /// than burn time on an attempt that cannot finish.
  uint64_t budget_floor_us = 500;
};

/// Replica lifecycle (see the failover state machine above).
enum class ReplicaState : uint8_t {
  kHealthy,     // serving; preferred in replica order.
  kDead,        // failed a probe or fetch; probe can resurrect it.
  kStale,       // diverged on a write; waiting for WAL catch-up.
  kCatchingUp,  // catch-up driver is streaming the missed suffix.
};

/// Router counters, all lifetime totals.
struct RouterStats {
  uint64_t queries = 0;          // k-NN + range fan-outs executed.
  uint64_t shards_visited = 0;   // shard answers fetched.
  uint64_t shards_pruned = 0;    // shards never fetched (bound beat k-th).
  uint64_t failovers = 0;        // failed replica fetches moved past.
  uint64_t degraded_queries = 0; // completed under the fault budget.
  uint64_t probes = 0;           // individual replica probes issued.
  uint64_t mutations = 0;        // inserts + removes routed.
  uint64_t catchups = 0;         // replicas readmitted kHealthy.
  uint64_t wal_batches_shipped = 0;   // batches applied to targets.
  uint64_t snapshots_shipped = 0;     // full-store transfers completed.
  uint64_t hedges_attempted = 0;      // sibling fetches raced.
  uint64_t hedges_won = 0;            // races the sibling answered first.
  uint64_t breaker_opens = 0;         // kClosed/kHalfOpen -> kOpen trips.
  uint64_t breaker_half_opens = 0;    // cooldown trials admitted.
  uint64_t breaker_closes = 0;        // trials that re-closed a breaker.
  uint64_t budget_exhausted = 0;      // re-scatters abandoned for time.
};

class Router : public net::Backend {
 public:
  /// One shard: its replicas in preference order (all bit-identical).
  struct Shard {
    std::vector<std::unique_ptr<ShardBackend>> replicas;
  };

  Router(ShardMap map, std::vector<Shard> shards, RouterOptions options);
  ~Router() override;

  // --- net::Backend ------------------------------------------------------

  size_t dim() const override { return map_.dim(); }
  uint32_t features() const override {
    return net::kFeatureStreaming | net::kFeatureWrites | net::kFeatureRouter;
  }
  std::string peer_name() const override { return "bwrouter"; }

  /// Scatter-gather best-first k-NN (the merge described above).
  Result<service::QueryResponse> Knn(
      const geom::Vec& query, const service::StreamOptions& stream) override;

  /// Consistent-range fan-out to every shard whose root bound is within
  /// the radius, each fetched as the radius answer with no count limit;
  /// merged results sorted by (distance, rid).
  Result<service::QueryResponse> Range(const geom::Vec& query, double radius,
                                       uint32_t deadline_us) override;

  /// Routed to every live replica of OwnerOf(point); the owning shard's
  /// box is enlarged afterward so RootBound stays admissible.
  Result<service::MutationOutcome> Insert(const geom::Vec& point,
                                          uint64_t rid) override;
  /// Broadcast to all shards (boxes overlap after enlargement, so the
  /// pair's home cannot be inferred from the map alone); succeeds if
  /// any shard held the pair.
  Result<service::MutationOutcome> Remove(const geom::Vec& point,
                                          uint64_t rid) override;

  std::vector<std::pair<std::string, double>> StatsFields() const override;
  net::HealthReply Health() const override;

  // --- Fleet introspection / control -------------------------------------

  size_t num_shards() const { return shards_.size(); }
  RouterStats stats() const;
  ReplicaState replica_state(size_t shard, size_t replica) const;
  BreakerState breaker_state(size_t shard, size_t replica) const;

  /// One synchronous probe sweep over every non-stale replica: dead
  /// replicas that answer come back kHealthy, healthy ones that fail
  /// go kDead. Replicas amid catch-up are skipped (the driver owns
  /// them), and repeatedly failing replicas are probed with jittered
  /// exponential backoff (RouterOptions::probe_backoff_max). The probe
  /// thread calls exactly this.
  void ProbeNow();

  /// One synchronous catch-up sweep: every kStale replica with a
  /// healthy sibling is streamed the WAL suffix (or a snapshot) it
  /// missed, checksum-verified, and readmitted kHealthy. Returns the
  /// number of replicas readmitted. The catchup_interval thread calls
  /// exactly this; bwadmin's `catchup` drives it remotely via probes +
  /// this loop on the router process.
  size_t CatchupNow();

 private:
  struct FetchRace;  // shared state of one hedged fetch (router.cc).

  /// Steady clock in microseconds (the time base every tail-tolerance
  /// decision uses).
  static uint64_t NowUs();

  /// Every shard's root bound for `query`, taken once under the shared
  /// side of the map lock.
  std::vector<double> RootBounds(const geom::Vec& query) const;

  /// One shard's whole answer from its first replica that gives one.
  /// Healthy replicas go in preference order; a first pass skips those
  /// whose breaker is open and a last-resort pass asks them, so a
  /// breaker never manufactures unavailability. Before every attempt
  /// the deadline budget is checked and sliced. A failed fetch counts
  /// a failover and moves on to the next replica. nullopt when no
  /// replica answered or the budget ran out.
  std::optional<service::QueryResponse> FetchShard(
      size_t shard, const geom::Vec& query,
      const service::StreamOptions& limits, const DeadlineBudget& budget);
  /// One attempt on `replica`. With hedging, its fetch runs on the
  /// hedge executor; once it has stalled past the backend's hedge
  /// delay, a sibling's whole fetch races it and the first answer
  /// wins. An error means every raced fetch failed.
  Result<service::QueryResponse> HedgedFetch(
      size_t shard, size_t replica, const geom::Vec& query,
      const service::StreamOptions& limits, const DeadlineBudget& budget);
  /// One replica's whole answer: its frontier opened, drained and
  /// finished on the calling thread. Records one breaker sample and
  /// marks the replica kDead on failure.
  Result<service::QueryResponse> Fetch(size_t shard, size_t replica,
                                       const geom::Vec& query,
                                       const service::StreamOptions& limits);
  /// Adds one finished fan-out to the query counters and latency.
  void RecordQuery(const service::QueryResponse& response, size_t visited,
                   size_t pruned, uint64_t start_us);

  void SetReplicaState(size_t shard, size_t replica, ReplicaState state);
  ReplicaState GetReplicaState(size_t shard, size_t replica) const;
  /// Compare-and-set under state_mutex_; the only way a replica leaves
  /// kStale/kCatchingUp (so a concurrent missed-write demotion to
  /// kStale is never overwritten by a stale readmission).
  bool TransitionReplica(size_t shard, size_t replica, ReplicaState from,
                         ReplicaState to);

  /// Drives one replica kStale -> kCatchingUp -> kHealthy against the
  /// first healthy sibling; returns false (replica back to kStale) when
  /// no source exists, the rounds budget runs out, or verification
  /// keeps failing.
  bool CatchupReplica(size_t shard, size_t replica);
  /// Full-store transfer: streams every page of `source` into `target`
  /// chunk by chunk, restarting (bounded) when the source commits
  /// mid-transfer.
  Status ShipSnapshot(ShardBackend* source, ShardBackend* target);
  /// Checksum-over-tree handshake: OK iff both ends answer and agree
  /// on (tag, page_count, crc).
  Status VerifyBitIdentity(ShardBackend* source, ShardBackend* target);

  void ProbeLoop();
  void CatchupLoop();

  /// Hedge executor: a grow-on-demand worker pool the hedged fetches
  /// run on (a fetch blocked in a browned-out backend must not pin the
  /// dispatch thread, or the hedge could never start). Joined before
  /// the backends are destroyed.
  void PostHedgeTask(std::function<void()> task);
  void HedgeWorker();
  void StopHedgeExecutor();

  ShardMap map_;
  std::vector<Shard> shards_;
  RouterOptions options_;

  /// Guards map_ bounds: queries snapshot root bounds under the shared
  /// side; EnlargeForInsert takes the exclusive side.
  mutable std::shared_mutex map_mutex_;

  /// Guards states_ (coarse: reads are per-open/per-probe, not per-row).
  mutable std::mutex state_mutex_;
  std::vector<std::vector<ReplicaState>> states_;
  /// Probe backoff bookkeeping, guarded by state_mutex_: consecutive
  /// failures and sweeps left to skip, per replica.
  std::vector<std::vector<uint32_t>> probe_failures_;
  std::vector<std::vector<uint32_t>> probe_skip_;
  /// Per-component jitter streams, both derived from options_.
  /// jitter_seed with distinct salts (see JitterStream).
  JitterStream probe_jitter_;
  JitterStream hedge_jitter_;

  /// One breaker (with its latency tracker) per replica; immutable
  /// layout after construction, internally synchronized.
  std::vector<std::vector<std::unique_ptr<CircuitBreaker>>> breakers_;

  /// Router-level query latency (merged k-NN / range fan-outs).
  LatencyHistogram query_latency_;

  /// One mutex per shard, serializing routed mutations against that
  /// shard: every replica applies writes in the same admission order,
  /// which is what keeps replicas bit-identical under concurrency (and
  /// what the catch-up checksum handshake verifies).
  std::vector<std::unique_ptr<std::mutex>> write_locks_;

  std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> shards_visited_{0};
  std::atomic<uint64_t> shards_pruned_{0};
  std::atomic<uint64_t> failovers_{0};
  std::atomic<uint64_t> degraded_queries_{0};
  std::atomic<uint64_t> probes_{0};
  std::atomic<uint64_t> mutations_{0};
  std::atomic<uint64_t> catchups_{0};
  std::atomic<uint64_t> wal_batches_shipped_{0};
  std::atomic<uint64_t> snapshots_shipped_{0};
  std::atomic<uint64_t> hedges_attempted_{0};
  std::atomic<uint64_t> hedges_won_{0};
  std::atomic<uint64_t> budget_exhausted_{0};

  /// Hedge executor state (see PostHedgeTask).
  std::mutex hedge_mutex_;
  std::condition_variable hedge_cv_;
  std::deque<std::function<void()>> hedge_tasks_;
  std::vector<std::thread> hedge_threads_;
  size_t hedge_idle_ = 0;
  bool hedge_stop_ = false;

  std::mutex probe_mutex_;
  std::condition_variable probe_cv_;
  bool probe_stop_ = false;
  std::thread probe_thread_;
  std::thread catchup_thread_;

  std::chrono::steady_clock::time_point start_time_;
};

}  // namespace bw::shard

#endif  // BLOBWORLD_SHARD_ROUTER_H_
