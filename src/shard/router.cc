#include "shard/router.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <optional>
#include <queue>
#include <utility>

namespace bw::shard {

/// One shard's in-flight state during a scatter-gather query.
struct Router::OpenShard {
  size_t shard = 0;
  size_t replica = 0;  // replica currently serving the stream.
  /// What this shard is asked for: the query's limits, with the count
  /// cut to what the merge can still use when the shard opened. Every
  /// re-open and hedge asks for the same, so the count skip holds.
  service::StreamOptions limits;
  std::unique_ptr<ShardFrontier> frontier;
  /// Results successfully pulled so far — the count-based skip a
  /// failover replays on the successor replica (replicas are
  /// bit-identical, so result N here is result N there).
  size_t consumed = 0;
  gist::Neighbor head{};  // pulled but not yet emitted.
  // Folded at stream close:
  bool degraded = false;
  bool truncated = false;
  uint64_t pages_skipped = 0;
};

Router::Router(ShardMap map, std::vector<Shard> shards, RouterOptions options)
    : map_(std::move(map)),
      shards_(std::move(shards)),
      options_(options),
      start_time_(std::chrono::steady_clock::now()) {
  states_.resize(shards_.size());
  probe_failures_.resize(shards_.size());
  probe_skip_.resize(shards_.size());
  write_locks_.reserve(shards_.size());
  breakers_.resize(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    states_[s].assign(shards_[s].replicas.size(), ReplicaState::kHealthy);
    probe_failures_[s].assign(shards_[s].replicas.size(), 0);
    probe_skip_[s].assign(shards_[s].replicas.size(), 0);
    write_locks_.push_back(std::make_unique<std::mutex>());
    for (size_t r = 0; r < shards_[s].replicas.size(); ++r) {
      breakers_[s].push_back(
          std::make_unique<CircuitBreaker>(options_.breaker));
    }
  }
  probe_jitter_.Reseed(options_.jitter_seed);
  // A distinct salt so probe and hedge schedules decorrelate even
  // though both pin to the same policy seed.
  hedge_jitter_.Reseed(options_.jitter_seed ^ 0x6865646765ull);
  if (options_.probe_interval.count() > 0) {
    probe_thread_ = std::thread([this] { ProbeLoop(); });
  }
  if (options_.catchup_interval.count() > 0) {
    catchup_thread_ = std::thread([this] { CatchupLoop(); });
  }
}

Router::~Router() {
  {
    std::lock_guard<std::mutex> lock(probe_mutex_);
    probe_stop_ = true;
  }
  probe_cv_.notify_all();
  if (probe_thread_.joinable()) probe_thread_.join();
  if (catchup_thread_.joinable()) catchup_thread_.join();
  // Joined after the query surface quiesced but before the backends
  // (members) are destroyed: an abandoned hedge loser may still be
  // blocked in a backend pull.
  StopHedgeExecutor();
}

uint64_t Router::NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// Hedge executor: grow-on-demand workers for pulls that must not pin
// the caller's thread. Threads are created only when every existing
// worker is busy (so an unhedged fleet never pays for one) and live
// until the router does.
// ---------------------------------------------------------------------------

namespace {
constexpr size_t kMaxHedgeThreads = 32;
}  // namespace

void Router::PostHedgeTask(std::function<void()> task) {
  std::lock_guard<std::mutex> lock(hedge_mutex_);
  hedge_tasks_.push_back(std::move(task));
  if (hedge_idle_ == 0 && hedge_threads_.size() < kMaxHedgeThreads) {
    hedge_threads_.emplace_back([this] { HedgeWorker(); });
  }
  hedge_cv_.notify_one();
}

void Router::HedgeWorker() {
  std::unique_lock<std::mutex> lock(hedge_mutex_);
  for (;;) {
    ++hedge_idle_;
    hedge_cv_.wait(lock,
                   [this] { return hedge_stop_ || !hedge_tasks_.empty(); });
    --hedge_idle_;
    if (hedge_tasks_.empty()) {
      if (hedge_stop_) return;
      continue;
    }
    std::function<void()> task = std::move(hedge_tasks_.front());
    hedge_tasks_.pop_front();
    lock.unlock();
    task();
    lock.lock();
  }
}

void Router::StopHedgeExecutor() {
  {
    std::lock_guard<std::mutex> lock(hedge_mutex_);
    hedge_stop_ = true;
  }
  hedge_cv_.notify_all();
  for (std::thread& t : hedge_threads_) {
    if (t.joinable()) t.join();
  }
  hedge_threads_.clear();
}

void Router::SetReplicaState(size_t shard, size_t replica,
                             ReplicaState state) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  ReplicaState& current = states_[shard][replica];
  switch (state) {
    case ReplicaState::kStale:
      // Divergence dominates everything, including an in-flight
      // catch-up (whose readmission CAS will then fail and retry).
      current = ReplicaState::kStale;
      return;
    case ReplicaState::kDead:
    case ReplicaState::kHealthy:
      // Probes and failovers never clobber divergence bookkeeping:
      // only the catch-up driver's CAS moves a replica out of
      // kStale / kCatchingUp.
      if (current == ReplicaState::kStale ||
          current == ReplicaState::kCatchingUp) {
        return;
      }
      current = state;
      return;
    case ReplicaState::kCatchingUp:
      // Entered exclusively via TransitionReplica's CAS.
      return;
  }
}

bool Router::TransitionReplica(size_t shard, size_t replica,
                               ReplicaState from, ReplicaState to) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  if (states_[shard][replica] != from) return false;
  states_[shard][replica] = to;
  return true;
}

ReplicaState Router::GetReplicaState(size_t shard, size_t replica) const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return states_[shard][replica];
}

ReplicaState Router::replica_state(size_t shard, size_t replica) const {
  return GetReplicaState(shard, replica);
}

BreakerState Router::breaker_state(size_t shard, size_t replica) const {
  return breakers_[shard][replica]->state();
}

// ---------------------------------------------------------------------------
// Frontier lifecycle with failover
// ---------------------------------------------------------------------------

std::unique_ptr<ShardFrontier> Router::OpenOnReplica(
    size_t shard, size_t replica, size_t consumed, const geom::Vec& query,
    const service::StreamOptions& limits, const DeadlineBudget& budget,
    size_t attempts_left) {
  // Split the remaining deadline across the attempts that could still
  // run instead of re-sending the client's full deadline per attempt
  // (DESIGN.md §15's budget arithmetic). An unlimited budget slices to
  // 0 = no deadline, the pre-budget behavior.
  service::StreamOptions sliced = limits;
  sliced.deadline_us = static_cast<double>(
      budget.SliceUs(NowUs(), attempts_left, options_.budget_floor_us));
  CircuitBreaker* breaker = breakers_[shard][replica].get();
  const uint64_t t0 = NowUs();
  Result<std::unique_ptr<ShardFrontier>> frontier =
      shards_[shard].replicas[replica]->OpenFrontier(query, sliced);
  if (!frontier.ok()) {
    breaker->OnResult(false, NowUs() - t0, NowUs());
    SetReplicaState(shard, replica, ReplicaState::kDead);
    return nullptr;
  }
  // Replay the skip: drop the results this query already consumed.
  for (size_t i = 0; i < consumed; ++i) {
    Result<std::optional<gist::Neighbor>> n = (*frontier)->Next();
    if (!n.ok()) {
      breaker->OnResult(false, NowUs() - t0, NowUs());
      SetReplicaState(shard, replica, ReplicaState::kDead);
      return nullptr;
    }
    if (!n->has_value()) break;  // shorter (degraded) replica: let the
                                 // caller observe the exhaustion.
  }
  breaker->OnResult(true, NowUs() - t0, NowUs());
  return std::move(*frontier);
}

bool Router::AcquireFrontier(OpenShard* open, const geom::Vec& query,
                             const DeadlineBudget& budget) {
  if (budget.Exhausted(NowUs(), options_.budget_floor_us)) {
    budget_exhausted_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const size_t replica_count = shards_[open->shard].replicas.size();
  // Pass 0 respects breakers; pass 1 retries the replicas pass 0
  // skipped for an open breaker — a breaker is advice about *ordering*,
  // and when the breaker-open replica is the last one standing, asking
  // it is strictly better than failing the shard.
  std::vector<size_t> deferred;
  for (size_t r = 0; r < replica_count; ++r) {
    if (GetReplicaState(open->shard, r) != ReplicaState::kHealthy) continue;
    if (!breakers_[open->shard][r]->Allow(NowUs())) {
      deferred.push_back(r);
      continue;
    }
    std::unique_ptr<ShardFrontier> frontier =
        OpenOnReplica(open->shard, r, open->consumed, query, open->limits,
                      budget, replica_count - r);
    if (frontier == nullptr) continue;
    open->frontier = std::move(frontier);
    open->replica = r;
    return true;
  }
  for (size_t i = 0; i < deferred.size(); ++i) {
    const size_t r = deferred[i];
    if (GetReplicaState(open->shard, r) != ReplicaState::kHealthy) continue;
    std::unique_ptr<ShardFrontier> frontier =
        OpenOnReplica(open->shard, r, open->consumed, query, open->limits,
                      budget, deferred.size() - i);
    if (frontier == nullptr) continue;
    open->frontier = std::move(frontier);
    open->replica = r;
    return true;
  }
  return false;
}

bool Router::CloseStream(OpenShard* open) {
  if (open->frontier == nullptr) return true;
  Status verdict = open->frontier->Finish();
  if (verdict.ok()) {
    open->degraded |= open->frontier->degraded();
    open->truncated |= open->frontier->truncated();
    open->pages_skipped += open->frontier->pages_skipped();
  }
  open->frontier.reset();
  return verdict.ok();
}

/// Shared state of one primary-vs-sibling hedge race. The primary's
/// pull runs on the hedge executor and publishes here; the caller
/// either takes the result (reinstalling the frontier) or abandons the
/// race after a hedge win. The frontier lives in the race so the last
/// shared_ptr holder destroys it: for an abandoned remote frontier
/// that closes the connection mid-stream — the cancellation.
struct Router::HedgeRace {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::optional<Result<std::optional<gist::Neighbor>>> result;
  std::unique_ptr<ShardFrontier> frontier;
};

Result<std::optional<gist::Neighbor>> Router::HedgedNext(
    OpenShard* open, const geom::Vec& query, const DeadlineBudget& budget) {
  const size_t shard = open->shard;
  CircuitBreaker* breaker = breakers_[shard][open->replica].get();
  if (!options_.hedge || shards_[shard].replicas.size() < 2) {
    const uint64_t t0 = NowUs();
    Result<std::optional<gist::Neighbor>> next = open->frontier->Next();
    breaker->OnResult(next.ok(), NowUs() - t0, NowUs());
    return next;
  }

  auto race = std::make_shared<HedgeRace>();
  race->frontier = std::move(open->frontier);
  PostHedgeTask([race, breaker] {
    const uint64_t t0 = NowUs();
    Result<std::optional<gist::Neighbor>> next = race->frontier->Next();
    const uint64_t now = NowUs();
    breaker->OnResult(next.ok(), now - t0, now);
    std::lock_guard<std::mutex> lock(race->mu);
    race->result.emplace(std::move(next));
    race->done = true;
    race->cv.notify_all();
  });

  // The hedge delay is the serving backend's own recent latency
  // quantile (clamped), plus up to +25% jitter so a fleet's hedges
  // against one browning server don't fire in lockstep.
  uint64_t delay_us = breaker->HedgeDelayUs(
      options_.hedge_quantile, options_.hedge_delay_floor_us,
      options_.hedge_delay_cap_us, options_.hedge_delay_fallback_us);
  delay_us += hedge_jitter_.NextBelow(delay_us / 4 + 1);

  std::unique_lock<std::mutex> lock(race->mu);
  if (race->cv.wait_for(lock, std::chrono::microseconds(delay_us),
                        [&] { return race->done; })) {
    open->frontier = std::move(race->frontier);
    return std::move(*race->result);
  }
  lock.unlock();

  // The primary is stalling: race a sibling, if time and breakers
  // permit. The sibling opens the same stream and count-skips to the
  // same position — sound because replicas are bit-identical, so its
  // next result is byte-for-byte the one the primary owes us.
  if (!budget.Exhausted(NowUs(), options_.budget_floor_us)) {
    for (size_t r = 0; r < shards_[shard].replicas.size(); ++r) {
      if (r == open->replica) continue;
      if (GetReplicaState(shard, r) != ReplicaState::kHealthy) continue;
      if (!breakers_[shard][r]->Allow(NowUs())) continue;
      hedges_attempted_.fetch_add(1, std::memory_order_relaxed);
      std::unique_ptr<ShardFrontier> sibling =
          OpenOnReplica(shard, r, open->consumed, query, open->limits, budget,
                        1);
      if (sibling == nullptr) continue;  // marked dead; try another.
      const uint64_t t0 = NowUs();
      Result<std::optional<gist::Neighbor>> hedged = sibling->Next();
      breakers_[shard][r]->OnResult(hedged.ok(), NowUs() - t0, NowUs());
      if (hedged.ok()) {
        bool primary_had_finished;
        {
          std::lock_guard<std::mutex> inner(race->mu);
          primary_had_finished = race->done;
        }
        if (!primary_had_finished) {
          hedges_won_.fetch_add(1, std::memory_order_relaxed);
        }
        // The sibling takes over the stream; the abandoned primary is
        // cancelled when its in-flight pull returns and the race state
        // (sole owner of its frontier) is destroyed.
        open->frontier = std::move(sibling);
        open->replica = r;
        return hedged;
      }
      SetReplicaState(shard, r, ReplicaState::kDead);
    }
  }

  // No sibling could take over: wait the primary out after all.
  lock.lock();
  race->cv.wait(lock, [&] { return race->done; });
  open->frontier = std::move(race->frontier);
  return std::move(*race->result);
}

bool Router::PullNext(OpenShard* open, const geom::Vec& query,
                      const DeadlineBudget& budget,
                      std::optional<gist::Neighbor>* out) {
  while (true) {
    if (open->frontier == nullptr) {
      if (!AcquireFrontier(open, query, budget)) return false;
    }
    Result<std::optional<gist::Neighbor>> next =
        HedgedNext(open, query, budget);
    if (next.ok()) {
      if (next->has_value()) {
        ++open->consumed;
        *out = **next;
        return true;
      }
      if (CloseStream(open)) {
        out->reset();
        return true;
      }
      // The terminal verdict was an error (shed, quota, transport):
      // this replica failed the query even though the stream "ended".
    }
    SetReplicaState(open->shard, open->replica, ReplicaState::kDead);
    open->frontier.reset();
    if (!AcquireFrontier(open, query, budget)) return false;
    failovers_.fetch_add(1, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// Scatter-gather k-NN
// ---------------------------------------------------------------------------

Result<service::QueryResponse> Router::Knn(
    const geom::Vec& query, const service::StreamOptions& stream) {
  queries_.fetch_add(1, std::memory_order_relaxed);
  const size_t k = stream.max_results;
  const uint64_t query_start_us = NowUs();
  // The query's remaining-time ledger: every open/retry/hedge below
  // draws a slice from it instead of re-sending the client's full
  // deadline (DESIGN.md §15).
  const DeadlineBudget budget(stream.deadline_us, query_start_us);

  // Snapshot every shard's root bound once, under the shared side of
  // the map lock: concurrent inserts may enlarge boxes mid-query, but a
  // bound taken now is still admissible for everything the shard held
  // when its frontier opens (boxes only grow).
  std::vector<double> bound(shards_.size());
  {
    std::shared_lock<std::shared_mutex> lock(map_mutex_);
    for (size_t s = 0; s < shards_.size(); ++s) {
      bound[s] = map_.RootBound(s, query);
    }
  }

  // Global merge heap. Unopened shards are keyed by their root bound (a
  // lower bound on anything they can stream); open shards by their
  // head's exact distance. The top is therefore always <= every result
  // any shard can still produce. Shards stream in (distance, rid) order
  // (gist::NeighborLess), and so does the merge: at an equal key an
  // unopened shard goes first, since it may hold a point at that
  // distance with a smaller rid; then the head with the smaller rid;
  // unopened shards among themselves by shard index.
  struct HeapEntry {
    double key;
    size_t shard;
    bool opened;
    gist::Rid rid;  // the head's rid, when opened.
  };
  struct HeapGreater {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.key != b.key) return a.key > b.key;
      if (a.opened != b.opened) return a.opened;
      return a.opened ? a.rid > b.rid : a.shard > b.shard;
    }
  };
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapGreater> heap;
  for (size_t s = 0; s < shards_.size(); ++s) {
    // An infinite bound means an empty shard: nothing to fetch, ever.
    if (bound[s] < std::numeric_limits<double>::infinity()) {
      heap.push(HeapEntry{bound[s], s, false, 0});
    }
  }

  std::vector<std::unique_ptr<OpenShard>> open(shards_.size());
  service::QueryResponse response;
  size_t dead_shards = 0;
  bool fleet_degraded = false;
  size_t visited = 0;

  // A shard with no live replica left: charge the fault budget (the
  // response becomes a flagged, genuine subset) or fail the query.
  auto shard_died = [&](size_t s) -> Status {
    ++dead_shards;
    if (dead_shards > options_.fault_budget) {
      return Status::Unavailable(
          "shard " + std::to_string(s) +
          " has no live replica and the fault budget (" +
          std::to_string(options_.fault_budget) + ") is exhausted");
    }
    fleet_degraded = true;
    return Status::OK();
  };

  while (!heap.empty()) {
    const HeapEntry top = heap.top();
    // Termination: results are emitted in non-decreasing order, so once
    // k exist, every remaining heap key — root bounds of shards never
    // opened included — is >= the k-th distance. Those shards are
    // provably irrelevant; they are counted pruned below.
    if (k > 0 && response.neighbors.size() >= k) break;
    if (top.key > stream.budget_radius) break;
    heap.pop();

    if (!top.opened) {
      auto os = std::make_unique<OpenShard>();
      os->shard = top.shard;
      // After j merged results the merge can use at most k - j more.
      os->limits = stream;
      if (k > 0) os->limits.max_results = k - response.neighbors.size();
      if (!AcquireFrontier(os.get(), query, budget)) {
        BW_RETURN_IF_ERROR(shard_died(top.shard));
        continue;
      }
      ++visited;
      std::optional<gist::Neighbor> head;
      if (!PullNext(os.get(), query, budget, &head)) {
        open[top.shard] = std::move(os);  // keep accounting folded so far.
        BW_RETURN_IF_ERROR(shard_died(top.shard));
        continue;
      }
      if (head.has_value()) {
        os->head = *head;
        heap.push(HeapEntry{head->distance, top.shard, true, head->rid});
      }
      open[top.shard] = std::move(os);
    } else {
      OpenShard* os = open[top.shard].get();
      response.neighbors.push_back(os->head);
      std::optional<gist::Neighbor> head;
      if (!PullNext(os, query, budget, &head)) {
        BW_RETURN_IF_ERROR(shard_died(top.shard));
        continue;
      }
      if (head.has_value()) {
        os->head = *head;
        heap.push(HeapEntry{head->distance, top.shard, true, head->rid});
      }
    }
  }

  // Whatever is still unopened in the heap was pruned by the bound.
  size_t pruned = 0;
  while (!heap.empty()) {
    if (!heap.top().opened) ++pruned;
    heap.pop();
  }

  // Close streams cut short by early termination. The results already
  // merged are exact regardless of the close verdict (each was the
  // global minimum when emitted), so a close failure here only loses
  // that shard's tail accounting.
  for (std::unique_ptr<OpenShard>& os : open) {
    if (os != nullptr) CloseStream(os.get());
  }
  for (const std::unique_ptr<OpenShard>& os : open) {
    if (os == nullptr) continue;
    response.metrics.pages_skipped += os->pages_skipped;
    response.metrics.truncated |= os->truncated;
    if (os->degraded) fleet_degraded = true;
  }
  if (fleet_degraded) {
    response.completeness = service::Completeness::kDegraded;
    degraded_queries_.fetch_add(1, std::memory_order_relaxed);
  }

  shards_visited_.fetch_add(visited, std::memory_order_relaxed);
  shards_pruned_.fetch_add(pruned, std::memory_order_relaxed);
  query_latency_.Record(NowUs() - query_start_us);
  return response;
}

// ---------------------------------------------------------------------------
// Range fan-out
// ---------------------------------------------------------------------------

Result<service::QueryResponse> Router::Range(const geom::Vec& query,
                                             double radius,
                                             uint32_t deadline_us) {
  queries_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t query_start_us = NowUs();
  std::vector<double> bound(shards_.size());
  {
    std::shared_lock<std::shared_mutex> lock(map_mutex_);
    for (size_t s = 0; s < shards_.size(); ++s) {
      bound[s] = map_.RootBound(s, query);
    }
  }

  service::QueryResponse response;
  size_t dead_shards = 0;
  bool fleet_degraded = false;
  size_t visited = 0;
  size_t pruned = 0;

  for (size_t s = 0; s < shards_.size(); ++s) {
    if (bound[s] > radius) {
      // Nothing in the shard can be within the radius.
      if (bound[s] < std::numeric_limits<double>::infinity()) ++pruned;
      continue;
    }
    bool answered = false;
    for (size_t r = 0; r < shards_[s].replicas.size(); ++r) {
      if (GetReplicaState(s, r) != ReplicaState::kHealthy) continue;
      Result<service::QueryResponse> part =
          shards_[s].replicas[r]->Range(query, radius, deadline_us);
      if (!part.ok()) {
        SetReplicaState(s, r, ReplicaState::kDead);
        failovers_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      ++visited;
      response.neighbors.insert(response.neighbors.end(),
                                part->neighbors.begin(),
                                part->neighbors.end());
      response.metrics.pages_skipped += part->metrics.pages_skipped;
      response.metrics.truncated |= part->metrics.truncated;
      if (part->degraded()) fleet_degraded = true;
      answered = true;
      break;
    }
    if (!answered) {
      ++dead_shards;
      if (dead_shards > options_.fault_budget) {
        return Status::Unavailable(
            "shard " + std::to_string(s) +
            " has no live replica and the fault budget (" +
            std::to_string(options_.fault_budget) + ") is exhausted");
      }
      fleet_degraded = true;
    }
  }

  std::sort(response.neighbors.begin(), response.neighbors.end(),
            gist::NeighborLess);
  if (fleet_degraded) {
    response.completeness = service::Completeness::kDegraded;
    degraded_queries_.fetch_add(1, std::memory_order_relaxed);
  }
  shards_visited_.fetch_add(visited, std::memory_order_relaxed);
  shards_pruned_.fetch_add(pruned, std::memory_order_relaxed);
  query_latency_.Record(NowUs() - query_start_us);
  return response;
}

// ---------------------------------------------------------------------------
// Mutations
// ---------------------------------------------------------------------------

Result<service::MutationOutcome> Router::Insert(const geom::Vec& point,
                                                uint64_t rid) {
  mutations_.fetch_add(1, std::memory_order_relaxed);
  size_t owner;
  {
    std::shared_lock<std::shared_mutex> lock(map_mutex_);
    owner = map_.OwnerOf(point);
  }

  // Apply to every live replica of the owner, under the shard's write
  // lock: replicas stay bit-identical only if every one of them applies
  // the same mutations in the same order, and two routed writes racing
  // here could interleave differently on different replicas. A replica
  // that misses the write while a sibling acks it has diverged:
  // count-based failover skip is no longer sound against it, so it goes
  // kStale — out of rotation until the catch-up driver streams it the
  // suffix it missed and verifies bit-identity.
  std::lock_guard<std::mutex> write_lock(*write_locks_[owner]);
  std::optional<service::MutationOutcome> acked;
  Status last_error = Status::Unavailable("no live replica");
  std::vector<size_t> missed;
  for (size_t r = 0; r < shards_[owner].replicas.size(); ++r) {
    const ReplicaState state = GetReplicaState(owner, r);
    if (state == ReplicaState::kStale) continue;
    if (state == ReplicaState::kDead ||
        state == ReplicaState::kCatchingUp) {
      // A catching-up replica missing a live write re-diverges: demote
      // it back to kStale below so the driver restarts from the new
      // position instead of readmitting a replica that missed this ack.
      missed.push_back(r);
      continue;
    }
    Result<service::MutationOutcome> outcome =
        shards_[owner].replicas[r]->Insert(point, rid);
    if (outcome.ok()) {
      if (!acked.has_value()) acked = *outcome;
    } else {
      last_error = outcome.status();
      missed.push_back(r);
    }
  }
  if (!acked.has_value()) return last_error;  // nobody acked: no divergence.
  for (size_t r : missed) SetReplicaState(owner, r, ReplicaState::kStale);
  {
    std::unique_lock<std::shared_mutex> lock(map_mutex_);
    map_.EnlargeForInsert(owner, point);
  }
  return *acked;
}

Result<service::MutationOutcome> Router::Remove(const geom::Vec& point,
                                                uint64_t rid) {
  mutations_.fetch_add(1, std::memory_order_relaxed);
  // Boxes overlap once enlarged, so the pair's home shard cannot be
  // recovered from the map: broadcast. NotFound from a shard is a
  // consistent "not here" — only transport/apply errors diverge.
  std::optional<service::MutationOutcome> found;
  Status last_error = Status::NotFound("rid not present on any shard");
  for (size_t s = 0; s < shards_.size(); ++s) {
    // Same per-shard write serialization as Insert (see there).
    std::lock_guard<std::mutex> write_lock(*write_locks_[s]);
    std::optional<service::MutationOutcome> acked;
    bool found_here = false;
    std::vector<size_t> missed;
    for (size_t r = 0; r < shards_[s].replicas.size(); ++r) {
      const ReplicaState state = GetReplicaState(s, r);
      if (state == ReplicaState::kStale) continue;
      if (state == ReplicaState::kDead ||
          state == ReplicaState::kCatchingUp) {
        missed.push_back(r);
        continue;
      }
      Result<service::MutationOutcome> outcome =
          shards_[s].replicas[r]->Remove(point, rid);
      if (outcome.ok()) {
        if (!acked.has_value()) acked = *outcome;
        found_here = true;
      } else if (outcome.status().code() == StatusCode::kNotFound) {
        // Consistent absence; the delete "applied" as a no-op.
        if (!acked.has_value()) acked = service::MutationOutcome{};
      } else {
        last_error = outcome.status();
        missed.push_back(r);
      }
    }
    if (acked.has_value()) {
      for (size_t r : missed) SetReplicaState(s, r, ReplicaState::kStale);
    }
    if (found_here && !found.has_value()) found = acked;
  }
  if (found.has_value()) return *found;
  return last_error;
}

// ---------------------------------------------------------------------------
// Stats / health / probes
// ---------------------------------------------------------------------------

RouterStats Router::stats() const {
  RouterStats out;
  out.queries = queries_.load(std::memory_order_relaxed);
  out.shards_visited = shards_visited_.load(std::memory_order_relaxed);
  out.shards_pruned = shards_pruned_.load(std::memory_order_relaxed);
  out.failovers = failovers_.load(std::memory_order_relaxed);
  out.degraded_queries = degraded_queries_.load(std::memory_order_relaxed);
  out.probes = probes_.load(std::memory_order_relaxed);
  out.mutations = mutations_.load(std::memory_order_relaxed);
  out.catchups = catchups_.load(std::memory_order_relaxed);
  out.wal_batches_shipped =
      wal_batches_shipped_.load(std::memory_order_relaxed);
  out.snapshots_shipped = snapshots_shipped_.load(std::memory_order_relaxed);
  out.hedges_attempted = hedges_attempted_.load(std::memory_order_relaxed);
  out.hedges_won = hedges_won_.load(std::memory_order_relaxed);
  out.budget_exhausted = budget_exhausted_.load(std::memory_order_relaxed);
  for (const std::vector<std::unique_ptr<CircuitBreaker>>& shard : breakers_) {
    for (const std::unique_ptr<CircuitBreaker>& breaker : shard) {
      out.breaker_opens += breaker->opens();
      out.breaker_half_opens += breaker->half_opens();
      out.breaker_closes += breaker->closes();
    }
  }
  return out;
}

std::vector<std::pair<std::string, double>> Router::StatsFields() const {
  const RouterStats s = stats();
  std::vector<std::pair<std::string, double>> fields;
  fields.emplace_back("router.shards", static_cast<double>(shards_.size()));
  fields.emplace_back("router.queries", static_cast<double>(s.queries));
  fields.emplace_back("router.shards_visited",
                      static_cast<double>(s.shards_visited));
  fields.emplace_back("router.shards_pruned",
                      static_cast<double>(s.shards_pruned));
  fields.emplace_back("router.failovers", static_cast<double>(s.failovers));
  fields.emplace_back("router.degraded_queries",
                      static_cast<double>(s.degraded_queries));
  fields.emplace_back("router.probes", static_cast<double>(s.probes));
  fields.emplace_back("router.mutations", static_cast<double>(s.mutations));
  fields.emplace_back("router.catchups", static_cast<double>(s.catchups));
  fields.emplace_back("router.wal_batches_shipped",
                      static_cast<double>(s.wal_batches_shipped));
  fields.emplace_back("router.snapshots_shipped",
                      static_cast<double>(s.snapshots_shipped));
  fields.emplace_back("router.hedges_attempted",
                      static_cast<double>(s.hedges_attempted));
  fields.emplace_back("router.hedges_won",
                      static_cast<double>(s.hedges_won));
  fields.emplace_back("router.breaker_opens",
                      static_cast<double>(s.breaker_opens));
  fields.emplace_back("router.breaker_half_opens",
                      static_cast<double>(s.breaker_half_opens));
  fields.emplace_back("router.breaker_closes",
                      static_cast<double>(s.breaker_closes));
  fields.emplace_back("router.budget_exhausted",
                      static_cast<double>(s.budget_exhausted));
  const LatencyHistogram::Snapshot latency = query_latency_.TakeSnapshot();
  fields.emplace_back("router.p50_latency_us",
                      static_cast<double>(latency.p50));
  fields.emplace_back("router.p99_latency_us",
                      static_cast<double>(latency.p99));
  fields.emplace_back("router.p999_latency_us",
                      static_cast<double>(latency.p999));
  // Per-backend breaker state (0 closed, 1 open, 2 half-open): the
  // rows bwadmin health/stats use to show which replica is being
  // routed around.
  for (size_t sh = 0; sh < breakers_.size(); ++sh) {
    for (size_t r = 0; r < breakers_[sh].size(); ++r) {
      fields.emplace_back(
          "router.shard" + std::to_string(sh) + ".replica" +
              std::to_string(r) + ".breaker",
          static_cast<double>(breakers_[sh][r]->state()));
    }
  }
  size_t dead = 0, stale = 0, catching = 0;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    for (size_t sh = 0; sh < states_.size(); ++sh) {
      size_t live = 0;
      for (ReplicaState state : states_[sh]) {
        if (state == ReplicaState::kHealthy) ++live;
        if (state == ReplicaState::kDead) ++dead;
        if (state == ReplicaState::kStale) ++stale;
        if (state == ReplicaState::kCatchingUp) ++catching;
      }
      fields.emplace_back("router.shard" + std::to_string(sh) +
                              ".live_replicas",
                          static_cast<double>(live));
    }
  }
  fields.emplace_back("router.dead_replicas", static_cast<double>(dead));
  fields.emplace_back("router.stale_replicas", static_cast<double>(stale));
  fields.emplace_back("router.catching_up", static_cast<double>(catching));
  return fields;
}

net::HealthReply Router::Health() const {
  net::HealthReply reply;
  reply.writes_enabled = true;
  reply.completed = queries_.load(std::memory_order_relaxed);
  size_t unhealthy = 0;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    for (const std::vector<ReplicaState>& shard : states_) {
      for (ReplicaState state : shard) {
        if (state != ReplicaState::kHealthy) ++unhealthy;
      }
    }
  }
  // The fleet analogue of "degraded but answering": some replica is out.
  reply.write_degraded = unhealthy > 0;
  reply.pages_quarantined = unhealthy;
  return reply;
}

void Router::ProbeNow() {
  for (size_t s = 0; s < shards_.size(); ++s) {
    for (size_t r = 0; r < shards_[s].replicas.size(); ++r) {
      {
        std::lock_guard<std::mutex> lock(state_mutex_);
        const ReplicaState state = states_[s][r];
        // Stale/catching-up replicas belong to the catch-up driver; a
        // probe answering OK says nothing about divergence.
        if (state == ReplicaState::kStale ||
            state == ReplicaState::kCatchingUp) {
          continue;
        }
        if (probe_skip_[s][r] > 0) {
          --probe_skip_[s][r];
          continue;
        }
      }
      probes_.fetch_add(1, std::memory_order_relaxed);
      const Status verdict = shards_[s].replicas[r]->Probe();
      std::lock_guard<std::mutex> lock(state_mutex_);
      const ReplicaState state = states_[s][r];
      if (state == ReplicaState::kStale ||
          state == ReplicaState::kCatchingUp) {
        continue;  // demoted while the probe was in flight.
      }
      if (verdict.ok()) {
        states_[s][r] = ReplicaState::kHealthy;
        probe_failures_[s][r] = 0;
        probe_skip_[s][r] = 0;
      } else {
        states_[s][r] = ReplicaState::kDead;
        // Jittered exponential backoff: 1, 2, 4, ... sweeps skipped
        // (capped), +0/1 from the seeded probe jitter stream so
        // several routers probing one dead server drift apart.
        const uint32_t failures = ++probe_failures_[s][r];
        uint32_t skip = failures >= 32 ? options_.probe_backoff_max
                                       : (1u << (failures - 1));
        if (skip > options_.probe_backoff_max) {
          skip = options_.probe_backoff_max;
        }
        probe_skip_[s][r] =
            skip + static_cast<uint32_t>(probe_jitter_.NextBelow(2));
      }
    }
  }
}

void Router::ProbeLoop() {
  std::unique_lock<std::mutex> lock(probe_mutex_);
  while (!probe_stop_) {
    if (probe_cv_.wait_for(lock, options_.probe_interval,
                           [this] { return probe_stop_; })) {
      return;
    }
    lock.unlock();
    ProbeNow();
    lock.lock();
  }
}

// ---------------------------------------------------------------------------
// Replica catch-up (kStale -> kCatchingUp -> kHealthy; DESIGN.md §13)
// ---------------------------------------------------------------------------

size_t Router::CatchupNow() {
  size_t readmitted = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    for (size_t r = 0; r < shards_[s].replicas.size(); ++r) {
      if (GetReplicaState(s, r) != ReplicaState::kStale) continue;
      if (CatchupReplica(s, r)) ++readmitted;
    }
  }
  return readmitted;
}

Status Router::VerifyBitIdentity(ShardBackend* source, ShardBackend* target) {
  Result<service::TreeSum> source_sum = source->TreeChecksum();
  if (!source_sum.ok()) return source_sum.status();
  Result<service::TreeSum> target_sum = target->TreeChecksum();
  if (!target_sum.ok()) return target_sum.status();
  if (source_sum->tag != target_sum->tag ||
      source_sum->page_count != target_sum->page_count ||
      source_sum->crc != target_sum->crc) {
    return Status::DataLoss(
        "replica diverges from its sibling after catch-up (tag " +
        std::to_string(target_sum->tag) + "/" +
        std::to_string(source_sum->tag) + ", crc mismatch)");
  }
  return Status::OK();
}

Status Router::ShipSnapshot(ShardBackend* source, ShardBackend* target) {
  // A commit on the source mid-transfer changes pages already shipped:
  // restart from page 0 (the tag tells us), bounded so continuous
  // writes cannot pin the driver here forever.
  for (int restart = 0; restart < 4; ++restart) {
    uint64_t tag = 0;
    uint32_t start_page = 0;
    bool first = true;
    bool restarted = false;
    for (;;) {
      Result<service::SnapshotChunk> chunk =
          source->ReadSnapshotChunk(start_page, options_.catchup_max_bytes);
      if (!chunk.ok()) return chunk.status();
      if (chunk->pages.empty()) {
        return Status::Internal("snapshot chunk with no pages");
      }
      if (first) {
        tag = chunk->tag;
      } else if (chunk->tag != tag) {
        restarted = true;
        break;
      }
      const bool last =
          start_page + chunk->pages.size() >= chunk->total_pages;
      BW_RETURN_IF_ERROR(target->ApplySnapshotChunk(*chunk, first, last));
      first = false;
      start_page += static_cast<uint32_t>(chunk->pages.size());
      if (last) return Status::OK();
    }
    if (!restarted) break;
  }
  return Status::Unavailable(
      "snapshot transfer kept restarting under concurrent commits");
}

bool Router::CatchupReplica(size_t shard, size_t replica) {
  if (!TransitionReplica(shard, replica, ReplicaState::kStale,
                         ReplicaState::kCatchingUp)) {
    return false;
  }
  ShardBackend* target = shards_[shard].replicas[replica].get();
  const auto demote = [&] {
    SetReplicaState(shard, replica, ReplicaState::kStale);
    return false;
  };

  ShardBackend* source = nullptr;
  for (size_t r = 0; r < shards_[shard].replicas.size(); ++r) {
    if (r == replica) continue;
    if (GetReplicaState(shard, r) == ReplicaState::kHealthy) {
      source = shards_[shard].replicas[r].get();
      break;
    }
  }
  if (source == nullptr) return demote();  // nobody to catch up from.

  bool force_snapshot = false;
  for (size_t round = 0; round < options_.catchup_max_rounds; ++round) {
    Result<service::CatchupPosition> target_pos = target->CatchupPosition();
    if (!target_pos.ok()) return demote();
    Result<service::CatchupPosition> source_pos = source->CatchupPosition();
    if (!source_pos.ok()) return demote();

    if (!force_snapshot && target_pos->last_tag == source_pos->last_tag) {
      // Positions agree: readmit iff the trees are bit-identical.
      // Same tag with different bytes means genuinely diverged
      // histories — only a full resync cures that.
      if (VerifyBitIdentity(source, target).ok()) {
        if (TransitionReplica(shard, replica, ReplicaState::kCatchingUp,
                              ReplicaState::kHealthy)) {
          catchups_.fetch_add(1, std::memory_order_relaxed);
          return true;
        }
        return demote();  // a missed write demoted us mid-verification.
      }
      force_snapshot = true;
      continue;
    }

    if (force_snapshot || target_pos->last_tag > source_pos->last_tag) {
      // Target "ahead" of the source means its history diverged (tags
      // are mutation counts, and the source acked writes the target
      // missed): resync from scratch.
      if (!ShipSnapshot(source, target).ok()) return demote();
      snapshots_shipped_.fetch_add(1, std::memory_order_relaxed);
      force_snapshot = false;
      continue;
    }

    Result<service::WalTail> tail = source->ReadWalTail(
        target_pos->last_tag, options_.catchup_max_batches,
        options_.catchup_max_bytes);
    if (!tail.ok()) return demote();
    if (tail->snapshot_needed) {
      // The suffix the target needs was retired past a checkpoint.
      force_snapshot = true;
      continue;
    }
    bool apply_failed = false;
    for (const storage::ShippedBatch& batch : tail->batches) {
      if (!target->ApplyWalBatch(batch).ok()) {
        apply_failed = true;
        break;
      }
      wal_batches_shipped_.fetch_add(1, std::memory_order_relaxed);
    }
    if (apply_failed) {
      // A half-applied suffix leaves the target's pages torn; the
      // snapshot path re-images everything, so escalate rather than
      // retry the batch blind.
      force_snapshot = true;
      continue;
    }
  }
  return demote();  // rounds budget exhausted (e.g. continuous writes).
}

void Router::CatchupLoop() {
  std::unique_lock<std::mutex> lock(probe_mutex_);
  while (!probe_stop_) {
    if (probe_cv_.wait_for(lock, options_.catchup_interval,
                           [this] { return probe_stop_; })) {
      return;
    }
    lock.unlock();
    CatchupNow();
    lock.lock();
  }
}

}  // namespace bw::shard
