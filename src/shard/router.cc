#include "shard/router.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <optional>
#include <queue>
#include <utility>

namespace bw::shard {

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
  // blocked in a backend fetch.
  StopHedgeExecutor();
}

uint64_t Router::NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// Hedge executor: grow-on-demand workers for fetches that must not pin
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
// Shard fetches: failover and hedging
// ---------------------------------------------------------------------------

std::vector<double> Router::RootBounds(const geom::Vec& query) const {
  // Concurrent inserts may enlarge boxes mid-query, but a bound taken
  // now is still admissible for everything the shard held when it is
  // fetched (boxes only grow).
  std::vector<double> bound(shards_.size());
  std::shared_lock<std::shared_mutex> lock(map_mutex_);
  for (size_t s = 0; s < shards_.size(); ++s) {
    bound[s] = map_.RootBound(s, query);
  }
  return bound;
}

Result<service::QueryResponse> Router::Fetch(
    size_t shard, size_t replica, const geom::Vec& query,
    const service::StreamOptions& limits) {
  const uint64_t t0 = NowUs();
  Result<service::QueryResponse> answer =
      [&]() -> Result<service::QueryResponse> {
    BW_ASSIGN_OR_RETURN(
        std::unique_ptr<ShardFrontier> frontier,
        shards_[shard].replicas[replica]->OpenFrontier(query, limits));
    service::QueryResponse response;
    for (;;) {
      BW_ASSIGN_OR_RETURN(std::optional<gist::Neighbor> next,
                          frontier->Next());
      if (!next.has_value()) break;
      response.neighbors.push_back(*next);
    }
    // A terminal verdict (shed, quota, transport) fails the answer
    // even after every result arrived.
    BW_RETURN_IF_ERROR(frontier->Finish());
    response.metrics.pages_skipped = frontier->pages_skipped();
    response.metrics.truncated = frontier->truncated();
    if (frontier->degraded()) {
      response.completeness = service::Completeness::kDegraded;
    }
    return response;
  }();
  const uint64_t now = NowUs();
  breakers_[shard][replica]->OnResult(answer.ok(), now - t0, now);
  if (!answer.ok()) SetReplicaState(shard, replica, ReplicaState::kDead);
  return answer;
}

/// Shared state of one hedged fetch. Each raced fetch runs on the hedge
/// executor and publishes here, and the caller takes the first answer.
/// A loser still running when the caller returns keeps this alive; its
/// answer is dropped when it arrives.
struct Router::FetchRace {
  std::mutex mu;
  std::condition_variable cv;
  size_t running = 0;  // raced fetches not yet finished.
  std::optional<service::QueryResponse> answer;  // the first to arrive.
  size_t winner = 0;                             // its replica.
  Status error;                                  // the last failure.
};

Result<service::QueryResponse> Router::HedgedFetch(
    size_t shard, size_t replica, const geom::Vec& query,
    const service::StreamOptions& limits, const DeadlineBudget& budget) {
  if (!options_.hedge || shards_[shard].replicas.size() < 2) {
    return Fetch(shard, replica, query, limits);
  }
  auto race = std::make_shared<FetchRace>();
  const auto start = [&](size_t r, const service::StreamOptions& sliced) {
    {
      std::lock_guard<std::mutex> lock(race->mu);
      ++race->running;
    }
    PostHedgeTask([this, race, shard, r, query, sliced] {
      Result<service::QueryResponse> answer = Fetch(shard, r, query, sliced);
      std::lock_guard<std::mutex> lock(race->mu);
      --race->running;
      if (!answer.ok()) {
        race->error = answer.status();
      } else if (!race->answer.has_value()) {
        race->answer = std::move(*answer);
        race->winner = r;
      }
      race->cv.notify_all();
    });
  };
  const auto settled = [&] {
    return race->answer.has_value() || race->running == 0;
  };

  start(replica, limits);
  // The hedge delay is the serving backend's own recent latency
  // quantile (clamped), plus up to +25% jitter so a fleet's hedges
  // against one browning server don't fire in lockstep.
  uint64_t delay_us = breakers_[shard][replica]->HedgeDelayUs(
      options_.hedge_quantile, options_.hedge_delay_floor_us,
      options_.hedge_delay_cap_us, options_.hedge_delay_fallback_us);
  delay_us += hedge_jitter_.NextBelow(delay_us / 4 + 1);
  std::unique_lock<std::mutex> lock(race->mu);
  if (!race->cv.wait_for(lock, std::chrono::microseconds(delay_us),
                         settled)) {
    lock.unlock();
    // The fetch is stalling: race the first healthy sibling whose
    // breaker allows it, if time permits. Its whole answer is as good
    // as the primary's: each is one replica's answer.
    if (!budget.Exhausted(NowUs(), options_.budget_floor_us)) {
      for (size_t r = 0; r < shards_[shard].replicas.size(); ++r) {
        if (r == replica) continue;
        if (GetReplicaState(shard, r) != ReplicaState::kHealthy) continue;
        if (!breakers_[shard][r]->Allow(NowUs())) continue;
        hedges_attempted_.fetch_add(1, std::memory_order_relaxed);
        service::StreamOptions sibling = limits;
        sibling.deadline_us = static_cast<double>(
            budget.SliceUs(NowUs(), 1, options_.budget_floor_us));
        start(r, sibling);
        break;
      }
    }
    lock.lock();
    race->cv.wait(lock, settled);
  }
  if (!race->answer.has_value()) return race->error;
  if (race->winner != replica) {
    hedges_won_.fetch_add(1, std::memory_order_relaxed);
  }
  return std::move(*race->answer);
}

std::optional<service::QueryResponse> Router::FetchShard(
    size_t shard, const geom::Vec& query, const service::StreamOptions& limits,
    const DeadlineBudget& budget) {
  // Pass 0 respects breakers; pass 1 retries the replicas pass 0
  // skipped for an open breaker — a breaker is advice about *ordering*,
  // and when the breaker-open replica is the last one standing, asking
  // it is strictly better than failing the shard.
  std::vector<size_t> deferred;
  for (int pass = 0; pass < 2; ++pass) {
    const size_t candidates =
        pass == 0 ? shards_[shard].replicas.size() : deferred.size();
    for (size_t i = 0; i < candidates; ++i) {
      const size_t r = pass == 0 ? i : deferred[i];
      if (GetReplicaState(shard, r) != ReplicaState::kHealthy) continue;
      if (budget.Exhausted(NowUs(), options_.budget_floor_us)) {
        budget_exhausted_.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
      }
      if (pass == 0 && !breakers_[shard][r]->Allow(NowUs())) {
        deferred.push_back(r);
        continue;
      }
      // Split the remaining deadline across the attempts that could
      // still run instead of re-sending the client's full deadline per
      // attempt (DESIGN.md §15's budget arithmetic). An unlimited
      // budget slices to 0 = no deadline.
      service::StreamOptions sliced = limits;
      sliced.deadline_us = static_cast<double>(
          budget.SliceUs(NowUs(), candidates - i, options_.budget_floor_us));
      Result<service::QueryResponse> answer =
          HedgedFetch(shard, r, query, sliced, budget);
      if (answer.ok()) return std::move(*answer);
      failovers_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return std::nullopt;
}

namespace {

/// A shard with no live replica left: charges the fault budget (the
/// answer becomes a flagged, genuine subset) or, once it is spent,
/// fails the query.
Status ChargeDeadShard(size_t shard, size_t fault_budget, size_t* dead_shards,
                       service::QueryResponse* response) {
  if (++*dead_shards > fault_budget) {
    return Status::Unavailable(
        "shard " + std::to_string(shard) +
        " has no live replica and the fault budget (" +
        std::to_string(fault_budget) + ") is exhausted");
  }
  response->completeness = service::Completeness::kDegraded;
  return Status::OK();
}

/// Sums one shard answer's degraded accounting into the merged answer.
void FoldAccounting(const service::QueryResponse& part,
                    service::QueryResponse* merged) {
  merged->metrics.pages_skipped += part.metrics.pages_skipped;
  merged->metrics.truncated |= part.metrics.truncated;
  if (part.degraded()) merged->completeness = service::Completeness::kDegraded;
}

}  // namespace

void Router::RecordQuery(const service::QueryResponse& response,
                         size_t visited, size_t pruned, uint64_t start_us) {
  if (response.degraded()) {
    degraded_queries_.fetch_add(1, std::memory_order_relaxed);
  }
  shards_visited_.fetch_add(visited, std::memory_order_relaxed);
  shards_pruned_.fetch_add(pruned, std::memory_order_relaxed);
  query_latency_.Record(NowUs() - start_us);
}

// ---------------------------------------------------------------------------
// Scatter-gather k-NN
// ---------------------------------------------------------------------------

Result<service::QueryResponse> Router::Knn(
    const geom::Vec& query, const service::StreamOptions& stream) {
  queries_.fetch_add(1, std::memory_order_relaxed);
  const size_t k = stream.max_results;
  const uint64_t query_start_us = NowUs();
  // The query's remaining-time ledger: every fetch and hedge below
  // draws a slice from it instead of re-sending the client's full
  // deadline (DESIGN.md §15).
  const DeadlineBudget budget(stream.deadline_us, query_start_us);
  const std::vector<double> bound = RootBounds(query);

  // Global merge heap. Unfetched shards are keyed by their root bound
  // (a lower bound on anything they can return); fetched shards by
  // their next unmerged result's exact distance. The top is therefore
  // always <= every result any shard can still produce. Shard answers
  // are in (distance, rid) order (gist::NeighborLess), and so is the
  // merge: at an equal key an unfetched shard goes first, since it may
  // hold a point at that distance with a smaller rid; then the smaller
  // rid; unfetched shards among themselves by shard index.
  struct HeapEntry {
    double key;
    size_t shard;
    bool fetched;
    gist::Rid rid;  // the next result's rid, when fetched.
  };
  struct HeapGreater {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.key != b.key) return a.key > b.key;
      if (a.fetched != b.fetched) return a.fetched;
      return a.fetched ? a.rid > b.rid : a.shard > b.shard;
    }
  };
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapGreater> heap;
  for (size_t s = 0; s < shards_.size(); ++s) {
    // An infinite bound means an empty shard: nothing to fetch, ever.
    if (bound[s] < std::numeric_limits<double>::infinity()) {
      heap.push(HeapEntry{bound[s], s, false, 0});
    }
  }

  std::vector<service::QueryResponse> answers(shards_.size());
  std::vector<size_t> merged(shards_.size(), 0);  // taken from answers[s].
  service::QueryResponse response;
  size_t dead_shards = 0;
  size_t visited = 0;

  while (!heap.empty()) {
    const HeapEntry top = heap.top();
    // Termination: results are emitted in non-decreasing order, so once
    // k exist, every remaining heap key — root bounds of shards never
    // fetched included — is >= the k-th distance. Those shards are
    // provably irrelevant; they are counted pruned below.
    if (k > 0 && response.neighbors.size() >= k) break;
    if (top.key > stream.budget_radius) break;
    heap.pop();

    const size_t s = top.shard;
    if (top.fetched) {
      response.neighbors.push_back(answers[s].neighbors[merged[s]++]);
    } else {
      // After j merged results the merge can use at most k - j more.
      service::StreamOptions limits = stream;
      if (k > 0) limits.max_results = k - response.neighbors.size();
      std::optional<service::QueryResponse> answer =
          FetchShard(s, query, limits, budget);
      if (!answer.has_value()) {
        BW_RETURN_IF_ERROR(ChargeDeadShard(s, options_.fault_budget,
                                           &dead_shards, &response));
        continue;
      }
      ++visited;
      FoldAccounting(*answer, &response);
      answers[s] = std::move(*answer);
    }
    if (merged[s] < answers[s].neighbors.size()) {
      const gist::Neighbor& next = answers[s].neighbors[merged[s]];
      heap.push(HeapEntry{next.distance, s, true, next.rid});
    }
  }

  // Whatever is still unfetched in the heap was pruned by the bound.
  size_t pruned = 0;
  while (!heap.empty()) {
    if (!heap.top().fetched) ++pruned;
    heap.pop();
  }
  RecordQuery(response, visited, pruned, query_start_us);
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
  const DeadlineBudget budget(deadline_us, query_start_us);
  const std::vector<double> bound = RootBounds(query);
  // With no count limit, the radius stream is exactly a shard's range
  // answer (service::StreamOptions).
  service::StreamOptions limits;
  limits.budget_radius = radius;

  service::QueryResponse response;
  size_t dead_shards = 0;
  size_t visited = 0;
  size_t pruned = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (bound[s] > radius) {
      // Nothing in the shard can be within the radius.
      if (bound[s] < std::numeric_limits<double>::infinity()) ++pruned;
      continue;
    }
    std::optional<service::QueryResponse> answer =
        FetchShard(s, query, limits, budget);
    if (!answer.has_value()) {
      BW_RETURN_IF_ERROR(ChargeDeadShard(s, options_.fault_budget,
                                         &dead_shards, &response));
      continue;
    }
    ++visited;
    FoldAccounting(*answer, &response);
    response.neighbors.insert(response.neighbors.end(),
                              answer->neighbors.begin(),
                              answer->neighbors.end());
  }

  std::sort(response.neighbors.begin(), response.neighbors.end(),
            gist::NeighborLess);
  RecordQuery(response, visited, pruned, query_start_us);
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
  // that misses the write while a sibling acks it has diverged: its
  // answers would lack an acked write, so it goes kStale — out of
  // rotation until the catch-up driver streams it the suffix it missed
  // and verifies bit-identity.
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
