// bw::net::Server — the network front end over a QueryService: a
// non-blocking epoll accept/worker loop speaking the wire protocol in
// net/wire.h. This is the tier that turns the paper's access method
// into something that can serve real traffic: clients connect over TCP,
// pipeline requests, and stream k-NN result frames back, while the
// server sheds overload *before* it reaches the query workers.
//
// Threading model (TerraServer-style thin gateway):
//
//   [accept + epoll I/O threads]  -- never block on a client, never run
//     a query: read bytes -> FrameParser -> validate -> quota check ->
//     dispatch queue; flush reply remainders; enforce idle timeouts and
//     write-buffer backpressure.
//   [dispatch threads]            -- the only place that waits on the
//     service: decode the request, submit it through QueryService's
//     admission control, wait for the future, encode the whole reply
//     into one buffer and send it straight to the socket (write-through)
//     when the connection has nothing queued. Only bytes the socket
//     refuses go to the connection's bounded outbox and wake the I/O
//     thread.
//
// Load-shedding layers, outermost first, each with a distinct wire
// status so clients can tell "back off" from "retry later" from
// "fail-stop":
//   1. accept:   over max_connections -> connection refused (closed).
//   2. quota:    per-connection in-flight cap / results-per-second
//                token bucket -> kWireQuotaExceeded (client backs off).
//   3. dispatch: bounded dispatch queue full -> kResourceExhausted
//                (server saturated; retry later).
//   4. service:  QueryService's own bounded admission queue ->
//                kUnavailable (transient, retryable).
//   5. writes:   kReadOnly write path -> kResourceExhausted; kFailed ->
//                kIoError (fail-stop: do not retry this process).
//
// A slow or malicious client can never stall a worker: every send is
// non-blocking, a reply that would push the outbox past its bound dooms
// the connection instead of queueing, and the I/O thread closes an
// overflow-doomed connection at once; I/O threads stop reading a
// connection whose outbox passes the backpressure watermark; idle/read
// timeouts reap connections that stop making progress.
//
// Shutdown() is graceful: the listener closes, new requests are
// answered kWireShuttingDown, in-flight requests drain and their
// result streams flush (bounded by drain_timeout), then connections
// close and all threads join.

#ifndef BLOBWORLD_NET_SERVER_H_
#define BLOBWORLD_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/backend.h"
#include "net/connection.h"
#include "net/wire.h"
#include "service/query_service.h"
#include "util/status.h"

namespace bw::net {

struct ServerOptions {
  /// Port to listen on; 0 picks an ephemeral port (see Server::port()).
  uint16_t port = 0;
  std::string bind_address = "127.0.0.1";
  /// epoll I/O loops. One is right for almost every deployment (the
  /// loops never block); more shards connections across loops.
  size_t io_threads = 1;
  /// Threads that execute requests through the service. These block on
  /// query futures, so size them like service workers.
  size_t dispatch_threads = 4;
  /// Bounded queue between I/O and dispatch: the net tier's admission
  /// control. Requests finding it full are shed with
  /// kResourceExhausted before touching the service.
  size_t dispatch_queue_capacity = 256;
  /// Accept cap; connections beyond it are closed immediately.
  size_t max_connections = 1024;
  /// Per-connection quotas (see QuotaOptions).
  QuotaOptions quota;
  /// Per-connection write-buffer cap: a reader slower than this much
  /// backlog is doomed and closed. Dispatch threads never block on it.
  size_t max_outbox_bytes = 8u << 20;
  /// Largest request payload accepted; a frame declaring more is a
  /// framing error (connection-fatal).
  uint32_t max_payload_bytes = kMaxPayloadBytes;
  /// Connections with no read/write progress for this long are closed.
  std::chrono::milliseconds idle_timeout{30000};
  /// Graceful-shutdown bound: how long Shutdown() waits for in-flight
  /// requests to finish and outboxes to flush.
  std::chrono::milliseconds drain_timeout{5000};
  /// Default results per kResultBatch frame (clients may ask for less).
  size_t results_per_frame = 64;
};

/// Net-tier counters, all monotonic except active_connections.
struct NetStats {
  uint64_t accepted = 0;
  uint64_t refused = 0;  // over max_connections.
  uint64_t active_connections = 0;
  uint64_t requests = 0;        // complete frames parsed.
  uint64_t responses = 0;       // replies handed to Reply().
  uint64_t shed_quota = 0;      // kWireQuotaExceeded verdicts.
  uint64_t shed_dispatch = 0;   // dispatch queue full.
  uint64_t shed_shutdown = 0;   // arrived while draining.
  uint64_t bad_requests = 0;    // semantic failures (kept the conn).
  uint64_t closed_eof = 0;
  uint64_t closed_bad_frame = 0;  // framing integrity failures.
  uint64_t closed_overflow = 0;   // slow-reader outbox overflow.
  uint64_t closed_idle = 0;
  uint64_t closed_error = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  /// Replies the socket did not take whole: their remaining bytes went
  /// to the outbox for the I/O thread to flush.
  uint64_t deferred_replies = 0;
  /// Gauge: requests admitted past the draining and quota checks and
  /// not yet finished. `requests` counts every parsed frame (the kHello
  /// and the ones shed while draining too), so only this says a query
  /// is inside the server.
  uint64_t inflight = 0;
  /// Whether Shutdown() has begun draining: from then on every new
  /// request is shed with kWireShuttingDown.
  bool draining = false;
};

class Server {
 public:
  /// The service must outlive the server. Mutation requests are only
  /// honored when the service was built with writes enabled; otherwise
  /// they answer kInvalidArgument. (Sugar for the Backend constructor
  /// over a QueryServiceBackend.)
  Server(service::QueryService* service, ServerOptions options);

  /// Serves an arbitrary backend — this is how bwrouter puts a whole
  /// shard fleet behind the unchanged wire protocol. The backend must
  /// outlive the server and be safe to call from every dispatch thread.
  Server(Backend* backend, ServerOptions options);
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Shutdown() if still running.
  ~Server();

  /// Binds, listens, and starts the I/O + dispatch threads.
  Status Start();

  /// Graceful shutdown (see the file comment). Idempotent.
  void Shutdown();

  /// Port actually bound (after Start(); resolves port=0 requests).
  uint16_t port() const { return bound_port_; }

  NetStats stats() const;

  /// Net-tier counters as (name, value) pairs, "net."-prefixed — the
  /// tail of the kStats wire reply after the service snapshot fields.
  std::vector<std::pair<std::string, double>> StatsFields() const;

 private:
  struct DispatchTask {
    std::shared_ptr<Connection> conn;
    size_t io_index = 0;
    FrameParser::Frame frame;
  };

  /// One epoll loop: listener (index 0 only), its share of the
  /// connections, and an eventfd other threads use to hand it work.
  struct IoLoop {
    int epoll_fd = -1;
    int event_fd = -1;
    std::thread thread;
    // Connections owned by this loop, keyed by fd (loop-thread only).
    std::unordered_map<int, std::shared_ptr<Connection>> conns;
    // Cross-thread inbox, guarded by mutex: freshly accepted fds and
    // connections with a queued reply remainder or a doom ("kicks").
    std::mutex mutex;
    std::vector<int> pending_fds;
    std::vector<std::shared_ptr<Connection>> kicks;
  };

  void IoLoopMain(size_t index);
  void DispatchLoopMain();

  void AcceptReady(IoLoop& loop);
  void AdoptConnection(IoLoop& loop, size_t index, int fd);
  void ReadReady(IoLoop& loop, size_t index,
                 const std::shared_ptr<Connection>& conn);
  /// Handles one parsed frame on the I/O thread: quota + dispatch, or
  /// an immediate error/stats reply.
  void HandleFrame(IoLoop& loop, size_t index,
                   const std::shared_ptr<Connection>& conn,
                   FrameParser::Frame frame);
  /// The one way a reply's bytes reach the socket outside
  /// FlushConnection, from any thread. Under the conn mutex: drops the
  /// reply if the connection is closed or doomed; dooms it
  /// (kOutboxOverflow) if the reply would push the outbox past
  /// max_outbox_bytes; sends it write-through if the outbox is empty;
  /// queues whatever the socket refused. Wakes `io_index`'s loop only for
  /// a queued remainder or a doom (flushing in place when called on that
  /// loop's own thread).
  void Reply(size_t io_index, const std::shared_ptr<Connection>& conn,
             std::string bytes);
  /// Flushes as much outbox as the socket accepts; arms/disarms
  /// EPOLLOUT and applies read backpressure; closes a doomed connection
  /// (an overflow or send-error doom at once, a bad-frame doom once its
  /// final frame has flushed). Loop thread only.
  void FlushConnection(IoLoop& loop, const std::shared_ptr<Connection>& conn);
  void CloseConnection(IoLoop& loop, const std::shared_ptr<Connection>& conn,
                       CloseReason reason);
  /// Wakes `io_index`'s loop to flush or close `conn`.
  void KickIo(size_t io_index, const std::shared_ptr<Connection>& conn);

  /// Each runs one dispatched request and returns its encoded reply;
  /// `results` receives the result count charged to the rate quota.
  std::string ExecuteQuery(const DispatchTask& task, double* results);
  std::string ExecuteMutation(const DispatchTask& task, double* results);
  /// Replica catch-up requests (kWalPull..kCatchupPos): decode, call
  /// the backend, answer with one terminal reply frame.
  std::string ExecuteCatchup(const DispatchTask& task);
  std::string StatsFrame(uint64_t request_id);
  std::string HealthFrame(uint64_t request_id);
  /// Answers a kHello handshake on the I/O thread. A major-version
  /// mismatch replies kWireVersionMismatch (still carrying the server's
  /// own version) and dooms the connection once the reply flushes.
  void HandleHello(IoLoop& loop, size_t index,
                   const std::shared_ptr<Connection>& conn,
                   const FrameParser::Frame& frame);

  /// Marks one dispatched request answered (before its reply is sent, so
  /// the client's next request sees the freed quota): decrements the
  /// conn's in-flight count and the global drain counter.
  void FinishRequest(const std::shared_ptr<Connection>& conn,
                     double results_charged);

  /// True once every dispatch task has finished and every outbox is
  /// flushed (the graceful-drain condition).
  bool Drained();

  /// Set by the QueryService constructor; null when serving an
  /// externally owned Backend.
  std::unique_ptr<Backend> owned_backend_;
  Backend* backend_;
  ServerOptions options_;
  size_t tree_dim_ = 0;
  // Atomic: Shutdown() retires the listener while I/O loop 0 still
  // compares ready fds against it.
  std::atomic<int> listen_fd_{-1};
  uint16_t bound_port_ = 0;
  std::chrono::steady_clock::time_point start_time_;

  std::vector<std::unique_ptr<IoLoop>> loops_;
  std::vector<std::thread> dispatchers_;

  std::mutex dispatch_mutex_;
  std::condition_variable dispatch_cv_;
  std::deque<DispatchTask> dispatch_queue_;
  std::atomic<size_t> executing_{0};
  /// Requests dispatched whose reply is not yet built.
  std::atomic<size_t> inflight_total_{0};
  /// Unsent bytes sitting in connection outboxes, server-wide.
  std::atomic<size_t> outbox_total_{0};

  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stop_{false};

  // NetStats counters (relaxed atomics; see NetStats for meanings).
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> refused_{0};
  std::atomic<uint64_t> active_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> responses_{0};
  std::atomic<uint64_t> shed_quota_{0};
  std::atomic<uint64_t> shed_dispatch_{0};
  std::atomic<uint64_t> shed_shutdown_{0};
  std::atomic<uint64_t> bad_requests_{0};
  std::atomic<uint64_t> closed_eof_{0};
  std::atomic<uint64_t> closed_bad_frame_{0};
  std::atomic<uint64_t> closed_overflow_{0};
  std::atomic<uint64_t> closed_idle_{0};
  std::atomic<uint64_t> closed_error_{0};
  std::atomic<uint64_t> bytes_in_{0};
  std::atomic<uint64_t> bytes_out_{0};
  std::atomic<uint64_t> deferred_replies_{0};
};

}  // namespace bw::net

#endif  // BLOBWORLD_NET_SERVER_H_
