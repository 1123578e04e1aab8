#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace bw::net {
namespace {

constexpr int kEpollBatch = 64;
constexpr int kEpollWaitMs = 50;

// The I/O loop the calling thread runs (null off the loops): Reply()
// flushes in place there instead of kicking its own loop.
thread_local const void* tls_io_loop = nullptr;

uint16_t WireCodeFor(const Status& status) {
  return StatusCodeToWire(status.code());
}

// One terminal reply frame.
std::string FinalFrame(MsgType type, uint64_t request_id,
                       std::string_view payload, uint16_t wire_status = 0) {
  FrameHeader h;
  h.type = type;
  h.flags = kFlagFinal;
  h.status = wire_status;
  h.request_id = request_id;
  return EncodeFrame(h, payload);
}

// The terminal frame of a request that failed with `wire_status`.
std::string ErrorFinal(uint64_t request_id, uint16_t wire_status,
                       const std::string& message) {
  FinalInfo info;
  info.message = message;
  std::string payload;
  EncodeFinalInfo(info, &payload);
  return FinalFrame(MsgType::kFinal, request_id, payload, wire_status);
}

std::string InvalidArgumentFinal(uint64_t request_id,
                                 const std::string& message) {
  return ErrorFinal(request_id,
                    StatusCodeToWire(StatusCode::kInvalidArgument), message);
}

// Sends `bytes` until the socket refuses more (EAGAIN) or fails; never
// blocks. Returns the bytes sent; `*failed` is set on a send error (the
// peer is gone).
size_t SendAvailable(int fd, std::string_view bytes, bool* failed) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    *failed = true;
    break;
  }
  return sent;
}

}  // namespace

Server::Server(service::QueryService* service, ServerOptions options)
    : owned_backend_(std::make_unique<QueryServiceBackend>(service)),
      backend_(owned_backend_.get()),
      options_(std::move(options)) {
  if (options_.io_threads == 0) options_.io_threads = 1;
  if (options_.dispatch_threads == 0) options_.dispatch_threads = 1;
  if (options_.results_per_frame == 0) options_.results_per_frame = 64;
}

Server::Server(Backend* backend, ServerOptions options)
    : backend_(backend), options_(std::move(options)) {
  if (options_.io_threads == 0) options_.io_threads = 1;
  if (options_.dispatch_threads == 0) options_.dispatch_threads = 1;
  if (options_.results_per_frame == 0) options_.results_per_frame = 64;
}

Server::~Server() { Shutdown(); }

Status Server::Start() {
  if (started_.exchange(true)) {
    return Status::InvalidArgument("server already started");
  }
  tree_dim_ = backend_->dim();
  start_time_ = std::chrono::steady_clock::now();

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad bind address: " +
                                   options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status status =
        Status::IoError(std::string("bind: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, 128) < 0) {
    const Status status =
        Status::IoError(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  bound_port_ = ntohs(bound.sin_port);

  loops_.reserve(options_.io_threads);
  for (size_t i = 0; i < options_.io_threads; ++i) {
    auto loop = std::make_unique<IoLoop>();
    loop->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    loop->event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (loop->epoll_fd < 0 || loop->event_fd < 0) {
      return Status::IoError("epoll/eventfd creation failed");
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = loop->event_fd;
    ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->event_fd, &ev);
    if (i == 0) {
      epoll_event lev{};
      lev.events = EPOLLIN;
      lev.data.fd = listen_fd_;
      ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &lev);
    }
    loops_.push_back(std::move(loop));
  }
  for (size_t i = 0; i < options_.io_threads; ++i) {
    loops_[i]->thread = std::thread([this, i] { IoLoopMain(i); });
  }
  dispatchers_.reserve(options_.dispatch_threads);
  for (size_t i = 0; i < options_.dispatch_threads; ++i) {
    dispatchers_.emplace_back([this] { DispatchLoopMain(); });
  }
  return Status::OK();
}

void Server::Shutdown() {
  if (!started_.load() || stop_.load()) return;
  draining_.store(true);

  // Stop accepting: retire the listener before closing it so I/O loop 0
  // never matches a ready event (or a reused fd number) against it.
  const int lfd = listen_fd_.exchange(-1);
  if (lfd >= 0 && !loops_.empty()) {
    ::epoll_ctl(loops_[0]->epoll_fd, EPOLL_CTL_DEL, lfd, nullptr);
    ::close(lfd);
  }

  // Drain: let dispatched requests finish and their streams flush.
  const auto deadline =
      std::chrono::steady_clock::now() + options_.drain_timeout;
  while (!Drained() && std::chrono::steady_clock::now() < deadline) {
    // Nudge the loops so pending outboxes keep flushing.
    for (auto& loop : loops_) {
      uint64_t one = 1;
      [[maybe_unused]] ssize_t n = ::write(loop->event_fd, &one, sizeof(one));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  stop_.store(true);
  dispatch_cv_.notify_all();
  for (auto& loop : loops_) {
    uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(loop->event_fd, &one, sizeof(one));
  }
  for (auto& t : dispatchers_) {
    if (t.joinable()) t.join();
  }
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
    if (loop->epoll_fd >= 0) ::close(loop->epoll_fd);
    if (loop->event_fd >= 0) ::close(loop->event_fd);
  }
  // Resolve any tasks the dispatchers never picked up (drain timeout hit
  // with a backed-up queue): their connections are gone anyway.
  {
    std::lock_guard<std::mutex> lock(dispatch_mutex_);
    for (auto& task : dispatch_queue_) {
      FinishRequest(task.conn, 0);
    }
    dispatch_queue_.clear();
  }
}

bool Server::Drained() {
  {
    std::lock_guard<std::mutex> lock(dispatch_mutex_);
    if (!dispatch_queue_.empty()) return false;
  }
  return executing_.load() == 0 && inflight_total_.load() == 0 &&
         outbox_total_.load() == 0;
}

NetStats Server::stats() const {
  NetStats s;
  s.accepted = accepted_.load();
  s.refused = refused_.load();
  s.active_connections = active_.load();
  s.requests = requests_.load();
  s.responses = responses_.load();
  s.shed_quota = shed_quota_.load();
  s.shed_dispatch = shed_dispatch_.load();
  s.shed_shutdown = shed_shutdown_.load();
  s.bad_requests = bad_requests_.load();
  s.closed_eof = closed_eof_.load();
  s.closed_bad_frame = closed_bad_frame_.load();
  s.closed_overflow = closed_overflow_.load();
  s.closed_idle = closed_idle_.load();
  s.closed_error = closed_error_.load();
  s.bytes_in = bytes_in_.load();
  s.bytes_out = bytes_out_.load();
  s.deferred_replies = deferred_replies_.load();
  s.inflight = inflight_total_.load();
  s.draining = draining_.load();
  return s;
}

std::vector<std::pair<std::string, double>> Server::StatsFields() const {
  const NetStats s = stats();
  return {
      {"net.accepted", static_cast<double>(s.accepted)},
      {"net.refused", static_cast<double>(s.refused)},
      {"net.active_connections", static_cast<double>(s.active_connections)},
      {"net.requests", static_cast<double>(s.requests)},
      {"net.responses", static_cast<double>(s.responses)},
      {"net.shed_quota", static_cast<double>(s.shed_quota)},
      {"net.shed_dispatch", static_cast<double>(s.shed_dispatch)},
      {"net.shed_shutdown", static_cast<double>(s.shed_shutdown)},
      {"net.bad_requests", static_cast<double>(s.bad_requests)},
      {"net.closed_eof", static_cast<double>(s.closed_eof)},
      {"net.closed_bad_frame", static_cast<double>(s.closed_bad_frame)},
      {"net.closed_overflow", static_cast<double>(s.closed_overflow)},
      {"net.closed_idle", static_cast<double>(s.closed_idle)},
      {"net.closed_error", static_cast<double>(s.closed_error)},
      {"net.bytes_in", static_cast<double>(s.bytes_in)},
      {"net.bytes_out", static_cast<double>(s.bytes_out)},
      {"net.deferred_replies", static_cast<double>(s.deferred_replies)},
      {"net.inflight", static_cast<double>(s.inflight)},
      {"net.draining", s.draining ? 1.0 : 0.0},
  };
}

// ---------------------------------------------------------------------------
// I/O loops
// ---------------------------------------------------------------------------

void Server::IoLoopMain(size_t index) {
  IoLoop& loop = *loops_[index];
  tls_io_loop = &loop;
  epoll_event events[kEpollBatch];
  while (!stop_.load()) {
    const int n = ::epoll_wait(loop.epoll_fd, events, kEpollBatch,
                               kEpollWaitMs);
    for (int i = 0; i < n && !stop_.load(); ++i) {
      const int fd = events[i].data.fd;
      if (fd == loop.event_fd) {
        uint64_t drained;
        while (::read(loop.event_fd, &drained, sizeof(drained)) > 0) {
        }
        continue;  // inbox handled below.
      }
      if (index == 0 && fd == listen_fd_.load()) {
        AcceptReady(loop);
        continue;
      }
      auto it = loop.conns.find(fd);
      if (it == loop.conns.end()) continue;  // closed earlier this batch.
      std::shared_ptr<Connection> conn = it->second;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        // Half-close / reset: try one last read to pick up the reason.
        ReadReady(loop, index, conn);
        continue;
      }
      if (events[i].events & EPOLLIN) ReadReady(loop, index, conn);
      if (loop.conns.count(fd) && (events[i].events & EPOLLOUT)) {
        FlushConnection(loop, conn);
      }
    }
    if (stop_.load()) break;

    // Cross-thread inbox: adopt new fds, flush kicked connections.
    std::vector<int> pending_fds;
    std::vector<std::shared_ptr<Connection>> kicks;
    {
      std::lock_guard<std::mutex> lock(loop.mutex);
      pending_fds.swap(loop.pending_fds);
      kicks.swap(loop.kicks);
    }
    for (int fd : pending_fds) AdoptConnection(loop, index, fd);
    for (const auto& conn : kicks) FlushConnection(loop, conn);

    // Idle/read-timeout reaping.
    const auto now = std::chrono::steady_clock::now();
    std::vector<std::shared_ptr<Connection>> idle;
    for (const auto& [fd, conn] : loop.conns) {
      if (now - conn->last_activity > options_.idle_timeout) {
        idle.push_back(conn);
      }
    }
    for (const auto& conn : idle) {
      CloseConnection(loop, conn, CloseReason::kIdleTimeout);
    }
  }

  // Shutdown: close everything this loop still owns.
  std::vector<std::shared_ptr<Connection>> remaining;
  remaining.reserve(loop.conns.size());
  for (const auto& [fd, conn] : loop.conns) remaining.push_back(conn);
  for (const auto& conn : remaining) {
    CloseConnection(loop, conn, CloseReason::kServerShutdown);
  }
  // epoll_fd/event_fd are closed by Shutdown() after the join: closing
  // them here would race Shutdown's wake-up writes.
}

void Server::AcceptReady(IoLoop& loop) {
  const int lfd = listen_fd_.load();
  if (lfd < 0) return;
  for (;;) {
    const int fd = ::accept4(lfd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or a transient accept error: wait for epoll.
    }
    if (active_.load() >= options_.max_connections || draining_.load()) {
      refused_.fetch_add(1);
      ::close(fd);
      continue;
    }
    accepted_.fetch_add(1);
    active_.fetch_add(1);
    const size_t target = accepted_.load() % options_.io_threads;
    if (target == 0) {
      AdoptConnection(loop, 0, fd);
    } else {
      {
        std::lock_guard<std::mutex> lock(loops_[target]->mutex);
        loops_[target]->pending_fds.push_back(fd);
      }
      uint64_t one = 1;
      [[maybe_unused]] ssize_t n =
          ::write(loops_[target]->event_fd, &one, sizeof(one));
    }
  }
}

void Server::AdoptConnection(IoLoop& loop, size_t index, int fd) {
  (void)index;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  auto conn = std::make_shared<Connection>(fd, options_.max_payload_bytes);
  conn->limiter.Configure(options_.quota.max_results_per_sec);
  conn->last_activity = std::chrono::steady_clock::now();
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) {
    ::close(fd);
    active_.fetch_sub(1);
    return;
  }
  loop.conns.emplace(fd, std::move(conn));
}

void Server::ReadReady(IoLoop& loop, size_t index,
                       const std::shared_ptr<Connection>& conn) {
  char buf[65536];
  for (;;) {
    const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      bytes_in_.fetch_add(static_cast<uint64_t>(n));
      conn->last_activity = std::chrono::steady_clock::now();
      std::vector<FrameParser::Frame> frames;
      const bool intact = conn->parser.Feed(buf, static_cast<size_t>(n),
                                            &frames);
      for (auto& frame : frames) {
        bool gone;
        {
          std::lock_guard<std::mutex> lock(conn->mutex);
          gone = conn->closed || conn->doomed;
        }
        if (gone) break;
        HandleFrame(loop, index, conn, std::move(frame));
      }
      if (!intact) {
        // Framing integrity failure: best-effort error frame, then
        // close once it (and anything queued before it) flushes.
        Reply(index, conn, ErrorFinal(0, kWireBadFrame, conn->parser.error()));
        {
          std::lock_guard<std::mutex> lock(conn->mutex);
          conn->DoomLocked(CloseReason::kBadFrame);
        }
        FlushConnection(loop, conn);
        return;
      }
      if (!loop.conns.count(conn->fd)) return;  // closed while handling.
      continue;
    }
    if (n == 0) {
      CloseConnection(loop, conn, CloseReason::kClientEof);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    CloseConnection(loop, conn, CloseReason::kReadError);
    return;
  }
}

void Server::HandleFrame(IoLoop& loop, size_t index,
                         const std::shared_ptr<Connection>& conn,
                         FrameParser::Frame frame) {
  requests_.fetch_add(1);
  const FrameHeader& h = frame.header;
  if (!IsRequestType(static_cast<uint8_t>(h.type))) {
    // Semantic error: the frame boundary is sound, so answer and keep
    // the connection.
    bad_requests_.fetch_add(1);
    Reply(index, conn,
          ErrorFinal(h.request_id,
                     StatusCodeToWire(StatusCode::kNotSupported),
                     "unknown request type " +
                         std::to_string(static_cast<unsigned>(h.type))));
    return;
  }
  if (draining_.load()) {
    shed_shutdown_.fetch_add(1);
    Reply(index, conn,
          ErrorFinal(h.request_id, kWireShuttingDown, "server shutting down"));
    return;
  }
  if (h.type == MsgType::kStats) {
    Reply(index, conn, StatsFrame(h.request_id));
    return;
  }
  if (h.type == MsgType::kHealth) {
    Reply(index, conn, HealthFrame(h.request_id));
    return;
  }
  if (h.type == MsgType::kHello) {
    HandleHello(loop, index, conn, frame);
    return;
  }

  // Per-connection quotas, enforced before the request costs anything.
  bool quota_ok = true;
  const char* quota_reason = "";
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    if (conn->inflight >= options_.quota.max_inflight) {
      quota_ok = false;
      quota_reason = "per-connection in-flight request cap";
    } else if (!conn->limiter.Admit(std::chrono::steady_clock::now())) {
      quota_ok = false;
      quota_reason = "per-connection results/sec quota";
    } else {
      ++conn->inflight;
    }
  }
  if (!quota_ok) {
    shed_quota_.fetch_add(1);
    Reply(index, conn,
          ErrorFinal(h.request_id, kWireQuotaExceeded, quota_reason));
    return;
  }
  inflight_total_.fetch_add(1);

  // Hand off to the dispatch tier; its bounded queue is the net-side
  // admission control.
  {
    std::unique_lock<std::mutex> lock(dispatch_mutex_);
    if (dispatch_queue_.size() >= options_.dispatch_queue_capacity) {
      lock.unlock();
      shed_dispatch_.fetch_add(1);
      FinishRequest(conn, 0);
      Reply(index, conn,
            ErrorFinal(h.request_id,
                       StatusCodeToWire(StatusCode::kResourceExhausted),
                       "dispatch queue full"));
      return;
    }
    DispatchTask task;
    task.conn = conn;
    task.io_index = index;
    task.frame = std::move(frame);
    dispatch_queue_.push_back(std::move(task));
  }
  dispatch_cv_.notify_one();
}

void Server::HandleHello(IoLoop& loop, size_t index,
                         const std::shared_ptr<Connection>& conn,
                         const FrameParser::Frame& frame) {
  HelloRequest req;
  if (!DecodeHelloRequest(frame.payload, &req)) {
    // Semantic failure: the framing is sound, so answer and keep the
    // connection (a pre-handshake client never sends kHello at all).
    bad_requests_.fetch_add(1);
    Reply(index, conn,
          InvalidArgumentFinal(frame.header.request_id,
                               "malformed hello payload"));
    return;
  }
  HelloReply reply;
  reply.major = kWireVersionMajor;
  reply.minor = kWireVersionMinor;
  reply.features = backend_->features();
  reply.peer = backend_->peer_name();
  const bool mismatch = req.major != kWireVersionMajor;
  std::string payload;
  EncodeHelloReply(reply, &payload);
  Reply(index, conn,
        FinalFrame(MsgType::kHelloReply, frame.header.request_id, payload,
                   mismatch ? kWireVersionMismatch : 0));
  if (mismatch) {
    // Incompatible peers exchange exactly one frame pair: the reply
    // (carrying our version so the client can report what it hit)
    // flushes, then the connection closes.
    bad_requests_.fetch_add(1);
    {
      std::lock_guard<std::mutex> lock(conn->mutex);
      conn->DoomLocked(CloseReason::kBadFrame);
    }
    FlushConnection(loop, conn);
  }
}

void Server::FinishRequest(const std::shared_ptr<Connection>& conn,
                           double results_charged) {
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    if (conn->inflight > 0) --conn->inflight;
    conn->limiter.Charge(results_charged);
  }
  inflight_total_.fetch_sub(1);
}

void Server::Reply(size_t io_index, const std::shared_ptr<Connection>& conn,
                   std::string bytes) {
  responses_.fetch_add(1);
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    if (conn->closed || conn->doomed) return;
    if (conn->outbox_bytes + bytes.size() > options_.max_outbox_bytes) {
      // Judged per reply, before any byte leaves: the kernel's socket
      // buffer would otherwise absorb megabytes for a stalled reader.
      conn->DoomLocked(CloseReason::kOutboxOverflow);
      wake = true;
    } else {
      size_t sent = 0;
      bool failed = false;
      if (conn->outbox.empty()) {
        sent = SendAvailable(conn->fd, bytes, &failed);
        bytes_out_.fetch_add(sent);
      }
      if (failed) {
        conn->DoomLocked(CloseReason::kReadError);
        wake = true;
      } else if (sent < bytes.size()) {
        const size_t remaining = bytes.size() - sent;
        if (conn->outbox.empty()) conn->outbox_offset = sent;
        conn->outbox.push_back(std::move(bytes));
        conn->outbox_bytes += remaining;
        outbox_total_.fetch_add(remaining);
        deferred_replies_.fetch_add(1);
        wake = true;
      }
    }
  }
  if (!wake) return;
  IoLoop& loop = *loops_[io_index];
  if (tls_io_loop == &loop) {
    FlushConnection(loop, conn);
  } else {
    KickIo(io_index, conn);
  }
}

void Server::FlushConnection(IoLoop& loop,
                             const std::shared_ptr<Connection>& conn) {
  bool want_write = false;
  bool close_now = false;
  CloseReason reason = CloseReason::kNone;
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    if (conn->closed) return;
    // An overflow or send-error doom closes at once: a stalled reader
    // would never let its outbox flush. A bad-frame doom first flushes
    // its final frame.
    if (conn->doomed && conn->close_reason != CloseReason::kBadFrame) {
      close_now = true;
      reason = conn->close_reason;
    }
    while (!close_now && !conn->outbox.empty()) {
      const std::string& front = conn->outbox.front();
      bool failed = false;
      const size_t n = SendAvailable(
          conn->fd, std::string_view(front).substr(conn->outbox_offset),
          &failed);
      if (n > 0) {
        bytes_out_.fetch_add(n);
        outbox_total_.fetch_sub(n);
        conn->outbox_bytes -= n;
        conn->outbox_offset += n;
        conn->last_activity = std::chrono::steady_clock::now();
      }
      if (failed) {
        // Broken pipe / reset: nothing more to deliver.
        close_now = true;
        reason = CloseReason::kReadError;
      } else if (conn->outbox_offset < front.size()) {
        want_write = true;
        break;
      } else {
        conn->outbox.pop_front();
        conn->outbox_offset = 0;
      }
    }
    if (!close_now && conn->outbox.empty() && conn->doomed) {
      close_now = true;
      reason = conn->close_reason;
    }
    if (!close_now) {
      // Read backpressure: stop pulling requests off a connection whose
      // replies the client is not draining.
      if (conn->outbox_bytes > options_.max_outbox_bytes / 2) {
        conn->read_paused = true;
      } else if (conn->outbox_bytes < options_.max_outbox_bytes / 4) {
        conn->read_paused = false;
      }
      conn->want_write = want_write;
    }
  }
  if (close_now) {
    CloseConnection(loop, conn, reason);
    return;
  }
  epoll_event ev{};
  ev.events = 0;
  bool paused;
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    paused = conn->read_paused;
    want_write = conn->want_write || !conn->outbox.empty();
  }
  if (!paused) ev.events |= EPOLLIN;
  if (want_write) ev.events |= EPOLLOUT;
  ev.data.fd = conn->fd;
  ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev);
}

void Server::CloseConnection(IoLoop& loop,
                             const std::shared_ptr<Connection>& conn,
                             CloseReason reason) {
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    if (conn->closed) return;
    conn->closed = true;
    outbox_total_.fetch_sub(conn->outbox_bytes);
    conn->outbox.clear();
    conn->outbox_bytes = 0;
    conn->outbox_offset = 0;
  }
  ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  loop.conns.erase(conn->fd);
  active_.fetch_sub(1);
  switch (reason) {
    case CloseReason::kClientEof:
      closed_eof_.fetch_add(1);
      break;
    case CloseReason::kBadFrame:
      closed_bad_frame_.fetch_add(1);
      break;
    case CloseReason::kOutboxOverflow:
      closed_overflow_.fetch_add(1);
      break;
    case CloseReason::kIdleTimeout:
      closed_idle_.fetch_add(1);
      break;
    case CloseReason::kReadError:
      closed_error_.fetch_add(1);
      break;
    case CloseReason::kNone:
    case CloseReason::kServerShutdown:
      break;
  }
}

void Server::KickIo(size_t io_index, const std::shared_ptr<Connection>& conn) {
  IoLoop& loop = *loops_[io_index];
  {
    std::lock_guard<std::mutex> lock(loop.mutex);
    loop.kicks.push_back(conn);
  }
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(loop.event_fd, &one, sizeof(one));
}

// ---------------------------------------------------------------------------
// Dispatch tier
// ---------------------------------------------------------------------------

void Server::DispatchLoopMain() {
  for (;;) {
    DispatchTask task;
    {
      std::unique_lock<std::mutex> lock(dispatch_mutex_);
      dispatch_cv_.wait(lock, [this] {
        return stop_.load() || !dispatch_queue_.empty();
      });
      if (dispatch_queue_.empty()) {
        if (stop_.load()) return;
        continue;
      }
      task = std::move(dispatch_queue_.front());
      dispatch_queue_.pop_front();
      executing_.fetch_add(1);
    }
    bool gone;
    {
      std::lock_guard<std::mutex> lock(task.conn->mutex);
      gone = task.conn->closed || task.conn->doomed;
    }
    double results = 0;  // charged to the connection's rate quota.
    std::string reply;
    if (!gone) {
      switch (task.frame.header.type) {
        case MsgType::kKnn:
        case MsgType::kRange:
          reply = ExecuteQuery(task, &results);
          break;
        case MsgType::kInsert:
        case MsgType::kDelete:
          reply = ExecuteMutation(task, &results);
          break;
        default:  // HandleFrame dispatches nothing else.
          reply = ExecuteCatchup(task);
          break;
      }
    }
    FinishRequest(task.conn, results);
    if (!reply.empty()) Reply(task.io_index, task.conn, std::move(reply));
    executing_.fetch_sub(1);
  }
}

std::string Server::ExecuteQuery(const DispatchTask& task, double* results) {
  const FrameHeader& h = task.frame.header;
  const auto invalid = [&](const std::string& message) {
    bad_requests_.fetch_add(1);
    return InvalidArgumentFinal(h.request_id, message);
  };
  geom::Vec query;
  service::StreamOptions stream;
  size_t batch_size = options_.results_per_frame;
  bool use_range = false;
  double radius = 0;

  if (h.type == MsgType::kKnn) {
    KnnRequest req;
    if (!DecodeKnnRequest(task.frame.payload, &req)) {
      return invalid("malformed k-NN request payload");
    }
    query = std::move(req.query);
    stream.max_results = req.k;
    stream.budget_radius = req.budget_radius;
    if (req.batch_size > 0) {
      batch_size = std::min<size_t>(req.batch_size, 4096);
    }
  } else {
    RangeRequest req;
    if (!DecodeRangeRequest(task.frame.payload, &req)) {
      return invalid("malformed range request payload");
    }
    query = std::move(req.query);
    radius = req.radius;
    use_range = true;
  }
  if (query.dim() != tree_dim_) {
    return invalid("query dimensionality " + std::to_string(query.dim()) +
                   " != index dimensionality " + std::to_string(tree_dim_));
  }
  stream.deadline_us = static_cast<double>(h.deadline_us);

  Result<service::QueryResponse> response =
      use_range ? backend_->Range(query, radius, h.deadline_us)
                : backend_->Knn(query, stream);
  if (!response.ok()) {
    return ErrorFinal(h.request_id, WireCodeFor(response.status()),
                      response.status().message());
  }
  *results = static_cast<double>(response->neighbors.size());
  return EncodeQueryReply(h.request_id, *response, batch_size);
}

std::string Server::ExecuteMutation(const DispatchTask& task,
                                    double* results) {
  const FrameHeader& h = task.frame.header;
  MutateRequest req;
  if (!DecodeMutateRequest(task.frame.payload, &req)) {
    bad_requests_.fetch_add(1);
    return InvalidArgumentFinal(h.request_id,
                                "malformed mutation request payload");
  }
  if (req.point.dim() != tree_dim_) {
    bad_requests_.fetch_add(1);
    return InvalidArgumentFinal(h.request_id,
                                "point dimensionality mismatch");
  }
  // This is where the write-state machine reaches the wire: kReadOnly
  // -> kResourceExhausted (retry later), kFailed -> kIoError
  // (fail-stop), full queue -> kUnavailable (transient).
  Result<service::MutationOutcome> outcome =
      h.type == MsgType::kInsert ? backend_->Insert(req.point, req.rid)
                                 : backend_->Remove(req.point, req.rid);
  if (!outcome.ok()) {
    return ErrorFinal(h.request_id, WireCodeFor(outcome.status()),
                      outcome.status().message());
  }
  *results = 1;
  FinalInfo info;
  info.mutation_tag = outcome->tag;
  info.server_latency_us = outcome->apply_us;
  std::string payload;
  EncodeFinalInfo(info, &payload);
  return FinalFrame(MsgType::kMutateAck, h.request_id, payload);
}

std::string Server::ExecuteCatchup(const DispatchTask& task) {
  const FrameHeader& h = task.frame.header;
  const auto fail = [&](const std::string& msg) {
    bad_requests_.fetch_add(1);
    return InvalidArgumentFinal(h.request_id, msg);
  };
  const auto error = [&](const Status& status) {
    return ErrorFinal(h.request_id, WireCodeFor(status), status.message());
  };
  const auto reply = [&](MsgType type, const std::string& payload) {
    return FinalFrame(type, h.request_id, payload);
  };
  // Replies must fit the smaller of our outgoing cap and the protocol
  // cap a default client enforces; the slack covers codec framing.
  const size_t wire_budget =
      std::min<size_t>(options_.max_payload_bytes, kMaxPayloadBytes) - 4096;

  switch (h.type) {
    case MsgType::kCatchupPos: {
      Result<service::CatchupPosition> pos = backend_->CatchupPosition();
      if (!pos.ok()) return error(pos.status());
      std::string payload;
      EncodeCatchupPosReply(*pos, &payload);
      return reply(MsgType::kCatchupPosReply, payload);
    }
    case MsgType::kTreeSum: {
      Result<service::TreeSum> sum = backend_->TreeChecksum();
      if (!sum.ok()) return error(sum.status());
      std::string payload;
      EncodeTreeSumReply(*sum, &payload);
      return reply(MsgType::kTreeSumReply, payload);
    }
    case MsgType::kWalPull: {
      WalPullRequest req;
      if (!DecodeWalPullRequest(task.frame.payload, &req)) {
        return fail("malformed WAL pull payload");
      }
      const size_t max_batches = req.max_batches > 0 ? req.max_batches : 16;
      const size_t max_bytes = std::min<size_t>(
          req.max_bytes > 0 ? req.max_bytes : (1u << 20), wire_budget);
      Result<service::WalTail> tail =
          backend_->ReadWalTail(req.after_tag, max_batches, max_bytes);
      if (!tail.ok()) return error(tail.status());
      std::string payload;
      EncodeWalTail(*tail, &payload);
      // The storage-side byte budget counts raw payloads; the wire adds
      // framing. Shed newest-first until the reply frames, and if even
      // one batch cannot cross the wire, escalate to the snapshot path.
      while (payload.size() > wire_budget && tail->batches.size() > 1) {
        tail->batches.pop_back();
        tail->more = true;
        payload.clear();
        EncodeWalTail(*tail, &payload);
      }
      if (payload.size() > wire_budget) {
        tail->batches.clear();
        tail->more = false;
        tail->snapshot_needed = true;
        payload.clear();
        EncodeWalTail(*tail, &payload);
      }
      return reply(MsgType::kWalBatchReply, payload);
    }
    case MsgType::kWalApply: {
      storage::ShippedBatch batch;
      if (!DecodeWalApply(task.frame.payload, &batch)) {
        return fail("malformed shipped batch payload");
      }
      const Status applied = backend_->ApplyWalBatch(batch);
      if (!applied.ok()) return error(applied);
      CatchupAck ack;
      ack.last_tag = batch.tag;
      if (Result<service::CatchupPosition> pos = backend_->CatchupPosition();
          pos.ok()) {
        ack.last_tag = pos->last_tag;
      }
      std::string payload;
      EncodeCatchupAck(ack, &payload);
      return reply(MsgType::kCatchupAck, payload);
    }
    case MsgType::kSnapshotPull: {
      SnapshotPullRequest req;
      if (!DecodeSnapshotPullRequest(task.frame.payload, &req)) {
        return fail("malformed snapshot pull payload");
      }
      const size_t max_bytes = std::min<size_t>(
          req.max_bytes > 0 ? req.max_bytes : (1u << 20), wire_budget);
      Result<service::SnapshotChunk> chunk =
          backend_->ReadSnapshotChunk(req.start_page, max_bytes);
      if (!chunk.ok()) return error(chunk.status());
      std::string payload;
      EncodeSnapshotChunk(*chunk, &payload);
      if (payload.size() > wire_budget + 4096) {
        // A single page image too large to frame: no transfer path
        // exists for this store over this wire configuration.
        return error(Status::NotSupported(
            "a single page image exceeds the frame payload cap"));
      }
      return reply(MsgType::kSnapshotChunk, payload);
    }
    case MsgType::kSnapshotApply: {
      SnapshotApplyRequest req;
      if (!DecodeSnapshotApplyRequest(task.frame.payload, &req)) {
        return fail("malformed snapshot apply payload");
      }
      const Status applied =
          backend_->ApplySnapshotChunk(req.chunk, req.first, req.last);
      if (!applied.ok()) return error(applied);
      CatchupAck ack;
      ack.last_tag = req.chunk.tag;
      std::string payload;
      EncodeCatchupAck(ack, &payload);
      return reply(MsgType::kCatchupAck, payload);
    }
    default:
      return fail("not a catch-up request");
  }
}

std::string Server::StatsFrame(uint64_t request_id) {
  auto fields = backend_->StatsFields();
  auto net_fields = StatsFields();
  fields.insert(fields.end(), net_fields.begin(), net_fields.end());
  std::string payload;
  EncodeStatsReply(fields, &payload);
  return FinalFrame(MsgType::kStatsReply, request_id, payload);
}

std::string Server::HealthFrame(uint64_t request_id) {
  HealthReply reply = backend_->Health();
  reply.uptime_seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start_time_)
                             .count();
  std::string payload;
  EncodeHealthReply(reply, &payload);
  return FinalFrame(MsgType::kHealthReply, request_id, payload);
}

}  // namespace bw::net
