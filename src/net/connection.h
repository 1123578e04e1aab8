// Per-connection state for the network front end, kept separate from
// the epoll machinery in server.cc so the pure byte-stream logic (frame
// reassembly, quota accounting) is directly testable —
// the frame fuzzer in tests/net_test.cc drives FrameParser with hostile
// byte sequences without a socket in sight.
//
// A connection is a little state machine:
//
//   reading --> (complete frame) --> dispatch --> reply sent
//      |                                          (remainder in outbox)
//      |                                              |
//      +--- integrity failure ----> doomed <--- outbox overflow
//
// Integrity failures (bad magic, bad header CRC, oversized declared
// length, bad payload CRC) doom the connection: the byte stream cannot
// be resynchronized, so the server sends one kWireBadFrame terminal
// frame (best effort) and closes after flushing. Semantic failures
// (unknown request type, malformed payload) answer with an error frame
// and keep reading. A slow reader whose next reply would push its
// outbox past max_outbox_bytes is doomed too, and closed at once —
// worker threads never block on a client's socket buffer.

#ifndef BLOBWORLD_NET_CONNECTION_H_
#define BLOBWORLD_NET_CONNECTION_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "net/wire.h"

namespace bw::net {

/// Reassembles wire frames from an arbitrary byte-chunk sequence.
/// Feed() consumes every byte it is given; once a fatal framing error
/// is hit the parser latches the error and ignores further input.
class FrameParser {
 public:
  struct Frame {
    FrameHeader header;
    std::string payload;
  };

  explicit FrameParser(uint32_t max_payload = kMaxPayloadBytes)
      : max_payload_(max_payload) {}

  /// Appends complete frames to `out`. Returns false once the stream is
  /// fatally broken (error() describes why); complete frames parsed
  /// before the error are still delivered.
  bool Feed(const void* data, size_t n, std::vector<Frame>* out);

  bool broken() const { return broken_; }
  const std::string& error() const { return error_; }

  /// Bytes buffered toward the next incomplete frame.
  size_t pending_bytes() const { return buffer_.size(); }

 private:
  uint32_t max_payload_;
  std::string buffer_;  // header-so-far or header+payload-so-far.
  bool have_header_ = false;
  FrameHeader header_;
  bool broken_ = false;
  std::string error_;
};

/// Per-connection quota configuration (see ServerOptions for defaults).
struct QuotaOptions {
  /// Parsed-but-unanswered requests allowed at once; further requests
  /// are answered kWireQuotaExceeded without touching the service.
  size_t max_inflight = 32;
  /// Token bucket on *results returned* per second (the expensive unit
  /// of this workload: one k=200 query costs 200 tokens). 0 = no limit.
  double max_results_per_sec = 0;
};

/// Result-rate token bucket. Single-threaded per connection use; the
/// server serializes access through the connection mutex.
class ResultRateLimiter {
 public:
  void Configure(double results_per_sec) {
    rate_ = results_per_sec;
    tokens_ = results_per_sec;  // one second of burst.
  }

  /// True if a new request may run now. Refills from elapsed wall time;
  /// the bucket may run negative (a request's cost is only known once
  /// it completes), which simply delays the next admission.
  bool Admit(std::chrono::steady_clock::time_point now);

  /// Charges the completed request's result count against the bucket.
  void Charge(double results) {
    if (rate_ > 0) tokens_ -= results;
  }

  double tokens() const { return tokens_; }

 private:
  double rate_ = 0;
  double tokens_ = 0;
  bool primed_ = false;
  std::chrono::steady_clock::time_point last_refill_;
};

/// Why a connection is being torn down, for the server's counters.
enum class CloseReason {
  kNone,
  kClientEof,     // orderly shutdown from the peer.
  kReadError,
  kBadFrame,      // framing integrity failure; closes once flushed.
  kOutboxOverflow,  // slow reader exceeded the write-buffer cap.
  kIdleTimeout,
  kServerShutdown,
};

/// One accepted connection. The owning I/O thread touches fd/reader
/// state without locks; the outbox and flags shared with dispatch
/// threads are guarded by `mutex`.
struct Connection {
  explicit Connection(int fd_in, uint32_t max_payload)
      : fd(fd_in), parser(max_payload) {}

  // --- I/O-thread-only state -------------------------------------------
  int fd;
  FrameParser parser;
  // Last read, or last send by the I/O thread's flush. Write-through
  // sends leave it alone, so a reply's idle clock runs from its
  // request's read.
  std::chrono::steady_clock::time_point last_activity;
  bool want_write = false;   // EPOLLOUT currently armed.
  bool read_paused = false;  // EPOLLIN dropped due to outbox pressure.

  // --- Shared state (guarded by mutex) ---------------------------------
  // Every send to `fd` happens under `mutex` after checking `closed`, so
  // no thread writes to a closed (and possibly reused) fd number.
  std::mutex mutex;
  // Reply remainders the socket refused, oldest first; only the I/O
  // thread's flush sends from here.
  std::deque<std::string> outbox;
  size_t outbox_bytes = 0;   // unsent bytes in outbox.
  size_t outbox_offset = 0;  // bytes of outbox.front() already written.
  size_t inflight = 0;       // dispatched, reply not yet built.
  ResultRateLimiter limiter;
  bool doomed = false;  // no more replies; close (see CloseReason).
  bool closed = false;  // fd is gone; dispatch results are dropped.
  CloseReason close_reason = CloseReason::kNone;

  /// Dooms the connection; the first reason sticks. Caller must hold
  /// `mutex`.
  void DoomLocked(CloseReason reason);
};

}  // namespace bw::net

#endif  // BLOBWORLD_NET_CONNECTION_H_
