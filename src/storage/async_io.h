// Read-engine selection and the worker pool behind File::ReadBatch.
//
// A batched read ("give me these N byte ranges") can be served two ways,
// with identical results and identical fault-injection accounting (see
// File::ReadBatch for the one-tick-per-span contract):
//
//  - kSync:       the spans are read inline on the submitting thread, in
//                 submit order — the reference engine, also the only one
//                 a single-threaded sanitizer run needs to reason about.
//  - kThreadPool: the spans are fanned out over a small process-wide
//                 pool of preadv workers and the submitter blocks until
//                 the whole batch completes. Wall-clock for N cold spans
//                 approaches max(span latency) instead of the sum.
//
// Resolution order for the engine actually used: the caller's explicit
// choice (DiskPageFileOptions::engine), then the BW_IO_ENGINE
// environment variable ("sync" or "threads"), then the build default
// (the thread pool). Engine choice must never change observable
// results, only scheduling.

#ifndef BLOBWORLD_STORAGE_ASYNC_IO_H_
#define BLOBWORLD_STORAGE_ASYNC_IO_H_

#include <cstddef>
#include <functional>

namespace bw::storage {

enum class IoEngineKind {
  kSync,
  kThreadPool,
};

/// How a caller picks an engine: kAuto defers to BW_IO_ENGINE and the
/// build default; the rest force a specific engine.
enum class IoEngineChoice {
  kAuto,
  kSync,
  kThreadPool,
};

/// Resolves a choice to the engine that will actually serve the batch.
IoEngineKind ResolveIoEngine(IoEngineChoice choice = IoEngineChoice::kAuto);

const char* IoEngineName(IoEngineKind kind);

/// The process-wide worker pool behind IoEngineKind::kThreadPool.
/// Workers are started lazily on the first batch and joined at process
/// exit. Submitting is thread-safe; jobs from concurrent batches
/// interleave freely (each batch waits only on its own spans).
class ReadThreadPool {
 public:
  static ReadThreadPool& Instance();

  /// Runs fn(0) .. fn(n-1) across the workers and blocks until every
  /// call has returned. fn must be safe to invoke concurrently for
  /// distinct indices. Must not be called from inside a pool worker
  /// (jobs never submit nested batches).
  void RunBatch(size_t n, const std::function<void(size_t)>& fn);

  size_t worker_count() const { return worker_count_; }

 private:
  ReadThreadPool();
  ~ReadThreadPool();

  struct Impl;
  Impl* impl_;
  size_t worker_count_;
};

}  // namespace bw::storage

#endif  // BLOBWORLD_STORAGE_ASYNC_IO_H_
