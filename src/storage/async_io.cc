#include "storage/async_io.h"

#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

namespace bw::storage {

IoEngineKind ResolveIoEngine(IoEngineChoice choice) {
  switch (choice) {
    case IoEngineChoice::kSync:
      return IoEngineKind::kSync;
    case IoEngineChoice::kThreadPool:
      return IoEngineKind::kThreadPool;
    case IoEngineChoice::kAuto:
    default: {
      const char* env = std::getenv("BW_IO_ENGINE");
      if (env != nullptr && std::strcmp(env, "sync") == 0) {
        return IoEngineKind::kSync;
      }
      // "threads", unset, or unrecognized (ignored): the build default.
      return IoEngineKind::kThreadPool;
    }
  }
}

const char* IoEngineName(IoEngineKind kind) {
  switch (kind) {
    case IoEngineKind::kSync:
      return "sync";
    case IoEngineKind::kThreadPool:
      return "threads";
  }
  return "unknown";
}

/// One shared FIFO of batches: each RunBatch enqueues its batch and
/// helps drain it, so concurrent batches (a scrubber pass racing an
/// Open, say) share the workers fairly. Span indices are claimed under
/// the pool mutex; a batch leaves the queue the moment its last index
/// is claimed, and the submitter removes it itself if it claims that
/// last index — so no worker can ever observe a batch pointer after its
/// RunBatch frame has been torn down (spans still executing keep
/// `remaining` nonzero, which keeps the submitter blocked).
struct ReadThreadPool::Impl {
  struct Batch {
    const std::function<void(size_t)>* fn = nullptr;
    size_t next = 0;   // next span index to claim; guarded by pool mutex.
    size_t count = 0;
    size_t remaining = 0;  // spans not yet finished; under done_mutex.
    std::mutex done_mutex;
    std::condition_variable done_cv;
  };

  std::mutex mutex;
  std::condition_variable cv;
  std::deque<Batch*> queue;  // batches with unclaimed spans.
  bool stop = false;
  std::vector<std::thread> workers;

  void WorkerLoop() {
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
      cv.wait(lock, [&] { return stop || !queue.empty(); });
      if (stop) return;
      Batch* batch = queue.front();  // workers always claim from front.
      const size_t i = batch->next++;
      if (batch->next >= batch->count) queue.pop_front();
      lock.unlock();
      Run(batch, i);
      lock.lock();
    }
  }

  static void Run(Batch* batch, size_t i) {
    (*batch->fn)(i);
    // Count the span done under the batch's mutex: the submitter reads
    // `remaining` under the same mutex, so it cannot see 0 — and return,
    // destroying the batch on its stack — until this thread has released
    // the mutex and stopped touching the batch.
    std::lock_guard<std::mutex> lock(batch->done_mutex);
    if (--batch->remaining == 0) batch->done_cv.notify_all();
  }
};

ReadThreadPool& ReadThreadPool::Instance() {
  static ReadThreadPool pool;
  return pool;
}

ReadThreadPool::ReadThreadPool() : impl_(new Impl) {
  size_t n = std::thread::hardware_concurrency();
  if (n == 0) n = 4;
  if (n > 8) n = 8;  // disk parallelism saturates long before CPU count.
  worker_count_ = n;
  impl_->workers.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    impl_->workers.emplace_back([this] { impl_->WorkerLoop(); });
  }
}

ReadThreadPool::~ReadThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stop = true;
  }
  impl_->cv.notify_all();
  for (std::thread& t : impl_->workers) t.join();
  delete impl_;
}

void ReadThreadPool::RunBatch(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (n == 1) {  // nothing to overlap; skip the queue round-trip.
    fn(0);
    return;
  }
  Impl::Batch batch;
  batch.fn = &fn;
  batch.count = n;
  batch.remaining = n;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->queue.push_back(&batch);
  }
  impl_->cv.notify_all();
  // The submitter helps drain its own batch instead of idling: claim
  // spans alongside the workers until all are taken. The batch may sit
  // anywhere in the FIFO (workers only serve the front), so when this
  // claim takes the last index the batch is removed by value.
  for (;;) {
    size_t i;
    {
      std::lock_guard<std::mutex> lock(impl_->mutex);
      if (batch.next >= batch.count) break;
      i = batch.next++;
      if (batch.next >= batch.count) {
        for (auto it = impl_->queue.begin(); it != impl_->queue.end(); ++it) {
          if (*it == &batch) {
            impl_->queue.erase(it);
            break;
          }
        }
      }
    }
    Impl::Run(&batch, i);
  }
  std::unique_lock<std::mutex> lock(batch.done_mutex);
  batch.done_cv.wait(lock, [&] { return batch.remaining == 0; });
}

}  // namespace bw::storage
