// Thin positional-I/O file wrapper (POSIX fd underneath) with the
// FaultInjector hook on every physical write AND read. All durable
// state in the storage engine — base page files and WALs — goes through
// this class, so a single injector can kill the entire write stream of
// a store at a chosen point, or make its read path flaky (transient
// pread failures, read-side bit flips, hung reads) on a schedule.
//
// Failure semantics on the write side (the fd's share of the write-path
// fault model, DESIGN.md §10):
//
//  - Clean ENOSPC (injected, or a real pwrite that wrote 0 bytes before
//    failing with ENOSPC) surfaces as kResourceExhausted and leaves the
//    fd usable: nothing was persisted, the caller may shed load and
//    retry the operation later on the same fd.
//  - Everything else that fails a write or an fsync makes the fd
//    FAIL-STOP: every later WriteAt/Append/Sync/Truncate on it fails
//    immediately. A failed fsync in particular must never be retried
//    and then reported clean — the kernel may have dropped the dirty
//    pages on the first failure, so a later fsync returning 0 proves
//    nothing (the "fsyncgate" lesson; see PostgreSQL's 2018 fsync
//    reliability saga). Durability on that fd is unknowable; the only
//    honest continuation is crash recovery from the last known-durable
//    state. Reads stay usable — serving degraded is the point.

#ifndef BLOBWORLD_STORAGE_FILE_IO_H_
#define BLOBWORLD_STORAGE_FILE_IO_H_

#include <memory>
#include <string>
#include <vector>

#include "storage/fault_injector.h"
#include "util/status.h"

namespace bw::storage {

class File {
 public:
  /// Opens `path` read-write. With `truncate` set the file is created if
  /// missing and emptied if not; without it the file must already
  /// exist (NotFound otherwise, and nothing is created). The injector
  /// (may be null) is consulted before every physical write and sync.
  static Result<std::unique_ptr<File>> Open(const std::string& path,
                                            bool truncate,
                                            FaultInjector* injector = nullptr);

  ~File();
  File(const File&) = delete;
  File& operator=(const File&) = delete;

  /// Writes exactly `n` bytes at `offset` (extending the file as
  /// needed). IoError if the write cannot complete — including a
  /// simulated crash, in which case a torn prefix may have been
  /// persisted. ResourceExhausted for a *clean* out-of-space failure
  /// (nothing persisted, fd still usable); any other failure fail-stops
  /// the fd (see file header).
  Status WriteAt(uint64_t offset, const void* data, size_t n);

  /// Appends exactly `n` bytes at the current end of file.
  Status Append(const void* data, size_t n);

  /// Reads exactly `n` bytes at `offset`; IoError on a short read,
  /// Unavailable on a simulated transient read fault (retryable). An
  /// armed injector may also delay the read or flip one bit of the
  /// returned buffer (the bytes on disk stay intact).
  Status ReadAt(uint64_t offset, void* data, size_t n) const;

  uint64_t size() const { return size_; }

  /// fsync. Fails after a simulated crash. A failed fsync (simulated or
  /// real) fail-stops the fd: this and every later mutation on it keeps
  /// failing — the sync is never retried in a way that could report a
  /// lost write as durable (fsyncgate semantics). An injected failure
  /// also models the loss itself: the file is cut back to the length it
  /// had at its last successful fsync, as if the kernel had dropped
  /// every dirty page written since.
  Status Sync();

  /// True once a failed write or fsync has fail-stopped this fd (the
  /// injected-crash state also reads as fail-stopped).
  bool fail_stopped() const;

  /// Truncates the file to `new_size` bytes.
  Status Truncate(uint64_t new_size);

  const std::string& path() const { return path_; }

 private:
  File(int fd, uint64_t size, std::string path, FaultInjector* injector)
      : fd_(fd), size_(size), synced_size_(size), path_(std::move(path)),
        injector_(injector) {}

  Status CheckAlive() const;

  int fd_;
  uint64_t size_;
  /// Length at the last successful fsync (or at open): what an injected
  /// fsync failure cuts the file back to.
  uint64_t synced_size_;
  std::string path_;
  FaultInjector* injector_;
  /// Set by the first failed write or fsync; makes every later mutation
  /// fail (reads are unaffected).
  bool fail_stopped_ = false;
};

/// Reads the entire file at `path` into `out`. NotFound if missing,
/// IoError if unreadable.
Status ReadFile(const std::string& path, std::vector<uint8_t>* out);

}  // namespace bw::storage

#endif  // BLOBWORLD_STORAGE_FILE_IO_H_
