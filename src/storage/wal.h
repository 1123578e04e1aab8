// Append-only write-ahead log with LSN-stamped, CRC-framed records in
// one file. The durability half of the ARIES-lite protocol: every page
// mutation is logged as a full-page redo image before it may reach the
// base file, so recovery is a pure redo replay. Append writes each
// record through to the file and never fsyncs; Sync is the one fsync
// that makes everything appended so far durable (DurableStore calls it
// once per commit batch, after the batch's kCommit record).
//
// On-disk record frame (little-endian):
//
//   [u32 magic][u32 type][u64 lsn][u32 page_id][u32 payload_len]
//   [payload_len bytes][u32 crc32 over header+payload]
//
// Replay distinguishes the failure shapes the crash-injection harness
// produces:
//  - a *truncated* trailing record (crash or torn write mid-append) is
//    benign: the scan stops at the last intact record and reports
//    tail_truncated, exactly the contract fsync gives us;
//  - a *complete* record whose CRC does not match (bit rot) is DataLoss:
//    the log cannot be trusted past a silent corruption;
//  - a segment file `<path>.NNNNNN` beside the log (the size-capped
//    layout older builds wrote) is NotSupported: its records may be the
//    only copy of acknowledged batches, so it is refused, never ignored.

#ifndef BLOBWORLD_STORAGE_WAL_H_
#define BLOBWORLD_STORAGE_WAL_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "pages/page.h"
#include "storage/file_io.h"
#include "util/status.h"

namespace bw::storage {

enum class WalRecordType : uint32_t {
  kAlloc = 1,      // a page id came into existence (no payload).
  kPageImage = 2,  // full post-write image of page_id (page_codec bytes).
  kCommit = 3,     // batch boundary; payload = u64 application tag.
};

struct WalOptions {
  FaultInjector* injector = nullptr;
};

/// Statistics returned by ReplayWal; also what Wal::Continue needs to
/// resume appending after recovery (where the intact prefix ends).
struct WalReplayStats {
  uint64_t records = 0;
  uint64_t commits = 0;
  uint64_t last_lsn = 0;
  /// Byte length of the log's intact prefix — where Continue truncates.
  uint64_t valid_bytes = 0;
  /// A trailing partial record was found and discarded.
  bool tail_truncated = false;
};

class Wal {
 public:
  /// Creates a fresh, empty log at `path` (truncating any old one and
  /// removing stale `<path>.NNNNNN` segment files). LSNs start at
  /// `first_lsn`.
  static Result<std::unique_ptr<Wal>> Create(const std::string& path,
                                             WalOptions options,
                                             uint64_t first_lsn = 1);

  /// Continues appending to an existing log after recovery: the file is
  /// truncated to `valid_bytes` (ReplayWal's intact prefix, dropping any
  /// torn tail) and LSNs resume from `next_lsn`. A missing file starts
  /// an empty log, as Create does.
  static Result<std::unique_ptr<Wal>> Continue(const std::string& path,
                                               WalOptions options,
                                               uint64_t valid_bytes,
                                               uint64_t next_lsn);

  /// Appends one record, written through to the file, and returns its
  /// LSN. It is durable only after the next Sync(). A clean
  /// ResourceExhausted failure (out of disk space) leaves nothing of
  /// the record in the file and the log appendable — the enclosing
  /// commit batch is aborted and must be re-logged in full later; any
  /// other failure means the underlying fd has fail-stopped.
  Result<uint64_t> Append(WalRecordType type, pages::PageId page_id,
                          const void* payload, size_t payload_len);

  /// The fsync: makes every appended record durable and advances
  /// durable_lsn(). A failure fail-stops the fd (see file_io.h).
  Status Sync();

  /// Empties the log after a checkpoint has made its records redundant
  /// (truncates the file to zero bytes). LSNs keep increasing across
  /// resets.
  Status Reset();

  /// LSN of the last appended record (first_lsn - 1 if none).
  uint64_t last_lsn() const { return next_lsn_ - 1; }
  /// LSN of the last record guaranteed on disk.
  uint64_t durable_lsn() const { return durable_lsn_; }

  uint64_t appended_records() const { return appended_; }
  uint64_t sync_count() const { return syncs_; }

  /// Bytes currently in the log file.
  uint64_t live_bytes() const { return file_->size(); }

  /// Path of the log file (what Create/Continue/ReplayWal take).
  const std::string& path() const { return file_->path(); }

 private:
  Wal(std::unique_ptr<File> file, uint64_t next_lsn)
      : file_(std::move(file)), next_lsn_(next_lsn),
        durable_lsn_(next_lsn - 1) {}

  std::unique_ptr<File> file_;
  std::vector<uint8_t> frame_;  // scratch for the record being appended.
  uint64_t next_lsn_;
  uint64_t durable_lsn_;
  uint64_t appended_ = 0;
  uint64_t syncs_ = 0;
};

/// One record surfaced during replay; `payload` points into the scan
/// buffer and is valid only for the duration of the callback.
struct WalRecordView {
  WalRecordType type = WalRecordType::kAlloc;
  uint64_t lsn = 0;
  pages::PageId page_id = pages::kInvalidPageId;
  const uint8_t* payload = nullptr;
  size_t payload_len = 0;
};

/// Scans the log at `path`, calling `fn` for every intact record in
/// order. A missing file is an empty log. A torn tail ends the scan
/// cleanly; a torn or corrupt record before it returns DataLoss; a
/// segment file `<path>.NNNNNN` beside the log returns NotSupported
/// before any record is read; a non-OK status from `fn` aborts the scan.
Result<WalReplayStats> ReplayWal(
    const std::string& path,
    const std::function<Status(const WalRecordView&)>& fn);

}  // namespace bw::storage

#endif  // BLOBWORLD_STORAGE_WAL_H_
