#include "storage/store.h"

#include <cstring>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "pages/page_codec.h"
#include "util/logging.h"

namespace bw::storage {

Status CheckpointManager::Checkpoint() {
  // A page quarantined since Open has no valid copy anywhere but the
  // WAL; truncating the log now would make it permanently unrepairable.
  if (!disk_->suspect_pages().empty()) {
    return Status::Unavailable(
        "checkpoint deferred: quarantined page(s) still pin WAL redo "
        "images; run RepairQuarantined first");
  }
  // Order matters (invariant 3 in store.h): the WAL must hold every
  // image we are about to flush before a frame write can tear, the
  // header may only advance once the frames it describes are synced,
  // and the log is truncated only after the header that supersedes its
  // records is durable.
  BW_RETURN_IF_ERROR(wal_->Sync());
  const std::vector<pages::PageId> dirty = disk_->TakeCheckpointDirty();
  const Status flushed = disk_->FlushPagesAndSync(dirty);
  if (!flushed.ok()) {
    // The WAL was not truncated, so every image is still replayable —
    // but the drained dirty set must go back, or the next successful
    // checkpoint would publish a header while these frames are stale
    // (or torn) on disk and then truncate their redo images away.
    disk_->RestoreCheckpointTracking(dirty);
    return flushed;
  }
  BW_RETURN_IF_ERROR(disk_->CommitHeader(wal_->durable_lsn()));
  BW_RETURN_IF_ERROR(wal_->Reset());
  ++checkpoints_;
  return Status::OK();
}

Status CheckpointManager::MaybeCheckpoint(uint64_t committed_batches) {
  if (every_commits_ == 0 || committed_batches % every_commits_ != 0) {
    return Status::OK();
  }
  if (!disk_->suspect_pages().empty()) {
    return Status::OK();  // deferred until repair frees the WAL.
  }
  return Checkpoint();
}

DurableStore::DurableStore(std::unique_ptr<DiskPageFile> disk,
                           std::unique_ptr<Wal> wal, StoreOptions options,
                           uint64_t committed_batches,
                           uint64_t last_commit_tag)
    : disk_(std::move(disk)),
      wal_(std::move(wal)),
      options_(options),
      checkpointer_(disk_.get(), wal_.get(), options.checkpoint_every_commits),
      committed_batches_(committed_batches),
      last_commit_tag_(last_commit_tag),
      checkpoint_tag_(last_commit_tag) {}

Result<std::unique_ptr<DurableStore>> DurableStore::Create(
    const std::string& base_path, const std::string& wal_path,
    StoreOptions options) {
  DiskPageFileOptions disk_options;
  disk_options.injector = options.injector;
  disk_options.read_retry = options.read_retry;
  BW_ASSIGN_OR_RETURN(
      std::unique_ptr<DiskPageFile> disk,
      DiskPageFile::Create(base_path, options.page_size, disk_options));
  WalOptions wal_options;
  wal_options.injector = options.injector;
  BW_ASSIGN_OR_RETURN(std::unique_ptr<Wal> wal,
                      Wal::Create(wal_path, wal_options));
  return std::make_unique<DurableStore>(std::move(disk), std::move(wal),
                                        options, /*committed_batches=*/0);
}

Status DurableStore::AppendBatchRecords(
    const std::vector<pages::PageId>& allocs,
    const std::vector<pages::PageId>& dirty, uint64_t tag) {
  // Allocations first so replay extends the page table before any image
  // lands in it; images second; the commit record seals the batch.
  std::vector<uint8_t> image;
  for (const pages::PageId id : allocs) {
    BW_RETURN_IF_ERROR(
        wal_->Append(WalRecordType::kAlloc, id, nullptr, 0).status());
  }
  for (const pages::PageId id : dirty) {
    // PeekNoIo, not Read: logging is bookkeeping, not index I/O, and
    // must not skew the IoStats that benchmarks report.
    pages::EncodePage(*disk_->PeekNoIo(id), &image);
    BW_RETURN_IF_ERROR(
        wal_->Append(WalRecordType::kPageImage, id, image.data(), image.size())
            .status());
  }
  uint8_t tag_bytes[8];
  std::memcpy(tag_bytes, &tag, sizeof(tag));
  BW_RETURN_IF_ERROR(wal_->Append(WalRecordType::kCommit,
                                  pages::kInvalidPageId, tag_bytes,
                                  sizeof(tag_bytes))
                         .status());
  // The batch's one fsync: the commit is acknowledged only after it.
  return wal_->Sync();
}

Status DurableStore::CommitBatch(uint64_t tag) {
  const std::vector<pages::PageId> allocs = disk_->TakeAllocationsSinceCommit();
  const std::vector<pages::PageId> dirty = disk_->TakeDirtySinceCommit();
  const Status appended = AppendBatchRecords(allocs, dirty, tag);
  if (appended.code() == StatusCode::kResourceExhausted) {
    // Clean out-of-space: the batch has no kCommit in the log (at worst
    // a prefix of its records, which recovery either discards or
    // overwrites with the retry's identical images). Re-arm the
    // tracking so the next CommitBatch re-logs the same changes; the
    // tree's in-memory state is untouched and stays servable.
    disk_->RestoreCommitTracking(allocs, dirty);
    return appended;
  }
  BW_RETURN_IF_ERROR(appended);
  ++committed_batches_;
  last_commit_tag_.store(tag, std::memory_order_relaxed);
  const uint64_t taken = checkpointer_.checkpoints_taken();
  BW_RETURN_IF_ERROR(checkpointer_.MaybeCheckpoint(committed_batches_));
  if (checkpointer_.checkpoints_taken() != taken) {
    // The cadence checkpoint just folded everything through this batch:
    // the shipping horizon advances with it.
    checkpoint_tag_.store(tag, std::memory_order_relaxed);
  }
  return Status::OK();
}

Status DurableStore::RepairQuarantined(RepairReport* report) {
  RepairReport local;
  std::vector<pages::PageId> need_wal;
  for (const pages::PageId id : disk_->health().Quarantined()) {
    if (!disk_->memory_invalid(id)) {
      // Disk rot under a still-valid memory copy (scrub-detected, or a
      // read-path flip): rewrite the frame from memory.
      if (disk_->RepairFromMemory(id).ok()) {
        ++local.repaired_from_memory;
      } else {
        ++local.unrepaired;  // verification still failing; retry later.
      }
      continue;
    }
    // No valid memory copy. The cheap cure first: the frame may have
    // been unreadable at Open only because of a transient fault.
    if (disk_->ReloadFromDisk(id).ok()) {
      ++local.repaired_from_disk;
    } else {
      need_wal.push_back(id);
    }
  }

  if (!need_wal.empty()) {
    // Mine the preserved WAL for the newest *committed* redo image of
    // each page (uncommitted tails must not leak into served state).
    std::unordered_set<pages::PageId> wanted(need_wal.begin(),
                                             need_wal.end());
    std::unordered_map<pages::PageId, std::vector<uint8_t>> pending;
    std::unordered_map<pages::PageId, std::vector<uint8_t>> committed;
    const Status scanned =
        ReplayWal(wal_->path(), [&](const WalRecordView& record) -> Status {
          if (record.type == WalRecordType::kPageImage &&
              wanted.count(record.page_id) > 0) {
            pending[record.page_id].assign(
                record.payload, record.payload + record.payload_len);
          } else if (record.type == WalRecordType::kCommit) {
            for (auto& [id, image] : pending) {
              committed[id] = std::move(image);
            }
            pending.clear();
          }
          return Status::OK();
        }).status();
    if (!scanned.ok()) return scanned;

    for (const pages::PageId id : need_wal) {
      auto it = committed.find(id);
      if (it == committed.end() ||
          !disk_->ApplyPageImage(id, it->second.data(), it->second.size())
               .ok()) {
        ++local.unrepaired;
        continue;
      }
      // The page is servable again from memory; also rewrite its frame
      // so the heal is durable (best effort — a failure here just means
      // the next scrub/repair pass revisits the frame).
      (void)disk_->RepairFromMemory(id);
      ++local.repaired_from_wal;
    }
  }

  if (report != nullptr) *report = local;
  return Status::OK();
}

Result<std::unique_ptr<DurableStore>> RecoveryManager::Recover(
    const std::string& base_path, const std::string& wal_path,
    StoreOptions options, Summary* summary) {
  Summary local;
  Summary& out = summary != nullptr ? *summary : local;
  out = Summary();

  DiskPageFileOptions disk_options;
  disk_options.injector = options.injector;
  disk_options.read_retry = options.read_retry;
  BW_ASSIGN_OR_RETURN(std::unique_ptr<DiskPageFile> disk,
                      DiskPageFile::Open(base_path, disk_options));

  // Redo scan. Records at or below the checkpoint LSN are already
  // reflected in the base file (a crash can land between header publish
  // and WAL truncation, leaving stale records). Later records are
  // buffered per batch and applied only when the batch's kCommit record
  // proves the whole batch reached the log.
  const uint64_t checkpoint_lsn = disk->checkpoint_lsn();
  struct PendingOp {
    WalRecordType type;
    pages::PageId page_id;
    std::vector<uint8_t> payload;
  };
  std::vector<PendingOp> pending;
  uint64_t pending_records = 0;
  BW_ASSIGN_OR_RETURN(
      WalReplayStats replay,
      ReplayWal(wal_path, [&](const WalRecordView& record) -> Status {
        if (record.lsn <= checkpoint_lsn) return Status::OK();
        if (record.type == WalRecordType::kCommit) {
          if (record.payload_len != 8) {
            return Status::DataLoss("WAL commit record with malformed tag");
          }
          for (const PendingOp& op : pending) {
            if (op.type == WalRecordType::kAlloc) {
              BW_RETURN_IF_ERROR(disk->EnsureAllocated(op.page_id));
            } else {
              BW_RETURN_IF_ERROR(disk->ApplyPageImage(
                  op.page_id, op.payload.data(), op.payload.size()));
            }
          }
          out.records_applied += pending_records;
          pending.clear();
          pending_records = 0;
          ++out.committed_batches;
          std::memcpy(&out.last_commit_tag, record.payload, 8);
          return Status::OK();
        }
        PendingOp op;
        op.type = record.type;
        op.page_id = record.page_id;
        op.payload.assign(record.payload, record.payload + record.payload_len);
        pending.push_back(std::move(op));
        ++pending_records;
        return Status::OK();
      }));
  out.records_discarded = pending_records;
  out.wal_tail_truncated = replay.tail_truncated;
  out.recovered_lsn = std::max(checkpoint_lsn, replay.last_lsn);

  // Every suspect frame must have been repaired by a replayed image;
  // a survivor means the base file rotted outside any redo window.
  const std::vector<pages::PageId> suspects = disk->suspect_pages();
  if (!suspects.empty() && !options.quarantine_unrepaired) {
    std::string ids;
    for (const pages::PageId id : suspects) {
      if (!ids.empty()) ids += ", ";
      ids += std::to_string(id);
    }
    return Status::DataLoss("base file page(s) [" + ids +
                            "] failed checksum verification and no WAL "
                            "redo image repairs them");
  }
  out.pages_quarantined = suspects.size();

  // Replay applied images directly; none of it is new work to re-log.
  disk->ClearCommitTracking();
  // But the next checkpoint must rewrite everything: the base frames on
  // disk may predate the replayed state (fuzzy checkpoints flush only
  // what changed, so "unchanged since replay" is not "clean on disk").
  disk->MarkAllDirtyForCheckpoint();

  WalOptions wal_options;
  wal_options.injector = options.injector;
  const uint64_t next_lsn = out.recovered_lsn + 1;
  BW_ASSIGN_OR_RETURN(
      std::unique_ptr<Wal> wal,
      Wal::Continue(wal_path, wal_options, replay.valid_bytes, next_lsn));

  auto store = std::make_unique<DurableStore>(std::move(disk), std::move(wal),
                                              options, out.committed_batches,
                                              out.last_commit_tag);
  if (out.pages_quarantined > 0) {
    // Tolerant mode with survivors: skip the post-recovery checkpoint.
    // It would truncate the WAL, and the WAL is the only place a redo
    // image for a quarantined page can still turn up (a record past the
    // bad batch, or one a later RepairQuarantined pass can reach after
    // operator intervention). The store serves degraded instead.
    return store;
  }
  // Fold the replayed state into a fresh checkpoint so the store starts
  // from a clean base and an empty log; a crash during this checkpoint
  // is itself recoverable (the old header + full WAL still exist until
  // the new header is durable).
  BW_RETURN_IF_ERROR(store->Checkpoint());
  return store;
}

}  // namespace bw::storage
