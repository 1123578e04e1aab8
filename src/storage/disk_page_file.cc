#include "storage/disk_page_file.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "pages/page_codec.h"
#include "util/crc32.h"
#include "util/logging.h"

namespace bw::storage {

namespace {

/// Deterministic jitter in [0, cap): a splitmix-style hash of
/// (seed, stream, attempt), so the backoff schedule is reproducible per
/// seed yet decorrelated across pages and attempts.
uint32_t DeterministicJitter(uint64_t seed, uint64_t stream, int attempt,
                             uint32_t cap) {
  if (cap == 0) return 0;
  uint64_t x = seed ^ (stream * 0xbf58476d1ce4e5b9ull) ^
               (static_cast<uint64_t>(attempt) * 0x94d049bb133111ebull);
  x ^= x >> 31;
  x *= 0xd6e8feb86659fd93ull;
  x ^= x >> 27;
  return static_cast<uint32_t>(x % cap);
}

constexpr uint32_t kBaseMagic = 0x46505742;  // "BWPF"
constexpr uint32_t kBaseVersion = 1;
constexpr size_t kHeaderSlotBytes = 64;
constexpr size_t kPageFramesOffset = 2 * kHeaderSlotBytes;
/// Frame overhead: u32 encoded_len + u32 crc, rounded up generously so
/// the page_codec image (page_size + 20 worst case) always fits.
constexpr size_t kFrameOverhead = 32;

struct HeaderImage {
  uint32_t magic = kBaseMagic;
  uint32_t version = kBaseVersion;
  uint32_t page_size = 0;
  uint32_t page_count = 0;
  uint64_t checkpoint_lsn = 0;
  uint64_t epoch = 0;
};

void EncodeHeader(const HeaderImage& h, uint8_t out[kHeaderSlotBytes]) {
  std::memset(out, 0, kHeaderSlotBytes);
  std::memcpy(out + 0, &h.magic, 4);
  std::memcpy(out + 4, &h.version, 4);
  std::memcpy(out + 8, &h.page_size, 4);
  std::memcpy(out + 12, &h.page_count, 4);
  std::memcpy(out + 16, &h.checkpoint_lsn, 8);
  std::memcpy(out + 24, &h.epoch, 8);
  const uint32_t crc = bw::Crc32(out, kHeaderSlotBytes - 4);
  std::memcpy(out + kHeaderSlotBytes - 4, &crc, 4);
}

bool DecodeHeader(const uint8_t in[kHeaderSlotBytes], HeaderImage* h) {
  uint32_t stored_crc;
  std::memcpy(&stored_crc, in + kHeaderSlotBytes - 4, 4);
  if (stored_crc != bw::Crc32(in, kHeaderSlotBytes - 4)) return false;
  std::memcpy(&h->magic, in + 0, 4);
  std::memcpy(&h->version, in + 4, 4);
  std::memcpy(&h->page_size, in + 8, 4);
  std::memcpy(&h->page_count, in + 12, 4);
  std::memcpy(&h->checkpoint_lsn, in + 16, 8);
  std::memcpy(&h->epoch, in + 24, 8);
  if (h->magic != kBaseMagic || h->version != kBaseVersion) return false;
  if (h->page_size < 512 || h->page_size > (64u << 20)) return false;
  return true;
}

}  // namespace

size_t DiskPageFile::frame_bytes() const { return page_size_ + kFrameOverhead; }

uint64_t DiskPageFile::FrameOffset(pages::PageId id) const {
  return kPageFramesOffset + static_cast<uint64_t>(id) * frame_bytes();
}

Status DiskPageFile::ReadWithRetry(uint64_t offset, void* data, size_t n,
                                   uint64_t jitter_stream) const {
  const int attempts = retry_.max_attempts < 1 ? 1 : retry_.max_attempts;
  Status last;
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    if (attempt > 1) {
      uint64_t backoff = static_cast<uint64_t>(retry_.backoff_us)
                         << (attempt - 2);
      if (backoff > retry_.max_backoff_us) backoff = retry_.max_backoff_us;
      backoff += DeterministicJitter(retry_.jitter_seed, jitter_stream,
                                     attempt,
                                     static_cast<uint32_t>(backoff / 2 + 1));
      std::this_thread::sleep_for(std::chrono::microseconds(backoff));
      read_retries_.fetch_add(1, std::memory_order_relaxed);
    }
    last = file_->ReadAt(offset, data, n);
    if (!IsRetryable(last)) return last;
  }
  return last;  // kUnavailable: transient faults outlasted the budget.
}

Status DiskPageFile::CheckFrame(const uint8_t* frame, size_t frame_len,
                                pages::Page* scratch) const {
  uint32_t encoded_len;
  std::memcpy(&encoded_len, frame, 4);
  if (encoded_len > frame_len - 8) {
    return Status::DataLoss("frame length field out of range");
  }
  uint32_t stored_crc;
  std::memcpy(&stored_crc, frame + 4 + encoded_len, 4);
  if (stored_crc != bw::Crc32(frame, 4 + encoded_len)) {
    return Status::DataLoss("frame checksum mismatch");
  }
  BW_RETURN_IF_ERROR(pages::DecodePage(frame + 4, encoded_len, scratch));
  return Status::OK();
}

Result<std::unique_ptr<DiskPageFile>> DiskPageFile::Create(
    const std::string& path, size_t page_size, DiskPageFileOptions options) {
  if (page_size < 512) {
    return Status::InvalidArgument("page_size must be >= 512");
  }
  BW_ASSIGN_OR_RETURN(std::unique_ptr<File> file,
                      File::Open(path, /*truncate=*/true, options.injector));
  std::unique_ptr<DiskPageFile> store(
      new DiskPageFile(std::move(file), page_size));
  store->retry_ = options.read_retry;
  BW_RETURN_IF_ERROR(store->CommitHeader(/*checkpoint_lsn=*/0));
  return store;
}

Result<std::unique_ptr<DiskPageFile>> DiskPageFile::Open(
    const std::string& path, DiskPageFileOptions options) {
  BW_ASSIGN_OR_RETURN(std::unique_ptr<File> file,
                      File::Open(path, /*truncate=*/false, options.injector));

  // Pick the valid header slot with the highest epoch; a torn header
  // write leaves the other slot intact.
  HeaderImage header;
  int slot_found = -1;
  for (int slot = 0; slot < 2; ++slot) {
    uint8_t raw[kHeaderSlotBytes];
    if (!file->ReadAt(slot * kHeaderSlotBytes, raw, sizeof(raw)).ok()) {
      continue;  // file too short for this slot.
    }
    HeaderImage candidate;
    if (!DecodeHeader(raw, &candidate)) continue;
    if (slot_found < 0 || candidate.epoch > header.epoch) {
      header = candidate;
      slot_found = slot;
    }
  }
  if (slot_found < 0) {
    return Status::DataLoss("'" + path +
                            "' has no valid header slot (both corrupt)");
  }

  std::unique_ptr<DiskPageFile> store(
      new DiskPageFile(std::move(file), header.page_size));
  store->retry_ = options.read_retry;
  store->checkpoint_lsn_ = header.checkpoint_lsn;
  store->header_epoch_ = header.epoch;
  store->active_header_slot_ = slot_found;

  // Load every frame in id order, one ReadWithRetry each: a frame's
  // retries follow its own first attempt, so it meets a burst of
  // transient faults with consecutive attempts of its own.
  std::vector<uint8_t> frame(store->frame_bytes());
  for (pages::PageId id = 0; id < header.page_count; ++id) {
    auto page = std::make_shared<pages::Page>(header.page_size);
    const bool intact =
        store->ReadWithRetry(store->FrameOffset(id), frame.data(),
                             frame.size(), /*jitter_stream=*/id)
            .ok() &&
        store->CheckFrame(frame.data(), frame.size(), page.get()).ok();
    if (!intact) {
      page->Clear();
      store->suspect_.insert(id);
      store->health_.Quarantine(id);
    }
    store->pages_.push_back(std::move(page));
  }
  return store;
}

pages::PageId DiskPageFile::Allocate() {
  pages_.push_back(std::make_shared<pages::Page>(page_size_));
  const auto id = static_cast<pages::PageId>(pages_.size() - 1);
  alloc_commit_.push_back(id);
  dirty_checkpoint_.insert(id);
  return id;
}

Status DiskPageFile::CheckId(pages::PageId id) const {
  if (id >= pages_.size()) {
    return Status::InvalidArgument("page id out of range");
  }
  return Status::OK();
}

Result<pages::Page*> DiskPageFile::Read(pages::PageId id) {
  BW_RETURN_IF_ERROR(CheckId(id));
  ++stats_.reads;
  if (last_read_ != pages::kInvalidPageId && id == last_read_ + 1) {
    ++stats_.sequential_reads;
  } else {
    ++stats_.random_reads;
  }
  last_read_ = id;
  return pages_[id].get();
}

Result<pages::Page*> DiskPageFile::Write(pages::PageId id) {
  BW_RETURN_IF_ERROR(CheckId(id));
  ++stats_.writes;
  dirty_commit_.insert(id);
  dirty_checkpoint_.insert(id);
  // Copy-on-write: a page another table holds is replaced, never changed.
  if (pages_[id].use_count() > 1) {
    pages_[id] = std::make_shared<pages::Page>(*pages_[id]);
  }
  return pages_[id].get();
}

pages::Page* DiskPageFile::PeekNoIo(pages::PageId id) {
  BW_CHECK_LT(id, pages_.size());
  return pages_[id].get();
}

const pages::Page* DiskPageFile::PeekNoIo(pages::PageId id) const {
  BW_CHECK_LT(id, pages_.size());
  return pages_[id].get();
}

std::vector<pages::PageId> DiskPageFile::TakeDirtySinceCommit() {
  std::vector<pages::PageId> ids(dirty_commit_.begin(), dirty_commit_.end());
  dirty_commit_.clear();
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<pages::PageId> DiskPageFile::TakeAllocationsSinceCommit() {
  std::vector<pages::PageId> ids = std::move(alloc_commit_);
  alloc_commit_.clear();
  return ids;
}

std::vector<pages::PageId> DiskPageFile::TakeCheckpointDirty() {
  std::vector<pages::PageId> ids(dirty_checkpoint_.begin(),
                                 dirty_checkpoint_.end());
  dirty_checkpoint_.clear();
  std::sort(ids.begin(), ids.end());
  return ids;
}

void DiskPageFile::MarkAllDirtyForCheckpoint() {
  for (pages::PageId id = 0; id < pages_.size(); ++id) {
    dirty_checkpoint_.insert(id);
  }
}

void DiskPageFile::ClearCommitTracking() {
  dirty_commit_.clear();
  alloc_commit_.clear();
}

void DiskPageFile::RestoreCommitTracking(
    const std::vector<pages::PageId>& allocs,
    const std::vector<pages::PageId>& dirty) {
  // Restored allocations go in front: replay must see a page exist
  // before anything (including a later allocation's split traffic)
  // references it.
  alloc_commit_.insert(alloc_commit_.begin(), allocs.begin(), allocs.end());
  dirty_commit_.insert(dirty.begin(), dirty.end());
}

void DiskPageFile::RestoreCheckpointTracking(
    const std::vector<pages::PageId>& ids) {
  dirty_checkpoint_.insert(ids.begin(), ids.end());
}

Status DiskPageFile::FlushPagesAndSync(
    const std::vector<pages::PageId>& ids) {
  std::vector<uint8_t> image;
  std::vector<uint8_t> frame(frame_bytes());
  for (const pages::PageId id : ids) {
    BW_RETURN_IF_ERROR(CheckId(id));
    if (suspect_.count(id) > 0) {
      // The memory copy is Clear()ed garbage (frame was bad at Open and
      // no WAL image has repaired it yet). Writing it out would
      // overwrite the rotted-but-maybe-repairable frame with a "valid"
      // empty page — a silent data loss. Keep the page dirty so a later
      // checkpoint flushes it once repair lands.
      dirty_checkpoint_.insert(id);
      continue;
    }
    pages::EncodePage(*pages_[id], &image);
    BW_CHECK_LE(image.size(), frame.size() - 8);
    std::fill(frame.begin(), frame.end(), 0);
    const auto encoded_len = static_cast<uint32_t>(image.size());
    std::memcpy(frame.data(), &encoded_len, 4);
    std::memcpy(frame.data() + 4, image.data(), image.size());
    const uint32_t crc = bw::Crc32(frame.data(), 4 + image.size());
    std::memcpy(frame.data() + 4 + image.size(), &crc, 4);
    BW_RETURN_IF_ERROR(file_->WriteAt(FrameOffset(id), frame.data(),
                                      frame.size()));
  }
  return file_->Sync();
}

Status DiskPageFile::CommitHeader(uint64_t checkpoint_lsn) {
  HeaderImage header;
  header.page_size = static_cast<uint32_t>(page_size_);
  header.page_count = static_cast<uint32_t>(pages_.size());
  header.checkpoint_lsn = checkpoint_lsn;
  header.epoch = header_epoch_ + 1;
  uint8_t raw[kHeaderSlotBytes];
  EncodeHeader(header, raw);
  const int slot = 1 - active_header_slot_;
  BW_RETURN_IF_ERROR(
      file_->WriteAt(slot * kHeaderSlotBytes, raw, sizeof(raw)));
  BW_RETURN_IF_ERROR(file_->Sync());
  // The new header is durable; only now may in-memory state adopt it.
  active_header_slot_ = slot;
  header_epoch_ = header.epoch;
  checkpoint_lsn_ = checkpoint_lsn;
  return Status::OK();
}

Status DiskPageFile::EnsureAllocated(pages::PageId id) {
  if (id == pages::kInvalidPageId) {
    return Status::Corruption("WAL alloc record for invalid page id");
  }
  while (pages_.size() <= id) {
    pages_.push_back(std::make_shared<pages::Page>(page_size_));
    const auto added = static_cast<pages::PageId>(pages_.size() - 1);
    alloc_commit_.push_back(added);
    dirty_checkpoint_.insert(added);
  }
  return Status::OK();
}

Status DiskPageFile::ApplyPageImage(pages::PageId id, const uint8_t* image,
                                    size_t len) {
  BW_RETURN_IF_ERROR(EnsureAllocated(id));
  std::shared_ptr<pages::Page>& page = pages_[id];
  if (page.use_count() > 1) page = std::make_shared<pages::Page>(page_size_);
  BW_RETURN_IF_ERROR(pages::DecodePage(image, len, page.get()));
  suspect_.erase(id);
  health_.Release(id);
  dirty_commit_.insert(id);
  dirty_checkpoint_.insert(id);
  return Status::OK();
}

Status DiskPageFile::RepairFromImage(pages::PageId id, const uint8_t* image,
                                     size_t len) {
  BW_RETURN_IF_ERROR(CheckId(id));
  pages::Page scratch(page_size_);
  BW_RETURN_IF_ERROR(pages::DecodePage(image, len, &scratch));
  RepairInPlace(id, scratch);
  dirty_checkpoint_.insert(id);
  return Status::OK();
}

void DiskPageFile::RepairInPlace(pages::PageId id, const pages::Page& image) {
  // While the page is quarantined readers are gated off it, so this
  // assignment races with no one.
  *pages_[id] = image;
  suspect_.erase(id);
  health_.Release(id);
}

std::vector<pages::PageId> DiskPageFile::suspect_pages() const {
  std::vector<pages::PageId> ids(suspect_.begin(), suspect_.end());
  std::sort(ids.begin(), ids.end());
  return ids;
}

Status DiskPageFile::ReadHealth(pages::PageId id) const {
  if (health_.IsQuarantined(id)) {
    return Status::Unavailable("page " + std::to_string(id) +
                               " quarantined pending repair");
  }
  return Status::OK();
}

Status DiskPageFile::VerifyFrame(pages::PageId id) {
  BW_RETURN_IF_ERROR(CheckId(id));
  std::vector<uint8_t> frame(frame_bytes());
  BW_RETURN_IF_ERROR(
      ReadWithRetry(FrameOffset(id), frame.data(), frame.size(),
                    /*jitter_stream=*/id));
  pages::Page scratch(page_size_);
  Status check = CheckFrame(frame.data(), frame.size(), &scratch);
  if (!check.ok()) {
    return Status::DataLoss("page " + std::to_string(id) + " frame in '" +
                            file_->path() + "': " + check.message());
  }
  return Status::OK();
}

Status DiskPageFile::Scrub(ScrubReport* report) {
  ScrubReport local;
  for (pages::PageId id = 0; id < pages_.size(); ++id) {
    ++local.frames_checked;
    if (health_.IsQuarantined(id)) continue;  // already awaiting repair.
    const Status status = VerifyFrame(id);
    if (status.ok()) continue;
    if (status.code() == StatusCode::kDataLoss) {
      health_.Quarantine(id);
      ++local.frames_quarantined;
    } else {
      ++local.frames_unreadable;  // transient; next pass retries.
    }
  }
  if (report != nullptr) *report = local;
  return Status::OK();
}

Status DiskPageFile::ReloadFromDisk(pages::PageId id) {
  BW_RETURN_IF_ERROR(CheckId(id));
  std::vector<uint8_t> frame(frame_bytes());
  BW_RETURN_IF_ERROR(
      ReadWithRetry(FrameOffset(id), frame.data(), frame.size(),
                    /*jitter_stream=*/id));
  // Decode into a scratch page first: the live page must not hold a
  // half-decoded image if the frame turns out to be rotten.
  pages::Page scratch(page_size_);
  Status check = CheckFrame(frame.data(), frame.size(), &scratch);
  if (!check.ok()) {
    return Status::DataLoss("page " + std::to_string(id) + " frame in '" +
                            file_->path() + "': " + check.message());
  }
  RepairInPlace(id, scratch);
  return Status::OK();
}

Status DiskPageFile::RepairFromMemory(pages::PageId id) {
  BW_RETURN_IF_ERROR(CheckId(id));
  if (suspect_.count(id) > 0) {
    return Status::InvalidArgument(
        "page " + std::to_string(id) +
        " has no valid memory copy; repair it from the WAL instead");
  }
  BW_RETURN_IF_ERROR(FlushPagesAndSync({id}));
  BW_RETURN_IF_ERROR(VerifyFrame(id));
  health_.Release(id);
  return Status::OK();
}

}  // namespace bw::storage
