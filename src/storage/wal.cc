#include "storage/wal.h"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "util/crc32.h"

namespace bw::storage {

namespace {

constexpr uint32_t kRecordMagic = 0x4C415742;   // "BWAL"
constexpr uint32_t kSegmentMagic = 0x47535742;  // "BWSG"
constexpr uint32_t kSegmentVersion = 1;
constexpr size_t kHeaderBytes = 4 + 4 + 8 + 4 + 4;
constexpr size_t kTrailerBytes = 4;  // crc
/// Segment header: [u32 magic][u32 version][u64 seq][u32 crc].
constexpr size_t kSegHeaderBytes = 4 + 4 + 8 + 4;
/// Sanity cap on one record's payload; anything larger is a corrupt
/// length field, not a real record.
constexpr uint32_t kMaxPayload = 64u << 20;

void AppendU32(std::vector<uint8_t>* out, uint32_t v) {
  const size_t at = out->size();
  out->resize(at + sizeof(v));
  std::memcpy(out->data() + at, &v, sizeof(v));
}

void AppendU64(std::vector<uint8_t>* out, uint64_t v) {
  const size_t at = out->size();
  out->resize(at + sizeof(v));
  std::memcpy(out->data() + at, &v, sizeof(v));
}

uint32_t LoadU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint64_t LoadU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

uint64_t FileSizeOrZero(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

std::string SegmentPath(const std::string& base, uint64_t seq) {
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), ".%06llu",
                static_cast<unsigned long long>(seq));
  return base + suffix;
}

struct SegmentFile {
  uint64_t seq = 0;
  std::string path;
};

/// Lists `<base>.NNNNNN` segment files (archived copies excluded),
/// sorted by sequence number.
Result<std::vector<SegmentFile>> ListSegments(const std::string& base) {
  const size_t slash = base.find_last_of('/');
  const std::string dir = slash == std::string::npos ? std::string(".")
                                                     : base.substr(0, slash);
  const std::string prefix =
      (slash == std::string::npos ? base : base.substr(slash + 1)) + ".";
  std::vector<SegmentFile> segments;
  DIR* dp = ::opendir(dir.c_str());
  if (dp == nullptr) {
    if (errno == ENOENT) return segments;
    return Status::IoError("opendir '" + dir + "': " + std::strerror(errno));
  }
  while (struct dirent* entry = ::readdir(dp)) {
    const std::string name = entry->d_name;
    if (name.size() != prefix.size() + 6 || name.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    const std::string digits = name.substr(prefix.size());
    if (digits.find_first_not_of("0123456789") != std::string::npos) continue;
    SegmentFile seg;
    seg.seq = std::strtoull(digits.c_str(), nullptr, 10);
    seg.path = dir + "/" + name;
    if (seg.seq > 0) segments.push_back(std::move(seg));
  }
  ::closedir(dp);
  std::sort(segments.begin(), segments.end(),
            [](const SegmentFile& a, const SegmentFile& b) {
              return a.seq < b.seq;
            });
  return segments;
}

Status RemoveSegmentFile(const std::string& path) {
  if (::remove(path.c_str()) != 0 && errno != ENOENT) {
    return Status::IoError("remove '" + path + "': " + std::strerror(errno));
  }
  return Status::OK();
}

/// Opens a fresh segment file and writes + syncs its header.
Result<std::unique_ptr<File>> CreateSegment(const std::string& base,
                                            uint64_t seq,
                                            FaultInjector* injector) {
  BW_ASSIGN_OR_RETURN(
      std::unique_ptr<File> file,
      File::Open(SegmentPath(base, seq), /*truncate=*/true, injector));
  std::vector<uint8_t> header;
  AppendU32(&header, kSegmentMagic);
  AppendU32(&header, kSegmentVersion);
  AppendU64(&header, seq);
  AppendU32(&header, Crc32(header.data(), header.size()));
  BW_RETURN_IF_ERROR(file->Append(header.data(), header.size()));
  BW_RETURN_IF_ERROR(file->Sync());
  return file;
}

/// Scans one buffer of record frames starting at `at`. On a torn tail:
/// stops and reports it via `*torn` when `allow_torn_tail`, else
/// DataLoss. `*end` receives the offset one past the last intact record.
Status ScanRecords(const std::vector<uint8_t>& bytes, size_t at,
                   bool allow_torn_tail, const std::string& label,
                   const std::function<Status(const WalRecordView&)>& fn,
                   WalReplayStats* stats, size_t* end, bool* torn) {
  *torn = false;
  *end = at;
  while (at < bytes.size()) {
    const size_t remaining = bytes.size() - at;
    if (remaining < kHeaderBytes) {
      if (!allow_torn_tail) {
        return Status::DataLoss("torn record header at offset " +
                                std::to_string(at) + " in " + label);
      }
      *torn = true;  // partial header at EOF.
      break;
    }
    const uint8_t* frame = bytes.data() + at;
    const uint32_t magic = LoadU32(frame);
    const uint32_t type = LoadU32(frame + 4);
    const uint64_t lsn = LoadU64(frame + 8);
    const uint32_t page_id = LoadU32(frame + 16);
    const uint32_t payload_len = LoadU32(frame + 20);
    if (magic != kRecordMagic) {
      return Status::DataLoss("record at offset " + std::to_string(at) +
                              " in " + label + " has bad magic");
    }
    if (payload_len > kMaxPayload) {
      return Status::DataLoss("record at offset " + std::to_string(at) +
                              " in " + label +
                              " has implausible payload length");
    }
    const size_t frame_bytes = kHeaderBytes + payload_len + kTrailerBytes;
    if (remaining < frame_bytes) {
      if (!allow_torn_tail) {
        return Status::DataLoss("torn record at offset " + std::to_string(at) +
                                " in " + label);
      }
      *torn = true;  // torn mid-payload at EOF.
      break;
    }
    const uint32_t stored_crc = LoadU32(frame + kHeaderBytes + payload_len);
    const uint32_t actual_crc = Crc32(frame, kHeaderBytes + payload_len);
    if (stored_crc != actual_crc) {
      return Status::DataLoss("record at offset " + std::to_string(at) +
                              " in " + label + " failed its checksum (LSN " +
                              std::to_string(lsn) + ")");
    }
    if (type != static_cast<uint32_t>(WalRecordType::kAlloc) &&
        type != static_cast<uint32_t>(WalRecordType::kPageImage) &&
        type != static_cast<uint32_t>(WalRecordType::kCommit)) {
      return Status::DataLoss("record at offset " + std::to_string(at) +
                              " in " + label + " has unknown type " +
                              std::to_string(type));
    }
    WalRecordView view;
    view.type = static_cast<WalRecordType>(type);
    view.lsn = lsn;
    view.page_id = page_id;
    view.payload = frame + kHeaderBytes;
    view.payload_len = payload_len;
    BW_RETURN_IF_ERROR(fn(view));
    ++stats->records;
    if (view.type == WalRecordType::kCommit) ++stats->commits;
    stats->last_lsn = lsn;
    at += frame_bytes;
    *end = at;
  }
  return Status::OK();
}

Status ValidateOptions(const WalOptions& options) {
  if (options.sync_every_records == 0) {
    return Status::InvalidArgument("sync_every_records must be >= 1");
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<Wal>> Wal::Create(const std::string& base,
                                         WalOptions options,
                                         uint64_t first_lsn) {
  BW_RETURN_IF_ERROR(ValidateOptions(options));
  // A fresh log must not leave bytes from an earlier incarnation behind
  // in EITHER layout: a stale legacy file or stale segments would make
  // the next replay resurrect dead records.
  BW_ASSIGN_OR_RETURN(std::vector<SegmentFile> stale, ListSegments(base));
  for (const SegmentFile& segment : stale) {
    BW_RETURN_IF_ERROR(RemoveSegmentFile(segment.path));
  }
  if (options.segment_bytes == 0) {
    BW_ASSIGN_OR_RETURN(
        std::unique_ptr<File> file,
        File::Open(base, /*truncate=*/true, options.injector));
    return std::unique_ptr<Wal>(new Wal(base, std::move(file), options,
                                        first_lsn, /*segmented=*/false,
                                        /*active_seq=*/0));
  }
  BW_RETURN_IF_ERROR(RemoveSegmentFile(base));
  BW_ASSIGN_OR_RETURN(std::unique_ptr<File> file,
                      CreateSegment(base, 1, options.injector));
  auto wal = std::unique_ptr<Wal>(new Wal(base, std::move(file), options,
                                          first_lsn, /*segmented=*/true,
                                          /*active_seq=*/1));
  wal->segments_created_ = 1;
  return wal;
}

Result<std::unique_ptr<Wal>> Wal::Continue(const std::string& base,
                                           WalOptions options,
                                           const WalReplayStats& replay,
                                           uint64_t next_lsn) {
  BW_RETURN_IF_ERROR(ValidateOptions(options));
  const bool legacy_on_disk = FileExists(base);
  if (replay.last_segment_seq == 0 && legacy_on_disk) {
    // Keep the single-file layout the replay found, even if the options
    // now ask for rotation: a mid-log format switch would force replay
    // to stitch layouts. The upgrade happens at the next Create.
    return Continue(base, options, replay.valid_bytes, next_lsn);
  }
  if (replay.last_segment_seq == 0 && options.segment_bytes == 0) {
    // No log on disk at all (replay read nothing): start one empty.
    return Create(base, options, next_lsn);
  }

  // Segmented (or empty-and-rotation-requested) log. Drop segments past
  // the last valid one: a torn rotation can leave a successor whose
  // header never became durable, and replay already refused to read it.
  BW_ASSIGN_OR_RETURN(std::vector<SegmentFile> on_disk, ListSegments(base));
  for (const SegmentFile& segment : on_disk) {
    if (segment.seq > replay.last_segment_seq) {
      BW_RETURN_IF_ERROR(RemoveSegmentFile(segment.path));
    }
  }

  if (replay.last_segment_seq == 0) {
    // Nothing valid on disk: same as a fresh segmented create.
    BW_ASSIGN_OR_RETURN(std::unique_ptr<File> file,
                        CreateSegment(base, 1, options.injector));
    auto wal = std::unique_ptr<Wal>(new Wal(base, std::move(file), options,
                                            next_lsn, /*segmented=*/true,
                                            /*active_seq=*/1));
    wal->segments_created_ = 1;
    return wal;
  }

  BW_ASSIGN_OR_RETURN(
      std::unique_ptr<File> file,
      File::Open(SegmentPath(base, replay.last_segment_seq),
                 /*truncate=*/false, options.injector));
  if (replay.valid_bytes > file->size()) {
    return Status::InvalidArgument("valid_bytes beyond end of WAL segment");
  }
  if (replay.valid_bytes < file->size()) {
    BW_RETURN_IF_ERROR(file->Truncate(replay.valid_bytes));
    BW_RETURN_IF_ERROR(file->Sync());
  }
  auto wal = std::unique_ptr<Wal>(
      new Wal(base, std::move(file), options, next_lsn, /*segmented=*/true,
              /*active_seq=*/replay.last_segment_seq));
  for (const SegmentFile& segment : on_disk) {
    if (segment.seq >= replay.last_segment_seq) continue;
    SealedSegment sealed;
    sealed.seq = segment.seq;
    sealed.path = segment.path;
    sealed.bytes = FileSizeOrZero(segment.path);
    wal->sealed_bytes_ += sealed.bytes;
    wal->sealed_.push_back(std::move(sealed));
  }
  return wal;
}

Result<std::unique_ptr<Wal>> Wal::Continue(const std::string& base,
                                           WalOptions options,
                                           uint64_t valid_bytes,
                                           uint64_t next_lsn) {
  BW_RETURN_IF_ERROR(ValidateOptions(options));
  BW_ASSIGN_OR_RETURN(std::unique_ptr<File> file,
                      File::Open(base, /*truncate=*/false, options.injector));
  if (valid_bytes > file->size()) {
    return Status::InvalidArgument("valid_bytes beyond end of WAL");
  }
  if (valid_bytes < file->size()) {
    BW_RETURN_IF_ERROR(file->Truncate(valid_bytes));
    BW_RETURN_IF_ERROR(file->Sync());
  }
  return std::unique_ptr<Wal>(new Wal(base, std::move(file), options,
                                      next_lsn, /*segmented=*/false,
                                      /*active_seq=*/0));
}

Result<uint64_t> Wal::Append(WalRecordType type, pages::PageId page_id,
                             const void* payload, size_t payload_len) {
  if (payload_len > kMaxPayload) {
    return Status::InvalidArgument("WAL payload too large");
  }
  const uint64_t lsn = next_lsn_++;
  const size_t frame_start = buffer_.size();
  AppendU32(&buffer_, kRecordMagic);
  AppendU32(&buffer_, static_cast<uint32_t>(type));
  AppendU64(&buffer_, lsn);
  AppendU32(&buffer_, page_id);
  AppendU32(&buffer_, static_cast<uint32_t>(payload_len));
  if (payload_len > 0) {
    const size_t at = buffer_.size();
    buffer_.resize(at + payload_len);
    std::memcpy(buffer_.data() + at, payload, payload_len);
  }
  const uint32_t crc =
      Crc32(buffer_.data() + frame_start, kHeaderBytes + payload_len);
  AppendU32(&buffer_, crc);
  ++appended_;
  ++buffered_records_;
  if (buffered_records_ >= options_.sync_every_records) {
    BW_RETURN_IF_ERROR(Sync());
  }
  return lsn;
}

Status Wal::Flush() {
  if (buffer_.empty()) return Status::OK();
  const Status status = file_->Append(buffer_.data(), buffer_.size());
  if (status.code() == StatusCode::kResourceExhausted) {
    // Clean out-of-space: nothing landed, so dropping the buffered
    // records keeps the on-disk log exactly the durable prefix. The
    // enclosing commit batch aborts and re-logs in full once space
    // returns (their LSNs are simply skipped; replay tolerates gaps).
    buffer_.clear();
    buffered_records_ = 0;
  }
  BW_RETURN_IF_ERROR(status);
  buffer_.clear();
  buffered_records_ = 0;
  return Status::OK();
}

Status Wal::Sync() {
  BW_RETURN_IF_ERROR(Flush());
  BW_RETURN_IF_ERROR(file_->Sync());
  ++syncs_;
  durable_lsn_ = next_lsn_ - 1;
  if (segmented_ && options_.segment_bytes > 0 &&
      file_->size() >= options_.segment_bytes) {
    BW_RETURN_IF_ERROR(Rotate());
  }
  return Status::OK();
}

Status Wal::Rotate() {
  SealedSegment sealed;
  sealed.seq = active_seq_;
  sealed.path = SegmentPath(base_path_, active_seq_);
  sealed.bytes = file_->size();
  // The outgoing segment was just synced; the new one's header is
  // synced by CreateSegment before any record lands in it, so a crash
  // between the two leaves either no successor or a torn header —
  // both shapes replay treats as a clean end of log.
  BW_ASSIGN_OR_RETURN(std::unique_ptr<File> next,
                      CreateSegment(base_path_, active_seq_ + 1,
                                    options_.injector));
  file_ = std::move(next);
  ++active_seq_;
  ++segments_created_;
  sealed_bytes_ += sealed.bytes;
  sealed_.push_back(std::move(sealed));
  return Status::OK();
}

Status Wal::RetireSegment(const SealedSegment& segment) {
  // Retirement bypasses File (it is unlink/rename, not fd I/O), so the
  // injected-crash state must be checked explicitly: a "dead" process
  // cannot keep deleting files, and stopping here leaves a contiguous
  // suffix of sealed segments for replay.
  if (options_.injector != nullptr && options_.injector->crashed()) {
    return Status::IoError("simulated crash: segment retirement halted");
  }
  if (options_.archive_sealed) {
    const std::string archived = segment.path + ".archived";
    if (::rename(segment.path.c_str(), archived.c_str()) != 0) {
      return Status::IoError("rename '" + segment.path + "': " +
                             std::strerror(errno));
    }
    return Status::OK();
  }
  return RemoveSegmentFile(segment.path);
}

Status Wal::Reset() {
  BW_RETURN_IF_ERROR(Sync());
  // Oldest-first so a failure partway leaves a contiguous suffix
  // ending at the active segment — a shape replay accepts.
  while (!sealed_.empty()) {
    BW_RETURN_IF_ERROR(RetireSegment(sealed_.front()));
    sealed_bytes_ -= sealed_.front().bytes;
    ++segments_retired_;
    sealed_.erase(sealed_.begin());
  }
  BW_RETURN_IF_ERROR(file_->Truncate(segmented_ ? kSegHeaderBytes : 0));
  return file_->Sync();
}

Result<WalReplayStats> ReplayWal(
    const std::string& base,
    const std::function<Status(const WalRecordView&)>& fn) {
  WalReplayStats stats;
  if (FileExists(base)) {
    // Legacy single-file layout.
    std::vector<uint8_t> bytes;
    BW_RETURN_IF_ERROR(ReadFile(base, &bytes));
    size_t end = 0;
    bool torn = false;
    BW_RETURN_IF_ERROR(ScanRecords(bytes, 0, /*allow_torn_tail=*/true,
                                   "WAL '" + base + "'", fn, &stats, &end,
                                   &torn));
    stats.valid_bytes = end;
    stats.tail_truncated = torn;
    return stats;
  }

  BW_ASSIGN_OR_RETURN(std::vector<SegmentFile> segments, ListSegments(base));
  if (segments.empty()) return stats;  // empty log.
  for (size_t i = 0; i + 1 < segments.size(); ++i) {
    if (segments[i + 1].seq != segments[i].seq + 1) {
      return Status::DataLoss(
          "WAL segment sequence gap: " + std::to_string(segments[i].seq) +
          " -> " + std::to_string(segments[i + 1].seq) +
          " (a whole segment vanished)");
    }
  }

  for (size_t i = 0; i < segments.size(); ++i) {
    const SegmentFile& segment = segments[i];
    const bool last = i + 1 == segments.size();
    const std::string label = "WAL segment '" + segment.path + "'";
    std::vector<uint8_t> bytes;
    BW_RETURN_IF_ERROR(ReadFile(segment.path, &bytes));
    if (bytes.size() < kSegHeaderBytes) {
      if (last) {
        // Crash mid-rotation: the successor's header never finished.
        // The previous segment's clean end is the end of the log.
        stats.tail_truncated = true;
        break;
      }
      return Status::DataLoss(label + " has a torn header");
    }
    const uint32_t magic = LoadU32(bytes.data());
    const uint32_t version = LoadU32(bytes.data() + 4);
    const uint64_t header_seq = LoadU64(bytes.data() + 8);
    const uint32_t stored_crc = LoadU32(bytes.data() + 16);
    if (magic != kSegmentMagic || version != kSegmentVersion ||
        stored_crc != Crc32(bytes.data(), 16)) {
      return Status::DataLoss(label + " has a corrupt header");
    }
    if (header_seq != segment.seq) {
      return Status::DataLoss(label + " header seq " +
                              std::to_string(header_seq) +
                              " does not match its filename");
    }
    size_t end = 0;
    bool torn = false;
    BW_RETURN_IF_ERROR(ScanRecords(bytes, kSegHeaderBytes,
                                   /*allow_torn_tail=*/last, label, fn,
                                   &stats, &end, &torn));
    ++stats.segments;
    stats.last_segment_seq = segment.seq;
    stats.valid_bytes = end;
    if (torn) {
      stats.tail_truncated = true;
      break;
    }
  }
  return stats;
}

}  // namespace bw::storage
