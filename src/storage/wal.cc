#include "storage/wal.h"

#include <dirent.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "util/crc32.h"

namespace bw::storage {

namespace {

constexpr uint32_t kRecordMagic = 0x4C415742;   // "BWAL"
constexpr size_t kHeaderBytes = 4 + 4 + 8 + 4 + 4;
constexpr size_t kTrailerBytes = 4;  // crc
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

/// Lists the segment files `<path>.NNNNNN` (six digits; archived copies
/// excluded) that the size-capped layout of older builds wrote beside
/// the log, in sequence order.
Result<std::vector<std::string>> ListSegments(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? std::string(".") : path.substr(0, slash);
  const std::string prefix =
      (slash == std::string::npos ? path : path.substr(slash + 1)) + ".";
  std::vector<std::string> segments;
  DIR* dp = ::opendir(dir.c_str());
  if (dp == nullptr) {
    if (errno == ENOENT) return segments;
    return Status::IoError("opendir '" + dir + "': " + std::strerror(errno));
  }
  while (struct dirent* entry = ::readdir(dp)) {
    const std::string name = entry->d_name;
    if (name.size() == prefix.size() + 6 &&
        name.compare(0, prefix.size(), prefix) == 0 &&
        name.find_first_not_of("0123456789", prefix.size()) ==
            std::string::npos) {
      segments.push_back(dir + "/" + name);
    }
  }
  ::closedir(dp);
  std::sort(segments.begin(), segments.end());  // fixed width: seq order.
  return segments;
}

/// Scans the record frames in `bytes`, stopping cleanly at a torn tail.
Status ScanRecords(const std::vector<uint8_t>& bytes, const std::string& label,
                   const std::function<Status(const WalRecordView&)>& fn,
                   WalReplayStats* stats) {
  size_t at = 0;
  while (at < bytes.size()) {
    const size_t remaining = bytes.size() - at;
    if (remaining < kHeaderBytes) {
      stats->tail_truncated = true;  // partial header at EOF.
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
      stats->tail_truncated = true;  // torn mid-payload at EOF.
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
    stats->valid_bytes = at;
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<Wal>> Wal::Create(const std::string& path,
                                         WalOptions options,
                                         uint64_t first_lsn) {
  // A fresh log must not leave bytes from an earlier incarnation behind:
  // a stale segment file would make the next replay refuse the log.
  BW_ASSIGN_OR_RETURN(std::vector<std::string> stale, ListSegments(path));
  for (const std::string& segment : stale) {
    if (::remove(segment.c_str()) != 0 && errno != ENOENT) {
      return Status::IoError("remove '" + segment +
                             "': " + std::strerror(errno));
    }
  }
  BW_ASSIGN_OR_RETURN(std::unique_ptr<File> file,
                      File::Open(path, /*truncate=*/true, options.injector));
  return std::unique_ptr<Wal>(new Wal(std::move(file), first_lsn));
}

Result<std::unique_ptr<Wal>> Wal::Continue(const std::string& path,
                                           WalOptions options,
                                           uint64_t valid_bytes,
                                           uint64_t next_lsn) {
  Result<std::unique_ptr<File>> opened =
      File::Open(path, /*truncate=*/false, options.injector);
  if (opened.status().code() == StatusCode::kNotFound) {
    return Create(path, options, next_lsn);  // no log on disk: start one.
  }
  BW_RETURN_IF_ERROR(opened.status());
  std::unique_ptr<File> file = std::move(*opened);
  if (valid_bytes > file->size()) {
    return Status::InvalidArgument("valid_bytes beyond end of WAL");
  }
  if (valid_bytes < file->size()) {
    BW_RETURN_IF_ERROR(file->Truncate(valid_bytes));
    BW_RETURN_IF_ERROR(file->Sync());
  }
  return std::unique_ptr<Wal>(new Wal(std::move(file), next_lsn));
}

Result<uint64_t> Wal::Append(WalRecordType type, pages::PageId page_id,
                             const void* payload, size_t payload_len) {
  if (payload_len > kMaxPayload) {
    return Status::InvalidArgument("WAL payload too large");
  }
  const uint64_t lsn = next_lsn_;
  frame_.clear();
  AppendU32(&frame_, kRecordMagic);
  AppendU32(&frame_, static_cast<uint32_t>(type));
  AppendU64(&frame_, lsn);
  AppendU32(&frame_, page_id);
  AppendU32(&frame_, static_cast<uint32_t>(payload_len));
  if (payload_len > 0) {
    const auto* bytes = static_cast<const uint8_t*>(payload);
    frame_.insert(frame_.end(), bytes, bytes + payload_len);
  }
  AppendU32(&frame_, Crc32(frame_.data(), frame_.size()));
  // A clean out-of-space failure lands nothing, so the file stays the
  // log's intact prefix; the LSN is spent either way (replay tolerates
  // gaps) and the enclosing batch re-logs in full once space returns.
  ++next_lsn_;
  BW_RETURN_IF_ERROR(file_->Append(frame_.data(), frame_.size()));
  ++appended_;
  return lsn;
}

Status Wal::Sync() {
  BW_RETURN_IF_ERROR(file_->Sync());
  ++syncs_;
  durable_lsn_ = next_lsn_ - 1;
  return Status::OK();
}

Status Wal::Reset() {
  BW_RETURN_IF_ERROR(file_->Truncate(0));
  return file_->Sync();
}

Result<WalReplayStats> ReplayWal(
    const std::string& path,
    const std::function<Status(const WalRecordView&)>& fn) {
  BW_ASSIGN_OR_RETURN(std::vector<std::string> segments, ListSegments(path));
  if (!segments.empty()) {
    return Status::NotSupported(
        "WAL segment file '" + segments.front() +
        "' found beside the log: the segmented layout is no longer read; "
        "open and checkpoint it with the build that wrote it");
  }
  WalReplayStats stats;
  std::vector<uint8_t> bytes;
  const Status read = ReadFile(path, &bytes);
  if (read.code() == StatusCode::kNotFound) return stats;  // empty log.
  BW_RETURN_IF_ERROR(read);
  BW_RETURN_IF_ERROR(ScanRecords(bytes, "WAL '" + path + "'", fn, &stats));
  return stats;
}

}  // namespace bw::storage
