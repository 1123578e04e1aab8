#include "storage/file_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

namespace bw::storage {

namespace {

Status Errno(const std::string& op, const std::string& path) {
  return Status::IoError(op + " '" + path + "': " + std::strerror(errno));
}

/// The positional read loop behind ReadAt: exactly `n` bytes or an
/// error (EINTR restarted, EOF = short read).
Status PreadExact(int fd, const std::string& path, uint64_t offset,
                  void* data, size_t n) {
  uint8_t* bytes = static_cast<uint8_t*>(data);
  size_t done = 0;
  while (done < n) {
    const ssize_t got = ::pread(fd, bytes + done, n - done,
                                static_cast<off_t>(offset + done));
    if (got < 0) {
      if (errno == EINTR) continue;
      return Errno("pread", path);
    }
    if (got == 0) {
      return Status::IoError("short read from '" + path + "' at offset " +
                             std::to_string(offset));
    }
    done += static_cast<size_t>(got);
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<File>> File::Open(const std::string& path,
                                         bool truncate,
                                         FaultInjector* injector) {
  int flags = O_RDWR | O_CLOEXEC;
  if (truncate) flags |= O_CREAT | O_TRUNC;
  const int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0 && errno == ENOENT && !truncate) {
    return Status::NotFound("open '" + path + "': no such file");
  }
  if (fd < 0) return Errno("open", path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const Status status = Errno("fstat", path);
    ::close(fd);
    return status;
  }
  return std::unique_ptr<File>(
      new File(fd, static_cast<uint64_t>(st.st_size), path, injector));
}

File::~File() {
  if (fd_ >= 0) ::close(fd_);
}

Status File::CheckAlive() const {
  if (injector_ != nullptr && injector_->crashed()) {
    return Status::IoError("simulated crash: '" + path_ + "' is dead");
  }
  if (fail_stopped_) {
    return Status::IoError("fd fail-stopped after a write/fsync failure: '" +
                           path_ + "' sheds all mutations (fsyncgate)");
  }
  return Status::OK();
}

bool File::fail_stopped() const {
  return fail_stopped_ || (injector_ != nullptr && injector_->crashed());
}

Status File::WriteAt(uint64_t offset, const void* data, size_t n) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  std::vector<uint8_t> mutated;  // only used when the injector mutates.
  size_t to_write = n;
  bool fail_after = false;
  FaultInjector::WriteDecision decision;
  if (injector_ != nullptr) {
    // Consult the injector before any alive check so every attempted
    // write is counted — fault-free dry runs measure write schedules
    // this way, and post-crash attempts must stay on the same clock.
    decision = injector_->OnWrite(n);
    if (decision.drop) {
      return Status::IoError("simulated crash: write to '" + path_ +
                             "' dropped");
    }
  }
  if (fail_stopped_) {
    return Status::IoError("fd fail-stopped after a write/fsync failure: '" +
                           path_ + "' sheds all mutations (fsyncgate)");
  }
  if (injector_ != nullptr) {
    if (decision.fail_enospc) {
      // Clean refusal: the kernel rejected the allocation before any
      // byte moved, so the fd stays usable and the caller may retry
      // once space frees up.
      return Status::ResourceExhausted("simulated ENOSPC: write to '" +
                                       path_ + "' refused");
    }
    if (decision.fail_eio) {
      // A hard device error leaves the byte range in an unknown state:
      // fail-stop so no later write can land beyond a possible tear.
      fail_stopped_ = true;
      return Status::IoError("simulated EIO: write to '" + path_ +
                             "' failed; fd fail-stopped");
    }
    if (decision.flip_bit && n > 0) {
      mutated.assign(bytes, bytes + n);
      mutated[n / 2] ^= 0x10;
      bytes = mutated.data();
    }
    if (decision.truncate_to != static_cast<size_t>(-1)) {
      to_write = decision.truncate_to < n ? decision.truncate_to : n;
      fail_after = true;
    }
  }
  size_t done = 0;
  while (done < to_write) {
    const ssize_t wrote = ::pwrite(fd_, bytes + done, to_write - done,
                                   static_cast<off_t>(offset + done));
    if (wrote < 0) {
      if (errno == EINTR) continue;
      if (errno == ENOSPC && done == 0) {
        // Clean out-of-space: nothing of this write landed, the fd is
        // still coherent. Shed the operation, keep the fd.
        return Status::ResourceExhausted(
            "pwrite '" + path_ + "': " + std::strerror(ENOSPC));
      }
      // Partial or hard failure: the range may be torn — fail-stop.
      fail_stopped_ = true;
      return Errno("pwrite", path_);
    }
    done += static_cast<size_t>(wrote);
  }
  if (offset + done > size_) size_ = offset + done;
  if (fail_after) {
    return Status::IoError("simulated crash: torn write to '" + path_ + "'");
  }
  return Status::OK();
}

Status File::Append(const void* data, size_t n) {
  return WriteAt(size_, data, n);
}

Status File::ReadAt(uint64_t offset, void* data, size_t n) const {
  uint8_t* bytes = static_cast<uint8_t*>(data);
  bool flip_bit = false;
  if (injector_ != nullptr) {
    FaultInjector::ReadDecision decision = injector_->OnRead(n);
    if (decision.delay_us > 0) {
      // A hung I/O: the caller's watchdog, not this loop, bounds it.
      std::this_thread::sleep_for(std::chrono::microseconds(decision.delay_us));
    }
    if (decision.fail_transient) {
      return Status::Unavailable("simulated transient read fault on '" +
                                 path_ + "' at offset " +
                                 std::to_string(offset));
    }
    flip_bit = decision.flip_bit && n > 0;
  }
  BW_RETURN_IF_ERROR(PreadExact(fd_, path_, offset, bytes, n));
  // Flip after the pread so the on-disk bytes stay intact: this models
  // rot on the read path (bad cable, flaky DMA) that a retry can clear.
  if (flip_bit) bytes[n / 2] ^= 0x10;
  return Status::OK();
}

Status File::Sync() {
  BW_RETURN_IF_ERROR(CheckAlive());
  if (injector_ != nullptr && injector_->OnSync()) {
    // Fsyncgate: after a failed fsync the kernel may already have
    // dropped the dirty pages, so retrying the sync and reporting clean
    // would acknowledge writes that never reached the platter. The only
    // safe continuation is fail-stop. The simulation drops them: every
    // byte appended since the last good fsync is gone.
    fail_stopped_ = true;
    if (::ftruncate(fd_, static_cast<off_t>(synced_size_)) == 0) {
      size_ = synced_size_;
    }
    return Status::IoError("simulated fsync failure on '" + path_ +
                           "'; fd fail-stopped");
  }
  if (::fsync(fd_) != 0) {
    fail_stopped_ = true;
    return Errno("fsync", path_);
  }
  synced_size_ = size_;
  return Status::OK();
}

Status File::Truncate(uint64_t new_size) {
  BW_RETURN_IF_ERROR(CheckAlive());
  if (::ftruncate(fd_, static_cast<off_t>(new_size)) != 0) {
    return Errno("ftruncate", path_);
  }
  size_ = new_size;
  synced_size_ = std::min(synced_size_, new_size);
  return Status::OK();
}

Status ReadFile(const std::string& path, std::vector<uint8_t>* out) {
  BW_ASSIGN_OR_RETURN(std::unique_ptr<File> file,
                      File::Open(path, /*truncate=*/false));
  out->resize(file->size());
  if (out->empty()) return Status::OK();
  return file->ReadAt(0, out->data(), out->size());
}

}  // namespace bw::storage
