// Deterministic fault injection, threaded through every physical I/O
// the storage engine performs (base file and WAL). The crash-recovery
// tests do not merely unit-test replay logic: they arm an injector,
// actually kill the write stream mid-operation at a chosen point, throw
// the in-memory state away, and then require recovery to reconstruct a
// consistent store from whatever bytes made it to disk. The self-healing
// read-path tests arm the read side instead: transient pread failures,
// read-side bit flips, and hung reads, so retry/backoff, quarantine, and
// the I/O watchdog are all testable without real failing disks.
//
// Write faults (single-shot, armed via Arm):
//  - kCrash:     the Nth write (and everything after it) is dropped, as
//                if the process died just before the syscall.
//  - kTornWrite: the Nth write persists only a prefix (half) of its
//                buffer, then the process dies — models a torn sector
//                write during power loss.
//  - kBitFlip:   one bit of the Nth write's buffer is inverted and the
//                write otherwise succeeds — models silent media
//                corruption that only checksums can catch.
//
// Read faults (recurring schedule, armed via ArmReads): every
// transient_every_n-th read starts a burst of transient_burst failing
// reads (kUnavailable from File::ReadAt — the "retry me" verdict); every
// flip_every_n-th read has one bit of the returned buffer inverted
// (media rot surfacing at read time); every delay_every_n-th read stalls
// delay_us before returning (a hung I/O the watchdog must bound).
//
// Resource-exhaustion faults (recurring schedule, armed via ArmWrites):
// every enospc_every_n-th write starts a burst of enospc_burst writes
// that fail *cleanly* with ENOSPC semantics (nothing persisted — the
// kernel refused the allocation up front); every eio_every_n-th write
// fails with EIO (a hard device error: bytes in an unknown state, the
// fd must fail-stop); the sync_fail_at-th fsync fails (fsyncgate: File
// cuts the file back to its length at the last good fsync, as if the
// kernel dropped the dirty pages, and fail-stops the fd — see
// file_io.h).
//
// Thread-safety: the write path is single-threaded (mutation side of
// every store), but reads happen concurrently at serve time (scrubber,
// repair, open) — all injector state is therefore guarded by one mutex.

#ifndef BLOBWORLD_STORAGE_FAULT_INJECTOR_H_
#define BLOBWORLD_STORAGE_FAULT_INJECTOR_H_

#include <cstddef>
#include <cstdint>
#include <mutex>

namespace bw::storage {

class FaultInjector {
 public:
  enum class Fault { kNone, kCrash, kTornWrite, kBitFlip };

  /// What storage::File must do with one physical write.
  struct WriteDecision {
    /// Drop the write entirely and fail (the "process" is dead).
    bool drop = false;
    /// If not SIZE_MAX: persist only this many bytes, then fail.
    size_t truncate_to = static_cast<size_t>(-1);
    /// Invert one bit of the buffer before writing (write succeeds).
    bool flip_bit = false;
    /// Fail cleanly with ENOSPC: nothing is persisted, the fd stays
    /// usable (kResourceExhausted from File::WriteAt).
    bool fail_enospc = false;
    /// Fail with EIO: bytes are in an unknown state, the fd fail-stops.
    bool fail_eio = false;
  };

  /// What storage::File must do with one physical read.
  struct ReadDecision {
    /// Fail this read with kUnavailable (a transient fault: the same
    /// read, retried, may succeed).
    bool fail_transient = false;
    /// Invert one bit of the returned buffer (the read "succeeds").
    bool flip_bit = false;
    /// Stall this long before serving the read (microseconds).
    uint32_t delay_us = 0;
  };

  /// Recurring write-side resource-exhaustion schedule; all-zero fields
  /// are disabled. Counts are independent of the single-shot Arm()
  /// schedule (both consult the same writes_seen_ counter).
  struct WriteFaultPlan {
    /// Every Nth write begins an ENOSPC burst (0 = off).
    uint64_t enospc_every_n = 0;
    /// Consecutive writes that fail per ENOSPC burst (>= 1 when armed).
    uint64_t enospc_burst = 1;
    /// Every Nth write fails with EIO (0 = off).
    uint64_t eio_every_n = 0;
    /// The Nth fsync (1-based, counted from ArmWrites) fails; 0 = off.
    /// One-shot: fsyncgate semantics make the fd fail-stop afterwards,
    /// so a recurring schedule would never observe a second sync anyway.
    uint64_t sync_fail_at = 0;
  };

  /// Recurring read-fault schedule; all-zero fields are disabled.
  struct ReadFaultPlan {
    /// Every Nth read begins a transient-failure burst (0 = off).
    uint64_t transient_every_n = 0;
    /// Consecutive reads that fail per burst (>= 1 when armed).
    uint64_t transient_burst = 1;
    /// Every Nth read gets one bit of its buffer inverted (0 = off).
    uint64_t flip_every_n = 0;
    /// Every Nth read stalls for delay_us (0 = off).
    uint64_t delay_every_n = 0;
    uint32_t delay_us = 0;
  };

  /// Arms `fault` to fire on the nth_write-th subsequent physical write
  /// (1-based, counted from this call).
  void Arm(Fault fault, uint64_t nth_write) {
    std::lock_guard<std::mutex> lock(mutex_);
    fault_ = fault;
    trigger_ = nth_write;
    writes_seen_ = 0;
    crashed_ = false;
    fired_ = false;
  }

  void Disarm() {
    std::lock_guard<std::mutex> lock(mutex_);
    fault_ = Fault::kNone;
    crashed_ = false;
  }

  /// Installs a recurring read-fault schedule (counting restarts from
  /// this call). An all-zero plan disarms the read side.
  void ArmReads(ReadFaultPlan plan) {
    std::lock_guard<std::mutex> lock(mutex_);
    read_plan_ = plan;
    reads_seen_ = 0;
    transient_remaining_ = 0;
  }

  void DisarmReads() { ArmReads(ReadFaultPlan()); }

  /// Installs a recurring write-side resource-exhaustion schedule
  /// (write/sync counts restart from this call). An all-zero plan
  /// disarms the write-side schedule (single-shot Arm() is unaffected).
  void ArmWrites(WriteFaultPlan plan) {
    std::lock_guard<std::mutex> lock(mutex_);
    write_plan_ = plan;
    plan_writes_seen_ = 0;
    syncs_seen_ = 0;
    enospc_remaining_ = 0;
  }

  void DisarmWrites() { ArmWrites(WriteFaultPlan()); }

  /// True once a kCrash/kTornWrite fault has fired: every later write
  /// and sync fails, like a dead process's would.
  bool crashed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return crashed_;
  }
  /// True once the armed write fault has fired at its trigger point.
  bool fired() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return fired_;
  }
  /// Physical writes observed since Arm() (a disarmed injector still
  /// counts, so a fault-free dry run measures the write schedule).
  uint64_t writes_seen() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return writes_seen_;
  }

  /// Physical reads observed since ArmReads().
  uint64_t reads_seen() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return reads_seen_;
  }
  /// Read faults served so far, by kind (since ArmReads()).
  uint64_t transient_read_faults() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return transient_fired_;
  }
  uint64_t read_flips() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return flips_fired_;
  }
  uint64_t read_delays() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return delays_fired_;
  }

  /// Write-side resource-exhaustion faults served so far (since
  /// ArmWrites()).
  uint64_t enospc_faults() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return enospc_fired_;
  }
  uint64_t eio_faults() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return eio_fired_;
  }
  uint64_t sync_failures() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return sync_failures_fired_;
  }

  WriteDecision OnWrite(size_t len) {
    std::lock_guard<std::mutex> lock(mutex_);
    WriteDecision decision;
    ++writes_seen_;
    ++plan_writes_seen_;
    if (crashed_) {
      decision.drop = true;
      return decision;
    }
    // Recurring resource-exhaustion schedule first: an exhausted disk
    // refuses the write before any crash scheduled for a later write.
    if (write_plan_.enospc_every_n > 0 &&
        plan_writes_seen_ % write_plan_.enospc_every_n == 0) {
      enospc_remaining_ =
          write_plan_.enospc_burst > 0 ? write_plan_.enospc_burst : 1;
    }
    if (enospc_remaining_ > 0) {
      --enospc_remaining_;
      ++enospc_fired_;
      decision.fail_enospc = true;
      return decision;  // nothing persisted; no other fault applies.
    }
    if (write_plan_.eio_every_n > 0 &&
        plan_writes_seen_ % write_plan_.eio_every_n == 0) {
      ++eio_fired_;
      decision.fail_eio = true;
      return decision;
    }
    if (fault_ == Fault::kNone || writes_seen_ != trigger_) {
      return decision;
    }
    fired_ = true;
    switch (fault_) {
      case Fault::kCrash:
        crashed_ = true;
        decision.drop = true;
        break;
      case Fault::kTornWrite:
        crashed_ = true;
        decision.truncate_to = len / 2;
        break;
      case Fault::kBitFlip:
        decision.flip_bit = true;
        fault_ = Fault::kNone;  // one-shot; writes continue normally.
        break;
      case Fault::kNone:
        break;
    }
    return decision;
  }

  /// Consulted by File::Sync before the physical fsync. True = this
  /// fsync must fail (the caller then applies fsyncgate fail-stop
  /// semantics to the fd).
  bool OnSync() {
    std::lock_guard<std::mutex> lock(mutex_);
    ++syncs_seen_;
    if (write_plan_.sync_fail_at > 0 &&
        syncs_seen_ == write_plan_.sync_fail_at) {
      ++sync_failures_fired_;
      return true;
    }
    return false;
  }

  ReadDecision OnRead(size_t len) {
    (void)len;
    std::lock_guard<std::mutex> lock(mutex_);
    ReadDecision decision;
    ++reads_seen_;
    if (read_plan_.transient_every_n > 0 &&
        reads_seen_ % read_plan_.transient_every_n == 0) {
      transient_remaining_ =
          read_plan_.transient_burst > 0 ? read_plan_.transient_burst : 1;
    }
    if (transient_remaining_ > 0) {
      --transient_remaining_;
      ++transient_fired_;
      decision.fail_transient = true;
      return decision;  // a failed read neither flips nor delays.
    }
    if (read_plan_.flip_every_n > 0 &&
        reads_seen_ % read_plan_.flip_every_n == 0) {
      decision.flip_bit = true;
      ++flips_fired_;
    }
    if (read_plan_.delay_every_n > 0 &&
        reads_seen_ % read_plan_.delay_every_n == 0) {
      decision.delay_us = read_plan_.delay_us;
      ++delays_fired_;
    }
    return decision;
  }

 private:
  mutable std::mutex mutex_;

  Fault fault_ = Fault::kNone;
  uint64_t trigger_ = 0;
  uint64_t writes_seen_ = 0;
  bool crashed_ = false;
  bool fired_ = false;

  ReadFaultPlan read_plan_;
  uint64_t reads_seen_ = 0;
  uint64_t transient_remaining_ = 0;
  uint64_t transient_fired_ = 0;
  uint64_t flips_fired_ = 0;
  uint64_t delays_fired_ = 0;

  WriteFaultPlan write_plan_;
  uint64_t plan_writes_seen_ = 0;  // writes since ArmWrites().
  uint64_t syncs_seen_ = 0;        // fsyncs since ArmWrites().
  uint64_t enospc_remaining_ = 0;
  uint64_t enospc_fired_ = 0;
  uint64_t eio_fired_ = 0;
  uint64_t sync_failures_fired_ = 0;
};

}  // namespace bw::storage

#endif  // BLOBWORLD_STORAGE_FAULT_INJECTOR_H_
