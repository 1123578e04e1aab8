// The async read engines' core promise: engine choice changes only
// scheduling, never results or fault accounting. These tests pin the
// one-tick-per-span injector contract of File::ReadBatch and the
// DiskPageFile batched Open/Scrub equivalence across engines.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "storage/async_io.h"
#include "storage/disk_page_file.h"
#include "storage/fault_injector.h"
#include "storage/file_io.h"
#include "tests/test_helpers.h"

namespace bw {
namespace {

using storage::DiskPageFile;
using storage::FaultInjector;
using storage::File;
using storage::IoEngineChoice;
using storage::IoEngineKind;
using storage::ReadSpan;
using storage::ResolveIoEngine;

std::string TempPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

/// Sets an environment variable for the enclosing scope.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }

 private:
  const char* name_;
};

TEST(IoEngineTest, ResolutionFollowsEnvThenBuildDefault) {
  ::unsetenv("BW_IO_ENGINE");
  EXPECT_EQ(ResolveIoEngine(), IoEngineKind::kThreadPool);
  {
    ScopedEnv env("BW_IO_ENGINE", "sync");
    EXPECT_EQ(ResolveIoEngine(), IoEngineKind::kSync);
  }
  {
    ScopedEnv env("BW_IO_ENGINE", "threads");
    EXPECT_EQ(ResolveIoEngine(), IoEngineKind::kThreadPool);
  }
  {
    ScopedEnv env("BW_IO_ENGINE", "bogus");  // unrecognized: ignored.
    EXPECT_EQ(ResolveIoEngine(), IoEngineKind::kThreadPool);
  }
  {
    // An explicit caller choice beats the environment.
    ScopedEnv env("BW_IO_ENGINE", "threads");
    EXPECT_EQ(ResolveIoEngine(IoEngineChoice::kSync), IoEngineKind::kSync);
  }
}

TEST(ReadThreadPoolTest, RunsEveryIndexExactlyOnce) {
  auto& pool = storage::ReadThreadPool::Instance();
  EXPECT_GE(pool.worker_count(), 1u);
  constexpr size_t kN = 100;
  std::vector<std::atomic<int>> counts(kN);
  pool.RunBatch(kN, [&](size_t i) { counts[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(counts[i].load(), 1);
}

TEST(ReadThreadPoolTest, ConcurrentBatchesDoNotInterfere) {
  auto& pool = storage::ReadThreadPool::Instance();
  constexpr size_t kSubmitters = 4;
  // Many short batches: each batch lives on its submitter's stack, so
  // every round also races the worker that finishes a batch's last span
  // against the submitter returning from RunBatch.
  constexpr int kRounds = 300;
  constexpr size_t kN = 4;
  std::vector<std::vector<std::atomic<int>>> counts(kSubmitters);
  for (auto& c : counts) {
    c = std::vector<std::atomic<int>>(kN);
  }
  std::vector<std::thread> submitters;
  for (size_t s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (int round = 0; round < kRounds; ++round) {
        pool.RunBatch(kN, [&, s](size_t i) { counts[s][i].fetch_add(1); });
      }
    });
  }
  for (auto& t : submitters) t.join();
  for (size_t s = 0; s < kSubmitters; ++s) {
    for (size_t i = 0; i < kN; ++i) EXPECT_EQ(counts[s][i].load(), kRounds);
  }
}

std::string MakePatternFile(const std::string& name, size_t bytes) {
  const std::string path = TempPath(name);
  auto file = File::Open(path, /*truncate=*/true);
  EXPECT_TRUE(file.ok());
  std::vector<uint8_t> data(bytes);
  for (size_t i = 0; i < bytes; ++i) {
    data[i] = static_cast<uint8_t>((i * 131) & 0xff);
  }
  EXPECT_TRUE((*file)->WriteAt(0, data.data(), data.size()).ok());
  EXPECT_TRUE((*file)->Sync().ok());
  return path;
}

TEST(ReadBatchTest, IdenticalBytesOnEveryEngine) {
  const std::string path = MakePatternFile("batch_bytes.bin", 64 * 1024);
  auto file = File::Open(path, /*truncate=*/false);
  ASSERT_TRUE(file.ok());

  constexpr size_t kSpans = 16;
  constexpr size_t kSpanBytes = 1000;
  std::vector<std::vector<uint8_t>> reference(kSpans);
  for (const IoEngineKind engine :
       {IoEngineKind::kSync, IoEngineKind::kThreadPool, ResolveIoEngine()}) {
    std::vector<std::vector<uint8_t>> bufs(kSpans,
                                           std::vector<uint8_t>(kSpanBytes));
    std::vector<ReadSpan> spans(kSpans);
    for (size_t i = 0; i < kSpans; ++i) {
      spans[i].offset = i * 3777;  // overlapping source ranges are fine.
      spans[i].data = bufs[i].data();
      spans[i].n = kSpanBytes;
    }
    (*file)->ReadBatch(spans.data(), kSpans, engine);
    for (size_t i = 0; i < kSpans; ++i) {
      ASSERT_TRUE(spans[i].status.ok()) << spans[i].status.ToString();
      if (engine == IoEngineKind::kSync) {
        reference[i] = bufs[i];
      } else {
        EXPECT_EQ(bufs[i], reference[i]) << "span " << i;
      }
    }
  }
  std::remove(path.c_str());
}

/// Runs one armed batch and returns (per-span ok, per-span buffer).
struct FaultedBatchResult {
  std::vector<bool> ok;
  std::vector<std::vector<uint8_t>> bytes;
  uint64_t reads_seen = 0;
  uint64_t faults = 0;
  uint64_t flips = 0;
};

FaultedBatchResult RunFaultedBatch(const std::string& path,
                                   const FaultInjector::ReadFaultPlan& plan,
                                   IoEngineKind engine, size_t spans_count,
                                   size_t span_bytes) {
  FaultInjector injector;
  injector.ArmReads(plan);
  auto file = File::Open(path, /*truncate=*/false, &injector);
  EXPECT_TRUE(file.ok());
  FaultedBatchResult result;
  result.bytes.assign(spans_count, std::vector<uint8_t>(span_bytes));
  std::vector<ReadSpan> spans(spans_count);
  for (size_t i = 0; i < spans_count; ++i) {
    spans[i].offset = i * span_bytes;
    spans[i].data = result.bytes[i].data();
    spans[i].n = span_bytes;
  }
  (*file)->ReadBatch(spans.data(), spans_count, engine);
  for (size_t i = 0; i < spans_count; ++i) {
    result.ok.push_back(spans[i].status.ok());
  }
  result.reads_seen = injector.reads_seen();
  result.faults = injector.transient_read_faults();
  result.flips = injector.read_flips();
  return result;
}

TEST(ReadBatchTest, OneInjectorTickPerSpanInSubmitOrder) {
  const std::string path = MakePatternFile("batch_ticks.bin", 16 * 1024);
  FaultInjector::ReadFaultPlan plan;
  plan.flip_every_n = 3;  // ticks 3, 6 of 8 => spans 2 and 5 flipped.
  constexpr size_t kSpans = 8;
  constexpr size_t kBytes = 512;
  const auto sync =
      RunFaultedBatch(path, plan, IoEngineKind::kSync, kSpans, kBytes);
  EXPECT_EQ(sync.reads_seen, kSpans);
  EXPECT_EQ(sync.flips, 2u);
  for (size_t i = 0; i < kSpans; ++i) {
    ASSERT_TRUE(sync.ok[i]);
    // Flip lands at bytes[n/2] of exactly the spans whose submit-order
    // tick matches the plan.
    const uint8_t expected = static_cast<uint8_t>(
        (((i * kBytes) + kBytes / 2) * 131) & 0xff);
    if (i == 2 || i == 5) {
      EXPECT_EQ(sync.bytes[i][kBytes / 2], expected ^ 0x10) << i;
    } else {
      EXPECT_EQ(sync.bytes[i][kBytes / 2], expected) << i;
    }
  }
  // The same schedule on every engine: identical tick count, identical
  // flipped spans, byte-identical buffers.
  for (const IoEngineKind engine :
       {IoEngineKind::kThreadPool, ResolveIoEngine()}) {
    const auto other = RunFaultedBatch(path, plan, engine, kSpans, kBytes);
    EXPECT_EQ(other.reads_seen, sync.reads_seen);
    EXPECT_EQ(other.flips, sync.flips);
    EXPECT_EQ(other.ok, sync.ok);
    EXPECT_EQ(other.bytes, sync.bytes);
  }
  std::remove(path.c_str());
}

TEST(ReadBatchTest, TransientBurstScheduleIdenticalAcrossEngines) {
  const std::string path = MakePatternFile("batch_burst.bin", 16 * 1024);
  FaultInjector::ReadFaultPlan plan;
  plan.transient_every_n = 3;
  plan.transient_burst = 2;  // ticks 3,4 then 6,7 ... fail.
  constexpr size_t kSpans = 10;
  const auto sync =
      RunFaultedBatch(path, plan, IoEngineKind::kSync, kSpans, 256);
  ASSERT_EQ(sync.ok.size(), kSpans);
  for (size_t i = 0; i < kSpans; ++i) {
    const size_t tick = i + 1;
    const bool should_fail = tick >= 3 && (tick % 3 == 0 || tick % 3 == 1);
    EXPECT_EQ(sync.ok[i], !should_fail) << "span " << i;
  }
  for (const IoEngineKind engine :
       {IoEngineKind::kThreadPool, ResolveIoEngine()}) {
    const auto other = RunFaultedBatch(path, plan, engine, kSpans, 256);
    EXPECT_EQ(other.ok, sync.ok);
    EXPECT_EQ(other.faults, sync.faults);
    EXPECT_EQ(other.bytes, sync.bytes);  // failed spans: untouched zeros?
  }
  std::remove(path.c_str());
}

TEST(ReadBatchTest, InjectedDelaysOverlapOnAsyncEngines) {
  const std::string path = MakePatternFile("batch_delay.bin", 16 * 1024);
  FaultInjector::ReadFaultPlan plan;
  plan.delay_every_n = 1;  // every span sleeps...
  plan.delay_us = 20000;   // ...20 ms.
  constexpr size_t kSpans = 8;
  const auto t0 = std::chrono::steady_clock::now();
  (void)RunFaultedBatch(path, plan, IoEngineKind::kSync, kSpans, 256);
  const auto sync_elapsed = std::chrono::steady_clock::now() - t0;
  const auto t1 = std::chrono::steady_clock::now();
  (void)RunFaultedBatch(path, plan, IoEngineKind::kThreadPool, kSpans, 256);
  const auto async_elapsed = std::chrono::steady_clock::now() - t1;
  // Sync sums the eight hangs (>= 160 ms); the pool overlaps them.
  EXPECT_GE(sync_elapsed, std::chrono::milliseconds(160));
  EXPECT_LT(async_elapsed, sync_elapsed);
  std::remove(path.c_str());
}

// --- DiskPageFile batched Open / Scrub ---------------------------------

storage::ReadRetryPolicy FastRetry() {
  storage::ReadRetryPolicy policy;
  policy.backoff_us = 1;
  policy.max_backoff_us = 10;
  return policy;
}

void WriteThreePageBase(const std::string& path) {
  auto disk = DiskPageFile::Create(path, 1024);
  ASSERT_TRUE(disk.ok());
  for (int i = 0; i < 3; ++i) {
    const auto id = (*disk)->Allocate();
    auto page = (*disk)->Write(id);
    ASSERT_TRUE(page.ok());
    const std::string record = "page-" + std::to_string(i);
    ASSERT_TRUE((*page)->Insert(record.data(), record.size()).ok());
  }
  ASSERT_TRUE((*disk)->FlushPagesAndSync({0, 1, 2}).ok());
  ASSERT_TRUE((*disk)->CommitHeader(/*checkpoint_lsn=*/0).ok());
}

void FlipByteAt(const std::string& path, long offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  std::fputc(c ^ 0x40, f);
  std::fclose(f);
}

/// Frame bytes for page `id` in a 1024-byte-page base file start here.
long FrameOffsetOf(uint32_t id) { return 128 + id * (1024 + 32); }

TEST(DiskPageFileBatchTest, OpenEquivalentAcrossEngines) {
  const std::string path = TempPath("batch_open.bwpf");
  WriteThreePageBase(path);
  FlipByteAt(path, FrameOffsetOf(1) + 5);  // rot page 1's frame.

  FaultInjector::ReadFaultPlan plan;
  plan.transient_every_n = 3;  // bursts of two transient faults,
  plan.transient_burst = 2;    // absorbed by per-frame retries.

  uint64_t sync_retries = 0;
  for (const IoEngineChoice choice :
       {IoEngineChoice::kSync, IoEngineChoice::kThreadPool,
        IoEngineChoice::kAuto}) {
    FaultInjector injector;
    injector.ArmReads(plan);
    storage::DiskPageFileOptions options;
    options.injector = &injector;
    options.read_retry = FastRetry();
    options.engine = choice;
    auto disk = DiskPageFile::Open(path, options);
    ASSERT_TRUE(disk.ok()) << disk.status().ToString();
    // The rotted frame (and only it) is suspect + quarantined, on every
    // engine; intact pages decoded identically.
    EXPECT_EQ((*disk)->suspect_pages(), std::vector<pages::PageId>{1});
    EXPECT_EQ((*disk)->health().quarantined_count(), 1u);
    EXPECT_EQ((*disk)->PeekNoIo(0)->slot_count(), 1u);
    EXPECT_EQ((*disk)->PeekNoIo(2)->slot_count(), 1u);
    EXPECT_GT((*disk)->read_retries(), 0u);
    EXPECT_GT(injector.transient_read_faults(), 0u);
    // Fault accounting is a function of the batch alone: every engine
    // absorbs the exact same retry schedule.
    if (choice == IoEngineChoice::kSync) {
      sync_retries = (*disk)->read_retries();
    } else {
      EXPECT_EQ((*disk)->read_retries(), sync_retries);
    }
  }
  std::remove(path.c_str());
}

TEST(DiskPageFileBatchTest, ScrubQuarantinesRotAndCountsUnreadable) {
  const std::string path = TempPath("batch_scrub.bwpf");
  WriteThreePageBase(path);

  FaultInjector injector;
  storage::DiskPageFileOptions options;
  options.injector = &injector;
  options.read_retry = FastRetry();
  options.engine = IoEngineChoice::kThreadPool;
  auto disk = DiskPageFile::Open(path, options);
  ASSERT_TRUE(disk.ok());

  // Rot page 2 on disk under a valid memory copy: the batched scrub
  // must quarantine exactly that frame.
  FlipByteAt(path, FrameOffsetOf(2) + 5);
  storage::ScrubReport report;
  ASSERT_TRUE((*disk)->Scrub(&report).ok());
  EXPECT_EQ(report.frames_checked, 3u);
  EXPECT_EQ(report.frames_quarantined, 1u);
  EXPECT_EQ(report.frames_unreadable, 0u);
  EXPECT_TRUE((*disk)->health().IsQuarantined(2));

  // Now make every read fail transiently: the two healthy frames
  // exhaust their retry budget and count as unreadable (quarantined
  // page 2 is skipped entirely), and nothing is newly quarantined.
  FaultInjector::ReadFaultPlan plan;
  plan.transient_every_n = 1;
  injector.ArmReads(plan);
  ASSERT_TRUE((*disk)->Scrub(&report).ok());
  EXPECT_EQ(report.frames_checked, 3u);
  EXPECT_EQ(report.frames_quarantined, 0u);
  EXPECT_EQ(report.frames_unreadable, 2u);
  injector.DisarmReads();

  // Repair from memory and re-scrub clean.
  ASSERT_TRUE((*disk)->RepairFromMemory(2).ok());
  ASSERT_TRUE((*disk)->Scrub(&report).ok());
  EXPECT_EQ(report.frames_quarantined, 0u);
  EXPECT_EQ(report.frames_unreadable, 0u);
  EXPECT_EQ((*disk)->health().quarantined_count(), 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bw
