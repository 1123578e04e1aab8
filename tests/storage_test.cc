// Unit tests for the durable storage engine's parts: CRC32, the page
// codec, fault-injected file I/O, the WAL (framing, write-through
// appends and one fsync per Sync, torn tails, corruption), the
// checksummed base file (DiskPageFile), and the DurableStore
// commit/checkpoint/recover protocol (one fsync per commit). End-to-end crash
// sweeps over a real index live in crash_recovery_test.cc.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "pages/page.h"
#include "pages/page_codec.h"
#include "pages/page_file.h"
#include "storage/disk_page_file.h"
#include "storage/fault_injector.h"
#include "storage/file_io.h"
#include "storage/store.h"
#include "storage/wal.h"
#include "util/crc32.h"
#include "util/status.h"

namespace bw {
namespace {

using storage::DiskPageFile;
using storage::DurableStore;
using storage::FaultInjector;
using storage::File;
using storage::RecoveryManager;
using storage::StoreOptions;
using storage::Wal;
using storage::WalOptions;
using storage::WalRecordType;
using storage::WalRecordView;

std::string TempPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

void FlipByteAt(const std::string& path, long offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  const int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  ASSERT_NE(std::fputc(c ^ 0x01, f), EOF);
  std::fclose(f);
}

void TruncateTo(const std::string& path, uint64_t size) {
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(storage::ReadFile(path, &bytes).ok());
  ASSERT_LE(size, bytes.size());
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, size, f), size);
  std::fclose(f);
}

// ---------------------------------------------------------------------------
// CRC32
// ---------------------------------------------------------------------------

TEST(Crc32Test, MatchesKnownAnswer) {
  // The IEEE CRC-32 check value for the ASCII digits "123456789".
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const uint32_t whole = Crc32(data.data(), data.size());
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t crc = Crc32Extend(0, data.data(), split);
    crc = Crc32Extend(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(crc, whole) << "split at " << split;
  }
}

TEST(Crc32Test, DetectsSingleBitFlips) {
  uint8_t buf[64];
  for (size_t i = 0; i < sizeof(buf); ++i) buf[i] = static_cast<uint8_t>(i);
  const uint32_t clean = Crc32(buf, sizeof(buf));
  for (size_t byte = 0; byte < sizeof(buf); byte += 7) {
    buf[byte] ^= 0x20;
    EXPECT_NE(Crc32(buf, sizeof(buf)), clean);
    buf[byte] ^= 0x20;
  }
}

// ---------------------------------------------------------------------------
// Page codec
// ---------------------------------------------------------------------------

TEST(PageCodecTest, RoundTripsRecordsAndHeaderWords) {
  pages::Page page(1024);
  page.set_header_word(0, 0xDEAD);
  page.set_header_word(3, 42);
  for (int i = 0; i < 5; ++i) {
    std::string record = "record-" + std::to_string(i);
    record.resize(8 + static_cast<size_t>(i) * 13, 'x');
    ASSERT_TRUE(page.Insert(record.data(), record.size()).ok());
  }
  ASSERT_TRUE(page.Erase(2).ok());  // leave a compaction hole behind.

  std::vector<uint8_t> encoded;
  pages::EncodePage(page, &encoded);
  ASSERT_LE(encoded.size(), pages::MaxEncodedPageBytes(1024));

  pages::Page decoded(1024);
  ASSERT_TRUE(pages::DecodePage(encoded.data(), encoded.size(), &decoded)
                  .ok());
  EXPECT_EQ(decoded.header_word(0), 0xDEADu);
  EXPECT_EQ(decoded.header_word(3), 42u);
  ASSERT_EQ(decoded.slot_count(), page.slot_count());
  for (size_t s = 0; s < page.slot_count(); ++s) {
    ASSERT_EQ(decoded.RecordLength(s), page.RecordLength(s));
    EXPECT_EQ(std::memcmp(decoded.RecordData(s), page.RecordData(s),
                          page.RecordLength(s)),
              0);
  }
}

TEST(PageCodecTest, RejectsTruncatedAndOversizedInput) {
  pages::Page page(512);
  ASSERT_TRUE(page.Insert("hello", 5).ok());
  std::vector<uint8_t> encoded;
  pages::EncodePage(page, &encoded);

  pages::Page out(512);
  EXPECT_FALSE(
      pages::DecodePage(encoded.data(), encoded.size() - 1, &out).ok());
  encoded.push_back(0);
  EXPECT_FALSE(
      pages::DecodePage(encoded.data(), encoded.size(), &out).ok());
}

// ---------------------------------------------------------------------------
// File + fault injection
// ---------------------------------------------------------------------------

TEST(FileIoTest, WriteReadAppendRoundTrip) {
  const std::string path = TempPath("file_io.bin");
  auto file = File::Open(path, /*truncate=*/true);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  ASSERT_TRUE((*file)->WriteAt(0, "abcdef", 6).ok());
  ASSERT_TRUE((*file)->Append("ghi", 3).ok());
  ASSERT_TRUE((*file)->WriteAt(2, "XY", 2).ok());
  EXPECT_EQ((*file)->size(), 9u);
  ASSERT_TRUE((*file)->Sync().ok());

  char buf[9];
  ASSERT_TRUE((*file)->ReadAt(0, buf, sizeof(buf)).ok());
  EXPECT_EQ(std::string(buf, 9), "abXYefghi");
  EXPECT_FALSE((*file)->ReadAt(5, buf, 9).ok());  // short read is an error.

  std::vector<uint8_t> all;
  ASSERT_TRUE(storage::ReadFile(path, &all).ok());
  EXPECT_EQ(all.size(), 9u);
}

TEST(FileIoTest, CrashFaultKillsTheWriteStream) {
  const std::string path = TempPath("file_crash.bin");
  FaultInjector injector;
  auto file = File::Open(path, /*truncate=*/true, &injector);
  ASSERT_TRUE(file.ok());
  injector.Arm(FaultInjector::Fault::kCrash, /*nth_write=*/2);

  ASSERT_TRUE((*file)->WriteAt(0, "first", 5).ok());
  EXPECT_FALSE((*file)->WriteAt(5, "second", 6).ok());
  EXPECT_TRUE(injector.crashed());
  // The "process" is dead: every later write and sync fails too.
  EXPECT_FALSE((*file)->WriteAt(20, "later", 5).ok());
  EXPECT_FALSE((*file)->Sync().ok());
  EXPECT_EQ(injector.writes_seen(), 3u);

  std::vector<uint8_t> all;
  ASSERT_TRUE(storage::ReadFile(path, &all).ok());
  EXPECT_EQ(all.size(), 5u);  // only the pre-crash write persisted.
}

TEST(FileIoTest, TornWritePersistsHalfThePrefix) {
  const std::string path = TempPath("file_torn.bin");
  FaultInjector injector;
  auto file = File::Open(path, /*truncate=*/true, &injector);
  ASSERT_TRUE(file.ok());
  injector.Arm(FaultInjector::Fault::kTornWrite, /*nth_write=*/1);

  std::vector<uint8_t> data(100, 0xAB);
  EXPECT_FALSE((*file)->WriteAt(0, data.data(), data.size()).ok());
  EXPECT_TRUE(injector.crashed());

  std::vector<uint8_t> all;
  ASSERT_TRUE(storage::ReadFile(path, &all).ok());
  ASSERT_EQ(all.size(), 50u);
  EXPECT_EQ(all[0], 0xAB);
  EXPECT_EQ(all[49], 0xAB);
}

TEST(FileIoTest, BitFlipSilentlyCorruptsOneBit) {
  const std::string path = TempPath("file_flip.bin");
  FaultInjector injector;
  auto file = File::Open(path, /*truncate=*/true, &injector);
  ASSERT_TRUE(file.ok());
  injector.Arm(FaultInjector::Fault::kBitFlip, /*nth_write=*/1);

  std::vector<uint8_t> data(64, 0x00);
  ASSERT_TRUE((*file)->WriteAt(0, data.data(), data.size()).ok());
  EXPECT_FALSE(injector.crashed());  // the write "succeeded".

  std::vector<uint8_t> all;
  ASSERT_TRUE(storage::ReadFile(path, &all).ok());
  ASSERT_EQ(all.size(), data.size());
  int flipped_bits = 0;
  for (size_t i = 0; i < all.size(); ++i) {
    for (int b = 0; b < 8; ++b) {
      flipped_bits += ((all[i] ^ data[i]) >> b) & 1;
    }
  }
  EXPECT_EQ(flipped_bits, 1);
}

TEST(FileIoTest, CleanEnospcKeepsTheFdUsable) {
  const std::string path = TempPath("file_enospc.bin");
  FaultInjector injector;
  auto file = File::Open(path, /*truncate=*/true, &injector);
  ASSERT_TRUE(file.ok());

  FaultInjector::WriteFaultPlan plan;
  plan.enospc_every_n = 2;  // the second write hits a full disk.
  plan.enospc_burst = 1;
  injector.ArmWrites(plan);

  std::vector<uint8_t> data(16, 0x11);
  ASSERT_TRUE((*file)->WriteAt(0, data.data(), data.size()).ok());
  const Status refused = (*file)->WriteAt(16, data.data(), data.size());
  EXPECT_EQ(refused.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(injector.enospc_faults(), 1u);
  EXPECT_FALSE((*file)->fail_stopped());  // clean refusal, fd intact.

  // Space "frees up": the same fd keeps working, and nothing of the
  // refused write ever landed.
  injector.DisarmWrites();
  ASSERT_TRUE((*file)->WriteAt(16, data.data(), data.size()).ok());
  ASSERT_TRUE((*file)->Sync().ok());
  std::vector<uint8_t> all;
  ASSERT_TRUE(storage::ReadFile(path, &all).ok());
  EXPECT_EQ(all.size(), 32u);
}

TEST(FileIoTest, EioFailStopsTheFd) {
  const std::string path = TempPath("file_eio.bin");
  FaultInjector injector;
  auto file = File::Open(path, /*truncate=*/true, &injector);
  ASSERT_TRUE(file.ok());

  FaultInjector::WriteFaultPlan plan;
  plan.eio_every_n = 1;
  injector.ArmWrites(plan);

  std::vector<uint8_t> data(16, 0x22);
  const Status hard = (*file)->WriteAt(0, data.data(), data.size());
  EXPECT_EQ(hard.code(), StatusCode::kIoError);
  EXPECT_TRUE((*file)->fail_stopped());

  // The device error left the range in an unknown state: even with the
  // injector quiet again, the fd sheds everything.
  injector.DisarmWrites();
  EXPECT_FALSE((*file)->WriteAt(0, data.data(), data.size()).ok());
  EXPECT_FALSE((*file)->Sync().ok());
}

TEST(FileIoTest, FailedFsyncCannotBeRetriedIntoDurability) {
  // Fsyncgate regression: after fsync reports failure the kernel may
  // already have dropped the dirty pages, so a later write+fsync pair
  // that "succeeds" would acknowledge a commit that never reached the
  // platter. The fd must fail-stop instead.
  const std::string path = TempPath("file_fsyncgate.bin");
  FaultInjector injector;
  auto file = File::Open(path, /*truncate=*/true, &injector);
  ASSERT_TRUE(file.ok());

  FaultInjector::WriteFaultPlan plan;
  plan.sync_fail_at = 1;
  injector.ArmWrites(plan);

  std::vector<uint8_t> data(16, 0x33);
  ASSERT_TRUE((*file)->WriteAt(0, data.data(), data.size()).ok());
  const Status failed = (*file)->Sync();
  EXPECT_EQ(failed.code(), StatusCode::kIoError);
  EXPECT_EQ(injector.sync_failures(), 1u);
  EXPECT_TRUE((*file)->fail_stopped());

  // The "retry the commit" sequence a naive caller would attempt: both
  // legs must fail, so no layer above can ever report durable.
  EXPECT_FALSE((*file)->WriteAt(16, data.data(), data.size()).ok());
  EXPECT_FALSE((*file)->Sync().ok());
}

/// The byte a pattern file holds at `offset`.
uint8_t PatternByte(size_t offset) {
  return static_cast<uint8_t>((offset * 131) & 0xff);
}

/// A fresh file of `bytes` bytes whose byte at offset i is PatternByte(i).
std::string MakePatternFile(const std::string& name, size_t bytes) {
  const std::string path = TempPath(name);
  auto file = File::Open(path, /*truncate=*/true);
  EXPECT_TRUE(file.ok());
  std::vector<uint8_t> data(bytes);
  for (size_t i = 0; i < bytes; ++i) data[i] = PatternByte(i);
  EXPECT_TRUE((*file)->WriteAt(0, data.data(), data.size()).ok());
  EXPECT_TRUE((*file)->Sync().ok());
  return path;
}

TEST(FileIoTest, ReadFlipsTickOncePerReadInOrder) {
  constexpr size_t kReads = 8;
  constexpr size_t kBytes = 512;
  const std::string path = MakePatternFile("read_flips.bin", kReads * kBytes);
  FaultInjector injector;
  FaultInjector::ReadFaultPlan plan;
  plan.flip_every_n = 3;  // reads 3 and 6 of 8.
  injector.ArmReads(plan);
  auto file = File::Open(path, /*truncate=*/false, &injector);
  ASSERT_TRUE(file.ok());

  for (size_t i = 0; i < kReads; ++i) {
    std::vector<uint8_t> buf(kBytes);
    ASSERT_TRUE((*file)->ReadAt(i * kBytes, buf.data(), kBytes).ok());
    const bool flipped = i + 1 == 3 || i + 1 == 6;
    for (size_t b = 0; b < kBytes; ++b) {
      const uint8_t flip = flipped && b == kBytes / 2 ? 0x10 : 0x00;
      ASSERT_EQ(buf[b], PatternByte(i * kBytes + b) ^ flip)
          << "read " << i + 1 << ", byte " << b;
    }
  }
  EXPECT_EQ(injector.reads_seen(), kReads);
  EXPECT_EQ(injector.read_flips(), 2u);
}

TEST(FileIoTest, TransientReadBurstsFailThePredictedReads) {
  constexpr size_t kReads = 10;
  constexpr size_t kBytes = 256;
  const std::string path = MakePatternFile("read_bursts.bin", kReads * kBytes);
  FaultInjector injector;
  FaultInjector::ReadFaultPlan plan;
  plan.transient_every_n = 3;
  plan.transient_burst = 2;  // reads 3,4 then 6,7 then 9,10 fail.
  injector.ArmReads(plan);
  auto file = File::Open(path, /*truncate=*/false, &injector);
  ASSERT_TRUE(file.ok());

  for (size_t i = 0; i < kReads; ++i) {
    const size_t tick = i + 1;
    const bool should_fail = tick >= 3 && (tick % 3 == 0 || tick % 3 == 1);
    std::vector<uint8_t> buf(kBytes);
    const Status status = (*file)->ReadAt(i * kBytes, buf.data(), kBytes);
    if (should_fail) {
      EXPECT_EQ(status.code(), StatusCode::kUnavailable) << "read " << tick;
    } else {
      ASSERT_TRUE(status.ok()) << "read " << tick << ": " << status.ToString();
      EXPECT_EQ(buf[kBytes / 2], PatternByte(i * kBytes + kBytes / 2));
    }
  }
  EXPECT_EQ(injector.reads_seen(), kReads);
  EXPECT_EQ(injector.transient_read_faults(), 6u);
}

TEST(FileIoTest, OpenWithoutTruncateNeverCreates) {
  const std::string path = TempPath("file_missing.bin");
  EXPECT_EQ(File::Open(path, /*truncate=*/false).status().code(),
            StatusCode::kNotFound);
  std::vector<uint8_t> bytes;
  EXPECT_EQ(storage::ReadFile(path, &bytes).code(), StatusCode::kNotFound);
  EXPECT_EQ(std::fopen(path.c_str(), "rb"), nullptr);
}

// ---------------------------------------------------------------------------
// WAL
// ---------------------------------------------------------------------------

TEST(WalTest, AppendReplayRoundTrip) {
  const std::string path = TempPath("roundtrip.wal");
  auto wal = Wal::Create(path, WalOptions());
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append(WalRecordType::kAlloc, 7, nullptr, 0).ok());
  ASSERT_TRUE(
      (*wal)->Append(WalRecordType::kPageImage, 7, "payload!", 8).ok());
  const uint64_t tag = 99;
  ASSERT_TRUE(
      (*wal)->Append(WalRecordType::kCommit, pages::kInvalidPageId, &tag, 8)
          .ok());
  EXPECT_EQ((*wal)->last_lsn(), 3u);
  EXPECT_EQ((*wal)->durable_lsn(), 0u);  // written through, not yet synced.
  ASSERT_TRUE((*wal)->Sync().ok());
  EXPECT_EQ((*wal)->durable_lsn(), 3u);

  std::vector<std::tuple<WalRecordType, pages::PageId, std::string>> seen;
  auto replay = storage::ReplayWal(path, [&](const WalRecordView& r) {
    seen.emplace_back(r.type, r.page_id,
                      std::string(reinterpret_cast<const char*>(r.payload),
                                  r.payload_len));
    return Status::OK();
  });
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->records, 3u);
  EXPECT_EQ(replay->commits, 1u);
  EXPECT_EQ(replay->last_lsn, 3u);
  EXPECT_FALSE(replay->tail_truncated);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(std::get<0>(seen[0]), WalRecordType::kAlloc);
  EXPECT_EQ(std::get<1>(seen[0]), 7u);
  EXPECT_EQ(std::get<0>(seen[1]), WalRecordType::kPageImage);
  EXPECT_EQ(std::get<2>(seen[1]), "payload!");
  EXPECT_EQ(std::get<0>(seen[2]), WalRecordType::kCommit);
}

TEST(WalTest, MissingFileIsAnEmptyLog) {
  auto replay = storage::ReplayWal(TempPath("nonexistent.wal"),
                                   [](const WalRecordView&) {
                                     ADD_FAILURE() << "no records expected";
                                     return Status::OK();
                                   });
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->records, 0u);
}

TEST(WalTest, TornTailIsDetectedAndContinuable) {
  const std::string path = TempPath("torn_tail.wal");
  {
    auto wal = Wal::Create(path, WalOptions());
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(
          (*wal)->Append(WalRecordType::kPageImage, i, "0123456789", 10).ok());
    }
  }
  auto intact = storage::ReplayWal(
      path, [](const WalRecordView&) { return Status::OK(); });
  ASSERT_TRUE(intact.ok());
  ASSERT_EQ(intact->records, 3u);

  // Tear 3 bytes off the last record: the scan must stop cleanly after
  // the second record, not error.
  TruncateTo(path, intact->valid_bytes - 3);
  auto torn = storage::ReplayWal(
      path, [](const WalRecordView&) { return Status::OK(); });
  ASSERT_TRUE(torn.ok()) << torn.status().ToString();
  EXPECT_EQ(torn->records, 2u);
  EXPECT_TRUE(torn->tail_truncated);
  EXPECT_EQ(torn->last_lsn, 2u);

  // Continue drops the torn tail and appends at the next LSN.
  auto cont = Wal::Continue(path, WalOptions(), torn->valid_bytes,
                            torn->last_lsn + 1);
  ASSERT_TRUE(cont.ok()) << cont.status().ToString();
  ASSERT_TRUE(
      (*cont)->Append(WalRecordType::kPageImage, 9, "resumed", 7).ok());

  std::vector<uint64_t> lsns;
  auto resumed = storage::ReplayWal(path, [&](const WalRecordView& r) {
    lsns.push_back(r.lsn);
    return Status::OK();
  });
  ASSERT_TRUE(resumed.ok());
  EXPECT_FALSE(resumed->tail_truncated);
  ASSERT_EQ(lsns.size(), 3u);
  EXPECT_EQ(lsns.back(), 3u);
}

TEST(WalTest, CorruptRecordIsDataLoss) {
  const std::string path = TempPath("corrupt.wal");
  {
    auto wal = Wal::Create(path, WalOptions());
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(
          (*wal)->Append(WalRecordType::kPageImage, i, "0123456789", 10).ok());
    }
  }
  // Flip one payload bit of the middle record: a *complete* record that
  // fails its CRC is corruption, never a benign torn tail.
  FlipByteAt(path, 38 + 25);  // record 1 starts at 38; payload at +24.
  auto replay = storage::ReplayWal(
      path, [](const WalRecordView&) { return Status::OK(); });
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kDataLoss);
}

TEST(WalTest, GroupCommitBatchesFsyncs) {
  const std::string path = TempPath("group_commit.wal");
  auto wal = Wal::Create(path, WalOptions());
  ASSERT_TRUE(wal.ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        (*wal)->Append(WalRecordType::kAlloc, i, nullptr, 0).ok());
  }
  // Appends write through but never fsync...
  EXPECT_EQ((*wal)->sync_count(), 0u);
  EXPECT_EQ((*wal)->durable_lsn(), 0u);
  EXPECT_EQ((*wal)->appended_records(), 4u);
  // ...and one Sync() makes all of them durable at once.
  ASSERT_TRUE((*wal)->Sync().ok());
  EXPECT_EQ((*wal)->sync_count(), 1u);
  EXPECT_EQ((*wal)->durable_lsn(), 4u);
  EXPECT_EQ((*wal)->durable_lsn(), (*wal)->last_lsn());
}

TEST(WalTest, ResetEmptiesLogButLsnsKeepRising) {
  const std::string path = TempPath("reset.wal");
  auto wal = Wal::Create(path, WalOptions());
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append(WalRecordType::kAlloc, 0, nullptr, 0).ok());
  ASSERT_GT((*wal)->live_bytes(), 0u);
  ASSERT_TRUE((*wal)->Reset().ok());
  EXPECT_EQ((*wal)->live_bytes(), 0u);
  ASSERT_TRUE((*wal)->Append(WalRecordType::kAlloc, 1, nullptr, 0).ok());

  std::vector<uint64_t> lsns;
  auto replay = storage::ReplayWal(path, [&](const WalRecordView& r) {
    lsns.push_back(r.lsn);
    return Status::OK();
  });
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(lsns.size(), 1u);
  EXPECT_EQ(lsns[0], 2u);  // the pre-reset record is gone, its LSN is not.
}

// ---------------------------------------------------------------------------
// DiskPageFile
// ---------------------------------------------------------------------------

TEST(DiskPageFileTest, CreateFlushReopenRoundTrip) {
  const std::string path = TempPath("base_roundtrip.bwpf");
  {
    auto disk = DiskPageFile::Create(path, 1024);
    ASSERT_TRUE(disk.ok()) << disk.status().ToString();
    for (int i = 0; i < 3; ++i) {
      const pages::PageId id = (*disk)->Allocate();
      auto page = (*disk)->Write(id);
      ASSERT_TRUE(page.ok());
      (*page)->set_header_word(0, 100 + i);
      const std::string record = "page-" + std::to_string(i);
      ASSERT_TRUE((*page)->Insert(record.data(), record.size()).ok());
    }
    ASSERT_TRUE((*disk)->FlushPagesAndSync({0, 1, 2}).ok());
    ASSERT_TRUE((*disk)->CommitHeader(/*checkpoint_lsn=*/7).ok());
  }
  auto reopened = DiskPageFile::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->page_count(), 3u);
  EXPECT_EQ((*reopened)->page_size(), 1024u);
  EXPECT_EQ((*reopened)->checkpoint_lsn(), 7u);
  EXPECT_TRUE((*reopened)->suspect_pages().empty());
  for (int i = 0; i < 3; ++i) {
    const pages::Page* page = (*reopened)->PeekNoIo(i);
    EXPECT_EQ(page->header_word(0), 100u + i);
    ASSERT_EQ(page->slot_count(), 1u);
    const std::string expected = "page-" + std::to_string(i);
    EXPECT_EQ(std::memcmp(page->RecordData(0), expected.data(),
                          expected.size()),
              0);
  }
}

TEST(DiskPageFileTest, BitFlippedFrameIsSuspectAndRepairable) {
  const std::string path = TempPath("base_suspect.bwpf");
  std::vector<uint8_t> good_image;
  {
    auto disk = DiskPageFile::Create(path, 1024);
    ASSERT_TRUE(disk.ok());
    for (int i = 0; i < 2; ++i) {
      const pages::PageId id = (*disk)->Allocate();
      auto page = (*disk)->Write(id);
      ASSERT_TRUE(page.ok());
      ASSERT_TRUE((*page)->Insert("some bytes", 10).ok());
    }
    pages::EncodePage(*(*disk)->PeekNoIo(1), &good_image);
    ASSERT_TRUE((*disk)->FlushPagesAndSync({0, 1}).ok());
    ASSERT_TRUE((*disk)->CommitHeader(0).ok());
  }
  // Frames start at byte 128; each is page_size + 32 bytes. Rot a byte
  // in the middle of frame 1.
  FlipByteAt(path, 128 + (1024 + 32) + 5);

  auto reopened = DiskPageFile::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->suspect_pages(), std::vector<pages::PageId>{1});
  // Page 0 survived; the suspect page reads as empty until repaired.
  EXPECT_EQ((*reopened)->PeekNoIo(0)->slot_count(), 1u);
  EXPECT_EQ((*reopened)->PeekNoIo(1)->slot_count(), 0u);

  ASSERT_TRUE(
      (*reopened)
          ->ApplyPageImage(1, good_image.data(), good_image.size())
          .ok());
  EXPECT_TRUE((*reopened)->suspect_pages().empty());
  EXPECT_EQ((*reopened)->PeekNoIo(1)->slot_count(), 1u);
}

TEST(DiskPageFileTest, TornHeaderFallsBackToPreviousEpoch) {
  const std::string path = TempPath("base_header.bwpf");
  {
    auto disk = DiskPageFile::Create(path, 1024);  // epoch 1 -> slot B.
    ASSERT_TRUE(disk.ok());
    const pages::PageId id = (*disk)->Allocate();
    auto page = (*disk)->Write(id);
    ASSERT_TRUE(page.ok());
    ASSERT_TRUE((*page)->Insert("x", 1).ok());
    ASSERT_TRUE((*disk)->FlushPagesAndSync({id}).ok());
    ASSERT_TRUE((*disk)->CommitHeader(5).ok());  // epoch 2 -> slot A.
    ASSERT_TRUE((*disk)->CommitHeader(9).ok());  // epoch 3 -> slot B.
  }
  {
    auto intact = DiskPageFile::Open(path);
    ASSERT_TRUE(intact.ok());
    EXPECT_EQ((*intact)->checkpoint_lsn(), 9u);
  }
  // Corrupt the newest header (slot B, bytes 64..127): Open must fall
  // back to the epoch-2 header instead of failing.
  FlipByteAt(path, 64 + 20);
  auto fallback = DiskPageFile::Open(path);
  ASSERT_TRUE(fallback.ok()) << fallback.status().ToString();
  EXPECT_EQ((*fallback)->checkpoint_lsn(), 5u);
  EXPECT_EQ((*fallback)->page_count(), 1u);

  // With both headers gone the store is unrecoverable: DataLoss.
  FlipByteAt(path, 0 + 20);
  auto dead = DiskPageFile::Open(path);
  ASSERT_FALSE(dead.ok());
  EXPECT_EQ(dead.status().code(), StatusCode::kDataLoss);
}

// ---------------------------------------------------------------------------
// DurableStore: commit, recover, checkpoint
// ---------------------------------------------------------------------------

StoreOptions SmallStore() {
  StoreOptions options;
  options.page_size = 512;
  return options;
}

TEST(DurableStoreTest, CommittedBatchesSurviveACrash) {
  const std::string base = TempPath("store_commit.bwpf");
  const std::string wal = TempPath("store_commit.wal");
  {
    auto store = DurableStore::Create(base, wal, SmallStore());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (int i = 0; i < 2; ++i) {
      const pages::PageId id = (*store)->pages()->Allocate();
      auto page = (*store)->pages()->Write(id);
      ASSERT_TRUE(page.ok());
      ASSERT_TRUE((*page)->Insert("batch-one", 9).ok());
    }
    ASSERT_TRUE((*store)->CommitBatch(1).ok());

    auto page = (*store)->pages()->Write(0);
    ASSERT_TRUE(page.ok());
    ASSERT_TRUE((*page)->Insert("batch-two", 9).ok());
    ASSERT_TRUE((*store)->CommitBatch(2).ok());

    // Mutated but never committed: must not survive.
    auto lost = (*store)->pages()->Write(1);
    ASSERT_TRUE(lost.ok());
    ASSERT_TRUE((*lost)->Insert("uncommitted", 11).ok());
    // "Crash": drop the store with no checkpoint.
  }
  RecoveryManager::Summary summary;
  auto recovered = RecoveryManager::Recover(base, wal, SmallStore(), &summary);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(summary.committed_batches, 2u);
  EXPECT_EQ(summary.last_commit_tag, 2u);
  EXPECT_FALSE(summary.wal_tail_truncated);
  ASSERT_EQ((*recovered)->pages()->page_count(), 2u);
  EXPECT_EQ((*recovered)->pages()->PeekNoIo(0)->slot_count(), 2u);
  EXPECT_EQ((*recovered)->pages()->PeekNoIo(1)->slot_count(), 1u);

  // The recovered store keeps working: commit, crash, recover again.
  {
    auto page = (*recovered)->pages()->Write(1);
    ASSERT_TRUE(page.ok());
    ASSERT_TRUE((*page)->Insert("round two", 9).ok());
    ASSERT_TRUE((*recovered)->CommitBatch(3).ok());
    recovered->reset();
  }
  auto again = RecoveryManager::Recover(base, wal, SmallStore(), &summary);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(summary.last_commit_tag, 3u);
  EXPECT_EQ((*again)->pages()->PeekNoIo(1)->slot_count(), 2u);
}

TEST(DurableStoreTest, CommitBatchIsOneFsync) {
  const std::string base = TempPath("store_one_fsync.bwpf");
  const std::string wal = TempPath("store_one_fsync.wal");
  auto store = DurableStore::Create(base, wal, SmallStore());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  for (int i = 0; i < 3; ++i) (*store)->pages()->Allocate();
  ASSERT_TRUE((*store)->CommitBatch(1).ok());

  // One batch of 1 allocation + 4 page images (the new page and 3
  // existing ones) + the commit record: 6 records, one fsync.
  const pages::PageId fresh = (*store)->pages()->Allocate();
  for (pages::PageId id = 0; id <= fresh; ++id) {
    auto page = (*store)->pages()->Write(id);
    ASSERT_TRUE(page.ok());
    ASSERT_TRUE((*page)->Insert("dirty", 5).ok());
  }
  const Wal& log = *(*store)->wal();
  const uint64_t syncs = log.sync_count();
  const uint64_t records = log.appended_records();
  ASSERT_TRUE((*store)->CommitBatch(2).ok());
  EXPECT_EQ(log.appended_records() - records, 6u);
  EXPECT_EQ(log.sync_count() - syncs, 1u);
  EXPECT_EQ(log.durable_lsn(), log.last_lsn());
}

TEST(DurableStoreTest, UncommittedWalTailIsDiscarded) {
  const std::string base = TempPath("store_tail.bwpf");
  const std::string wal = TempPath("store_tail.wal");
  {
    auto store = DurableStore::Create(base, wal, SmallStore());
    ASSERT_TRUE(store.ok());
    const pages::PageId id = (*store)->pages()->Allocate();
    auto page = (*store)->pages()->Write(id);
    ASSERT_TRUE(page.ok());
    ASSERT_TRUE((*page)->Insert("durable", 7).ok());
    ASSERT_TRUE((*store)->CommitBatch(1).ok());
    // A batch that reached the log but never committed — as if the
    // process died between the page images and the commit record.
    ASSERT_TRUE((*store)
                    ->wal()
                    ->Append(WalRecordType::kAlloc, 5, nullptr, 0)
                    .ok());
  }
  RecoveryManager::Summary summary;
  auto recovered = RecoveryManager::Recover(base, wal, SmallStore(), &summary);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(summary.committed_batches, 1u);
  EXPECT_EQ(summary.records_discarded, 1u);
  EXPECT_EQ((*recovered)->pages()->page_count(), 1u);  // alloc 5 dropped.
}

TEST(DurableStoreTest, CheckpointEmptiesWalAndPreservesState) {
  const std::string base = TempPath("store_ckpt.bwpf");
  const std::string wal = TempPath("store_ckpt.wal");
  {
    auto store = DurableStore::Create(base, wal, SmallStore());
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 4; ++i) {
      const pages::PageId id = (*store)->pages()->Allocate();
      auto page = (*store)->pages()->Write(id);
      ASSERT_TRUE(page.ok());
      ASSERT_TRUE((*page)->Insert(&i, sizeof(i)).ok());
      ASSERT_TRUE((*store)->CommitBatch(i + 1).ok());
    }
    ASSERT_TRUE((*store)->Checkpoint().ok());
  }
  // The WAL is empty after the checkpoint...
  std::vector<uint8_t> wal_bytes;
  ASSERT_TRUE(storage::ReadFile(wal, &wal_bytes).ok());
  EXPECT_EQ(wal_bytes.size(), 0u);
  // ...and the state comes back from the base file alone.
  RecoveryManager::Summary summary;
  auto recovered = RecoveryManager::Recover(base, wal, SmallStore(), &summary);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(summary.committed_batches, 0u);  // nothing left to replay.
  ASSERT_EQ((*recovered)->pages()->page_count(), 4u);
  for (pages::PageId id = 0; id < 4; ++id) {
    EXPECT_EQ((*recovered)->pages()->PeekNoIo(id)->slot_count(), 1u);
  }
}

TEST(DurableStoreTest, TornCheckpointFrameIsRepairedFromWal) {
  const std::string base = TempPath("store_torn_frame.bwpf");
  const std::string wal = TempPath("store_torn_frame.wal");
  FaultInjector injector;
  StoreOptions options = SmallStore();
  options.injector = &injector;
  {
    auto store = DurableStore::Create(base, wal, options);
    ASSERT_TRUE(store.ok());
    const pages::PageId id = (*store)->pages()->Allocate();
    auto page = (*store)->pages()->Write(id);
    ASSERT_TRUE(page.ok());
    ASSERT_TRUE((*page)->Insert("v1", 2).ok());
    ASSERT_TRUE((*store)->CommitBatch(1).ok());
    ASSERT_TRUE((*store)->Checkpoint().ok());

    page = (*store)->pages()->Write(id);
    ASSERT_TRUE(page.ok());
    ASSERT_TRUE((*page)->Insert("v2", 2).ok());
    ASSERT_TRUE((*store)->CommitBatch(2).ok());

    // Kill the next checkpoint mid-frame-flush: the base frame tears,
    // but the WAL already holds the batch-2 image.
    injector.Arm(FaultInjector::Fault::kTornWrite, /*nth_write=*/1);
    EXPECT_FALSE((*store)->Checkpoint().ok());
    EXPECT_TRUE(injector.crashed());
  }
  injector.Disarm();
  RecoveryManager::Summary summary;
  auto recovered = RecoveryManager::Recover(base, wal, SmallStore(), &summary);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(summary.last_commit_tag, 2u);
  EXPECT_EQ((*recovered)->pages()->PeekNoIo(0)->slot_count(), 2u);
}

TEST(DurableStoreTest, UnrepairableRotIsDataLoss) {
  const std::string base = TempPath("store_rot.bwpf");
  const std::string wal = TempPath("store_rot.wal");
  {
    auto store = DurableStore::Create(base, wal, SmallStore());
    ASSERT_TRUE(store.ok());
    const pages::PageId id = (*store)->pages()->Allocate();
    auto page = (*store)->pages()->Write(id);
    ASSERT_TRUE(page.ok());
    ASSERT_TRUE((*page)->Insert("precious", 8).ok());
    ASSERT_TRUE((*store)->CommitBatch(1).ok());
    ASSERT_TRUE((*store)->Checkpoint().ok());  // WAL now empty.
  }
  // Rot the only copy: frame 0 starts at byte 128 (512-byte pages).
  FlipByteAt(base, 128 + 16);
  auto recovered = RecoveryManager::Recover(base, wal, SmallStore());
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kDataLoss);
}

TEST(DurableStoreTest, CleanEnospcCommitIsRetriedWithoutLosingChanges) {
  const std::string base = TempPath("store_enospc.bwpf");
  const std::string wal = TempPath("store_enospc.wal");
  FaultInjector injector;
  StoreOptions options = SmallStore();
  options.injector = &injector;
  {
    auto store = DurableStore::Create(base, wal, options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    const pages::PageId id = (*store)->pages()->Allocate();
    auto page = (*store)->pages()->Write(id);
    ASSERT_TRUE(page.ok());
    ASSERT_TRUE((*page)->Insert("survives", 8).ok());

    // The disk fills up: every write refuses cleanly with ENOSPC.
    FaultInjector::WriteFaultPlan plan;
    plan.enospc_every_n = 1;
    plan.enospc_burst = 1;
    injector.ArmWrites(plan);
    const Status shed = (*store)->CommitBatch(1);
    EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);

    // Space returns: the SAME changes must be re-logged by the retry —
    // the failed commit put the drained dirty/alloc tracking back.
    injector.DisarmWrites();
    ASSERT_TRUE((*store)->CommitBatch(1).ok());
  }
  RecoveryManager::Summary summary;
  auto recovered = RecoveryManager::Recover(base, wal, SmallStore(), &summary);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(summary.last_commit_tag, 1u);
  ASSERT_EQ((*recovered)->pages()->page_count(), 1u);
  EXPECT_EQ((*recovered)->pages()->PeekNoIo(0)->slot_count(), 1u);
}

TEST(DurableStoreTest, FailedFsyncCommitNeverReportsDurable) {
  // Store-level fsyncgate: once the WAL's fsync fails, no later commit
  // may succeed on this store — only crash recovery can continue, and it
  // must surface exactly the batches that were durable BEFORE the
  // failure.
  const std::string base = TempPath("store_fsyncgate.bwpf");
  const std::string wal = TempPath("store_fsyncgate.wal");
  FaultInjector injector;
  StoreOptions options = SmallStore();
  options.injector = &injector;
  {
    auto store = DurableStore::Create(base, wal, options);
    ASSERT_TRUE(store.ok());
    const pages::PageId id = (*store)->pages()->Allocate();
    auto page = (*store)->pages()->Write(id);
    ASSERT_TRUE(page.ok());
    ASSERT_TRUE((*page)->Insert("batch-one", 9).ok());
    ASSERT_TRUE((*store)->CommitBatch(1).ok());

    FaultInjector::WriteFaultPlan plan;
    plan.sync_fail_at = 1;
    injector.ArmWrites(plan);
    page = (*store)->pages()->Write(id);
    ASSERT_TRUE(page.ok());
    ASSERT_TRUE((*page)->Insert("batch-two", 9).ok());
    const Status failed = (*store)->CommitBatch(2);
    EXPECT_FALSE(failed.ok());
    EXPECT_NE(failed.code(), StatusCode::kResourceExhausted)
        << "a failed fsync is not a clean, retryable refusal";

    // The naive retry: it must fail too (the fd fail-stopped), so the
    // store can never acknowledge batch 2.
    EXPECT_FALSE((*store)->CommitBatch(2).ok());
  }
  injector.DisarmWrites();
  RecoveryManager::Summary summary;
  auto recovered = RecoveryManager::Recover(base, wal, SmallStore(), &summary);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(summary.last_commit_tag, 1u);  // batch 2 was never durable.
  EXPECT_EQ((*recovered)->pages()->PeekNoIo(0)->slot_count(), 1u);
}

// ---------------------------------------------------------------------------
// Self-healing read path: retry, scrub, quarantine, repair
// ---------------------------------------------------------------------------

storage::ReadRetryPolicy FastRetry() {
  storage::ReadRetryPolicy retry;
  retry.max_attempts = 4;
  retry.backoff_us = 5;
  retry.max_backoff_us = 50;
  retry.jitter_seed = 1;
  return retry;
}

/// Creates a flushed, committed 3-page base file at `path`; page i holds
/// one record "page-i".
void WriteThreePageBase(const std::string& path) {
  auto disk = DiskPageFile::Create(path, 1024);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  for (int i = 0; i < 3; ++i) {
    const pages::PageId id = (*disk)->Allocate();
    auto page = (*disk)->Write(id);
    ASSERT_TRUE(page.ok());
    const std::string record = "page-" + std::to_string(i);
    ASSERT_TRUE((*page)->Insert(record.data(), record.size()).ok());
  }
  ASSERT_TRUE((*disk)->FlushPagesAndSync({0, 1, 2}).ok());
  ASSERT_TRUE((*disk)->CommitHeader(/*checkpoint_lsn=*/0).ok());
}

TEST(ReadRetryTest, TransientOpenFaultsAbsorbedByBackoffRetry) {
  const std::string path = TempPath("retry_absorbed.bwpf");
  WriteThreePageBase(path);

  FaultInjector injector;
  FaultInjector::ReadFaultPlan plan;
  plan.transient_every_n = 3;  // two consecutive faults, then success:
  plan.transient_burst = 2;    // always inside the 4-attempt budget.
  injector.ArmReads(plan);
  storage::DiskPageFileOptions options;
  options.injector = &injector;
  options.read_retry = FastRetry();
  auto disk = DiskPageFile::Open(path, options);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  EXPECT_TRUE((*disk)->suspect_pages().empty());
  EXPECT_EQ((*disk)->health().quarantined_count(), 0u);
  EXPECT_GT((*disk)->read_retries(), 0u);
  EXPECT_GT(injector.transient_read_faults(), 0u);
  EXPECT_EQ((*disk)->PeekNoIo(2)->slot_count(), 1u);

  // The same bursts over a rotted frame: each frame's retries follow its
  // own first attempt, so every burst is absorbed (one retry per fault)
  // and only the rotted frame is suspect and quarantined.
  FlipByteAt(path, 128 + (1024 + 32) + 5);
  FaultInjector rot_injector;
  rot_injector.ArmReads(plan);
  options.injector = &rot_injector;
  auto rotted = DiskPageFile::Open(path, options);
  ASSERT_TRUE(rotted.ok()) << rotted.status().ToString();
  EXPECT_EQ((*rotted)->suspect_pages(), std::vector<pages::PageId>{1});
  EXPECT_EQ((*rotted)->health().Quarantined(),
            std::vector<pages::PageId>{1});
  EXPECT_GT(rot_injector.transient_read_faults(), 0u);
  EXPECT_EQ((*rotted)->read_retries(), rot_injector.transient_read_faults());
  EXPECT_EQ((*rotted)->PeekNoIo(0)->slot_count(), 1u);
  EXPECT_EQ((*rotted)->PeekNoIo(2)->slot_count(), 1u);
}

TEST(ReadRetryTest, ExhaustedRetryBudgetIsUnavailable) {
  const std::string path = TempPath("retry_exhausted.bwpf");
  WriteThreePageBase(path);
  FaultInjector injector;
  storage::DiskPageFileOptions options;
  options.injector = &injector;
  options.read_retry = FastRetry();
  auto disk = DiskPageFile::Open(path, options);
  ASSERT_TRUE(disk.ok());

  FaultInjector::ReadFaultPlan plan;
  plan.transient_every_n = 1;  // every read (and every retry) faults.
  injector.ArmReads(plan);
  const Status status = (*disk)->VerifyFrame(0);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(status.IsRetryable());
  // All attempts were burned: the original read plus three retries.
  EXPECT_EQ((*disk)->read_retries(), 3u);
  injector.DisarmReads();
  EXPECT_TRUE((*disk)->VerifyFrame(0).ok());
}

TEST(PageHealthTest, RegistryGatesCountsAndReleases) {
  const std::string path = TempPath("health_registry.bwpf");
  WriteThreePageBase(path);
  auto disk = DiskPageFile::Open(path);
  ASSERT_TRUE(disk.ok());

  EXPECT_TRUE((*disk)->ReadHealth(1).ok());
  EXPECT_TRUE((*disk)->health().Quarantine(1));
  EXPECT_FALSE((*disk)->health().Quarantine(1));  // no double-count.
  const Status gated = (*disk)->ReadHealth(1);
  EXPECT_EQ(gated.code(), StatusCode::kUnavailable);
  EXPECT_EQ((*disk)->health().quarantined_count(), 1u);
  EXPECT_EQ((*disk)->health().Quarantined(), std::vector<pages::PageId>{1});

  (*disk)->health().Release(1);
  EXPECT_TRUE((*disk)->ReadHealth(1).ok());
  EXPECT_EQ((*disk)->health().quarantined_count(), 0u);
  EXPECT_EQ((*disk)->health().total_quarantined(), 1u);
  EXPECT_EQ((*disk)->health().total_repaired(), 1u);
}

TEST(SelfHealTest, ScrubQuarantinesRotAndRepairFromMemoryHeals) {
  const std::string path = TempPath("scrub_repair.bwpf");
  FaultInjector injector;
  storage::DiskPageFileOptions options;
  options.injector = &injector;
  options.read_retry = FastRetry();
  auto disk = DiskPageFile::Create(path, 1024, options);
  ASSERT_TRUE(disk.ok());
  for (int i = 0; i < 3; ++i) {
    const pages::PageId id = (*disk)->Allocate();
    auto page = (*disk)->Write(id);
    ASSERT_TRUE(page.ok());
    ASSERT_TRUE((*page)->Insert("payload", 7).ok());
  }
  ASSERT_TRUE((*disk)->FlushPagesAndSync({0, 1, 2}).ok());
  ASSERT_TRUE((*disk)->CommitHeader(0).ok());

  // Disk rot under a live store: the memory copy stays valid.
  FlipByteAt(path, 128 + (1024 + 32) + 5);
  storage::ScrubReport report;
  ASSERT_TRUE((*disk)->Scrub(&report).ok());
  EXPECT_EQ(report.frames_checked, 3u);
  EXPECT_EQ(report.frames_quarantined, 1u);
  EXPECT_EQ((*disk)->health().Quarantined(), std::vector<pages::PageId>{1});
  EXPECT_FALSE((*disk)->memory_invalid(1));
  EXPECT_EQ((*disk)->VerifyFrame(1).code(), StatusCode::kDataLoss);

  // Every read failing: the healthy frames outlast their retry budget
  // and count as unreadable (quarantined page 1 is skipped), and nothing
  // is newly quarantined.
  FaultInjector::ReadFaultPlan plan;
  plan.transient_every_n = 1;
  injector.ArmReads(plan);
  ASSERT_TRUE((*disk)->Scrub(&report).ok());
  EXPECT_EQ(report.frames_checked, 3u);
  EXPECT_EQ(report.frames_quarantined, 0u);
  EXPECT_EQ(report.frames_unreadable, 2u);
  EXPECT_EQ((*disk)->health().Quarantined(), std::vector<pages::PageId>{1});
  injector.DisarmReads();

  ASSERT_TRUE((*disk)->RepairFromMemory(1).ok());
  EXPECT_EQ((*disk)->health().quarantined_count(), 0u);
  EXPECT_TRUE((*disk)->VerifyFrame(1).ok());
  // A second scrub confirms the heal is durable on disk.
  ASSERT_TRUE((*disk)->Scrub(&report).ok());
  EXPECT_EQ(report.frames_quarantined, 0u);
}

TEST(SelfHealTest, ReloadFromDiskHealsTransientOpenRot) {
  const std::string path = TempPath("reload_heal.bwpf");
  WriteThreePageBase(path);

  const long rotten_byte = 128 + (1024 + 32) + 5;
  FlipByteAt(path, rotten_byte);
  auto disk = DiskPageFile::Open(path);
  ASSERT_TRUE(disk.ok());
  EXPECT_EQ((*disk)->suspect_pages(), std::vector<pages::PageId>{1});
  EXPECT_TRUE((*disk)->memory_invalid(1));
  EXPECT_EQ((*disk)->PeekNoIo(1)->slot_count(), 0u);  // cleared, gated.

  // The rot clears up (as a transient medium fault at Open would):
  // ReloadFromDisk re-materializes the page without any WAL.
  FlipByteAt(path, rotten_byte);
  ASSERT_TRUE((*disk)->ReloadFromDisk(1).ok());
  EXPECT_FALSE((*disk)->memory_invalid(1));
  EXPECT_EQ((*disk)->health().quarantined_count(), 0u);
  EXPECT_EQ((*disk)->PeekNoIo(1)->slot_count(), 1u);
}

TEST(SelfHealTest, WalMinedRepairHealsPageQuarantinedAtOpen) {
  const std::string base = TempPath("wal_repair.bwpf");
  const std::string wal = TempPath("wal_repair.wal");
  StoreOptions options = SmallStore();
  std::vector<uint8_t> wal_bytes;
  {
    auto store = DurableStore::Create(base, wal, options);
    ASSERT_TRUE(store.ok());
    const pages::PageId id = (*store)->pages()->Allocate();
    auto page = (*store)->pages()->Write(id);
    ASSERT_TRUE(page.ok());
    ASSERT_TRUE((*page)->Insert("precious", 8).ok());
    ASSERT_TRUE((*store)->CommitBatch(1).ok());
    // Snapshot the log while it still holds the batch-1 image, then
    // checkpoint. Restoring these bytes below reproduces a crash that
    // landed between header publish and WAL truncation.
    ASSERT_TRUE(storage::ReadFile(wal, &wal_bytes).ok());
    ASSERT_TRUE((*store)->Checkpoint().ok());
  }
  {
    std::FILE* f = std::fopen(wal.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(wal_bytes.data(), 1, wal_bytes.size(), f),
              wal_bytes.size());
    std::fclose(f);
  }
  FlipByteAt(base, 128 + 16);  // rot the only base copy of page 0.

  // Fail-closed recovery refuses; tolerant recovery opens degraded.
  ASSERT_FALSE(RecoveryManager::Recover(base, wal, options).ok());
  options.quarantine_unrepaired = true;
  RecoveryManager::Summary summary;
  auto recovered = RecoveryManager::Recover(base, wal, options, &summary);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(summary.pages_quarantined, 1u);
  EXPECT_EQ((*recovered)->disk()->ReadHealth(0).code(),
            StatusCode::kUnavailable);

  // The unrepaired page pins the WAL: checkpoints must refuse to
  // truncate the only surviving redo image.
  EXPECT_EQ((*recovered)->Checkpoint().code(), StatusCode::kUnavailable);

  DurableStore::RepairReport report;
  ASSERT_TRUE((*recovered)->RepairQuarantined(&report).ok());
  EXPECT_EQ(report.repaired_from_wal, 1u);
  EXPECT_EQ(report.unrepaired, 0u);
  EXPECT_TRUE((*recovered)->disk()->ReadHealth(0).ok());
  EXPECT_EQ((*recovered)->pages()->PeekNoIo(0)->slot_count(), 1u);
  // With the page healed the WAL is no longer pinned.
  EXPECT_TRUE((*recovered)->Checkpoint().ok());
}

// ---------------------------------------------------------------------------
// PageFile thread-contract enforcement (debug builds)
// ---------------------------------------------------------------------------

#ifndef NDEBUG
using PageFileContractDeathTest = ::testing::Test;

TEST(PageFileContractDeathTest, MutatorOverlappingPeekersAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        pages::PageFile file(512);
        file.Allocate();
        std::atomic<bool> stop{false};
        std::thread peeker([&] {
          while (!stop.load(std::memory_order_relaxed)) {
            file.PeekNoIo(0);
          }
        });
        // Keep mutating until the occupancy counters catch an overlap
        // (the loop bound only matters if the abort never happens).
        for (int i = 0; i < 50'000'000; ++i) {
          (void)file.Write(0);
        }
        stop.store(true);
        peeker.join();
      },
      "PageFile contract violation");
}
#else
TEST(PageFileContractTest, GuardsCompileOutInReleaseBuilds) {
  GTEST_SKIP() << "occupancy guards are compiled out under NDEBUG";
}
#endif

}  // namespace
}  // namespace bw
