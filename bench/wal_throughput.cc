// Storage-engine microbench: (1) WAL append throughput as a function of
// the commit batch size — page-image records written through to the log,
// each batch closed by the one fsync a DurableStore commit pays — and
// (2) recovery wall-clock as a function of log length, the cost fuzzy
// checkpoints exist to bound. Both tables print via TablePrinter so runs
// diff cleanly.
//
//   ./wal_throughput [--records=8000] [--payload_bytes=1024]
//                    [--dir=/tmp] [--recovery_batches=1024]
//
// Hyphenated spellings work too (--payload-bytes == --payload_bytes),
// as with every bench binary.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "storage/file_io.h"
#include "storage/store.h"
#include "storage/wal.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"

namespace bw {
namespace {

std::string JoinPath(const std::string& dir, const std::string& name) {
  const std::string path = dir + "/" + name;
  std::remove(path.c_str());
  return path;
}

/// Appends `records` page-image records of `payload_bytes` each, with a
/// Sync() after every `batch` of them (and after a final partial one),
/// and returns elapsed seconds.
double AppendRun(const std::string& path, size_t batch, int64_t records,
                 const std::vector<uint8_t>& payload, uint64_t* syncs) {
  auto wal = storage::Wal::Create(path, storage::WalOptions());
  BW_CHECK(wal.ok());
  Stopwatch timer;
  for (int64_t i = 0; i < records; ++i) {
    auto lsn = (*wal)->Append(storage::WalRecordType::kPageImage,
                              static_cast<pages::PageId>(i % 64),
                              payload.data(), payload.size());
    BW_CHECK(lsn.ok());
    if ((i + 1) % static_cast<int64_t>(batch) == 0 || i + 1 == records) {
      BW_CHECK((*wal)->Sync().ok());
    }
  }
  const double seconds = timer.ElapsedSeconds();
  *syncs = (*wal)->sync_count();
  return seconds;
}

void BenchAppendThroughput(const std::string& dir, int64_t records,
                           int64_t payload_bytes) {
  Rng rng(7);
  std::vector<uint8_t> payload(static_cast<size_t>(payload_bytes));
  for (auto& byte : payload) {
    byte = static_cast<uint8_t>(rng.NextBelow(256));
  }

  std::printf(
      "WAL append throughput: %lld records x %lld B payload, one fsync per "
      "commit batch\n",
      static_cast<long long>(records), static_cast<long long>(payload_bytes));
  TablePrinter table({"batch", "fsyncs", "seconds", "records/s", "MB/s"});
  const std::string path = JoinPath(dir, "wal_throughput.wal");
  for (const size_t batch : {1u, 4u, 16u, 64u, 256u}) {
    uint64_t syncs = 0;
    const double seconds = AppendRun(path, batch, records, payload, &syncs);
    const double bytes = static_cast<double>(records) *
                         static_cast<double>(payload.size());
    table.AddRow({TablePrinter::Count(static_cast<long long>(batch)),
                  TablePrinter::Count(static_cast<long long>(syncs)),
                  TablePrinter::Num(seconds, 3),
                  TablePrinter::Count(static_cast<long long>(
                      static_cast<double>(records) / seconds)),
                  TablePrinter::Num(bytes / seconds / 1e6, 1)});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::remove(path.c_str());
}

void BenchRecoveryTime(const std::string& dir, int64_t max_batches) {
  std::printf(
      "Recovery wall-clock vs log length (1 dirty page per batch, no "
      "checkpoints)\n");
  TablePrinter table({"wal_batches", "wal_MB", "recover_ms", "replayed",
                      "batches/s"});
  for (int64_t batches = std::max<int64_t>(1, max_batches / 64);
       batches <= max_batches; batches *= 4) {
    const std::string base = JoinPath(dir, "wal_recovery.bwpf");
    const std::string wal = JoinPath(dir, "wal_recovery.wal");
    storage::StoreOptions options;
    options.page_size = 4096;
    {
      auto store = storage::DurableStore::Create(base, wal, options);
      BW_CHECK(store.ok());
      // A small working set touched round-robin: every batch logs one
      // full-page image, so the log grows linearly with batches.
      for (int i = 0; i < 8; ++i) (*store)->pages()->Allocate();
      Rng rng(11);
      for (int64_t b = 0; b < batches; ++b) {
        auto page =
            (*store)->pages()->Write(static_cast<pages::PageId>(b % 8));
        BW_CHECK(page.ok());
        uint64_t fill = rng.NextU64();
        (*page)->Clear();
        BW_CHECK((*page)->Insert(&fill, sizeof(fill)).ok());
        BW_CHECK((*store)->CommitBatch(static_cast<uint64_t>(b) + 1).ok());
      }
    }
    std::vector<uint8_t> wal_bytes;
    BW_CHECK(storage::ReadFile(wal, &wal_bytes).ok());

    Stopwatch timer;
    storage::RecoveryManager::Summary summary;
    auto recovered =
        storage::RecoveryManager::Recover(base, wal, options, &summary);
    const double ms = timer.ElapsedMillis();
    BW_CHECK(recovered.ok());
    BW_CHECK_EQ(summary.last_commit_tag, static_cast<uint64_t>(batches));
    table.AddRow(
        {TablePrinter::Count(batches),
         TablePrinter::Num(static_cast<double>(wal_bytes.size()) / 1e6, 2),
         TablePrinter::Num(ms, 2),
         TablePrinter::Count(
             static_cast<long long>(summary.records_applied)),
         TablePrinter::Count(
             static_cast<long long>(static_cast<double>(batches) /
                                    (ms / 1e3)))});
    std::remove(base.c_str());
    std::remove(wal.c_str());
  }
  std::printf("%s\n", table.ToString().c_str());
}

}  // namespace
}  // namespace bw

int main(int argc, char** argv) {
  bw::Flags flags;
  int64_t* records = flags.AddInt64("records", 8000,
                                    "records per append-throughput run");
  int64_t* payload_bytes =
      flags.AddInt64("payload_bytes", 1024, "payload bytes per WAL record");
  int64_t* recovery_batches = flags.AddInt64(
      "recovery_batches", 1024, "largest committed-batch count to recover");
  std::string* dir =
      flags.AddString("dir", "/tmp", "directory for the bench files");
  int exit_code = 0;
  if (!bw::bench::ParseFlagsOrExit(flags, argc, argv, &exit_code)) {
    return exit_code;
  }

  bw::BenchAppendThroughput(*dir, *records, *payload_bytes);
  bw::BenchRecoveryTime(*dir, *recovery_batches);
  return 0;
}
