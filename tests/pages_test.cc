// Unit tests for src/pages: slotted Page, PageFile I/O accounting,
// BufferPool LRU behavior, the serving ResidentReader, and the IoModel
// disk arithmetic of the paper's footnote 4.

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "am/bulk_load.h"
#include "am/rtree.h"
#include "gist/tree.h"
#include "pages/buffer_pool.h"
#include "pages/io_model.h"
#include "pages/page.h"
#include "pages/page_file.h"
#include "pages/resident_reader.h"
#include "tests/test_helpers.h"
#include "util/random.h"

namespace bw::pages {
namespace {

Result<size_t> InsertString(Page& page, const std::string& s) {
  return page.Insert(s.data(), s.size());
}

std::string ReadString(const Page& page, size_t slot) {
  return std::string(reinterpret_cast<const char*>(page.RecordData(slot)),
                     page.RecordLength(slot));
}

TEST(PageTest, InsertAndRead) {
  Page page(1024);
  auto a = InsertString(page, "hello");
  auto b = InsertString(page, "world!");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, 0u);
  EXPECT_EQ(*b, 1u);
  EXPECT_EQ(page.slot_count(), 2u);
  EXPECT_EQ(ReadString(page, 0), "hello");
  EXPECT_EQ(ReadString(page, 1), "world!");
}

TEST(PageTest, FillsUntilNoSpace) {
  Page page(1024);
  std::string record(100, 'x');
  size_t inserted = 0;
  while (true) {
    auto r = page.Insert(record.data(), record.size());
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kNoSpace);
      break;
    }
    ++inserted;
  }
  // 1024 bytes / (100 payload + 8 slot) ~ 9 records.
  EXPECT_GE(inserted, 8u);
  EXPECT_LE(inserted, 10u);
  EXPECT_GT(page.Utilization(), 0.8);
}

TEST(PageTest, EraseShiftsSlots) {
  Page page(1024);
  (void)InsertString(page, "a");
  (void)InsertString(page, "b");
  (void)InsertString(page, "c");
  ASSERT_TRUE(page.Erase(1).ok());
  EXPECT_EQ(page.slot_count(), 2u);
  EXPECT_EQ(ReadString(page, 0), "a");
  EXPECT_EQ(ReadString(page, 1), "c");
}

TEST(PageTest, EraseReclaimsSpaceViaCompaction) {
  Page page(1024);
  std::string big(400, 'x');
  ASSERT_TRUE(page.Insert(big.data(), big.size()).ok());
  ASSERT_TRUE(page.Insert(big.data(), big.size()).ok());
  EXPECT_FALSE(page.Insert(big.data(), big.size()).ok());
  ASSERT_TRUE(page.Erase(0).ok());
  // After erasing, the hole must be reusable.
  EXPECT_TRUE(page.Insert(big.data(), big.size()).ok());
  EXPECT_EQ(ReadString(page, 0), big);
}

TEST(PageTest, UpdateInPlaceAndGrowing) {
  Page page(1024);
  (void)InsertString(page, "abcdef");
  (void)InsertString(page, "tail");
  ASSERT_TRUE(page.Update(0, "XY", 2).ok());
  EXPECT_EQ(ReadString(page, 0), "XY");
  EXPECT_EQ(ReadString(page, 1), "tail");
  std::string grown(100, 'g');
  ASSERT_TRUE(page.Update(0, grown.data(), grown.size()).ok());
  EXPECT_EQ(ReadString(page, 0), grown);
  EXPECT_EQ(ReadString(page, 1), "tail");
}

TEST(PageTest, UpdateBeyondCapacityFails) {
  Page page(512);
  (void)InsertString(page, "x");
  std::string huge(1000, 'h');
  EXPECT_EQ(page.Update(0, huge.data(), huge.size()).code(),
            StatusCode::kNoSpace);
}

TEST(PageTest, HeaderWords) {
  Page page(512);
  page.set_header_word(0, 7);
  page.set_header_word(1, 0xDEADBEEF);
  EXPECT_EQ(page.header_word(0), 7u);
  EXPECT_EQ(page.header_word(1), 0xDEADBEEFu);
}

TEST(PageTest, OutOfRangeOperationsFail) {
  Page page(512);
  EXPECT_EQ(page.Erase(0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(page.Update(3, "x", 1).code(), StatusCode::kInvalidArgument);
}

TEST(PageFileTest, AllocateAndAccess) {
  PageFile file(512);
  PageId a = file.Allocate();
  PageId b = file.Allocate();
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(file.page_count(), 2u);
  ASSERT_TRUE(file.Read(a).ok());
  EXPECT_FALSE(file.Read(99).ok());
}

TEST(PageFileTest, ClassifiesSequentialVsRandomReads) {
  PageFile file(512);
  for (int i = 0; i < 10; ++i) file.Allocate();
  file.ResetStats();
  // Sequential sweep: first read is random, the rest sequential.
  for (PageId id = 0; id < 10; ++id) (void)file.Read(id);
  EXPECT_EQ(file.stats().reads, 10u);
  EXPECT_EQ(file.stats().random_reads, 1u);
  EXPECT_EQ(file.stats().sequential_reads, 9u);
  // A backwards jump is random.
  (void)file.Read(0);
  EXPECT_EQ(file.stats().random_reads, 2u);
}

TEST(PageFileTest, PeekDoesNotCount) {
  PageFile file(512);
  file.Allocate();
  file.ResetStats();
  (void)file.PeekNoIo(0);
  EXPECT_EQ(file.stats().reads, 0u);
}

TEST(BufferPoolTest, HitsAvoidFileReads) {
  PageFile file(512);
  for (int i = 0; i < 4; ++i) file.Allocate();
  BufferPool pool(&file, 4);
  file.ResetStats();
  for (int round = 0; round < 3; ++round) {
    for (PageId id = 0; id < 4; ++id) ASSERT_TRUE(pool.Fetch(id).ok());
  }
  EXPECT_EQ(file.stats().reads, 4u);  // only the cold misses
  EXPECT_EQ(pool.stats().misses, 4u);
  EXPECT_EQ(pool.stats().hits, 8u);
  EXPECT_NEAR(pool.stats().HitRate(), 8.0 / 12.0, 1e-12);
}

TEST(BufferPoolTest, LruEvictsLeastRecent) {
  PageFile file(512);
  for (int i = 0; i < 3; ++i) file.Allocate();
  BufferPool pool(&file, 2);
  (void)pool.Fetch(0);
  (void)pool.Fetch(1);
  (void)pool.Fetch(0);  // 0 is now most recent
  (void)pool.Fetch(2);  // evicts 1
  file.ResetStats();
  (void)pool.Fetch(0);  // hit
  (void)pool.Fetch(1);  // miss (was evicted)
  EXPECT_EQ(file.stats().reads, 1u);
  EXPECT_EQ(pool.stats().evictions, 2u);  // inserting 2 evicted 1; 1 evicted 0
}

TEST(BufferPoolTest, ZeroCapacityCachesNothing) {
  PageFile file(512);
  file.Allocate();
  BufferPool pool(&file, 0);
  (void)pool.Fetch(0);
  (void)pool.Fetch(0);
  EXPECT_EQ(pool.stats().misses, 2u);
  EXPECT_EQ(pool.stats().hits, 0u);
}

TEST(BufferPoolTest, PrimeAvoidsColdMiss) {
  PageFile file(512);
  file.Allocate();
  BufferPool pool(&file, 2);
  pool.Prime(0);
  file.ResetStats();
  (void)pool.Fetch(0);
  EXPECT_EQ(file.stats().reads, 0u);
  EXPECT_EQ(pool.stats().hits, 1u);
}

// PageStore wrapper with an injectable quarantine set, mimicking the
// durable store's health gate over the in-memory PageFile.
class QuarantiningFile : public PageStore {
 public:
  explicit QuarantiningFile(size_t page_size) : file_(page_size) {}

  void Quarantine(PageId id) { sick_.push_back(id); }

  size_t page_size() const override { return file_.page_size(); }
  size_t page_count() const override { return file_.page_count(); }
  PageId Allocate() override { return file_.Allocate(); }
  Result<Page*> Read(PageId id) override { return file_.Read(id); }
  Result<Page*> Write(PageId id) override { return file_.Write(id); }
  Page* PeekNoIo(PageId id) override { return file_.PeekNoIo(id); }
  const Page* PeekNoIo(PageId id) const override {
    return file_.PeekNoIo(id);
  }
  Status ReadHealth(PageId id) const override {
    for (PageId sick : sick_) {
      if (sick == id) return Status::Unavailable("page quarantined");
    }
    return Status::OK();
  }
  const IoStats& stats() const override { return file_.stats(); }
  void ResetStats() override { file_.ResetStats(); }

 private:
  PageFile file_;
  std::vector<PageId> sick_;
};

TEST(ResidentReaderTest, QuarantinedPageRefused) {
  QuarantiningFile store(512);
  store.Allocate();
  ResidentReader reader(&store);
  ASSERT_TRUE(reader.Fetch(0).ok());
  store.Quarantine(0);
  auto refused = reader.Fetch(0);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(reader.stats().hits, 1u);  // only the served fetch counts.
}

TEST(ResidentReaderTest, OutOfRangeFetchFails) {
  PageFile file(512);
  file.Allocate();
  ResidentReader reader(&file);
  EXPECT_FALSE(reader.Fetch(99).ok());
  EXPECT_EQ(reader.stats().hits, 0u);
}

TEST(ResidentReaderTest, FetchAtOrPastDeadlineIsAborted) {
  PageFile file(512);
  file.Allocate();
  ResidentReader reader(&file);
  ASSERT_TRUE(reader.Fetch(0).ok());  // no deadline set: always served.
  reader.set_deadline(ResidentReader::Clock::now());
  auto aborted = reader.Fetch(0);
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(aborted.status().code(), StatusCode::kAborted);
  EXPECT_EQ(reader.deadline_expirations(), 1u);
  EXPECT_EQ(reader.stats().hits, 1u);
  // Deadline state is per-reader: a fresh reader over the same store
  // serves normally.
  ResidentReader other(&file);
  EXPECT_TRUE(other.Fetch(0).ok());
  EXPECT_EQ(other.deadline_expirations(), 0u);
}

TEST(ResidentReaderTest, ConcurrentReadersCountExactly) {
  PageFile file(512);
  for (int i = 0; i < 8; ++i) file.Allocate();
  constexpr size_t kThreads = 4;
  constexpr size_t kFetches = 500;
  std::vector<std::thread> threads;
  std::vector<BufferStats> reader_stats(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&file, &reader_stats, t] {
      ResidentReader reader(&file);
      for (size_t i = 0; i < kFetches; ++i) {
        const PageId id = (t * 31 + i * 7) % 8;
        auto page = reader.Fetch(id);
        ASSERT_TRUE(page.ok());
        EXPECT_EQ(*page, file.PeekNoIo(id));
      }
      reader_stats[t] = reader.stats();
    });
  }
  for (auto& thread : threads) thread.join();
  for (const BufferStats& s : reader_stats) {
    EXPECT_EQ(s.hits, kFetches);
    EXPECT_EQ(s.misses, 0u);
    EXPECT_EQ(s.evictions, 0u);
  }
  EXPECT_EQ(file.stats().reads, 0u);  // the shared IoStats stay untouched.
}

TEST(ResidentReaderTest, TraversalMatchesCountedReads) {
  PageFile file(2048);
  gist::Tree tree(&file, std::make_unique<am::RtreeExtension>(4));
  const auto points = testing::MakeClusteredPoints(3000, 4, 10, 17);
  std::vector<gist::Rid> rids(points.size());
  std::iota(rids.begin(), rids.end(), 0);
  ASSERT_TRUE(am::StrBulkLoad(&tree, points, rids).ok());

  ResidentReader reader(&file);
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    const geom::Vec& q = points[rng.NextBelow(points.size())];
    const size_t k = 1 + rng.NextBelow(30);
    gist::TraversalStats counted_stats;
    gist::TraversalStats resident_stats;
    const uint64_t hits_before = reader.stats().hits;
    auto counted = tree.KnnSearch(q, k, &counted_stats);
    auto resident = tree.KnnSearch(q, k, &resident_stats, &reader);
    ASSERT_TRUE(counted.ok());
    ASSERT_TRUE(resident.ok());
    ASSERT_EQ(counted->size(), resident->size());
    for (size_t i = 0; i < counted->size(); ++i) {
      EXPECT_EQ((*counted)[i].rid, (*resident)[i].rid);
      EXPECT_EQ((*counted)[i].distance, (*resident)[i].distance);
    }
    // Same nodes visited, each one a served fetch.
    EXPECT_EQ(resident_stats.accessed_internals,
              counted_stats.accessed_internals);
    EXPECT_EQ(resident_stats.accessed_leaves, counted_stats.accessed_leaves);
    EXPECT_EQ(reader.stats().hits - hits_before,
              resident_stats.internal_accesses +
                  resident_stats.leaf_accesses);
  }
}

TEST(IoModelTest, PaperFootnote4Arithmetic) {
  // Seagate Barracuda defaults, 8 KB pages: the paper derives ~14
  // sequential I/Os per random I/O.
  IoModel model;
  EXPECT_NEAR(model.TransferMs(), 8192.0 / 9000.0, 1e-6);
  EXPECT_NEAR(model.RandomReadMs(), 7.1 + 4.17 + model.TransferMs(), 1e-9);
  EXPECT_GT(model.RandomToSequentialRatio(), 13.0);
  EXPECT_LT(model.RandomToSequentialRatio(), 15.0);
  EXPECT_NEAR(model.BreakEvenPageFraction(),
              1.0 / model.RandomToSequentialRatio(), 1e-12);
}

TEST(IoModelTest, WorkloadCostAdds) {
  IoModel model;
  const double cost = model.WorkloadMs(2, 10);
  EXPECT_NEAR(cost,
              2 * model.RandomReadMs() + 10 * model.SequentialReadMs(),
              1e-9);
}

}  // namespace
}  // namespace bw::pages
