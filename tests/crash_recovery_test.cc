// End-to-end crash-injection sweep over the durable storage engine: a
// real R-tree is grown insert-by-insert with per-insert commits while a
// FaultInjector kills the physical write stream at every Kth write (and,
// in separate sweeps, tears the final write or runs fuzzy checkpoints so
// crashes land inside the checkpoint protocol). After each simulated
// crash the in-memory state is thrown away, the store is recovered from
// the surviving bytes, and the recovered index must answer k-NN and
// range queries *identically* to a never-crashed reference tree built
// over exactly the durable prefix of inserts. Silent corruption (bit
// flips in base pages or WAL records) must be detected, not served.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "pages/page_file.h"
#include "core/durable_index.h"
#include "core/index_factory.h"
#include "gist/tree.h"
#include "service/query_service.h"
#include "storage/fault_injector.h"
#include "storage/file_io.h"
#include "storage/wal.h"
#include "tests/test_helpers.h"
#include "util/logging.h"

namespace bw {
namespace {

using storage::FaultInjector;

constexpr size_t kNumPoints = 250;
constexpr size_t kDim = 3;
constexpr size_t kPageBytes = 1024;

core::IndexBuildOptions IndexOpts() {
  core::IndexBuildOptions options;
  options.am = "rtree";
  options.page_bytes = kPageBytes;
  options.bulk_load = false;
  return options;
}

const std::vector<geom::Vec>& Points() {
  static const auto* points = new std::vector<geom::Vec>(
      testing::MakeClusteredPoints(kNumPoints, kDim, 6, 17));
  return *points;
}

std::vector<geom::Vec> SampleQueries() {
  std::vector<geom::Vec> queries = testing::MakeUniformPoints(3, kDim, 23);
  queries.push_back(Points()[11]);
  queries.push_back(Points()[170]);
  return queries;
}

std::string TempPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

struct BuildOutcome {
  std::unique_ptr<core::DurableIndex> index;
  size_t committed = 0;  // inserts whose Commit() returned OK.
  bool create_failed = false;
};

/// Grows the index one insert at a time, committing each insert as its
/// own batch tagged with the insert count. Stops at the first error
/// (how every simulated crash manifests to the writer).
BuildOutcome BuildInsertByInsert(const std::string& base,
                                 const std::string& wal,
                                 FaultInjector* injector,
                                 size_t checkpoint_every_commits,
                                 size_t n_points = kNumPoints) {
  std::remove(base.c_str());
  std::remove(wal.c_str());
  storage::StoreOptions store_options;
  store_options.injector = injector;
  store_options.checkpoint_every_commits = checkpoint_every_commits;

  BuildOutcome out;
  auto created = core::CreateDurableIndex(base, wal, kDim, IndexOpts(),
                                          store_options);
  if (!created.ok()) {
    out.create_failed = true;
    return out;
  }
  out.index = std::move(*created);
  const std::vector<geom::Vec>& points = Points();
  for (size_t i = 0; i < n_points && i < points.size(); ++i) {
    if (!out.index->tree().Insert(points[i], i).ok()) break;
    if (!out.index->Commit(/*tag=*/i + 1).ok()) break;
    ++out.committed;
  }
  return out;
}

/// A never-crashed reference: a plain in-memory tree over the first `n`
/// inserts, applied in the same order.
struct Reference {
  explicit Reference(size_t n) : file(kPageBytes) {
    auto extension = core::MakeExtension(kDim, IndexOpts(), n);
    BW_CHECK(extension.ok());
    tree = std::make_unique<gist::Tree>(&file, std::move(*extension));
    for (size_t i = 0; i < n; ++i) {
      BW_CHECK(tree->Insert(Points()[i], i).ok());
    }
  }
  pages::PageFile file;
  std::unique_ptr<gist::Tree> tree;
};

/// Requires `got` to answer exactly like `want`: same k-NN neighbors in
/// the same order with the same distances, same range result sets.
void ExpectIdenticalAnswers(const gist::Tree& got, const gist::Tree& want,
                            const std::string& context) {
  for (const geom::Vec& q : SampleQueries()) {
    auto a = got.KnnSearch(q, 12, nullptr);
    auto b = want.KnnSearch(q, 12, nullptr);
    ASSERT_TRUE(a.ok()) << context;
    ASSERT_TRUE(b.ok()) << context;
    ASSERT_EQ(a->size(), b->size()) << context;
    for (size_t i = 0; i < a->size(); ++i) {
      EXPECT_EQ((*a)[i].rid, (*b)[i].rid) << context << ", neighbor " << i;
      EXPECT_NEAR((*a)[i].distance, (*b)[i].distance, 1e-9) << context;
    }

    auto ra = got.RangeSearch(q, 10.0, nullptr);
    auto rb = want.RangeSearch(q, 10.0, nullptr);
    ASSERT_TRUE(ra.ok()) << context;
    ASSERT_TRUE(rb.ok()) << context;
    auto by_rid = [](const gist::Neighbor& x, const gist::Neighbor& y) {
      return x.rid < y.rid;
    };
    std::sort(ra->begin(), ra->end(), by_rid);
    std::sort(rb->begin(), rb->end(), by_rid);
    ASSERT_EQ(ra->size(), rb->size()) << context;
    for (size_t i = 0; i < ra->size(); ++i) {
      EXPECT_EQ((*ra)[i].rid, (*rb)[i].rid) << context;
      EXPECT_NEAR((*ra)[i].distance, (*rb)[i].distance, 1e-9) << context;
    }
  }
}

/// Crashes the build at physical write `crash_at`, recovers, and checks
/// the recovered index against the reference. Returns the number of
/// durable inserts.
size_t CrashRecoverCompare(const std::string& base, const std::string& wal,
                           FaultInjector::Fault fault, uint64_t crash_at,
                           size_t checkpoint_every_commits,
                           bool durable_count_is_exact) {
  FaultInjector injector;
  injector.Arm(fault, crash_at);
  BuildOutcome crashed =
      BuildInsertByInsert(base, wal, &injector, checkpoint_every_commits);
  const std::string context =
      "crash at write " + std::to_string(crash_at) +
      (checkpoint_every_commits != 0 ? " (checkpointing)" : "");
  EXPECT_TRUE(injector.fired()) << context;
  EXPECT_FALSE(crashed.create_failed) << context;
  crashed.index.reset();  // throw all in-memory state away.

  auto recovered = core::OpenDurableIndex(base, wal, IndexOpts());
  EXPECT_TRUE(recovered.ok())
      << context << ": " << recovered.status().ToString();
  if (!recovered.ok()) return 0;

  const size_t durable = (*recovered)->tree().size();
  if (durable_count_is_exact) {
    // Commit() returned OK exactly for the durable inserts: nothing
    // acknowledged may be lost, nothing unacknowledged may survive.
    EXPECT_EQ(durable, crashed.committed) << context;
  } else {
    // A crash inside the post-commit checkpoint fails Commit() after
    // its commit record is already durable, so recovery may legally
    // surface one more insert than was acknowledged.
    EXPECT_TRUE(durable == crashed.committed ||
                durable == crashed.committed + 1)
        << context << ": durable=" << durable
        << " committed=" << crashed.committed;
  }
  Reference reference(durable);
  ExpectIdenticalAnswers((*recovered)->tree(), *reference.tree, context);
  return durable;
}

/// Writes performed before the first insert (store creation + initial
/// meta commit + initial checkpoint); sweeps start after this prefix so
/// every crash lands in insert/commit/checkpoint traffic.
uint64_t CreatePhaseWrites(const std::string& base, const std::string& wal) {
  std::remove(base.c_str());
  std::remove(wal.c_str());
  FaultInjector counter;  // disarmed: counts the write schedule only.
  storage::StoreOptions store_options;
  store_options.injector = &counter;
  auto created =
      core::CreateDurableIndex(base, wal, kDim, IndexOpts(), store_options);
  BW_CHECK(created.ok());
  return counter.writes_seen();
}

// ---------------------------------------------------------------------------
// The sweeps
// ---------------------------------------------------------------------------

TEST(CrashRecoverySweepTest, CrashAtEveryKthWriteRecoversExactly) {
  const std::string base = TempPath("sweep_crash.bwpf");
  const std::string wal = TempPath("sweep_crash.wal");

  FaultInjector dry;  // disarmed dry run measures the write schedule.
  BuildOutcome full = BuildInsertByInsert(base, wal, &dry, 0);
  ASSERT_NE(full.index, nullptr);
  ASSERT_EQ(full.committed, kNumPoints);
  const uint64_t total_writes = dry.writes_seen();
  const uint64_t first = CreatePhaseWrites(base, wal) + 1;
  ASSERT_GT(total_writes, first);

  // ~40 crash points spread over the whole build.
  const uint64_t step = std::max<uint64_t>(1, (total_writes - first) / 40);
  size_t prev_durable = 0;
  for (uint64_t crash_at = first; crash_at <= total_writes;
       crash_at += step) {
    const size_t durable =
        CrashRecoverCompare(base, wal, FaultInjector::Fault::kCrash, crash_at,
                            /*checkpoint_every_commits=*/0,
                            /*durable_count_is_exact=*/true);
    EXPECT_GE(durable, prev_durable);  // later crash, no fewer inserts.
    prev_durable = durable;
  }
  // The last write of all: everything before it must be durable.
  const size_t durable =
      CrashRecoverCompare(base, wal, FaultInjector::Fault::kCrash,
                          total_writes, 0, true);
  EXPECT_EQ(durable, kNumPoints - 1);
}

TEST(CrashRecoverySweepTest, TornWritesRecoverExactly) {
  const std::string base = TempPath("sweep_torn.bwpf");
  const std::string wal = TempPath("sweep_torn.wal");

  FaultInjector dry;
  BuildOutcome full = BuildInsertByInsert(base, wal, &dry, 0);
  ASSERT_NE(full.index, nullptr);
  const uint64_t total_writes = dry.writes_seen();
  const uint64_t first = CreatePhaseWrites(base, wal) + 1;

  // A coarser sweep (torn writes exercise the same schedule), plus the
  // torn *final* write explicitly — the classic power-loss-mid-append.
  const uint64_t step = std::max<uint64_t>(1, (total_writes - first) / 12);
  for (uint64_t crash_at = first; crash_at <= total_writes;
       crash_at += step) {
    CrashRecoverCompare(base, wal, FaultInjector::Fault::kTornWrite, crash_at,
                        0, true);
  }
  const size_t durable = CrashRecoverCompare(
      base, wal, FaultInjector::Fault::kTornWrite, total_writes, 0, true);
  EXPECT_EQ(durable, kNumPoints - 1);
}

TEST(CrashRecoverySweepTest, CrashesDuringCheckpointsRecover) {
  const std::string base = TempPath("sweep_ckpt.bwpf");
  const std::string wal = TempPath("sweep_ckpt.wal");
  constexpr size_t kCheckpointEvery = 8;

  FaultInjector dry;
  BuildOutcome full = BuildInsertByInsert(base, wal, &dry, kCheckpointEvery);
  ASSERT_NE(full.index, nullptr);
  ASSERT_EQ(full.committed, kNumPoints);
  const uint64_t total_writes = dry.writes_seen();
  const uint64_t first = CreatePhaseWrites(base, wal) + 1;

  const uint64_t step = std::max<uint64_t>(1, (total_writes - first) / 30);
  for (uint64_t crash_at = first; crash_at <= total_writes;
       crash_at += step) {
    CrashRecoverCompare(base, wal, FaultInjector::Fault::kCrash, crash_at,
                        kCheckpointEvery, /*durable_count_is_exact=*/false);
  }
}

// ---------------------------------------------------------------------------
// Targeted crashes inside one checkpoint
// ---------------------------------------------------------------------------

/// Crashes at every physical write inside one explicit Checkpoint() —
/// the dirty-frame flushes, the ping-pong header flip, and the WAL
/// truncation — and requires recovery to surface every acknowledged
/// insert each time.
TEST(CrashRecoveryTest, CrashAtEveryWriteInsideACheckpointRecovers) {
  const std::string base = TempPath("ckpt_flip.bwpf");
  const std::string wal = TempPath("ckpt_flip.wal");
  constexpr size_t kSmall = 60;

  // Dry run: count the writes one explicit checkpoint performs.
  FaultInjector counter;
  BuildOutcome dry = BuildInsertByInsert(base, wal, &counter, 0, kSmall);
  ASSERT_NE(dry.index, nullptr);
  ASSERT_EQ(dry.committed, kSmall);
  const uint64_t before = counter.writes_seen();
  ASSERT_TRUE(dry.index->Checkpoint().ok());
  const uint64_t during = counter.writes_seen() - before;
  ASSERT_GT(during, 2u);  // at least the frame flushes + the header flip.
  dry.index.reset();

  for (uint64_t k = 1; k <= during; ++k) {
    FaultInjector injector;
    BuildOutcome victim =
        BuildInsertByInsert(base, wal, &injector, 0, kSmall);
    ASSERT_NE(victim.index, nullptr);
    ASSERT_EQ(victim.committed, kSmall);
    injector.Arm(FaultInjector::Fault::kCrash, k);  // count restarts here.
    EXPECT_FALSE(victim.index->Checkpoint().ok()) << "k=" << k;
    victim.index.reset();

    // Every insert was acknowledged before the checkpoint began, so no
    // crash point inside it may lose (or invent) a single one.
    auto recovered = core::OpenDurableIndex(base, wal, IndexOpts());
    ASSERT_TRUE(recovered.ok())
        << "k=" << k << ": " << recovered.status().ToString();
    ASSERT_EQ((*recovered)->tree().size(), kSmall) << "k=" << k;
    Reference reference(kSmall);
    ExpectIdenticalAnswers((*recovered)->tree(), *reference.tree,
                           "checkpoint crash k=" + std::to_string(k));
  }
}

// ---------------------------------------------------------------------------
// Silent corruption must be detected, not served
// ---------------------------------------------------------------------------

void FlipByteAt(const std::string& path, long offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  const int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  ASSERT_NE(std::fputc(c ^ 0x10, f), EOF);
  std::fclose(f);
}

TEST(CrashRecoveryTest, BitFlippedBasePageIsDetected) {
  const std::string base = TempPath("rot_base.bwpf");
  const std::string wal = TempPath("rot_base.wal");
  BuildOutcome full = BuildInsertByInsert(base, wal, nullptr, 0);
  ASSERT_NE(full.index, nullptr);
  ASSERT_TRUE(full.index->Checkpoint().ok());  // WAL empty, frames on disk.
  full.index.reset();

  // Rot one byte inside page frame 1 (frames start at 128, each
  // page_size + 32 bytes). With an empty WAL there is no redo image to
  // repair it from, so recovery must refuse.
  FlipByteAt(base, 128 + (kPageBytes + 32) + 200);
  auto recovered = core::OpenDurableIndex(base, wal, IndexOpts());
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kDataLoss);
}

TEST(CrashRecoveryTest, BitFlippedWalRecordIsDetected) {
  const std::string base = TempPath("rot_wal.bwpf");
  const std::string wal = TempPath("rot_wal.wal");
  BuildOutcome full = BuildInsertByInsert(base, wal, nullptr, 0);
  ASSERT_NE(full.index, nullptr);
  full.index.reset();  // no checkpoint: the WAL holds the index.

  std::vector<uint8_t> wal_bytes;
  ASSERT_TRUE(storage::ReadFile(wal, &wal_bytes).ok());
  ASSERT_GT(wal_bytes.size(), 1000u);
  // A flip in the middle of the log corrupts a *complete* record: that
  // is DataLoss, never mistaken for a benign torn tail.
  FlipByteAt(wal, static_cast<long>(wal_bytes.size() / 2));
  auto recovered = core::OpenDurableIndex(base, wal, IndexOpts());
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kDataLoss);
}

// ---------------------------------------------------------------------------
// A segment file of the old size-capped WAL layout is refused, not ignored
// ---------------------------------------------------------------------------

std::vector<uint8_t> Bytes(const std::string& path) {
  std::vector<uint8_t> bytes;
  EXPECT_TRUE(storage::ReadFile(path, &bytes).ok()) << path;
  return bytes;
}

TEST(CrashRecoveryTest, SegmentFileBesideTheLogIsRefused) {
  const std::string base = TempPath("segmented.bwpf");
  const std::string wal = TempPath("segmented.wal");
  const std::string segment = wal + ".000002";
  BuildOutcome full = BuildInsertByInsert(base, wal, nullptr, 0, 20);
  ASSERT_NE(full.index, nullptr);
  full.index.reset();  // no checkpoint: the log holds acked batches.
  {
    // Acked batches of an older build that rotated its log: replaying
    // the single file alone and checkpointing would silently drop them.
    const std::string stale = "BWSG segment bytes";
    std::FILE* f = std::fopen(segment.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(stale.data(), 1, stale.size(), f), stale.size());
    std::fclose(f);
  }
  const std::vector<uint8_t> base_before = Bytes(base);
  const std::vector<uint8_t> wal_before = Bytes(wal);
  const std::vector<uint8_t> segment_before = Bytes(segment);
  ASSERT_FALSE(wal_before.empty());

  auto replay = storage::ReplayWal(
      wal, [](const storage::WalRecordView&) { return Status::OK(); });
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kNotSupported);
  EXPECT_NE(replay.status().message().find(segment), std::string::npos)
      << replay.status().ToString();

  auto opened = core::OpenDurableIndex(base, wal, IndexOpts());
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kNotSupported);
  // Nothing was replayed, truncated or checkpointed.
  EXPECT_EQ(Bytes(base), base_before);
  EXPECT_EQ(Bytes(wal), wal_before);
  EXPECT_EQ(Bytes(segment), segment_before);

  // A fresh log at that path clears the stale segment away.
  auto fresh = storage::Wal::Create(wal, storage::WalOptions());
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(std::fopen(segment.c_str(), "rb"), nullptr);
}

// A clean open has nothing to replay, so it is a read: opening a freshly
// built index and closing it again leaves both files as they were, byte
// for byte. An open that replays a committed batch still checkpoints.
TEST(CrashRecoveryTest, CleanOpenWritesNothing) {
  const std::string base = TempPath("clean_open.bwpf");
  const std::string wal = TempPath("clean_open.wal");
  {
    auto built = core::BuildDurableIndex(Points(), IndexOpts(), base, wal);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
  }
  const std::vector<uint8_t> base_built = Bytes(base);
  const std::vector<uint8_t> wal_built = Bytes(wal);
  {
    auto opened = core::OpenDurableIndex(base, wal, IndexOpts());
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    EXPECT_EQ((*opened)->recovery().committed_batches, 0u);
    auto found = (*opened)->tree().KnnSearch(Points()[3], 5, nullptr);
    ASSERT_TRUE(found.ok());
    EXPECT_EQ(found->front().rid, 3u);
  }
  EXPECT_EQ(Bytes(base), base_built);
  EXPECT_EQ(Bytes(wal), wal_built);

  // A committed write the log alone holds: the next open replays it and
  // folds it into the base file.
  const geom::Vec extra = testing::MakeUniformPoints(1, kDim, 5)[0];
  {
    auto opened = core::OpenDurableIndex(base, wal, IndexOpts());
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    ASSERT_TRUE((*opened)->tree().Insert(extra, kNumPoints).ok());
    ASSERT_TRUE((*opened)->Commit().ok());
  }
  EXPECT_EQ(Bytes(base), base_built);
  EXPECT_GT(Bytes(wal).size(), wal_built.size());
  {
    auto reopened = core::OpenDurableIndex(base, wal, IndexOpts());
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ((*reopened)->recovery().committed_batches, 1u);
    EXPECT_EQ((*reopened)->tree().size(), kNumPoints + 1);
  }
  EXPECT_NE(Bytes(base), base_built);
  EXPECT_EQ(Bytes(wal), wal_built);  // the checkpoint emptied the log.
}

// ---------------------------------------------------------------------------
// Serving a recovered index
// ---------------------------------------------------------------------------

TEST(CrashRecoveryTest, QueryServiceServesARecoveredIndex) {
  const std::string base = TempPath("serve.bwpf");
  const std::string wal = TempPath("serve.wal");

  FaultInjector dry;
  BuildOutcome full = BuildInsertByInsert(base, wal, &dry, 0);
  ASSERT_NE(full.index, nullptr);
  const uint64_t total_writes = dry.writes_seen();

  // Crash two thirds of the way through the build, then serve whatever
  // recovery reconstructs.
  FaultInjector injector;
  injector.Arm(FaultInjector::Fault::kCrash, total_writes * 2 / 3);
  BuildOutcome crashed = BuildInsertByInsert(base, wal, &injector, 0);
  ASSERT_TRUE(injector.fired());
  crashed.index.reset();

  auto recovered = core::OpenDurableIndex(base, wal, IndexOpts());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const size_t durable = (*recovered)->tree().size();
  ASSERT_EQ(durable, crashed.committed);
  Reference reference(durable);

  service::ServiceOptions service_options;
  service_options.num_workers = 4;
  service::QueryService service(std::move(*recovered), service_options);
  for (const geom::Vec& q : SampleQueries()) {
    auto response = service.Knn(q, 12);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    auto want = reference.tree->KnnSearch(q, 12, nullptr);
    ASSERT_TRUE(want.ok());
    ASSERT_EQ(response->neighbors.size(), want->size());
    for (size_t i = 0; i < want->size(); ++i) {
      EXPECT_EQ(response->neighbors[i].rid, (*want)[i].rid);
      EXPECT_NEAR(response->neighbors[i].distance, (*want)[i].distance,
                  1e-9);
    }
  }
  const service::ServiceSnapshot snapshot = service.Snapshot();
  EXPECT_EQ(snapshot.completed, SampleQueries().size());
  EXPECT_EQ(snapshot.failed, 0u);
}

}  // namespace
}  // namespace bw
