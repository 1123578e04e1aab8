// Unit tests for src/util: Status/Result, Rng, Flags, TablePrinter.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include "util/flags.h"
#include "util/histogram.h"
#include "util/random.h"
#include "util/status.h"
#include "util/table_printer.h"

namespace bw {
namespace {

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing thing");
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kCorruption, StatusCode::kNoSpace,
        StatusCode::kNotSupported, StatusCode::kInternal,
        StatusCode::kIoError, StatusCode::kUnavailable, StatusCode::kDataLoss,
        StatusCode::kAborted, StatusCode::kResourceExhausted}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

TEST(StatusTest, AbortedIsDistinctCode) {
  Status s = Status::Aborted("i/o watchdog: deadline expired");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kAborted);
  EXPECT_EQ(s.ToString(), "Aborted: i/o watchdog: deadline expired");
}

TEST(StatusTest, OnlyUnavailableIsRetryable) {
  // The self-healing read path retries exactly the transient class:
  // kDataLoss is permanent rot, kAborted is a deadline (retrying would
  // defeat it), kIoError is a hard environment failure.
  EXPECT_TRUE(IsRetryable(Status::Unavailable("transient")));
  EXPECT_TRUE(Status::Unavailable("transient").IsRetryable());
  for (const Status& s :
       {Status::OK(), Status::DataLoss("rot"), Status::Aborted("deadline"),
        Status::IoError("pread"), Status::NotFound("x"),
        Status::InvalidArgument("x"), Status::Internal("x")}) {
    EXPECT_FALSE(IsRetryable(s)) << s.ToString();
    EXPECT_FALSE(s.IsRetryable()) << s.ToString();
  }
  static_assert(IsRetryable(StatusCode::kUnavailable));
  static_assert(!IsRetryable(StatusCode::kAborted));
  static_assert(!IsRetryable(StatusCode::kDataLoss));
}

TEST(StatusTest, ResourceExhaustedIsDistinctAndNotRetryable) {
  Status s = Status::ResourceExhausted("disk full");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(s.ToString(), "ResourceExhausted: disk full");
  // Exhaustion is not transient from the read path's point of view: a
  // retry loop would spin until space frees up. The write path instead
  // sheds at admission (kReadOnly) and resumes when the watchdog clears.
  EXPECT_FALSE(IsRetryable(s));
  EXPECT_FALSE(s.IsRetryable());
  static_assert(!IsRetryable(StatusCode::kResourceExhausted));
}

TEST(StatusTest, UnavailableIsDistinctCode) {
  Status s = Status::Unavailable("queue full");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_EQ(s.ToString(), "Unavailable: queue full");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(ResultTest, HoldsValue) {
  // Static: GCC 12 misreads the inlined variant destructor of a local
  // Result<int> as reading an uninitialized string (-Wmaybe-uninitialized).
  static const Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::Corruption("bad page");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(r.ValueOr(-1), -1);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> owned = std::move(r).value();
  EXPECT_EQ(*owned, 5);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}
Status UseHalf(int x, int* out) {
  BW_ASSIGN_OR_RETURN(*out, Half(x));
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseHalf(10, &out).ok());
  EXPECT_EQ(out, 5);
  EXPECT_EQ(UseHalf(7, &out).code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(13), 13u);
  }
  // n == 1 always yields 0.
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.NextBelow(1), 0u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  double min = 1.0, max = 0.0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    min = std::min(min, v);
    max = std::max(max, v);
  }
  EXPECT_LT(min, 0.05);  // covers the low end
  EXPECT_GT(max, 0.95);  // covers the high end
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(11);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    double g = rng.Gaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(13);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  rng.Shuffle(v);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(original.begin(), original.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng rng(17);
  auto picks = rng.SampleWithoutReplacement(100, 30);
  std::set<size_t> distinct(picks.begin(), picks.end());
  EXPECT_EQ(distinct.size(), 30u);
  for (size_t p : picks) EXPECT_LT(p, 100u);
}

TEST(RngTest, SampleWithoutReplacementFullSet) {
  Rng rng(19);
  auto picks = rng.SampleWithoutReplacement(10, 10);
  std::set<size_t> distinct(picks.begin(), picks.end());
  EXPECT_EQ(distinct.size(), 10u);
}

// ---------------------------------------------------------------------------
// JitterStream (the seedable retry/backoff/hedge jitter source)
// ---------------------------------------------------------------------------

TEST(JitterStreamTest, DeterministicForSameSeed) {
  JitterStream a(123);
  JitterStream b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(JitterStreamTest, DistinctSeedsDecorrelate) {
  JitterStream a(1);
  JitterStream b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(JitterStreamTest, ReseedReplaysFromTheTop) {
  JitterStream stream(77);
  std::vector<uint64_t> first;
  for (int i = 0; i < 16; ++i) first.push_back(stream.Next());
  stream.Reseed(77);  // same seed: the exact sequence replays.
  for (int i = 0; i < 16; ++i) EXPECT_EQ(stream.Next(), first[i]);
  stream.Reseed(78);  // different seed: a different sequence.
  int same = 0;
  for (int i = 0; i < 16; ++i) {
    if (stream.Next() == first[i]) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(JitterStreamTest, NextBelowAndUnitBounds) {
  JitterStream stream(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(stream.NextBelow(13), 13u);
    const double u = stream.NextUnit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  EXPECT_EQ(stream.NextBelow(0), 0u);
  EXPECT_EQ(stream.NextBelow(1), 0u);
}

TEST(LatencyHistogramTest, SnapshotCarriesTailQuantiles) {
  LatencyHistogram histogram;
  // 998 fast ops and two 80ms stragglers: the stragglers are the worst
  // 0.2%, so p99.9 (rank 999 of 1000) must see them while p99 (rank
  // 990) is allowed to miss them.
  for (int i = 0; i < 998; ++i) histogram.Record(100);
  histogram.Record(80'000);
  histogram.Record(80'000);
  const LatencyHistogram::Snapshot snap = histogram.TakeSnapshot();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_GT(snap.mean, 0.0);
  EXPECT_LT(snap.p50, 1'000u);
  EXPECT_LT(snap.p99, 10'000u);
  EXPECT_GE(snap.p999, 50'000u);  // log-spaced buckets: ~12.5% error.
  EXPECT_GE(snap.p999, snap.p99);
  EXPECT_GE(snap.p99, snap.p50);
}

// ---------------------------------------------------------------------------
// Flags
// ---------------------------------------------------------------------------

TEST(FlagsTest, ParsesAllTypes) {
  Flags flags;
  int64_t* i = flags.AddInt64("count", 1, "");
  double* d = flags.AddDouble("ratio", 0.5, "");
  bool* b = flags.AddBool("verbose", false, "");
  std::string* s = flags.AddString("name", "x", "");

  const char* argv[] = {"prog", "--count=42", "--ratio", "2.5", "--verbose",
                        "--name=hello"};
  ASSERT_TRUE(flags.Parse(6, const_cast<char**>(argv)).ok());
  EXPECT_EQ(*i, 42);
  EXPECT_DOUBLE_EQ(*d, 2.5);
  EXPECT_TRUE(*b);
  EXPECT_EQ(*s, "hello");
}

TEST(FlagsTest, DefaultsSurviveEmptyParse) {
  Flags flags;
  int64_t* i = flags.AddInt64("count", 7, "");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.Parse(1, const_cast<char**>(argv)).ok());
  EXPECT_EQ(*i, 7);
}

TEST(FlagsTest, BooleanNegation) {
  Flags flags;
  bool* b = flags.AddBool("cache", true, "");
  const char* argv[] = {"prog", "--no-cache"};
  ASSERT_TRUE(flags.Parse(2, const_cast<char**>(argv)).ok());
  EXPECT_FALSE(*b);
}

TEST(FlagsTest, HyphensAndUnderscoresInterchangeable) {
  Flags flags;
  int64_t* depth = flags.AddInt64("queue_depth", 8, "");
  bool* cache = flags.AddBool("use_cache", true, "");
  const char* argv[] = {"prog", "--queue-depth=32", "--no-use-cache"};
  ASSERT_TRUE(flags.Parse(3, const_cast<char**>(argv)).ok());
  EXPECT_EQ(*depth, 32);
  EXPECT_FALSE(*cache);
}

TEST(FlagsTest, HyphenatedRegistrationAcceptsUnderscores) {
  // Normalization applies at registration too, so a flag declared with
  // hyphens parses under either spelling.
  Flags flags;
  int64_t* depth = flags.AddInt64("queue-depth", 8, "");
  const char* argv[] = {"prog", "--queue_depth=32"};
  ASSERT_TRUE(flags.Parse(2, const_cast<char**>(argv)).ok());
  EXPECT_EQ(*depth, 32);
  EXPECT_NE(flags.Usage().find("interchangeable"), std::string::npos);
}

TEST(FlagsTest, UnknownFlagIsError) {
  Flags flags;
  flags.AddInt64("count", 1, "");
  const char* argv[] = {"prog", "--typo=3"};
  EXPECT_EQ(flags.Parse(2, const_cast<char**>(argv)).code(),
            StatusCode::kInvalidArgument);
}

TEST(FlagsTest, MalformedValueIsError) {
  Flags flags;
  flags.AddInt64("count", 1, "");
  const char* argv[] = {"prog", "--count=abc"};
  EXPECT_EQ(flags.Parse(2, const_cast<char**>(argv)).code(),
            StatusCode::kInvalidArgument);
}

TEST(FlagsTest, MissingValueIsError) {
  Flags flags;
  flags.AddInt64("count", 1, "");
  const char* argv[] = {"prog", "--count"};
  EXPECT_EQ(flags.Parse(2, const_cast<char**>(argv)).code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// TablePrinter
// ---------------------------------------------------------------------------

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"a", "long header"});
  table.AddRow({"xxxxxx", "1"});
  const std::string out = table.ToString();
  // Three lines: header, separator, one row.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
  // Every line has the same length.
  size_t first_len = out.find('\n');
  size_t pos = 0;
  while (pos < out.size()) {
    size_t next = out.find('\n', pos);
    EXPECT_EQ(next - pos, first_len);
    pos = next + 1;
  }
}

TEST(TablePrinterTest, Formatters) {
  EXPECT_EQ(TablePrinter::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Count(1234567), "1234567");
  EXPECT_EQ(TablePrinter::Percent(0.314, 1), "31.4%");
}

// ---------------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------------

TEST(LatencyHistogramTest, EmptyIsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0u);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
}

TEST(LatencyHistogramTest, SmallValuesAreExact) {
  LatencyHistogram h;
  for (uint64_t v : {1, 2, 3, 4, 5, 6, 7, 8, 9, 10}) h.Record(v);
  EXPECT_EQ(h.Count(), 10u);
  EXPECT_DOUBLE_EQ(h.Mean(), 5.5);
  EXPECT_EQ(h.Percentile(0.5), 5u);   // values <= 16 land in exact buckets.
  EXPECT_EQ(h.Percentile(1.0), 10u);
  EXPECT_EQ(h.Percentile(0.0), 1u);
}

TEST(LatencyHistogramTest, PercentileWithinBucketError) {
  LatencyHistogram h;
  // 100 samples at 1000, one outlier at 100000.
  for (int i = 0; i < 100; ++i) h.Record(1000);
  h.Record(100000);
  // p50 bucket upper bound must be within ~12.5% above 1000.
  const uint64_t p50 = h.Percentile(0.5);
  EXPECT_GE(p50, 1000u);
  EXPECT_LE(p50, 1150u);
  // p99+ reaches the outlier's bucket.
  const uint64_t p100 = h.Percentile(1.0);
  EXPECT_GE(p100, 100000u);
  EXPECT_LE(p100, 115000u);
  EXPECT_LE(h.Percentile(0.5), h.Percentile(0.95));
  EXPECT_LE(h.Percentile(0.95), h.Percentile(0.99));
}

TEST(LatencyHistogramTest, ConcurrentRecordsAllCounted) {
  LatencyHistogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(static_cast<uint64_t>(100 + t));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.Count(), static_cast<uint64_t>(kThreads * kPerThread));
}

TEST(LatencyHistogramTest, ResetClears) {
  LatencyHistogram h;
  h.Record(42);
  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Percentile(0.99), 0u);
}

}  // namespace
}  // namespace bw
