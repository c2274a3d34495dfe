// Foundation utilities: status, serde, RNG, histogram, queues, thread pool,
// metrics registry.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "src/common/blocking_queue.h"
#include "src/common/histogram.h"
#include "src/common/metrics_registry.h"
#include "src/common/rng.h"
#include "src/common/serde.h"
#include "src/common/status.h"
#include "src/common/thread_pool.h"

namespace orion {
namespace {

// ---- Status / StatusOr ----

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  const Status s = Status::InvalidArgument("bad shape");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad shape");
}

TEST(StatusOr, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOr, HoldsError) {
  StatusOr<int> v = Status::NotFound("nope");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StatusOr, MoveOut) {
  StatusOr<std::string> v = std::string("hello");
  std::string s = std::move(v).value();
  EXPECT_EQ(s, "hello");
}

// ---- Serde ----

TEST(Serde, ScalarsRoundtrip) {
  ByteWriter w;
  w.Put<i32>(-7);
  w.Put<f64>(3.25);
  w.Put<u8>(255);
  auto bytes = w.Take();
  ByteReader r(bytes);
  EXPECT_EQ(r.Get<i32>(), -7);
  EXPECT_DOUBLE_EQ(r.Get<f64>(), 3.25);
  EXPECT_EQ(r.Get<u8>(), 255);
  EXPECT_TRUE(r.AtEnd());
}

TEST(Serde, VectorsAndStrings) {
  ByteWriter w;
  w.PutVec(std::vector<i64>{1, 2, 3});
  w.PutString("orion");
  w.PutVec(std::vector<f32>{});
  auto bytes = w.Take();
  ByteReader r(bytes);
  EXPECT_EQ(r.GetVec<i64>(), (std::vector<i64>{1, 2, 3}));
  EXPECT_EQ(r.GetString(), "orion");
  EXPECT_TRUE(r.GetVec<f32>().empty());
}

// ---- Rng ----

TEST(Rng, DeterministicInSeed) {
  Rng a(12);
  Rng b(12);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(Rng, BoundedStaysInBounds) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(4);
  for (int i = 0; i < 10000; ++i) {
    const f64 d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ZipfInRangeAndSkewed) {
  Rng rng(5);
  i64 low_half = 0;
  for (int i = 0; i < 20000; ++i) {
    const i64 z = rng.NextZipf(1000, 1.0);
    ASSERT_GE(z, 0);
    ASSERT_LT(z, 1000);
    if (z < 100) {
      ++low_half;
    }
  }
  // Zipf(1.0): the first 10% of the range should hold well over half the mass.
  EXPECT_GT(low_half, 10000);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(6);
  Rng child = parent.Split();
  bool differs = false;
  for (int i = 0; i < 10 && !differs; ++i) {
    differs = parent.NextU64() != child.NextU64();
  }
  EXPECT_TRUE(differs);
}

TEST(Rng, GaussianMomentsSane) {
  Rng rng(7);
  f64 sum = 0.0;
  f64 sumsq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const f64 g = rng.NextGaussian();
    sum += g;
    sumsq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sumsq / n, 1.0, 0.05);
}

// ---- Histogram ----

TEST(Histogram, UniformDataSplitsEvenly) {
  DimHistogram hist(0, 99, 100);
  for (i64 k = 0; k < 100; ++k) {
    hist.Add(k, 10);
  }
  const auto splits = hist.EqualMassSplits(4);
  ASSERT_EQ(splits.size(), 3u);
  EXPECT_NEAR(static_cast<double>(splits[0]), 24.0, 2.0);
  EXPECT_NEAR(static_cast<double>(splits[1]), 49.0, 2.0);
  EXPECT_NEAR(static_cast<double>(splits[2]), 74.0, 2.0);
}

TEST(Histogram, EmptyFallsBackToEqualWidth) {
  DimHistogram hist(0, 99, 10);
  const auto splits = hist.EqualMassSplits(2);
  ASSERT_EQ(splits.size(), 1u);
  EXPECT_EQ(splits[0], 49);
}

TEST(Histogram, SinglePartHasNoSplits) {
  DimHistogram hist(0, 9, 10);
  hist.Add(5);
  EXPECT_TRUE(hist.EqualMassSplits(1).empty());
}

TEST(Histogram, NegativeRangeSupported) {
  DimHistogram hist(-50, 49, 100);
  for (i64 k = -50; k < 50; ++k) {
    hist.Add(k);
  }
  const auto splits = hist.EqualMassSplits(2);
  ASSERT_EQ(splits.size(), 1u);
  EXPECT_NEAR(static_cast<double>(splits[0]), -1.0, 2.0);
}

// ---- BlockingQueue ----

TEST(BlockingQueue, FifoOrder) {
  BlockingQueue<int> q;
  q.Push(1);
  q.Push(2);
  q.Push(3);
  EXPECT_EQ(*q.Pop(), 1);
  EXPECT_EQ(*q.Pop(), 2);
  EXPECT_EQ(*q.TryPop(), 3);
  EXPECT_FALSE(q.TryPop().has_value());
}

TEST(BlockingQueue, CloseUnblocksConsumers) {
  BlockingQueue<int> q;
  std::thread consumer([&] {
    auto v = q.Pop();
    EXPECT_FALSE(v.has_value());
  });
  q.Close();
  consumer.join();
}

TEST(BlockingQueue, CrossThreadDelivery) {
  BlockingQueue<int> q;
  std::thread producer([&] {
    for (int i = 0; i < 1000; ++i) {
      q.Push(i);
    }
  });
  i64 sum = 0;
  for (int i = 0; i < 1000; ++i) {
    sum += *q.Pop();
  }
  producer.join();
  EXPECT_EQ(sum, 999 * 1000 / 2);
}

TEST(BlockingQueue, PushAfterCloseIsRejected) {
  BlockingQueue<int> q;
  EXPECT_TRUE(q.Push(1));
  q.Close();
  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.Push(2));
  // The pre-close item still drains; the rejected one was dropped.
  EXPECT_EQ(*q.Pop(), 1);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(BlockingQueue, PopWithTimeoutReturnsItem) {
  BlockingQueue<int> q;
  q.Push(42);
  auto v = q.PopWithTimeout(std::chrono::milliseconds(50));
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 42);
}

TEST(BlockingQueue, PopWithTimeoutTimesOutOnEmptyQueue) {
  BlockingQueue<int> q;
  auto v = q.PopWithTimeout(std::chrono::milliseconds(10));
  EXPECT_FALSE(v.has_value());
  EXPECT_FALSE(q.closed());  // a timeout is not a shutdown
}

TEST(BlockingQueue, PopWithTimeoutWakesOnLatePush) {
  BlockingQueue<int> q;
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.Push(7);
  });
  auto v = q.PopWithTimeout(std::chrono::seconds(5));
  producer.join();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 7);
}

// ---- ThreadPool ----

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(500);
  pool.ParallelFor(500, [&](i64 lo, i64 hi) {
    for (i64 i = lo; i < hi; ++i) {
      hits[static_cast<size_t>(i)].fetch_add(1);
    }
  });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(WaitHistogram, MergeAddsBucketsAndKeepsMax) {
  WaitHistogram a;
  a.Add(5e-5);   // bucket 0
  a.Add(5e-4);   // bucket 1
  WaitHistogram b;
  b.Add(5e-4);   // bucket 1
  b.Add(2.0);    // open-ended last bucket
  WaitHistogram merged = a;
  merged.Merge(b);
  EXPECT_EQ(merged.total_count(), 4u);
  EXPECT_EQ(merged.counts[0], 1u);
  EXPECT_EQ(merged.counts[1], 2u);
  EXPECT_EQ(merged.counts[WaitHistogram::kNumBuckets - 1], 1u);
  EXPECT_DOUBLE_EQ(merged.total_seconds, a.total_seconds + b.total_seconds);
  EXPECT_DOUBLE_EQ(merged.max_seconds, 2.0);

  // Merging into an empty histogram reproduces the source exactly.
  WaitHistogram empty;
  empty.Merge(b);
  for (int i = 0; i < WaitHistogram::kNumBuckets; ++i) {
    EXPECT_EQ(empty.counts[i], b.counts[i]);
  }
  EXPECT_DOUBLE_EQ(empty.total_seconds, b.total_seconds);
  EXPECT_DOUBLE_EQ(empty.max_seconds, b.max_seconds);
}

TEST(WaitHistogram, ApproxPercentileStaysInsideBucketBounds) {
  WaitHistogram empty;
  EXPECT_DOUBLE_EQ(empty.ApproxPercentile(0.5), 0.0);

  // 100 samples all in the [1e-3, 1e-2) bucket: every quantile must land
  // inside that bucket's bounds and never exceed the observed max.
  WaitHistogram h;
  for (int i = 0; i < 100; ++i) {
    h.Add(5e-3);
  }
  for (double q : {0.1, 0.5, 0.9, 0.99, 1.0}) {
    const double v = h.ApproxPercentile(q);
    EXPECT_GE(v, 1e-3) << "q=" << q;
    EXPECT_LE(v, 1e-2) << "q=" << q;
    EXPECT_LE(v, h.max_seconds + 1e-12) << "q=" << q;
  }
  // Quantiles are monotone in q.
  EXPECT_LE(h.ApproxPercentile(0.1), h.ApproxPercentile(0.9));

  // Skewed mix: p50 sits in the low bucket, p99 reaches toward the tail.
  WaitHistogram mix;
  for (int i = 0; i < 90; ++i) {
    mix.Add(5e-4);
  }
  for (int i = 0; i < 10; ++i) {
    mix.Add(0.5);
  }
  EXPECT_LT(mix.ApproxPercentile(0.5), 1e-3);
  EXPECT_GT(mix.ApproxPercentile(0.99), 0.05);
  EXPECT_LE(mix.ApproxPercentile(1.0), mix.max_seconds + 1e-12);
}

// ---- MetricsRegistry ----

TEST(MetricsRegistry, CountersGaugesAndDefaults) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.Counter("absent"), 0u);
  EXPECT_DOUBLE_EQ(reg.Gauge("absent"), 0.0);
  EXPECT_FALSE(reg.HasHistogram("absent"));

  reg.SetCounter("a", 3);
  reg.AddCounter("a", 2);
  reg.SetGauge("g", 1.5);
  EXPECT_EQ(reg.Counter("a"), 5u);
  EXPECT_DOUBLE_EQ(reg.Gauge("g"), 1.5);
}

TEST(MetricsRegistry, SeriesAccumulatesPerPassPoints) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.Series("pass.wall_seconds"), nullptr);
  reg.AppendSeries("pass.wall_seconds", 0.5);
  reg.AppendSeries("pass.wall_seconds", 0.25);
  reg.AppendSeries("spec.depth_effective", 2.0);
  const std::vector<double>* s = reg.Series("pass.wall_seconds");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(*s, (std::vector<double>{0.5, 0.25}));
  ASSERT_NE(reg.Series("spec.depth_effective"), nullptr);
  EXPECT_EQ(reg.Series("spec.depth_effective")->size(), 1u);
}

TEST(MetricsRegistry, JsonIsDeterministicAndCarriesSeries) {
  auto build = [] {
    MetricsRegistry reg;
    reg.SetCounter("z.count", 7);
    reg.SetGauge("a.gauge", 0.125);
    reg.Histogram("w").Add(5e-4);
    reg.AppendSeries("s.two", 1.0);
    reg.AppendSeries("s.two", 2.5);
    reg.AppendSeries("s.one", -3.0);
    return reg;
  };
  const std::string a = build().ToJson();
  const std::string b = build().ToJson();
  EXPECT_EQ(a, b);  // byte-stable for identical contents (sorted keys)

  // The series section lists names sorted, each as a plain number array.
  EXPECT_NE(a.find("\"series\":{\"s.one\":[-3],\"s.two\":[1,2.5]}"), std::string::npos)
      << a;
  EXPECT_NE(a.find("\"counters\":{\"z.count\":7}"), std::string::npos) << a;

  // Empty registry still emits all four sections.
  const std::string empty = MetricsRegistry().ToJson();
  EXPECT_NE(empty.find("\"series\":{}"), std::string::npos);
  EXPECT_NE(empty.find("\"histograms\":{}"), std::string::npos);
}

TEST(ThreadPool, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
  pool.Submit([&] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 2);
}

}  // namespace
}  // namespace orion
