// Data-plane raw-speed pass: the SIMD kernels and the serialization buffer
// pool must both be invisible to results.
//
//  - simd::CopyF32 / simd::AddF32 are bit-for-bit identical to the scalar
//    loops at every dispatch level, across randomized sizes and alignments
//    (the runtime-dispatch seams: head/tail scalar remainders, unrolled
//    bodies, unaligned loads).
//  - BufferPool recycles released buffers (steady-state hit rate), accounts
//    hits/misses/discards, and its thread-local caches stay coherent under
//    concurrent lanes.
#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "src/common/buffer_pool.h"
#include "src/common/rng.h"
#include "src/common/serde.h"
#include "src/common/simd.h"

namespace orion {
namespace {

// ---------------------------------------------------------------------------
// SIMD kernels vs scalar reference.

std::vector<simd::Level> LevelsToTest() {
  std::vector<simd::Level> out = {simd::Level::kScalar};
  if (simd::BestSupportedLevel() >= simd::Level::kSSE2) {
    out.push_back(simd::Level::kSSE2);
  }
  if (simd::BestSupportedLevel() >= simd::Level::kAVX2) {
    out.push_back(simd::Level::kAVX2);
  }
  return out;
}

TEST(Simd, DispatchLevels) {
  // x86-64 guarantees SSE2; elsewhere scalar must still work.
  EXPECT_GE(simd::BestSupportedLevel(), simd::Level::kScalar);
  simd::ForceLevel(simd::Level::kScalar);
  EXPECT_EQ(simd::ActiveLevel(), simd::Level::kScalar);
  simd::ResetLevel();
  EXPECT_EQ(simd::ActiveLevel(), simd::BestSupportedLevel());
  // Forcing past what the CPU supports clamps instead of crashing.
  simd::ForceLevel(simd::Level::kAVX2);
  EXPECT_LE(simd::ActiveLevel(), simd::BestSupportedLevel());
  simd::ResetLevel();
}

TEST(Simd, CopyMatchesScalarAcrossSizesAndAlignments) {
  Rng rng(0x5eed5eedULL);
  // Padded buffers let us start the spans at every offset in [0, 8): the
  // kernels must handle unaligned heads, unrolled bodies, and scalar tails.
  constexpr size_t kMax = 4099;
  std::vector<f32> src(kMax + 16), ref(kMax + 16), out(kMax + 16);
  for (f32& v : src) {
    v = static_cast<f32>(rng.NextGaussian());
  }
  const size_t sizes[] = {0, 1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 33,
                          63, 64, 100, 255, 256, 1000, 4096, kMax};
  for (simd::Level level : LevelsToTest()) {
    simd::ForceLevel(level);
    for (size_t n : sizes) {
      for (size_t off = 0; off < 8; ++off) {
        std::fill(ref.begin(), ref.end(), -7.0f);
        std::fill(out.begin(), out.end(), -7.0f);
        for (size_t i = 0; i < n; ++i) {
          ref[off + i] = src[off + i];  // reference: element-wise assign
        }
        simd::CopyF32(out.data() + off, src.data() + off, n);
        ASSERT_EQ(std::memcmp(out.data(), ref.data(), out.size() * sizeof(f32)), 0)
            << "level=" << simd::LevelName(level) << " n=" << n << " off=" << off;
      }
    }
  }
  simd::ResetLevel();
}

TEST(Simd, AddMatchesScalarBitForBitAcrossLevels) {
  // The determinism contract: one IEEE add per lane at every level, so the
  // result bytes cannot depend on the dispatch level. Gaussian values with
  // mixed magnitudes exercise rounding.
  Rng rng(0xadd5eedULL);
  constexpr size_t kMax = 2053;
  std::vector<f32> src(kMax + 8), base(kMax + 8);
  for (size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<f32>(rng.NextGaussian() * 1e3);
    base[i] = static_cast<f32>(rng.NextGaussian() * 1e-3);
  }
  const size_t sizes[] = {1, 3, 4, 5, 8, 16, 17, 64, 129, 1024, kMax};
  simd::ForceLevel(simd::Level::kScalar);
  for (size_t n : sizes) {
    for (size_t off = 0; off < 4; ++off) {
      std::vector<f32> want(base);
      simd::AddF32(want.data() + off, src.data() + off, n);
      for (simd::Level level : LevelsToTest()) {
        simd::ForceLevel(level);
        std::vector<f32> got(base);
        simd::AddF32(got.data() + off, src.data() + off, n);
        ASSERT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(f32)), 0)
            << "level=" << simd::LevelName(level) << " n=" << n << " off=" << off;
      }
      simd::ForceLevel(simd::Level::kScalar);
    }
  }
  simd::ResetLevel();
}

// ---------------------------------------------------------------------------
// Buffer pool.

TEST(BufferPool, AcquireReleaseRecycles) {
  BufferPool::TrimThreadCacheForTest();
  BufferPool::ResetStatsForTest();

  std::vector<u8> a = BufferPool::Acquire(100);
  EXPECT_EQ(a.size(), 0u);
  EXPECT_GE(a.capacity(), 100u);
  const u8* storage = a.data();
  BufferPool::Release(std::move(a));

  // Same class: must come back with the same storage, counted as a hit.
  std::vector<u8> b = BufferPool::Acquire(80);
  EXPECT_EQ(b.data(), storage);
  const BufferPool::Stats s = BufferPool::AggregateStats();
  EXPECT_EQ(s.acquires, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.releases, 1u);
  BufferPool::Release(std::move(b));
  BufferPool::TrimThreadCacheForTest();
}

TEST(BufferPool, OversizedAndEmptyReleases) {
  BufferPool::TrimThreadCacheForTest();
  BufferPool::ResetStatsForTest();

  // Zero-capacity vectors (moved-from payloads) are ignored entirely.
  BufferPool::Release(std::vector<u8>{});
  EXPECT_EQ(BufferPool::AggregateStats().releases, 0u);
  EXPECT_EQ(BufferPool::AggregateStats().discards, 0u);

  // Oversized buffers bypass the pool and are discarded on release.
  std::vector<u8> big = BufferPool::Acquire(4u << 20);
  EXPECT_GE(big.capacity(), 4u << 20);
  BufferPool::Release(std::move(big));
  const BufferPool::Stats s = BufferPool::AggregateStats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.discards, 1u);
  BufferPool::TrimThreadCacheForTest();
}

TEST(BufferPool, HighWaterTracksParkedBytes) {
  BufferPool::TrimThreadCacheForTest();
  BufferPool::ResetStatsForTest();

  std::vector<u8> a = BufferPool::Acquire(1024);
  std::vector<u8> b = BufferPool::Acquire(1024);
  const size_t cap = a.capacity() + b.capacity();
  BufferPool::Release(std::move(a));
  BufferPool::Release(std::move(b));
  EXPECT_GE(BufferPool::AggregateStats().pooled_bytes_high_water, cap);
  BufferPool::TrimThreadCacheForTest();
}

TEST(BufferPool, ConcurrentLanesSteadyStateHits) {
  BufferPool::ResetStatsForTest();
  // Each thread runs an encode/consume loop against its own cache; after
  // warm-up every acquire must be a hit (allocations-per-message ~ 0).
  constexpr int kThreads = 4;
  constexpr int kIters = 200;
  std::vector<std::thread> ts;
  ts.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([t] {
      for (int i = 0; i < kIters; ++i) {
        std::vector<u8> buf = BufferPool::Acquire(256 + static_cast<size_t>(t));
        buf.push_back(static_cast<u8>(i));
        BufferPool::Release(std::move(buf));
      }
      BufferPool::TrimThreadCacheForTest();
    });
  }
  for (std::thread& t : ts) {
    t.join();
  }
  const BufferPool::Stats s = BufferPool::AggregateStats();
  EXPECT_EQ(s.acquires, static_cast<u64>(kThreads) * kIters);
  // First acquire per thread allocates; everything after recycles.
  EXPECT_GE(s.hits, s.acquires - kThreads);
}

TEST(BufferPool, ByteWriterUsesPool) {
  BufferPool::TrimThreadCacheForTest();
  BufferPool::ResetStatsForTest();

  // Encode, consume, release, encode again: the second writer's backing
  // buffer must be recycled storage (same size class via the reserve hint).
  ByteWriter w1(100 * sizeof(i64));
  for (int i = 0; i < 100; ++i) {
    w1.Put<i64>(i);
  }
  std::vector<u8> payload = w1.Take();
  const std::vector<u8> want(payload.begin(), payload.end());
  BufferPool::Release(std::move(payload));

  ByteWriter w2(100 * sizeof(i64));
  for (int i = 0; i < 100; ++i) {
    w2.Put<i64>(i);
  }
  std::vector<u8> payload2 = w2.Take();
  EXPECT_EQ(want, payload2);  // recycling must not perturb encoded bytes
  const BufferPool::Stats s = BufferPool::AggregateStats();
  EXPECT_GE(s.hits, 1u);
  BufferPool::Release(std::move(payload2));
  BufferPool::TrimThreadCacheForTest();
}

TEST(BufferPool, ByteWriterReserveAvoidsRegrowth) {
  // A writer constructed with the exact size must not reallocate while
  // encoding (the Reserve audit on the Encode chains depends on this).
  const size_t total = 64 * sizeof(i64);
  ByteWriter w(total);
  for (int i = 0; i < 64; ++i) {
    w.Put<i64>(i);
  }
  std::vector<u8> out = w.Take();
  EXPECT_EQ(out.size(), total);
  BufferPool::Release(std::move(out));
  BufferPool::TrimThreadCacheForTest();
}

}  // namespace
}  // namespace orion
