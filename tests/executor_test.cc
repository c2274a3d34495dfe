// Executor traffic pins: for every schedule the executor runs — 1D sync
// rounds, pipelined rotation, wavefront with and without speculation, and
// lockstep — the fabric's message and byte totals after a fixed number of
// passes, plus, where the run is deterministic, an FNV-1a over the final
// arrays. A change to the executor that claims to keep every message, its
// size and every result identical must leave all of them unchanged.
//
// Only figures that repeat exactly from run to run are pinned. SLR applies
// its buffered server updates in arrival order, so its weights vary in the
// last bits between runs; its traffic does not.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/apps/slr.h"
#include "src/runtime/driver.h"

namespace orion {
namespace {

// FNV-1a over (key, value bits) of every master cell in key order.
u64 Fnv1a(Driver* d, DistArrayId id) {
  const CellStore& c = d->Cells(id);
  std::map<i64, std::vector<f32>> cells;
  c.ForEachConst([&](i64 key, const f32* v) { cells[key].assign(v, v + c.value_dim()); });
  u64 h = 1469598103934665603ULL;
  auto mix = [&h](const void* p, size_t n) {
    const unsigned char* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h = (h ^ b[i]) * 1099511628211ULL;
    }
  };
  for (const auto& [key, v] : cells) {
    mix(&key, sizeof(key));
    mix(v.data(), v.size() * sizeof(f32));
  }
  return h;
}

struct Pinned {
  u64 messages = 0;
  u64 bytes = 0;
  u64 fnv = 0;  // 0 when the run's values are not deterministic
};

void ExpectPinned(const Pinned& got, const Pinned& want) {
  EXPECT_EQ(got.messages, want.messages);
  EXPECT_EQ(got.bytes, want.bytes);
  EXPECT_EQ(got.fnv, want.fnv);
}

// ---------------------------------------------------------------------------
// 1D data parallelism: SLR with server-hosted weights.

Pinned RunSlr(int rounds, PrefetchMode prefetch, bool zero_copy = true) {
  SparseLrConfig d;
  d.num_samples = 600;
  d.num_features = 900;
  d.nnz_per_sample = 8;
  d.seed = 5;
  DriverConfig cfg;
  cfg.num_workers = 4;
  cfg.seed = 3;
  cfg.zero_copy = zero_copy;
  Driver driver(cfg);
  SlrConfig c;
  c.loop_options.server_sync_rounds = rounds;
  c.loop_options.prefetch = prefetch;
  SlrApp app(&driver, c);
  EXPECT_TRUE(app.Init(GenerateSparseLr(d), d.num_features).ok());
  EXPECT_EQ(app.train_plan().placements.at(app.weights()).scheme, PartitionScheme::kServer);
  for (int p = 0; p < 3; ++p) {
    EXPECT_TRUE(app.RunPass().ok());
  }
  const FabricStats s = driver.NetStats();
  return {s.messages_sent, s.bytes_sent, 0};
}

TEST(ExecutorTraffic, Slr1RoundBulk) {
  ExpectPinned(RunSlr(1, PrefetchMode::kBulk), {64, 381219, 0});
}
TEST(ExecutorTraffic, Slr1RoundCached) {
  ExpectPinned(RunSlr(1, PrefetchMode::kCached), {64, 381219, 0});
}
TEST(ExecutorTraffic, Slr1RoundPerKey) {
  ExpectPinned(RunSlr(1, PrefetchMode::kPerKey), {12718, 1032162, 0});
}
TEST(ExecutorTraffic, Slr8RoundsBulk) {
  ExpectPinned(RunSlr(8, PrefetchMode::kBulk), {316, 448473, 0});
}
TEST(ExecutorTraffic, Slr8RoundsCached) {
  ExpectPinned(RunSlr(8, PrefetchMode::kCached), {316, 448473, 0});
}
TEST(ExecutorTraffic, Slr8RoundsPerKey) {
  ExpectPinned(RunSlr(8, PrefetchMode::kPerKey), {23554, 1642254, 0});
}

// The fabric meters a zero-copy message at the size Encode would give it, so
// the serialized path sends the same messages and bytes.
TEST(ExecutorTraffic, Slr8RoundsMeterTheSameWithoutZeroCopy) {
  for (const PrefetchMode prefetch : {PrefetchMode::kBulk, PrefetchMode::kPerKey}) {
    const Pinned zero_copy = RunSlr(8, prefetch, /*zero_copy=*/true);
    const Pinned encoded = RunSlr(8, prefetch, /*zero_copy=*/false);
    EXPECT_EQ(zero_copy.messages, encoded.messages) << static_cast<int>(prefetch);
    EXPECT_EQ(zero_copy.bytes, encoded.bytes) << static_cast<int>(prefetch);
  }
}

// ---------------------------------------------------------------------------
// Server-hosted sparse arrays: the master's store is hashed, so a prefetch
// can ask for keys it does not hold and the reply marks them missed. Each
// item reads one key of `near` (key lists spanning at most 150 keys: a
// dense landing pad) and one of `far` (keys spread over millions: a hashed
// one). Only keys divisible by 3 exist; every other read must see zeros,
// and every hit its own value, not another key's.

TEST(ExecutorTraffic, SparseServerMissesReadAsZeros) {
  constexpr i64 kItems = 60;
  constexpr i64 kNearCells = 150;
  constexpr i64 kFarCells = 3000000;
  auto near_key = [](i64 i) { return (i * 7) % kNearCells; };
  auto far_key = [](i64 i) { return i * 40009; };
  // What a read of `key` must return: its value if it exists, else zero.
  auto value_of = [](i64 key) { return key % 3 == 0 ? static_cast<f32>(1 + key % 1000) : 0.0f; };
  f64 want_near = 0.0;
  f64 want_far = 0.0;
  for (i64 i = 0; i < kItems; ++i) {
    want_near += value_of(near_key(i));
    want_far += value_of(far_key(i));
  }
  for (const bool zero_copy : {true, false}) {
    DriverConfig cfg;
    cfg.num_workers = 3;
    cfg.zero_copy = zero_copy;
    Driver driver(cfg);
    const DistArrayId items = driver.CreateDistArray("items", {kItems}, 2, Density::kSparse);
    const DistArrayId near = driver.CreateDistArray("near", {kNearCells}, 1, Density::kSparse);
    const DistArrayId far = driver.CreateDistArray("far", {kFarCells}, 1, Density::kSparse);
    {
      CellStore& cells = driver.MutableCells(items);
      for (i64 i = 0; i < kItems; ++i) {
        f32* v = cells.GetOrCreate(i);
        v[0] = static_cast<f32>(near_key(i));
        v[1] = static_cast<f32>(far_key(i));
      }
      for (const auto& [array, key_of] :
           {std::pair{near, +near_key}, std::pair{far, +far_key}}) {
        CellStore& table = driver.MutableCells(array);
        for (i64 i = 0; i < kItems; ++i) {
          if (key_of(i) % 3 == 0) {
            *table.GetOrCreate(key_of(i)) = value_of(key_of(i));
          }
        }
      }
    }
    const int near_sum = driver.CreateAccumulator();
    const int far_sum = driver.CreateAccumulator();
    const int wrong_reads = driver.CreateAccumulator();
    LoopSpec spec;
    spec.iter_space = items;
    spec.iter_extents = {kItems};
    spec.AddAccess(near, "near", {Expr::Runtime("near_id")}, /*is_write=*/false);
    spec.AddAccess(far, "far", {Expr::Runtime("far_id")}, /*is_write=*/false);
    LoopKernel kernel = [=](LoopContext& ctx, IdxSpan, const f32* value) {
      const i64 n[1] = {static_cast<i64>(value[0])};
      const i64 f[1] = {static_cast<i64>(value[1])};
      const f32 near_value = ctx.Read(near, n)[0];
      const f32 far_value = ctx.Read(far, f)[0];
      ctx.AccumulatorAdd(near_sum, near_value);
      ctx.AccumulatorAdd(far_sum, far_value);
      if (!ctx.recording()) {
        ctx.AccumulatorAdd(wrong_reads, (near_value != value_of(n[0]) ? 1.0 : 0.0) +
                                            (far_value != value_of(f[0]) ? 1.0 : 0.0));
      }
    };
    ParallelForOptions opts;
    opts.planner.replicate_threshold_floats = 0;  // host both tables on the server
    auto loop = driver.Compile(spec, kernel, opts);
    ASSERT_TRUE(loop.ok()) << loop.status();
    ASSERT_EQ(driver.PlanOf(*loop).placements.at(near).scheme, PartitionScheme::kServer);
    ASSERT_EQ(driver.PlanOf(*loop).placements.at(far).scheme, PartitionScheme::kServer);
    for (int pass = 0; pass < 2; ++pass) {
      driver.ResetAccumulator(near_sum);
      driver.ResetAccumulator(far_sum);
      driver.ResetAccumulator(wrong_reads);
      ASSERT_TRUE(driver.Execute(*loop).ok());
      EXPECT_EQ(driver.AccumulatorValue(wrong_reads), 0.0) << "zero_copy " << zero_copy;
      EXPECT_EQ(driver.AccumulatorValue(near_sum), want_near) << "zero_copy " << zero_copy;
      EXPECT_EQ(driver.AccumulatorValue(far_sum), want_far) << "zero_copy " << zero_copy;
    }
  }
}

// ---------------------------------------------------------------------------
// MF-shaped 2D loop over sparse ratings: a row factor written at i, a column
// factor written at j, and a server-hosted table read at i + j (a skewed
// subscript with replication priced out). Unordered it rotates with a
// pipelined prefetch ring; ordered it runs a wavefront and, with
// `speculate`, prefetches the read-only table ahead of each barrier.

struct MfResult {
  Pinned pinned;
  u64 spec_issued = 0;  // summed over passes
  int ring_depth = 0;   // deepest prefetch ring any worker used, over passes
};

MfResult RunMf(bool ordered, bool overlap, int prefetch_depth, bool speculate) {
  constexpr i64 kRows = 24;
  constexpr i64 kCols = 20;
  DriverConfig cfg;
  cfg.num_workers = 4;
  cfg.seed = 11;
  Driver driver(cfg);
  auto data = driver.CreateDistArray("data", {kRows, kCols}, 1, Density::kSparse);
  auto w = driver.CreateDistArray("W", {kRows}, 2, Density::kDense);
  auto h = driver.CreateDistArray("H", {kCols}, 2, Density::kDense);
  auto table = driver.CreateDistArray("table", {kRows + kCols - 1}, 2, Density::kDense);
  {
    Rng rng(99);
    CellStore& cells = driver.MutableCells(data);
    for (i64 n = 0; n < 300; ++n) {
      const i64 i = static_cast<i64>(rng.NextBounded(static_cast<u64>(kRows)));
      const i64 j = static_cast<i64>(rng.NextBounded(static_cast<u64>(kCols)));
      *cells.GetOrCreate(i * kCols + j) = 1.0f + 0.25f * static_cast<f32>(n % 7);
    }
    driver.MapCells(w, [](i64 key, f32* v) {
      v[0] = 0.1f + 0.01f * static_cast<f32>(key);
      v[1] = 0.2f;
    });
    driver.MapCells(h, [](i64 key, f32* v) {
      v[0] = 0.3f;
      v[1] = 0.1f + 0.02f * static_cast<f32>(key);
    });
    driver.MapCells(table, [](i64 key, f32* v) {
      v[0] = 0.5f + 0.001f * static_cast<f32>(key);
      v[1] = 1.0f - 0.002f * static_cast<f32>(key);
    });
  }

  LoopSpec spec;
  spec.iter_space = data;
  spec.iter_extents = {kRows, kCols};
  spec.ordered = ordered;
  spec.AddAccess(w, "W", {Expr::LoopIndex(0)}, true);
  spec.AddAccess(h, "H", {Expr::LoopIndex(1)}, true);
  spec.AddAccess(table, "table", {Expr::Add(Expr::LoopIndex(0), Expr::LoopIndex(1))},
                 false);
  LoopKernel kernel = [=](LoopContext& ctx, IdxSpan idx, const f32* value) {
    const i64 k[1] = {idx[0] + idx[1]};
    const f32* t = ctx.Read(table, k);
    const i64 ki[1] = {idx[0]};
    const i64 kj[1] = {idx[1]};
    f32* wi = ctx.Mutate(w, ki);
    f32* hj = ctx.Mutate(h, kj);
    const f32 err = value[0] - (wi[0] * hj[0] + wi[1] * hj[1]) * t[0];
    for (int r = 0; r < 2; ++r) {
      const f32 wr = wi[r];
      wi[r] += 0.01f * err * hj[r] * t[1];
      hj[r] += 0.01f * err * wr * t[1];
    }
  };

  ParallelForOptions options;
  options.prefetch = PrefetchMode::kCached;
  options.overlap = overlap;
  options.prefetch_depth = prefetch_depth;
  options.speculate = speculate;
  options.planner.replicate_threshold_floats = 0;  // force table -> kServer
  auto loop = driver.Compile(spec, kernel, options);
  EXPECT_TRUE(loop.ok()) << loop.status();
  EXPECT_EQ(driver.PlanOf(*loop).placements.at(table).scheme, PartitionScheme::kServer);
  EXPECT_EQ(driver.PlanOf(*loop).ordered, ordered);

  MfResult res;
  for (int p = 0; p < 3; ++p) {
    EXPECT_TRUE(driver.Execute(*loop).ok());
    res.spec_issued += driver.last_metrics().spec_issued;
    res.ring_depth = std::max(res.ring_depth, driver.last_metrics().prefetch_ring_depth_used);
  }
  const FabricStats s = driver.NetStats();
  res.pinned.messages = s.messages_sent;
  res.pinned.bytes = s.bytes_sent;
  res.pinned.fnv = Fnv1a(&driver, w) ^ (Fnv1a(&driver, h) * 31);
  return res;
}

MfResult RunRotation(bool overlap, int prefetch_depth) {
  return RunMf(/*ordered=*/false, overlap, prefetch_depth, /*speculate=*/false);
}

// Issue depth and overlap move requests earlier, never add or drop one.
constexpr Pinned kRotationTraffic{356, 29920, 9933665473904735672ULL};

TEST(ExecutorTraffic, RotationDepth1Overlap) {
  const MfResult r = RunRotation(true, 1);
  ExpectPinned(r.pinned, kRotationTraffic);
  EXPECT_EQ(r.ring_depth, 1);
}
TEST(ExecutorTraffic, RotationDepth2Overlap) {
  const MfResult r = RunRotation(true, 2);
  ExpectPinned(r.pinned, kRotationTraffic);
  EXPECT_EQ(r.ring_depth, 2);
}
TEST(ExecutorTraffic, RotationDepth4Overlap) {
  const MfResult r = RunRotation(true, 4);
  ExpectPinned(r.pinned, kRotationTraffic);
  EXPECT_EQ(r.ring_depth, 4);
}
TEST(ExecutorTraffic, RotationDepth1Sync) {
  const MfResult r = RunRotation(false, 1);
  ExpectPinned(r.pinned, kRotationTraffic);
  EXPECT_EQ(r.ring_depth, 1);
}
TEST(ExecutorTraffic, RotationDepth2Sync) {
  const MfResult r = RunRotation(false, 2);
  ExpectPinned(r.pinned, kRotationTraffic);
  EXPECT_EQ(r.ring_depth, 1);
}
TEST(ExecutorTraffic, RotationDepth4Sync) {
  const MfResult r = RunRotation(false, 4);
  ExpectPinned(r.pinned, kRotationTraffic);
  EXPECT_EQ(r.ring_depth, 1);
}

// prefetch_depth caps the speculation depth. At 1 the controller cannot
// deepen it on a measured wait, so the ring's depth is the same every run.
TEST(ExecutorTraffic, WavefrontNoSpeculation) {
  const MfResult r = RunMf(/*ordered=*/true, /*overlap=*/true, 1, /*speculate=*/false);
  ExpectPinned(r.pinned, {368, 26539, 12885273231235068288ULL});
  EXPECT_EQ(r.spec_issued, 0u);
  EXPECT_EQ(r.ring_depth, 1);
}
TEST(ExecutorTraffic, WavefrontSpeculation) {
  const MfResult r = RunMf(/*ordered=*/true, /*overlap=*/true, 1, /*speculate=*/true);
  ExpectPinned(r.pinned, {368, 26875, 12885273231235068288ULL});
  EXPECT_EQ(r.spec_issued, 30u);
  EXPECT_EQ(r.ring_depth, 1);
}

// ---------------------------------------------------------------------------
// Lockstep: the skewed recurrence C[i][j] = C[i-1][j] + C[i][j-1] + B[i][j],
// which only a unimodular transform parallelizes; C is server-hosted and
// overwritten every step.

TEST(ExecutorTraffic, Lockstep) {
  constexpr i64 n = 12;
  constexpr i64 m = 10;
  DriverConfig cfg;
  cfg.num_workers = 3;
  Driver driver(cfg);
  auto grid = driver.CreateDistArray("grid", {n, m}, 1, Density::kSparse);
  auto b = driver.CreateDistArray("B", {n, m}, 1, Density::kDense);
  auto c = driver.CreateDistArray("C", {n, m}, 1, Density::kDense);
  {
    CellStore& cells = driver.MutableCells(grid);
    for (i64 i = 0; i < n; ++i) {
      for (i64 j = 0; j < m; ++j) {
        *cells.GetOrCreate(i * m + j) = 1.0f;
      }
    }
    Rng rng(31);
    driver.MapCells(b, [&](i64, f32* v) { v[0] = static_cast<f32>(rng.NextBounded(5)); });
  }
  LoopSpec spec;
  spec.iter_space = grid;
  spec.iter_extents = {n, m};
  spec.AddAccess(c, "C", {Expr::LoopIndex(0), Expr::LoopIndex(1)}, true);
  spec.AddAccess(c, "C", {Expr::Sub(Expr::LoopIndex(0), Expr::Const(1)), Expr::LoopIndex(1)},
                 false);
  spec.AddAccess(c, "C", {Expr::LoopIndex(0), Expr::Sub(Expr::LoopIndex(1), Expr::Const(1))},
                 false);
  spec.AddAccess(b, "B", {Expr::LoopIndex(0), Expr::LoopIndex(1)}, false);
  LoopKernel kernel = [=](LoopContext& ctx, IdxSpan idx, const f32* value) {
    const i64 i = idx[0];
    const i64 j = idx[1];
    const i64 ku[2] = {i - 1, j};
    const i64 kl[2] = {i, j - 1};
    const i64 kb[2] = {i, j};
    const f32 up = i > 0 ? ctx.Read(c, ku)[0] : 0.0f;
    const f32 left = j > 0 ? ctx.Read(c, kl)[0] : 0.0f;
    const f32 add = ctx.Read(b, kb)[0];
    ctx.Mutate(c, kb)[0] = 0.5f * (up + left) + add;
  };
  auto loop = driver.Compile(spec, kernel, {});
  ASSERT_TRUE(loop.ok()) << loop.status();
  ASSERT_EQ(driver.PlanOf(*loop).form, ParallelForm::k2DUnimodular);
  for (int p = 0; p < 2; ++p) {
    ASSERT_TRUE(driver.Execute(*loop).ok());
  }
  const FabricStats s = driver.NetStats();
  ExpectPinned({s.messages_sent, s.bytes_sent, Fnv1a(&driver, c)}, {885, 61098, 12628890455485552062ULL});
}

}  // namespace
}  // namespace orion
