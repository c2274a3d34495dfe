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

Pinned RunSlr(int rounds, PrefetchMode prefetch) {
  SparseLrConfig d;
  d.num_samples = 600;
  d.num_features = 900;
  d.nnz_per_sample = 8;
  d.seed = 5;
  DriverConfig cfg;
  cfg.num_workers = 4;
  cfg.seed = 3;
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
  ExpectPinned(RunSlr(1, PrefetchMode::kBulk), {64, 524864, 0});
}
TEST(ExecutorTraffic, Slr1RoundCached) {
  ExpectPinned(RunSlr(1, PrefetchMode::kCached), {64, 524864, 0});
}
TEST(ExecutorTraffic, Slr1RoundPerKey) {
  ExpectPinned(RunSlr(1, PrefetchMode::kPerKey), {12718, 1233488, 0});
}
TEST(ExecutorTraffic, Slr8RoundsBulk) {
  ExpectPinned(RunSlr(8, PrefetchMode::kBulk), {316, 711512, 0});
}
TEST(ExecutorTraffic, Slr8RoundsCached) {
  ExpectPinned(RunSlr(8, PrefetchMode::kCached), {316, 711512, 0});
}
TEST(ExecutorTraffic, Slr8RoundsPerKey) {
  ExpectPinned(RunSlr(8, PrefetchMode::kPerKey), {23554, 2012840, 0});
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
constexpr Pinned kRotationTraffic{356, 39980, 9933665473904735672ULL};

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
  ExpectPinned(r.pinned, {368, 34212, 12885273231235068288ULL});
  EXPECT_EQ(r.spec_issued, 0u);
  EXPECT_EQ(r.ring_depth, 1);
}
TEST(ExecutorTraffic, WavefrontSpeculation) {
  const MfResult r = RunMf(/*ordered=*/true, /*overlap=*/true, 1, /*speculate=*/true);
  ExpectPinned(r.pinned, {368, 34548, 12885273231235068288ULL});
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
  ExpectPinned({s.messages_sent, s.bytes_sent, Fnv1a(&driver, c)}, {885, 74204, 12628890455485552062ULL});
}

}  // namespace
}  // namespace orion
