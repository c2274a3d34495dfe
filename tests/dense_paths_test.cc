// The worker's dense paths: DistArray Buffers accumulate in place over a
// dense target, and a prefetch whose key list covers a dense range lands in
// a CellStore::DenseRange. A key outside that range was not fetched, so it
// reads as absent (zeros), as it would from a hashed cache.
//
// A kernel reaches the dense stores of its block through direct views
// (loop_context.h): owned range and rotated partitions read and write, dense
// prefetch caches read only. The tests below pin the views' boundaries: keys
// outside an owned partition still die, keys outside a fetched range still
// read zeros, an undeclared Mutate of a viewed server-hosted array is seen
// by the Reads after it, and the recording pass writes through no view.
//
// Buffered writes go through buffer views, except to replicated arrays: a
// key outside the key space still dies, and a replicated write still lands
// in the local replica at once. The recording pass collects a dense
// server-hosted array's keys in a bitmap, and a kernel-replay loop over a
// dense and a sparse one must fetch exactly what the kCached run fetches.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "src/runtime/driver.h"

namespace orion {
namespace {

// Every cell of a dense array, by key.
std::map<i64, std::vector<f32>> CellsOf(Driver* driver, DistArrayId id) {
  const CellStore& c = driver->Cells(id);
  std::map<i64, std::vector<f32>> cells;
  c.ForEachConst([&](i64 key, const f32* v) { cells[key].assign(v, v + c.value_dim()); });
  return cells;
}

// Death tests run before the suite's other tests, while no worker thread
// exists; the driver is built inside the dying child.
TEST(DensePathsDeathTest, RegisterBufferOnSparseTargetDies) {
  EXPECT_DEATH(
      {
        DriverConfig cfg;
        cfg.num_workers = 1;
        Driver driver(cfg);
        const DistArrayId ratings = driver.CreateDistArray("ratings", {8, 8}, 1, Density::kSparse);
        driver.RegisterBuffer(ratings, 1, MakeAddApplyFn());
      },
      "sparse");
}

// An MF-shaped 2D loop on 2 workers over a full 6x8 grid: W is written at i
// and H at j, so one is range-partitioned and the other rotates. On item
// (0, 0) the kernel also reads or mutates the last cell of the range array
// (`rotated` false) or of the rotated one (`rotated` true): the block holding
// (0, 0) owns neither, so the access must die as it does without views.
void RunWithStrayAccess(bool rotated, bool mutate) {
  constexpr i64 kRows = 6;
  constexpr i64 kCols = 8;
  DriverConfig cfg;
  cfg.num_workers = 2;
  Driver driver(cfg);
  const DistArrayId data = driver.CreateDistArray("data", {kRows, kCols}, 1, Density::kSparse);
  const DistArrayId w = driver.CreateDistArray("W", {kRows}, 2, Density::kDense);
  const DistArrayId h = driver.CreateDistArray("H", {kCols}, 2, Density::kDense);
  {
    CellStore& cells = driver.MutableCells(data);
    for (i64 key = 0; key < kRows * kCols; ++key) {
      *cells.GetOrCreate(key) = 1.0f;
    }
  }
  LoopSpec spec;
  spec.iter_space = data;
  spec.iter_extents = {kRows, kCols};
  spec.AddAccess(w, "W", {Expr::LoopIndex(0)}, /*is_write=*/true);
  spec.AddAccess(h, "H", {Expr::LoopIndex(1)}, /*is_write=*/true);
  // The stray array and key are known only once the loop is planned.
  auto stray = std::make_shared<std::pair<DistArrayId, i64>>();
  LoopKernel kernel = [=](LoopContext& ctx, IdxSpan idx, const f32* value) {
    const i64 ki[1] = {idx[0]};
    const i64 kj[1] = {idx[1]};
    ctx.Mutate(w, ki)[0] += value[0];
    ctx.Mutate(h, kj)[0] += value[0];
    if (idx[0] == 0 && idx[1] == 0) {
      const i64 k[1] = {stray->second};
      if (mutate) {
        ctx.Mutate(stray->first, k)[0] = 1.0f;
      } else {
        ctx.AccumulatorAdd(0, ctx.Read(stray->first, k)[0]);
      }
    }
  };
  driver.CreateAccumulator();
  auto loop = driver.Compile(spec, kernel);
  ORION_CHECK(loop.ok());
  const auto& placements = driver.PlanOf(*loop).placements;
  const DistArrayId range_array =
      placements.at(w).scheme == PartitionScheme::kRange ? w : h;
  const DistArrayId rotated_array = range_array == w ? h : w;
  ORION_CHECK(placements.at(rotated_array).scheme == PartitionScheme::kSpaceTime);
  stray->first = rotated ? rotated_array : range_array;
  stray->second = (stray->first == w ? kRows : kCols) - 1;
  (void)driver.Execute(*loop);
}

TEST(DensePathsDeathTest, ReadOutsideOwnedRangeDies) {
  EXPECT_DEATH(RunWithStrayAccess(/*rotated=*/false, /*mutate=*/false), "outside dense range");
}

TEST(DensePathsDeathTest, MutateOutsideOwnedRangeDies) {
  EXPECT_DEATH(RunWithStrayAccess(/*rotated=*/false, /*mutate=*/true), "outside dense range");
}

TEST(DensePathsDeathTest, ReadOutsideRotatedPartDies) {
  EXPECT_DEATH(RunWithStrayAccess(/*rotated=*/true, /*mutate=*/false), "outside dense range");
}

TEST(DensePathsDeathTest, MutateOutsideRotatedPartDies) {
  EXPECT_DEATH(RunWithStrayAccess(/*rotated=*/true, /*mutate=*/true), "outside dense range");
}

// A 1D loop on 2 workers over 40 items buffers +1 into the server-hosted
// `w` at each item's key. The first item also buffers into key 100, one past
// the key space, after its in-range write installed the block's buffer view:
// the view's write must die as the indirect path's does.
TEST(DensePathsDeathTest, BufferUpdateOutsideKeySpaceThroughViewDies) {
  EXPECT_DEATH(
      {
        constexpr i64 kItems = 40;
        constexpr i64 kCells = 100;
        DriverConfig cfg;
        cfg.num_workers = 2;
        Driver driver(cfg);
        const DistArrayId items = driver.CreateDistArray("items", {kItems}, 1, Density::kSparse);
        const DistArrayId w = driver.CreateDistArray("w", {kCells}, 1, Density::kDense);
        CellStore& cells = driver.MutableCells(items);
        for (i64 i = 0; i < kItems; ++i) {
          *cells.GetOrCreate(i) = static_cast<f32>(i);
        }
        driver.RegisterBuffer(w, 1, MakeAddApplyFn());
        LoopSpec spec;
        spec.iter_space = items;
        spec.iter_extents = {kItems};
        spec.AddAccess(w, "w", {Expr::Runtime("id")}, /*is_write=*/true, /*buffered=*/true);
        ParallelForOptions opts;
        opts.planner.replicate_threshold_floats = 0;
        auto loop = driver.Compile(
            spec,
            [=](LoopContext& ctx, IdxSpan idx, const f32* value) {
              const f32 one = 1.0f;
              const i64 key[1] = {static_cast<i64>(value[0])};
              ctx.BufferUpdate(w, key, &one);
              if (idx[0] == 0) {
                const i64 stray[1] = {kCells};
                ctx.BufferUpdate(w, stray, &one);
              }
            },
            opts);
        ORION_CHECK(loop.ok());
        ORION_CHECK(driver.PlanOf(*loop).placements.at(w).scheme == PartitionScheme::kServer);
        (void)driver.Execute(*loop);
      },
      "outside \\[0,");
}

// A small `w` read and buffered at runtime subscripts is replicated. Each
// item reads w[key], buffers +1 into it, and reads it again: the replica
// takes the update at once, so every item sees exactly its own +1, also
// after earlier items of its block wrote the same key.
TEST(DensePaths, ReplicatedBufferUpdateIsSeenByLaterReads) {
  constexpr i64 kItems = 40;
  constexpr i64 kCells = 100;
  DriverConfig cfg;
  cfg.num_workers = 2;
  Driver driver(cfg);
  const DistArrayId items = driver.CreateDistArray("items", {kItems}, 1, Density::kSparse);
  const DistArrayId w = driver.CreateDistArray("w", {kCells}, 1, Density::kDense);
  {
    CellStore& cells = driver.MutableCells(items);
    for (i64 i = 0; i < kItems; ++i) {
      *cells.GetOrCreate(i) = static_cast<f32>(40 + i % 20);  // each key twice
    }
  }
  driver.RegisterBuffer(w, 1, MakeAddApplyFn());
  const int step_sum = driver.CreateAccumulator();
  LoopSpec spec;
  spec.iter_space = items;
  spec.iter_extents = {kItems};
  spec.AddAccess(w, "w", {Expr::Runtime("id")}, /*is_write=*/false);
  spec.AddAccess(w, "w", {Expr::Runtime("id")}, /*is_write=*/true, /*buffered=*/true);
  auto loop = driver.Compile(spec, [=](LoopContext& ctx, IdxSpan, const f32* value) {
    const i64 key[1] = {static_cast<i64>(value[0])};
    const f32 before = ctx.Read(w, key)[0];
    const f32 one = 1.0f;
    ctx.BufferUpdate(w, key, &one);
    ctx.AccumulatorAdd(step_sum, ctx.Read(w, key)[0] - before);
  });
  ASSERT_TRUE(loop.ok()) << loop.status();
  ASSERT_EQ(driver.PlanOf(*loop).placements.at(w).scheme, PartitionScheme::kReplicated);
  for (int pass = 0; pass < 2; ++pass) {
    driver.ResetAccumulator(step_sum);
    ASSERT_TRUE(driver.Execute(*loop).ok());
    EXPECT_EQ(driver.AccumulatorValue(step_sum), static_cast<f64>(kItems)) << "pass " << pass;
  }
  const auto cells = CellsOf(&driver, w);
  EXPECT_EQ(cells.at(40)[0], 4.0f);  // 2 items a pass, 2 passes
  EXPECT_EQ(cells.at(0)[0], 0.0f);
}

// The server-hosted `w` of a 1D loop over 40 items: every cell holds 1 on
// the master, and item i reads w[40 + i % 20], so each worker's key list
// spans at most 20 keys and lands in a dense prefetch cache.
struct ServerReadLoop {
  static constexpr i64 kItems = 40;
  static constexpr i64 kCells = 100;

  ServerReadLoop() : driver(Config()) {
    items = driver.CreateDistArray("items", {kItems}, 1, Density::kSparse);
    w = driver.CreateDistArray("w", {kCells}, 1, Density::kDense);
    CellStore& cells = driver.MutableCells(items);
    for (i64 i = 0; i < kItems; ++i) {
      *cells.GetOrCreate(i) = static_cast<f32>(40 + i % 20);
    }
    driver.MapCells(w, [](i64, f32* v) { v[0] = 1.0f; });
  }

  static DriverConfig Config() {
    DriverConfig cfg;
    cfg.num_workers = 2;
    return cfg;
  }

  // Compiles `kernel` with w declared read-only and hosted on the server.
  i32 Compile(LoopKernel kernel) {
    LoopSpec spec;
    spec.iter_space = items;
    spec.iter_extents = {kItems};
    spec.AddAccess(w, "w", {Expr::Runtime("id")}, /*is_write=*/false);
    ParallelForOptions opts;
    opts.planner.replicate_threshold_floats = 0;
    auto loop = driver.Compile(spec, std::move(kernel), opts);
    EXPECT_TRUE(loop.ok()) << loop.status();
    EXPECT_EQ(driver.PlanOf(*loop).placements.at(w).scheme, PartitionScheme::kServer);
    return *loop;
  }

  Driver driver;
  DistArrayId items = kInvalidDistArrayId;
  DistArrayId w = kInvalidDistArrayId;
};

// Outside the recording pass the kernel also reads w[2] and mutates w[95],
// which no prefetch requested.
TEST(DensePaths, ServerReadAndMutateOutsideFetchedRangeSeeZeros) {
  constexpr i64 kFarRead = 2;
  constexpr i64 kFarMutate = 95;
  ServerReadLoop t;
  const int near_sum = t.driver.CreateAccumulator();
  const int far_sum = t.driver.CreateAccumulator();
  const int mutate_sum = t.driver.CreateAccumulator();
  const DistArrayId w = t.w;
  const i32 loop = t.Compile([=](LoopContext& ctx, IdxSpan, const f32* value) {
    const i64 near[1] = {static_cast<i64>(value[0])};
    ctx.AccumulatorAdd(near_sum, ctx.Read(w, near)[0]);
    if (ctx.recording()) {
      return;  // only the near key is prefetched
    }
    const i64 far[1] = {kFarRead};
    ctx.AccumulatorAdd(far_sum, ctx.Read(w, far)[0]);
    const i64 target[1] = {kFarMutate};
    f32* cell = ctx.Mutate(w, target);
    ctx.AccumulatorAdd(mutate_sum, cell[0]);
    cell[0] = 0.0f;
  });
  for (int pass = 0; pass < 2; ++pass) {
    t.driver.ResetAccumulator(near_sum);
    t.driver.ResetAccumulator(far_sum);
    t.driver.ResetAccumulator(mutate_sum);
    ASSERT_TRUE(t.driver.Execute(loop).ok());
    EXPECT_EQ(t.driver.AccumulatorValue(near_sum), static_cast<f64>(ServerReadLoop::kItems))
        << "pass " << pass;
    EXPECT_EQ(t.driver.AccumulatorValue(far_sum), 0.0) << "pass " << pass;
    EXPECT_EQ(t.driver.AccumulatorValue(mutate_sum), 0.0) << "pass " << pass;
  }
  EXPECT_EQ(t.driver.Cells(w).Get(kFarMutate)[0], 0.0f);  // overwritten from zeros
  EXPECT_EQ(t.driver.Cells(w).Get(kFarRead)[0], 1.0f);
}

// A loop that only reads w keeps its read-only view for the whole block:
// keys below and above the fetched range read zeros through it.
TEST(DensePaths, ReadOnlyServerViewReadsZerosOutsideFetchedRange) {
  ServerReadLoop t;
  const int near_sum = t.driver.CreateAccumulator();
  const int far_sum = t.driver.CreateAccumulator();
  const DistArrayId w = t.w;
  const i32 loop = t.Compile([=](LoopContext& ctx, IdxSpan, const f32* value) {
    const i64 near[1] = {static_cast<i64>(value[0])};
    ctx.AccumulatorAdd(near_sum, ctx.Read(w, near)[0]);
    if (ctx.recording()) {
      return;  // only the near key is prefetched
    }
    for (const i64 far : {i64{0}, i64{2}, i64{60}, ServerReadLoop::kCells - 1}) {
      const i64 key[1] = {far};
      ctx.AccumulatorAdd(far_sum, ctx.Read(w, key)[0]);
    }
  });
  for (int pass = 0; pass < 2; ++pass) {
    t.driver.ResetAccumulator(near_sum);
    t.driver.ResetAccumulator(far_sum);
    ASSERT_TRUE(t.driver.Execute(loop).ok());
    EXPECT_EQ(t.driver.AccumulatorValue(near_sum), static_cast<f64>(ServerReadLoop::kItems))
        << "pass " << pass;
    EXPECT_EQ(t.driver.AccumulatorValue(far_sum), 0.0) << "pass " << pass;
  }
}

// An undeclared Mutate of w drops the cache's view: the Read after it, in
// the same item and in every later item of the block, sees the dirty copy.
// Each item reads its key, adds 1 to it, and reads it again, so every item
// sees exactly its own increment, whichever items of its block came first.
TEST(DensePaths, UndeclaredServerMutateIsSeenByLaterReads) {
  ServerReadLoop t;
  const int step_sum = t.driver.CreateAccumulator();
  const int after_sum = t.driver.CreateAccumulator();
  const DistArrayId w = t.w;
  const i32 loop = t.Compile([=](LoopContext& ctx, IdxSpan, const f32* value) {
    const i64 near[1] = {static_cast<i64>(value[0])};
    const f32 before = ctx.Read(w, near)[0];
    if (ctx.recording()) {
      return;
    }
    ctx.Mutate(w, near)[0] += 1.0f;
    const f32 after = ctx.Read(w, near)[0];
    ctx.AccumulatorAdd(step_sum, after - before);
    ctx.AccumulatorAdd(after_sum, after >= 2.0f ? 1.0 : 0.0);
  });
  ASSERT_TRUE(t.driver.Execute(loop).ok());
  EXPECT_EQ(t.driver.AccumulatorValue(step_sum), static_cast<f64>(ServerReadLoop::kItems));
  EXPECT_EQ(t.driver.AccumulatorValue(after_sum), static_cast<f64>(ServerReadLoop::kItems));
}

// A 2D rotation loop that fetches its server-hosted table by kernel replay
// (kBulk, no synthesized prefetch program): before each block the recording
// pass runs the kernel, whose Mutates of the range and rotated arrays must
// land in scratch, not in the stores the views cover. The kernel adds small
// integers, exact in f32 in any order, so the pipelined, synchronous and
// serial runs must agree to the bit, and any stray recording write would
// show as extra counts.
enum class RunMode { kPipelined, kSynchronous, kSerial };

std::map<DistArrayId, std::map<i64, std::vector<f32>>> RunReplayedRotation(RunMode mode) {
  constexpr i64 kRows = 12;
  constexpr i64 kCols = 10;
  DriverConfig cfg;
  cfg.num_workers = 3;
  cfg.seed = 7;
  Driver driver(cfg);
  const DistArrayId data = driver.CreateDistArray("data", {kRows, kCols}, 1, Density::kSparse);
  const DistArrayId w = driver.CreateDistArray("W", {kRows}, 2, Density::kDense);
  const DistArrayId h = driver.CreateDistArray("H", {kCols}, 2, Density::kDense);
  const DistArrayId table =
      driver.CreateDistArray("table", {kRows + kCols - 1}, 1, Density::kDense);
  {
    CellStore& cells = driver.MutableCells(data);
    for (i64 i = 0; i < kRows; ++i) {
      for (i64 j = 0; j < kCols; ++j) {
        if ((i * 7 + j * 3) % 4 != 0) {
          *cells.GetOrCreate(i * kCols + j) = static_cast<f32>(1 + (i + j) % 3);
        }
      }
    }
    driver.MapCells(table, [](i64 key, f32* v) { v[0] = static_cast<f32>(1 + key % 5); });
  }
  LoopSpec spec;
  spec.iter_space = data;
  spec.iter_extents = {kRows, kCols};
  spec.AddAccess(w, "W", {Expr::LoopIndex(0)}, /*is_write=*/true);
  spec.AddAccess(h, "H", {Expr::LoopIndex(1)}, /*is_write=*/true);
  spec.AddAccess(table, "table", {Expr::Add(Expr::LoopIndex(0), Expr::LoopIndex(1))},
                 /*is_write=*/false);
  LoopKernel kernel = [=](LoopContext& ctx, IdxSpan idx, const f32* value) {
    const i64 k[1] = {idx[0] + idx[1]};
    const i64 ki[1] = {idx[0]};
    const i64 kj[1] = {idx[1]};
    const f32 t = ctx.Read(table, k)[0];
    f32* wi = ctx.Mutate(w, ki);
    f32* hj = ctx.Mutate(h, kj);
    wi[0] += t;
    wi[1] += value[0];
    hj[0] += value[0] * t;
    hj[1] += 1.0f;
  };
  constexpr int kPasses = 2;
  if (mode == RunMode::kSerial) {
    for (int pass = 0; pass < kPasses; ++pass) {
      EXPECT_TRUE(driver.ExecuteSerial(spec, kernel).ok());
    }
  } else {
    ParallelForOptions options;
    options.prefetch = PrefetchMode::kBulk;
    options.overlap = mode == RunMode::kPipelined;
    options.planner.replicate_threshold_floats = 0;  // host table on the server
    auto loop = driver.Compile(spec, kernel, options);
    EXPECT_TRUE(loop.ok()) << loop.status();
    const auto& plan = driver.PlanOf(*loop);
    EXPECT_EQ(plan.placements.at(table).scheme, PartitionScheme::kServer);
    EXPECT_TRUE(plan.placements.at(w).scheme == PartitionScheme::kSpaceTime ||
                plan.placements.at(h).scheme == PartitionScheme::kSpaceTime);
    for (int pass = 0; pass < kPasses; ++pass) {
      EXPECT_TRUE(driver.Execute(*loop).ok());
    }
  }
  return {{w, CellsOf(&driver, w)}, {h, CellsOf(&driver, h)}};
}

TEST(DensePaths, RecordingPassWritesThroughNoView) {
  const auto serial = RunReplayedRotation(RunMode::kSerial);
  EXPECT_EQ(RunReplayedRotation(RunMode::kPipelined), serial);
  EXPECT_EQ(RunReplayedRotation(RunMode::kSynchronous), serial);
}

// A 1D loop of 2 sync rounds on 2 workers fetches, by kernel replay, from a
// dense and a sparse server-hosted array of 100 cells. Item i reads key
// k = 37 i mod 100 (which is 0 at i = 0 and 99 at i = 27) twice from each,
// and keys 0 and 99 from each, and adds a weighted sum of the eight values,
// small integers exact in f32, into its own cell of `out`. The recording
// pass marks the dense array's keys in a bitmap and lists the sparse one's.
struct ReplayedFetch {
  std::map<i64, std::vector<f32>> out;
  u64 bytes_sent = 0;
};

ReplayedFetch RunReplayedFetch(std::optional<PrefetchMode> prefetch) {
  constexpr i64 kItems = 40;
  constexpr i64 kCells = 100;
  DriverConfig cfg;
  cfg.num_workers = 2;
  cfg.seed = 5;
  Driver driver(cfg);
  const DistArrayId items = driver.CreateDistArray("items", {kItems}, 1, Density::kSparse);
  const DistArrayId dense = driver.CreateDistArray("dense", {kCells}, 1, Density::kDense);
  const DistArrayId sparse = driver.CreateDistArray("sparse", {kCells}, 1, Density::kSparse);
  const DistArrayId out = driver.CreateDistArray("out", {kItems}, 1, Density::kDense);
  {
    CellStore& cells = driver.MutableCells(items);
    for (i64 i = 0; i < kItems; ++i) {
      *cells.GetOrCreate(i) = static_cast<f32>(37 * i % kCells);
    }
    driver.MapCells(dense, [](i64 key, f32* v) { v[0] = static_cast<f32>(1 + key % 5); });
    CellStore& held = driver.MutableCells(sparse);
    for (i64 key = 0; key < kCells; key += 3) {  // 0 and 99 among them
      *held.GetOrCreate(key) = static_cast<f32>(1 + key % 7);
    }
  }
  LoopSpec spec;
  spec.iter_space = items;
  spec.iter_extents = {kItems};
  spec.AddAccess(dense, "dense", {Expr::Runtime("k")}, /*is_write=*/false);
  spec.AddAccess(sparse, "sparse", {Expr::Runtime("k")}, /*is_write=*/false);
  spec.AddAccess(out, "out", {Expr::LoopIndex(0)}, /*is_write=*/true);
  LoopKernel kernel = [=](LoopContext& ctx, IdxSpan idx, const f32* value) {
    const i64 k[1] = {static_cast<i64>(value[0])};
    const i64 first[1] = {0};
    const i64 last[1] = {kCells - 1};
    f32 sum = 0.0f;
    f32 weight = 1.0f;
    for (const DistArrayId array : {dense, sparse}) {
      for (const i64* key : {k, first, k, last}) {
        sum += weight * ctx.Read(array, IdxSpan(key, 1))[0];
        weight *= 2.0f;
      }
    }
    const i64 i[1] = {idx[0]};
    ctx.Mutate(out, i)[0] += sum;
  };
  ReplayedFetch r;
  constexpr int kPasses = 2;
  if (!prefetch.has_value()) {
    for (int pass = 0; pass < kPasses; ++pass) {
      EXPECT_TRUE(driver.ExecuteSerial(spec, kernel).ok());
    }
  } else {
    ParallelForOptions options;
    options.prefetch = *prefetch;
    options.server_sync_rounds = 2;
    options.planner.replicate_threshold_floats = 0;  // host both on the server
    auto loop = driver.Compile(spec, kernel, options);
    EXPECT_TRUE(loop.ok()) << loop.status();
    const auto& plan = driver.PlanOf(*loop);
    EXPECT_EQ(plan.placements.at(dense).scheme, PartitionScheme::kServer);
    EXPECT_EQ(plan.placements.at(sparse).scheme, PartitionScheme::kServer);
    const u64 bytes_before = driver.NetStats().bytes_sent;
    for (int pass = 0; pass < kPasses; ++pass) {
      EXPECT_TRUE(driver.Execute(*loop).ok());
    }
    r.bytes_sent = driver.NetStats().bytes_sent - bytes_before;
  }
  r.out = CellsOf(&driver, out);
  return r;
}

TEST(DensePaths, ReplayedFetchOfDenseAndSparseServerArraysMatchesCachedAndSerial) {
  const ReplayedFetch serial = RunReplayedFetch(std::nullopt);
  const ReplayedFetch bulk = RunReplayedFetch(PrefetchMode::kBulk);
  const ReplayedFetch cached = RunReplayedFetch(PrefetchMode::kCached);
  ASSERT_EQ(serial.out.size(), 40u);
  EXPECT_NE(serial.out.at(0)[0], 0.0f);
  EXPECT_EQ(bulk.out, serial.out);
  EXPECT_EQ(cached.out, serial.out);
  EXPECT_GT(bulk.bytes_sent, 0u);
  EXPECT_EQ(bulk.bytes_sent, cached.bytes_sent);
}

}  // namespace
}  // namespace orion
