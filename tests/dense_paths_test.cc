// The worker's dense paths to server-hosted arrays: DistArray Buffers
// accumulate in place over a dense target, and a prefetch whose key list
// covers a dense range lands in a CellStore::DenseRange. A key outside that
// range was not fetched, so it reads as absent (zeros), as it would from a
// hashed cache.
#include <gtest/gtest.h>

#include "src/runtime/driver.h"

namespace orion {
namespace {

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

// Each item reads w[id] for an id in [40, 60), so each worker fetches a key
// list spanning at most 20 keys of w: a dense landing pad. Outside the
// recording pass the kernel also reads w[2] and mutates w[95], which no
// prefetch requested. Every cell of w holds 1 on the master.
TEST(DensePaths, ServerReadAndMutateOutsideFetchedRangeSeeZeros) {
  constexpr i64 kItems = 40;
  constexpr i64 kCells = 100;
  constexpr i64 kFarRead = 2;
  constexpr i64 kFarMutate = 95;
  DriverConfig cfg;
  cfg.num_workers = 2;
  Driver driver(cfg);
  const DistArrayId items = driver.CreateDistArray("items", {kItems}, 1, Density::kSparse);
  const DistArrayId w = driver.CreateDistArray("w", {kCells}, 1, Density::kDense);
  {
    CellStore& cells = driver.MutableCells(items);
    for (i64 i = 0; i < kItems; ++i) {
      *cells.GetOrCreate(i) = static_cast<f32>(40 + i % 20);
    }
    driver.MapCells(w, [](i64, f32* v) { v[0] = 1.0f; });
  }
  const int near_sum = driver.CreateAccumulator();
  const int far_sum = driver.CreateAccumulator();
  const int mutate_sum = driver.CreateAccumulator();

  LoopSpec spec;
  spec.iter_space = items;
  spec.iter_extents = {kItems};
  spec.AddAccess(w, "w", {Expr::Runtime("id")}, /*is_write=*/false);
  LoopKernel kernel = [=](LoopContext& ctx, IdxSpan, const f32* value) {
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
  };
  ParallelForOptions opts;
  opts.planner.replicate_threshold_floats = 0;  // host w on the server
  auto loop = driver.Compile(spec, kernel, opts);
  ASSERT_TRUE(loop.ok()) << loop.status();
  ASSERT_EQ(driver.PlanOf(*loop).placements.at(w).scheme, PartitionScheme::kServer);
  for (int pass = 0; pass < 2; ++pass) {
    driver.ResetAccumulator(near_sum);
    driver.ResetAccumulator(far_sum);
    driver.ResetAccumulator(mutate_sum);
    ASSERT_TRUE(driver.Execute(*loop).ok());
    EXPECT_EQ(driver.AccumulatorValue(near_sum), static_cast<f64>(kItems)) << "pass " << pass;
    EXPECT_EQ(driver.AccumulatorValue(far_sum), 0.0) << "pass " << pass;
    EXPECT_EQ(driver.AccumulatorValue(mutate_sum), 0.0) << "pass " << pass;
  }
  EXPECT_EQ(driver.Cells(w).Get(kFarMutate)[0], 0.0f);  // overwritten from zeros
  EXPECT_EQ(driver.Cells(w).Get(kFarRead)[0], 1.0f);
}

}  // namespace
}  // namespace orion
