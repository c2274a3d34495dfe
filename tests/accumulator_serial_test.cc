// Accumulators with custom reduce operators and the serial fallback executor.
#include <gtest/gtest.h>

#include "src/runtime/driver.h"

namespace orion {
namespace {

DistArrayId FillLine(Driver* driver, i64 n) {
  auto data = driver->CreateDistArray("data", {n}, 1, Density::kSparse);
  CellStore& cells = driver->MutableCells(data);
  for (i64 i = 0; i < n; ++i) {
    *cells.GetOrCreate(i) = static_cast<f32>((i * 37) % 101);
  }
  return data;
}

TEST(Accumulators, MinAndMaxOps) {
  DriverConfig cfg;
  cfg.num_workers = 4;
  Driver driver(cfg);
  auto data = FillLine(&driver, 200);
  int acc_min = driver.CreateAccumulator(AccumOp::kMin);
  int acc_max = driver.CreateAccumulator(AccumOp::kMax);
  int acc_sum = driver.CreateAccumulator(AccumOp::kSum);

  LoopSpec spec;
  spec.iter_space = data;
  spec.iter_extents = {200};
  LoopKernel kernel = [&](LoopContext& ctx, IdxSpan idx, const f32* value) {
    ctx.AccumulatorAdd(acc_min, value[0]);
    ctx.AccumulatorAdd(acc_max, value[0]);
    ctx.AccumulatorAdd(acc_sum, value[0]);
  };
  auto loop = driver.Compile(spec, kernel, {});
  ASSERT_TRUE(loop.ok()) << loop.status();
  ASSERT_TRUE(driver.Execute(*loop).ok());

  f64 want_min = 1e300;
  f64 want_max = -1e300;
  f64 want_sum = 0.0;
  for (i64 i = 0; i < 200; ++i) {
    const f64 v = static_cast<f64>((i * 37) % 101);
    want_min = std::min(want_min, v);
    want_max = std::max(want_max, v);
    want_sum += v;
  }
  EXPECT_DOUBLE_EQ(driver.AccumulatorValue(acc_min), want_min);
  EXPECT_DOUBLE_EQ(driver.AccumulatorValue(acc_max), want_max);
  EXPECT_DOUBLE_EQ(driver.AccumulatorValue(acc_sum), want_sum);

  driver.ResetAccumulator(acc_min);
  EXPECT_EQ(driver.AccumulatorValue(acc_min), std::numeric_limits<f64>::infinity());
}

TEST(SerialFallback, MatchesParallelExecution) {
  const i64 kRows = 30;
  const i64 kCols = 20;
  auto run = [&](bool serial) {
    DriverConfig cfg;
    cfg.num_workers = 3;
    Driver driver(cfg);
    auto data = driver.CreateDistArray("data", {kRows, kCols}, 1, Density::kSparse);
    auto sums = driver.CreateDistArray("sums", {kRows}, 1, Density::kDense);
    {
      CellStore& cells = driver.MutableCells(data);
      for (i64 i = 0; i < kRows; ++i) {
        for (i64 j = i % 2; j < kCols; j += 2) {
          *cells.GetOrCreate(i * kCols + j) = static_cast<f32>(i + j);
        }
      }
    }
    int acc = driver.CreateAccumulator();
    LoopSpec spec;
    spec.iter_space = data;
    spec.iter_extents = {kRows, kCols};
    spec.AddAccess(sums, "sums", {Expr::LoopIndex(0)}, true);
    LoopKernel kernel = [&](LoopContext& ctx, IdxSpan idx, const f32* value) {
      const i64 k[1] = {idx[0]};
      ctx.Mutate(sums, k)[0] += value[0];
      ctx.AccumulatorAdd(acc, value[0]);
    };
    if (serial) {
      EXPECT_TRUE(driver.ExecuteSerial(spec, kernel).ok());
    } else {
      auto loop = driver.Compile(spec, kernel, {});
      EXPECT_TRUE(loop.ok());
      EXPECT_TRUE(driver.Execute(*loop).ok());
    }
    std::vector<f32> out(static_cast<size_t>(kRows));
    for (i64 i = 0; i < kRows; ++i) {
      out[static_cast<size_t>(i)] = driver.Cells(sums).Get(i)[0];
    }
    return std::make_pair(out, driver.AccumulatorValue(acc));
  };

  const auto [serial_out, serial_acc] = run(true);
  const auto [parallel_out, parallel_acc] = run(false);
  EXPECT_EQ(serial_out, parallel_out);
  EXPECT_DOUBLE_EQ(serial_acc, parallel_acc);
}

TEST(SerialFallback, RunsLoopsTheAnalysisRejects) {
  // Unbuffered runtime-subscripted write: Compile fails (kSerial), but
  // ExecuteSerial runs it fine.
  DriverConfig cfg;
  cfg.num_workers = 2;
  Driver driver(cfg);
  auto data = FillLine(&driver, 50);
  auto table = driver.CreateDistArray("table", {101}, 1, Density::kDense);

  LoopSpec spec;
  spec.iter_space = data;
  spec.iter_extents = {50};
  spec.AddAccess(table, "table", {Expr::Runtime("hash")}, false);
  spec.AddAccess(table, "table", {Expr::Runtime("hash")}, true);
  LoopKernel kernel = [&](LoopContext& ctx, IdxSpan idx, const f32* value) {
    const i64 k[1] = {static_cast<i64>(value[0])};
    ctx.Mutate(table, k)[0] += 1.0f;
  };
  auto loop = driver.Compile(spec, kernel, {});
  ASSERT_FALSE(loop.ok());
  EXPECT_EQ(loop.status().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(driver.ExecuteSerial(spec, kernel).ok());
  f64 total = 0.0;
  driver.MutableCells(table).ForEach([&](i64, f32* v) { total += v[0]; });
  EXPECT_DOUBLE_EQ(total, 50.0);
}

}  // namespace
}  // namespace orion
