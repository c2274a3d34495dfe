// Driver-level integration tests: fault tolerance, repartitioning between
// loops, ordered-execution exactness, 3-D iteration spaces with mixed
// placement strategies, and edge cases.
#include <gtest/gtest.h>

#include <cstdio>

#include "src/apps/sgd_mf.h"
#include "src/runtime/driver.h"

namespace orion {
namespace {

TEST(DriverFeatures, CheckpointRestoreResumesTraining) {
  RatingsConfig d;
  d.rows = 200;
  d.cols = 150;
  d.nnz = 6000;
  d.true_rank = 4;
  auto data = GenerateRatings(d);
  const std::string wpath = ::testing::TempDir() + "/orion_ft_w.ckpt";
  const std::string hpath = ::testing::TempDir() + "/orion_ft_h.ckpt";

  f64 loss_at_ckpt = 0.0;
  {
    DriverConfig cfg;
    cfg.num_workers = 3;
    Driver driver(cfg);
    SgdMfConfig mf;
    mf.rank = 4;
    SgdMfApp app(&driver, mf);
    ASSERT_TRUE(app.Init(data, d.rows, d.cols).ok());
    for (int p = 0; p < 4; ++p) {
      ASSERT_TRUE(app.RunPass().ok());
    }
    loss_at_ckpt = *app.EvalLoss();
    ASSERT_TRUE(driver.Checkpoint(app.w(), wpath).ok());
    ASSERT_TRUE(driver.Checkpoint(app.h(), hpath).ok());
    // Driver destroyed here: the "machine" goes down.
  }

  // A fresh driver restores the factors and continues; the restored loss
  // must match the checkpointed one, and training must keep improving.
  DriverConfig cfg;
  cfg.num_workers = 3;
  Driver driver(cfg);
  SgdMfConfig mf;
  mf.rank = 4;
  SgdMfApp app(&driver, mf);
  ASSERT_TRUE(app.Init(data, d.rows, d.cols).ok());
  ASSERT_TRUE(driver.Restore(app.w(), wpath).ok());
  ASSERT_TRUE(driver.Restore(app.h(), hpath).ok());
  // The image is a byte-exact serialization, so the loss matches exactly.
  EXPECT_EQ(*app.EvalLoss(), loss_at_ckpt);
  for (int p = 0; p < 4; ++p) {
    ASSERT_TRUE(app.RunPass().ok());
  }
  EXPECT_LT(*app.EvalLoss(), loss_at_ckpt);
  std::remove(wpath.c_str());
  std::remove(hpath.c_str());
}

// Restore rejects an image whose layout or cell extent differs from the
// target array's with a Status, and leaves the array untouched; installing
// it would CHECK-abort on the first access past the image's last cell.
TEST(DriverFeatures, RestoreRejectsMismatchedLayoutOrExtent) {
  const std::string path = ::testing::TempDir() + "/orion_ft_small.ckpt";
  Driver driver(DriverConfig{});
  const DistArrayId small = driver.CreateDistArray("v", {40}, 2, Density::kDense);
  driver.MapCells(small, [](i64 key, f32* v) { v[0] = static_cast<f32>(key); });
  ASSERT_TRUE(driver.Checkpoint(small, path).ok());

  Driver other(DriverConfig{});
  const DistArrayId big = other.CreateDistArray("v", {80}, 2, Density::kDense);
  other.MapCells(big, [](i64 key, f32* v) { v[1] = static_cast<f32>(key); });
  const Status extent = other.Restore(big, path);
  EXPECT_EQ(extent.code(), StatusCode::kInvalidArgument) << extent;
  EXPECT_NE(extent.message().find("extent"), std::string::npos) << extent;
  EXPECT_EQ(other.Cells(big).NumCells(), 80);
  EXPECT_EQ(other.Cells(big).Get(79)[1], 79.0f);

  const DistArrayId sparse = other.CreateDistArray("v2", {40}, 2, Density::kSparse);
  ASSERT_TRUE(other.Checkpoint(sparse, path).ok());  // an image of "v2", not "v"
  EXPECT_EQ(other.Restore(big, path).code(), StatusCode::kInvalidArgument);

  Driver third(DriverConfig{});
  const DistArrayId hashed = third.CreateDistArray("v", {40}, 2, Density::kSparse);
  ASSERT_TRUE(driver.Checkpoint(small, path).ok());
  const Status layout = third.Restore(hashed, path);
  EXPECT_EQ(layout.code(), StatusCode::kInvalidArgument) << layout;
  EXPECT_NE(layout.message().find("layout"), std::string::npos) << layout;

  // The same image restores into an array of the same shape.
  Driver same(DriverConfig{});
  const DistArrayId twin = same.CreateDistArray("v", {40}, 2, Density::kDense);
  ASSERT_TRUE(same.Restore(twin, path).ok());
  EXPECT_EQ(same.Cells(twin).Get(39)[0], 39.0f);
  std::remove(path.c_str());
}

TEST(DriverFeatures, AutomaticRepartitionBetweenIncompatibleLoops) {
  // Loop A partitions `v` by dim 0 (space); loop B wants it rotated; both
  // touch the same array. The driver must gather + rescatter transparently
  // and both loops must compute correctly, repeatedly.
  const i64 kN = 40;
  const i64 kM = 30;
  DriverConfig cfg;
  cfg.num_workers = 3;
  Driver driver(cfg);
  auto grid = driver.CreateDistArray("grid", {kN, kM}, 1, Density::kSparse);
  auto rowv = driver.CreateDistArray("rowv", {kN}, 1, Density::kDense);
  {
    CellStore& cells = driver.MutableCells(grid);
    for (i64 i = 0; i < kN; ++i) {
      for (i64 j = 0; j < kM; j += 3) {
        *cells.GetOrCreate(i * kM + j) = 1.0f;
      }
    }
  }

  // Loop A: 1D over rows, rowv aligned (range partition).
  LoopSpec spec_a;
  spec_a.iter_space = grid;
  spec_a.iter_extents = {kN, kM};
  spec_a.AddAccess(rowv, "rowv", {Expr::LoopIndex(0)}, true);
  LoopKernel ka = [&](LoopContext& ctx, IdxSpan idx, const f32* value) {
    const i64 k[1] = {idx[0]};
    ctx.Mutate(rowv, k)[0] += value[0];
  };
  ParallelForOptions oa;
  oa.planner.force_space_dim = 0;
  auto loop_a = driver.Compile(spec_a, ka, oa);
  ASSERT_TRUE(loop_a.ok()) << loop_a.status();

  // Loop B: force space dim 1, so rowv must rotate (time-aligned).
  LoopSpec spec_b;
  spec_b.iter_space = grid;
  spec_b.iter_extents = {kN, kM};
  spec_b.AddAccess(rowv, "rowv", {Expr::LoopIndex(0)}, true);
  LoopKernel kb = ka;
  ParallelForOptions ob;
  ob.planner.force_space_dim = 1;
  ob.planner.force_time_dim = 0;
  ob.planner.prefer_2d = true;
  auto loop_b = driver.Compile(spec_b, kb, ob);
  ASSERT_TRUE(loop_b.ok()) << loop_b.status();
  ASSERT_EQ(driver.PlanOf(*loop_b).placements.at(rowv).scheme, PartitionScheme::kSpaceTime);

  // Alternate: each Execute must see the other loop's writes.
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(driver.Execute(*loop_a).ok());
    ASSERT_TRUE(driver.Execute(*loop_b).ok());
  }
  const CellStore& out = driver.Cells(rowv);
  const f32 per_pass = static_cast<f32>((kM + 2) / 3);
  for (i64 i = 0; i < kN; ++i) {
    EXPECT_FLOAT_EQ(out.Get(i)[0], 4.0f * per_pass) << "row " << i;
  }
}

TEST(DriverFeatures, OrderedExecutionMatchesLexicographicSerialExactly) {
  // Per-cell updates are order-sensitive (v = v * a + b): an ordered loop
  // must reproduce the lexicographic serial execution bit-for-bit.
  const i64 kN = 30;
  const i64 kM = 24;
  DriverConfig cfg;
  cfg.num_workers = 4;
  Driver driver(cfg);
  auto grid = driver.CreateDistArray("grid", {kN, kM}, 1, Density::kSparse);
  auto rows = driver.CreateDistArray("rows", {kN}, 1, Density::kDense);
  auto cols = driver.CreateDistArray("cols", {kM}, 1, Density::kDense);
  std::map<i64, f32> entries;
  {
    Rng rng(3);
    CellStore& cells = driver.MutableCells(grid);
    for (int n = 0; n < 400; ++n) {
      const i64 key = rng.NextIndex(kN) * kM + rng.NextIndex(kM);
      const f32 v = 0.5f + 0.25f * static_cast<f32>(rng.NextDouble());
      *cells.GetOrCreate(key) = v;
      entries[key] = v;
    }
  }

  LoopSpec spec;
  spec.iter_space = grid;
  spec.iter_extents = {kN, kM};
  spec.ordered = true;
  spec.AddAccess(rows, "rows", {Expr::LoopIndex(0)}, true);
  spec.AddAccess(cols, "cols", {Expr::LoopIndex(1)}, true);
  LoopKernel kernel = [&](LoopContext& ctx, IdxSpan idx, const f32* value) {
    const i64 ki[1] = {idx[0]};
    const i64 kj[1] = {idx[1]};
    f32* r = ctx.Mutate(rows, ki);
    f32* c = ctx.Mutate(cols, kj);
    r[0] = r[0] * 0.9f + value[0];  // order-sensitive
    c[0] = c[0] * 1.1f + value[0];
  };
  ParallelForOptions options;
  options.ordered = true;
  auto loop = driver.Compile(spec, kernel, options);
  ASSERT_TRUE(loop.ok()) << loop.status();
  ASSERT_TRUE(driver.PlanOf(*loop).ordered);
  ASSERT_TRUE(driver.Execute(*loop).ok());

  std::vector<f32> want_rows(static_cast<size_t>(kN), 0.0f);
  std::vector<f32> want_cols(static_cast<size_t>(kM), 0.0f);
  for (const auto& [key, v] : entries) {  // std::map: lexicographic order
    const i64 i = key / kM;
    const i64 j = key % kM;
    want_rows[static_cast<size_t>(i)] = want_rows[static_cast<size_t>(i)] * 0.9f + v;
    want_cols[static_cast<size_t>(j)] = want_cols[static_cast<size_t>(j)] * 1.1f + v;
  }
  const CellStore& r = driver.Cells(rows);
  for (i64 i = 0; i < kN; ++i) {
    EXPECT_FLOAT_EQ(r.Get(i)[0], want_rows[static_cast<size_t>(i)]) << "row " << i;
  }
  const CellStore& c = driver.Cells(cols);
  for (i64 j = 0; j < kM; ++j) {
    EXPECT_FLOAT_EQ(c.Get(j)[0], want_cols[static_cast<size_t>(j)]) << "col " << j;
  }
}

TEST(DriverFeatures, ThreeDTensorWithMixedPlacements) {
  // CP-decomposition-shaped access: a 3-D sparse tensor, updates to A[i]
  // and B[j] in place, and the third factor C[k] through a buffer. The
  // planner must pick a 2D schedule over dims (0, 1) with C
  // replicated/server.
  const i64 kI = 20;
  const i64 kJ = 18;
  const i64 kK = 6;
  DriverConfig cfg;
  cfg.num_workers = 3;
  Driver driver(cfg);
  auto tensor = driver.CreateDistArray("tensor", {kI, kJ, kK}, 1, Density::kSparse);
  auto a = driver.CreateDistArray("A", {kI}, 1, Density::kDense);
  auto b = driver.CreateDistArray("B", {kJ}, 1, Density::kDense);
  auto c = driver.CreateDistArray("C", {kK}, 1, Density::kDense);
  driver.RegisterBuffer(c, 1, MakeAddApplyFn());
  {
    Rng rng(5);
    CellStore& cells = driver.MutableCells(tensor);
    for (int n = 0; n < 500; ++n) {
      const i64 key = (rng.NextIndex(kI) * kJ + rng.NextIndex(kJ)) * kK + rng.NextIndex(kK);
      *cells.GetOrCreate(key) = 1.0f;
    }
  }

  LoopSpec spec;
  spec.iter_space = tensor;
  spec.iter_extents = {kI, kJ, kK};
  spec.AddAccess(a, "A", {Expr::LoopIndex(0)}, true);
  spec.AddAccess(b, "B", {Expr::LoopIndex(1)}, true);
  spec.AddAccess(c, "C", {Expr::LoopIndex(2)}, false);
  spec.AddAccess(c, "C", {Expr::LoopIndex(2)}, true, /*buffered=*/true);
  LoopKernel kernel = [&](LoopContext& ctx, IdxSpan idx, const f32* value) {
    const i64 ki[1] = {idx[0]};
    const i64 kj[1] = {idx[1]};
    const i64 kk[1] = {idx[2]};
    ctx.Mutate(a, ki)[0] += value[0];
    ctx.Mutate(b, kj)[0] += value[0];
    const f32 upd = value[0];
    ctx.BufferUpdate(c, kk, &upd);
  };
  auto loop = driver.Compile(spec, kernel, {});
  ASSERT_TRUE(loop.ok()) << loop.status();
  const auto& plan = driver.PlanOf(*loop);
  EXPECT_EQ(plan.form, ParallelForm::k2D);
  EXPECT_TRUE((plan.space_dim == 0 && plan.time_dim == 1) ||
              (plan.space_dim == 1 && plan.time_dim == 0))
      << plan.ToString();
  ASSERT_TRUE(driver.Execute(*loop).ok());

  // Totals must be conserved everywhere.
  f64 total = 0.0;
  driver.MutableCells(tensor).ForEach([&](i64, f32* v) { total += v[0]; });
  f64 a_sum = 0.0;
  driver.MutableCells(a).ForEach([&](i64, f32* v) { a_sum += v[0]; });
  f64 b_sum = 0.0;
  driver.MutableCells(b).ForEach([&](i64, f32* v) { b_sum += v[0]; });
  f64 c_sum = 0.0;
  driver.MutableCells(c).ForEach([&](i64, f32* v) { c_sum += v[0]; });
  EXPECT_DOUBLE_EQ(a_sum, total);
  EXPECT_DOUBLE_EQ(b_sum, total);
  EXPECT_DOUBLE_EQ(c_sum, total);
}

TEST(DriverFeatures, MoreWorkersThanRows) {
  DriverConfig cfg;
  cfg.num_workers = 8;  // only 3 rows of data
  Driver driver(cfg);
  auto data = driver.CreateDistArray("data", {3, 50}, 1, Density::kSparse);
  auto sums = driver.CreateDistArray("sums", {3}, 1, Density::kDense);
  {
    CellStore& cells = driver.MutableCells(data);
    for (i64 i = 0; i < 3; ++i) {
      for (i64 j = 0; j < 50; ++j) {
        *cells.GetOrCreate(i * 50 + j) = 1.0f;
      }
    }
  }
  LoopSpec spec;
  spec.iter_space = data;
  spec.iter_extents = {3, 50};
  spec.AddAccess(sums, "sums", {Expr::LoopIndex(0)}, true);
  LoopKernel kernel = [&](LoopContext& ctx, IdxSpan idx, const f32* value) {
    const i64 k[1] = {idx[0]};
    ctx.Mutate(sums, k)[0] += value[0];
  };
  auto loop = driver.Compile(spec, kernel, {});
  ASSERT_TRUE(loop.ok()) << loop.status();
  ASSERT_TRUE(driver.Execute(*loop).ok());
  for (i64 i = 0; i < 3; ++i) {
    EXPECT_FLOAT_EQ(driver.Cells(sums).Get(i)[0], 50.0f);
  }
}

TEST(DriverFeatures, EmptyIterationSpaceFailsCompile) {
  DriverConfig cfg;
  cfg.num_workers = 2;
  Driver driver(cfg);
  auto data = driver.CreateDistArray("data", {10, 10}, 1, Density::kSparse);
  auto out = driver.CreateDistArray("out", {10}, 1, Density::kDense);
  LoopSpec spec;
  spec.iter_space = data;
  spec.iter_extents = {10, 10};
  spec.AddAccess(out, "out", {Expr::LoopIndex(0)}, true);
  LoopKernel kernel = [](LoopContext&, IdxSpan, const f32*) {};
  // Dependence-free loop: compiles fine even with no cells (histograms fall
  // back to equal-width splits).
  auto loop = driver.Compile(spec, kernel, {});
  ASSERT_TRUE(loop.ok()) << loop.status();
  EXPECT_TRUE(driver.Execute(*loop).ok());
}

TEST(DriverFeatures, MultipleAccumulators) {
  DriverConfig cfg;
  cfg.num_workers = 3;
  Driver driver(cfg);
  auto data = driver.CreateDistArray("data", {60}, 1, Density::kSparse);
  {
    CellStore& cells = driver.MutableCells(data);
    for (i64 i = 0; i < 60; ++i) {
      *cells.GetOrCreate(i) = static_cast<f32>(i);
    }
  }
  int acc_sum = driver.CreateAccumulator();
  int acc_max_count = driver.CreateAccumulator();
  LoopSpec spec;
  spec.iter_space = data;
  spec.iter_extents = {60};
  LoopKernel kernel = [&](LoopContext& ctx, IdxSpan idx, const f32* value) {
    ctx.AccumulatorAdd(acc_sum, value[0]);
    if (value[0] >= 30.0f) {
      ctx.AccumulatorAdd(acc_max_count, 1.0);
    }
  };
  auto loop = driver.Compile(spec, kernel, {});
  ASSERT_TRUE(loop.ok()) << loop.status();
  ASSERT_TRUE(driver.Execute(*loop).ok());
  EXPECT_DOUBLE_EQ(driver.AccumulatorValue(acc_sum), 59.0 * 60.0 / 2.0);
  EXPECT_DOUBLE_EQ(driver.AccumulatorValue(acc_max_count), 30.0);
  driver.ResetAccumulator(acc_sum);
  EXPECT_DOUBLE_EQ(driver.AccumulatorValue(acc_sum), 0.0);
  EXPECT_DOUBLE_EQ(driver.AccumulatorValue(acc_max_count), 30.0);
}

TEST(DriverFeatures, RandomizeDimPreservesCellsAndSmoothsSkew) {
  DriverConfig cfg;
  cfg.num_workers = 2;
  Driver driver(cfg);
  auto data = driver.CreateDistArray("data", {1000, 4}, 1, Density::kSparse);
  Rng rng(8);
  f64 total = 0.0;
  {
    CellStore& cells = driver.MutableCells(data);
    for (int n = 0; n < 3000; ++n) {
      const i64 i = rng.NextZipf(1000, 1.2);  // heavy head
      const i64 j = rng.NextIndex(4);
      f32* v = cells.GetOrCreate(i * 4 + j);
      if (v[0] == 0.0f) {
        v[0] = 1.0f;
        total += 1.0;
      }
    }
  }
  const i64 before_cells = driver.Cells(data).NumCells();
  driver.RandomizeDim(data, 0, /*seed=*/77);
  const CellStore& after = driver.Cells(data);
  EXPECT_EQ(after.NumCells(), before_cells);
  f64 after_total = 0.0;
  i64 head = 0;
  const KeySpace& ks = driver.Meta(data).key_space;
  after.ForEachConst([&](i64 key, const f32* v) {
    after_total += v[0];
    if (ks.Coord(key, 0) < 100) {
      ++head;
    }
  });
  EXPECT_DOUBLE_EQ(after_total, total);
  // Zipf(1.2) puts the majority of cells in the first 10% of rows; after
  // randomization roughly 10% should be there.
  EXPECT_LT(head, before_cells / 4);
}

}  // namespace
}  // namespace orion
