// Placement between loops: compiling a loop moves no data that is already
// where the loop needs it. A second loop over the same iteration space with
// the same grid adds no fabric traffic at compile time; one whose grid or
// `ordered` flag differs re-places the data and still computes exactly what
// the serial run computes. Values written on the driver (MutableCells) or on
// the workers (a Mutate in a kernel) are seen by the next pass either way.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "src/apps/sgd_mf.h"
#include "src/runtime/driver.h"

namespace orion {
namespace {

constexpr i64 kRows = 30;
constexpr i64 kCols = 24;

// Every cell of an array, by key.
std::map<i64, std::vector<f32>> CellsOf(Driver* driver, DistArrayId id) {
  const CellStore& c = driver->Cells(id);
  std::map<i64, std::vector<f32>> cells;
  c.ForEachConst([&](i64 key, const f32* v) { cells[key].assign(v, v + c.value_dim()); });
  return cells;
}

// FNV-1a over (key, value bits) of every cell in key order.
u64 Fnv1a(Driver* driver, DistArrayId id) {
  u64 h = 1469598103934665603ULL;
  auto mix = [&h](const void* p, size_t n) {
    const unsigned char* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h = (h ^ b[i]) * 1099511628211ULL;
    }
  };
  for (const auto& [key, v] : CellsOf(driver, id)) {
    mix(&key, sizeof(key));
    mix(v.data(), v.size() * sizeof(f32));
  }
  return h;
}

// A sparse kRows x kCols iteration space with small integer values (sums of
// them are exact in any order), and two dense factor arrays.
struct Arrays {
  DistArrayId data;
  DistArrayId w;
  DistArrayId h;
};

Arrays MakeArrays(Driver* driver) {
  Arrays a;
  a.data = driver->CreateDistArray("data", {kRows, kCols}, 1, Density::kSparse);
  a.w = driver->CreateDistArray("W", {kRows}, 2, Density::kDense);
  a.h = driver->CreateDistArray("H", {kCols}, 2, Density::kDense);
  Rng rng(17);
  CellStore& cells = driver->MutableCells(a.data);
  for (int n = 0; n < 400; ++n) {
    const i64 i = static_cast<i64>(rng.NextBounded(static_cast<u64>(kRows)));
    const i64 j = static_cast<i64>(rng.NextBounded(static_cast<u64>(kCols)));
    *cells.GetOrCreate(i * kCols + j) = static_cast<f32>(1 + (i + 2 * j) % 4);
  }
  driver->MapCells(a.w, [](i64 key, f32* v) {
    v[0] = 0.1f + 0.01f * static_cast<f32>(key);
    v[1] = 0.2f;
  });
  driver->MapCells(a.h, [](i64 key, f32* v) {
    v[0] = 0.3f;
    v[1] = 0.1f + 0.02f * static_cast<f32>(key);
  });
  return a;
}

// An SGD step on W[i] and H[j] per rating: dependence-carrying in both
// dimensions, so an ordered loop runs as a wavefront and must reproduce the
// serial lexicographic order exactly.
LoopSpec SgdSpec(const Arrays& a, bool ordered) {
  LoopSpec spec;
  spec.iter_space = a.data;
  spec.iter_extents = {kRows, kCols};
  spec.ordered = ordered;
  spec.AddAccess(a.w, "W", {Expr::LoopIndex(0)}, /*is_write=*/true);
  spec.AddAccess(a.h, "H", {Expr::LoopIndex(1)}, /*is_write=*/true);
  return spec;
}

LoopKernel SgdKernel(const Arrays& a) {
  return [a](LoopContext& ctx, IdxSpan idx, const f32* value) {
    const i64 ki[1] = {idx[0]};
    const i64 kj[1] = {idx[1]};
    f32* wi = ctx.Mutate(a.w, ki);
    f32* hj = ctx.Mutate(a.h, kj);
    const f32 err = value[0] - (wi[0] * hj[0] + wi[1] * hj[1]);
    for (int r = 0; r < 2; ++r) {
      const f32 wr = wi[r];
      wi[r] += 0.01f * err * hj[r];
      hj[r] += 0.01f * err * wr;
    }
  };
}

// Options that give a loop `train`'s grid, as SgdMfApp does for its eval loop.
ParallelForOptions SameGridAs(const ParallelizationPlan& train) {
  ParallelForOptions options;
  options.planner.force_space_dim = train.space_dim;
  options.planner.force_time_dim = train.time_dim;
  options.planner.prefer_2d = train.form != ParallelForm::k1D;
  return options;
}

DriverConfig Config() {
  DriverConfig cfg;
  cfg.num_workers = 4;
  cfg.seed = 5;
  return cfg;
}

TEST(PlacementDeathTest, MutateOfTheIterationSpaceDies) {
  EXPECT_DEATH(
      {
        Driver driver(Config());
        const Arrays a = MakeArrays(&driver);
        LoopSpec spec = SgdSpec(a, false);
        LoopKernel kernel = [a](LoopContext& ctx, IdxSpan idx, const f32*) {
          ctx.Mutate(a.data, idx)[0] = 0.0f;
        };
        auto loop = driver.Compile(spec, kernel);
        ORION_CHECK_OK(loop.status());
        ORION_CHECK_OK(driver.Execute(*loop));
      },
      "Mutate on the iteration space");
}

// The eval loop of SGD-MF: reads both factors, sums the squared error.
TEST(Placement, SameGridSecondCompileMovesNothing) {
  for (const bool ordered : {false, true}) {
    Driver driver(Config());
    const Arrays a = MakeArrays(&driver);
    auto train = driver.Compile(SgdSpec(a, ordered), SgdKernel(a));
    ASSERT_TRUE(train.ok()) << train.status();
    if (!ordered) {
      // W and the rotated H are back at their initial owners after an
      // unordered pass, holding values the master has not seen. (A
      // wavefront pass ends with H at the master, so the next pass
      // re-scatters it either way.)
      ASSERT_TRUE(driver.Execute(*train).ok());
    }
    const int acc = driver.CreateAccumulator();
    LoopSpec eval;
    eval.iter_space = a.data;
    eval.iter_extents = {kRows, kCols};
    eval.ordered = ordered;
    eval.AddAccess(a.w, "W", {Expr::LoopIndex(0)}, /*is_write=*/false);
    eval.AddAccess(a.h, "H", {Expr::LoopIndex(1)}, /*is_write=*/false);
    LoopKernel eval_kernel = [a, acc](LoopContext& ctx, IdxSpan idx, const f32* value) {
      const i64 ki[1] = {idx[0]};
      const i64 kj[1] = {idx[1]};
      const f32* wi = ctx.Read(a.w, ki);
      const f32* hj = ctx.Read(a.h, kj);
      const f64 e = static_cast<f64>(value[0]) - static_cast<f64>(wi[0] * hj[0] + wi[1] * hj[1]);
      ctx.AccumulatorAdd(acc, e * e);
    };

    const FabricStats before = driver.NetStats();
    auto loop = driver.Compile(eval, eval_kernel, SameGridAs(driver.PlanOf(*train)));
    ASSERT_TRUE(loop.ok()) << loop.status();
    const FabricStats after = driver.NetStats();
    EXPECT_EQ(after.messages_sent, before.messages_sent) << "ordered " << ordered;
    EXPECT_EQ(after.bytes_sent, before.bytes_sent) << "ordered " << ordered;
    EXPECT_EQ(driver.PlanOf(*loop).placements.at(a.w).scheme,
              driver.PlanOf(*train).placements.at(a.w).scheme);
    ASSERT_TRUE(driver.Execute(*loop).ok());
    ASSERT_TRUE(driver.Execute(*train).ok());
  }
}

// SGD-MF's train, eval, train, eval sequence, pinned: the eval compile that
// no longer round-trips the ratings and factors leaves every loss and factor
// bit exactly where the gather-and-re-scatter path left them.
struct MfPins {
  f64 loss1;
  f64 loss2;
  u64 w_fnv;
  u64 h_fnv;
};

MfPins RunMfTrainEvalTrain(bool ordered) {
  RatingsConfig d;
  d.rows = 120;
  d.cols = 90;
  d.nnz = 3000;
  d.true_rank = 4;
  d.seed = 23;
  DriverConfig cfg;
  cfg.num_workers = 4;
  cfg.seed = 9;
  Driver driver(cfg);
  SgdMfConfig mf;
  mf.rank = 4;
  mf.step_size = 0.02f;
  mf.loop_options.ordered = ordered;
  SgdMfApp app(&driver, mf);
  EXPECT_TRUE(app.Init(GenerateRatings(d), d.rows, d.cols).ok());
  MfPins pins{};
  EXPECT_TRUE(app.RunPass().ok());
  auto loss = app.EvalLoss();
  EXPECT_TRUE(loss.ok());
  pins.loss1 = *loss;
  EXPECT_TRUE(app.RunPass().ok());
  loss = app.EvalLoss();
  EXPECT_TRUE(loss.ok());
  pins.loss2 = *loss;
  pins.w_fnv = Fnv1a(&driver, app.w());
  pins.h_fnv = Fnv1a(&driver, app.h());
  return pins;
}

void ExpectPins(const MfPins& got, const MfPins& want) {
  EXPECT_EQ(got.loss1, want.loss1) << std::hexfloat << got.loss1;
  EXPECT_EQ(got.loss2, want.loss2) << std::hexfloat << got.loss2;
  EXPECT_EQ(got.w_fnv, want.w_fnv);
  EXPECT_EQ(got.h_fnv, want.h_fnv);
}

TEST(Placement, SgdMfRotationTrainEvalTrainIsPinned) {
  ExpectPins(RunMfTrainEvalTrain(false), {0x1.bac5c4fa37096p+11, 0x1.57528631b0352p+11,
                                          2349631667853313562ULL, 7008355401821852869ULL});
}

TEST(Placement, SgdMfWavefrontTrainEvalTrainIsPinned) {
  ExpectPins(RunMfTrainEvalTrain(true), {0x1.2118a6b397955p+14, 0x1.62a866b0f01eap+11,
                                         3293800795917179939ULL, 10640851987470410855ULL});
}

// A loop whose grid or order differs from the one the data was scattered
// under re-places it. After an unordered pass, an ordered loop (a wavefront,
// bit-identical to the serial lexicographic run) runs once; its result must
// equal ExecuteSerial's on a second driver that ran the same unordered pass.
enum class Change { kOrder, kGrid };

class PlacementReplaceTest : public ::testing::TestWithParam<Change> {};

TEST_P(PlacementReplaceTest, ReplacedLoopMatchesSerial) {
  const Change change = GetParam();
  // The second loop: ordered; for kGrid also with space and time swapped.
  const bool first_ordered = change == Change::kGrid;
  auto second_options = [&](const ParallelizationPlan& first) {
    ParallelForOptions options;
    options.planner.prefer_2d = true;
    if (change == Change::kGrid) {
      options.planner.force_space_dim = first.time_dim;
      options.planner.force_time_dim = first.space_dim;
    }
    return options;
  };

  Driver driver(Config());
  const Arrays a = MakeArrays(&driver);
  auto first = driver.Compile(SgdSpec(a, first_ordered), SgdKernel(a));
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(driver.Execute(*first).ok());
  const FabricStats before = driver.NetStats();
  auto second = driver.Compile(SgdSpec(a, true), SgdKernel(a),
                               second_options(driver.PlanOf(*first)));
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_GT(driver.NetStats().bytes_sent, before.bytes_sent) << "nothing was re-placed";
  const ParallelizationPlan& plan = driver.PlanOf(*second);
  EXPECT_EQ(plan.form, ParallelForm::k2D);
  EXPECT_TRUE(plan.ordered);
  if (change == Change::kGrid) {
    EXPECT_EQ(plan.space_dim, driver.PlanOf(*first).time_dim);
  }
  ASSERT_TRUE(driver.Execute(*second).ok());

  Driver serial(Config());
  const Arrays s = MakeArrays(&serial);
  auto serial_first = serial.Compile(SgdSpec(s, first_ordered), SgdKernel(s));
  ASSERT_TRUE(serial_first.ok());
  ASSERT_TRUE(serial.Execute(*serial_first).ok());
  ASSERT_TRUE(serial.ExecuteSerial(SgdSpec(s, true), SgdKernel(s)).ok());

  EXPECT_EQ(CellsOf(&driver, a.w), CellsOf(&serial, s.w));
  EXPECT_EQ(CellsOf(&driver, a.h), CellsOf(&serial, s.h));
}

INSTANTIATE_TEST_SUITE_P(OrderOrGrid, PlacementReplaceTest,
                         ::testing::Values(Change::kOrder, Change::kGrid),
                         [](const auto& info) {
                           return info.param == Change::kOrder ? "Order" : "Grid";
                         });

// A row sum: W[i][0] += value for every cell of row i, counted in an
// accumulator too. Integer values keep every sum exact.
LoopSpec RowSumSpec(const Arrays& a) {
  LoopSpec spec;
  spec.iter_space = a.data;
  spec.iter_extents = {kRows, kCols};
  spec.AddAccess(a.w, "W", {Expr::LoopIndex(0)}, /*is_write=*/true);
  return spec;
}

LoopKernel RowSumKernel(const Arrays& a, int acc) {
  return [a, acc](LoopContext& ctx, IdxSpan idx, const f32* value) {
    const i64 ki[1] = {idx[0]};
    ctx.Mutate(a.w, ki)[0] += value[0];
    ctx.AccumulatorAdd(acc, static_cast<f64>(value[0]));
  };
}

TEST(Placement, MutableCellsOfAScatteredIterationSpaceReachesTheWorkers) {
  Driver driver(Config());
  const Arrays a = MakeArrays(&driver);
  const int acc = driver.CreateAccumulator();
  auto loop = driver.Compile(RowSumSpec(a), RowSumKernel(a, acc));
  ASSERT_TRUE(loop.ok()) << loop.status();
  ASSERT_TRUE(driver.Execute(*loop).ok());
  const f64 first = driver.AccumulatorValue(acc);
  ASSERT_GT(first, 0.0);

  driver.MapCells(a.data, [](i64, f32* v) { v[0] *= 3.0f; });
  driver.ResetAccumulator(acc);
  ASSERT_TRUE(driver.Execute(*loop).ok());
  EXPECT_EQ(driver.AccumulatorValue(acc), 3.0 * first);
}

TEST(Placement, DenseArrayMutatedOnWorkersIsReadByTheNextSameGridLoop) {
  Driver driver(Config());
  const Arrays a = MakeArrays(&driver);
  driver.MapCells(a.w, [](i64, f32* v) { v[0] = 0.0f; });
  const auto data = CellsOf(&driver, a.data);
  const int sums = driver.CreateAccumulator();
  auto rows = driver.Compile(RowSumSpec(a), RowSumKernel(a, sums));
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_TRUE(driver.Execute(*rows).ok());
  ASSERT_TRUE(driver.Execute(*rows).ok());

  // Reads W[i][0] once per cell, from where the row-sum loop left W.
  const int reads = driver.CreateAccumulator();
  LoopSpec spec;
  spec.iter_space = a.data;
  spec.iter_extents = {kRows, kCols};
  spec.AddAccess(a.w, "W", {Expr::LoopIndex(0)}, /*is_write=*/false);
  LoopKernel kernel = [a, reads](LoopContext& ctx, IdxSpan idx, const f32*) {
    const i64 ki[1] = {idx[0]};
    ctx.AccumulatorAdd(reads, static_cast<f64>(ctx.Read(a.w, ki)[0]));
  };
  ParallelForOptions options = SameGridAs(driver.PlanOf(*rows));
  options.planner.replicate_threshold_floats = 0;  // keep W range-partitioned
  const FabricStats before = driver.NetStats();
  auto read = driver.Compile(spec, kernel, options);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(driver.NetStats().bytes_sent, before.bytes_sent);
  ASSERT_EQ(driver.PlanOf(*read).placements.at(a.w).scheme,
            driver.PlanOf(*rows).placements.at(a.w).scheme);
  ASSERT_TRUE(driver.Execute(*read).ok());

  // Two passes put twice each row's sum into W[i][0]; every value is a
  // small integer, so each sum is exact in any order.
  std::map<i64, f64> row_sum;
  for (const auto& [key, v] : data) {
    row_sum[key / kCols] += static_cast<f64>(v[0]);
  }
  f64 want_reads = 0.0;
  for (const auto& [key, v] : data) {
    want_reads += 2.0 * row_sum[key / kCols];
  }
  EXPECT_EQ(driver.AccumulatorValue(reads), want_reads);
  const auto w = CellsOf(&driver, a.w);
  for (i64 row = 0; row < kRows; ++row) {
    EXPECT_EQ(static_cast<f64>(w.at(row)[0]), 2.0 * row_sum[row]) << "row " << row;
  }
}

}  // namespace
}  // namespace orion
