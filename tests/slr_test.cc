// SLR: 1D data parallelism with server-hosted weights; all three prefetch
// modes must produce the same math (paper Sec. 6.3), and the compiled
// prefetch slice must request what kernel replay requests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/apps/slr.h"

namespace orion {
namespace {

SparseLrConfig SmallData() {
  SparseLrConfig d;
  d.num_samples = 2000;
  d.num_features = 3000;
  d.nnz_per_sample = 12;
  d.seed = 21;
  return d;
}

TEST(Slr, PlannerPicks1DWithServerWeights) {
  DriverConfig cfg;
  cfg.num_workers = 4;
  Driver driver(cfg);
  SlrApp app(&driver, SlrConfig{});
  auto data = GenerateSparseLr(SmallData());
  ASSERT_TRUE(app.Init(data, 3000).ok());
  EXPECT_EQ(app.train_plan().form, ParallelForm::k1D);
  EXPECT_EQ(app.train_plan().placements.at(app.weights()).scheme, PartitionScheme::kServer);
}

TEST(Slr, LossDecreasesAndTracksSerial) {
  auto data = GenerateSparseLr(SmallData());

  SerialSlr serial(data, 3000, SlrConfig{});
  f64 serial_first = 0.0;
  f64 serial_last = 0.0;
  for (int p = 0; p < 6; ++p) {
    const f64 loss = serial.RunPass();
    if (p == 0) {
      serial_first = loss;
    }
    serial_last = loss;
  }
  EXPECT_LT(serial_last, serial_first);

  DriverConfig cfg;
  cfg.num_workers = 4;
  Driver driver(cfg);
  SlrApp app(&driver, SlrConfig{});
  ASSERT_TRUE(app.Init(data, 3000).ok());
  f64 orion_first = 0.0;
  f64 orion_last = 0.0;
  for (int p = 0; p < 6; ++p) {
    ASSERT_TRUE(app.RunPass().ok());
    if (p == 0) {
      orion_first = app.LastPassLogLoss();
    }
    orion_last = app.LastPassLogLoss();
  }
  // Data parallelism: the first sync round of the first pass predicts with
  // w = 0 everywhere, so the first-pass loss sits near log(2) (serial SGD,
  // updating in place, already beats that within the pass).
  EXPECT_GT(orion_first, serial_first);
  EXPECT_LT(orion_last, orion_first);
  // Data parallelism converges somewhat slower than serial, but must be in
  // the same regime.
  EXPECT_LT(orion_last, serial_first * 0.999);
}

TEST(Slr, PrefetchModesAgreeExactlySingleWorker) {
  // With one worker, sync rounds are sequential and deterministic: the three
  // prefetch modes must produce bit-identical training trajectories.
  auto data = GenerateSparseLr(SmallData());
  std::vector<f64> final_losses;
  for (PrefetchMode mode :
       {PrefetchMode::kBulk, PrefetchMode::kCached, PrefetchMode::kPerKey}) {
    DriverConfig cfg;
    cfg.num_workers = 1;
    Driver driver(cfg);
    SlrConfig slr;
    slr.loop_options.prefetch = mode;
    SlrApp app(&driver, slr);
    ASSERT_TRUE(app.Init(data, 3000).ok());
    for (int p = 0; p < 3; ++p) {
      ASSERT_TRUE(app.RunPass().ok());
    }
    final_losses.push_back(app.LastPassLogLoss());
  }
  EXPECT_DOUBLE_EQ(final_losses[0], final_losses[1]);
  EXPECT_DOUBLE_EQ(final_losses[0], final_losses[2]);
}

TEST(Slr, PrefetchModesAgreeStatisticallyMultiWorker) {
  // With several workers, flush arrival order at the server is racy (as in
  // any data-parallel system); trajectories agree only statistically.
  auto data = GenerateSparseLr(SmallData());
  std::vector<f64> final_losses;
  for (PrefetchMode mode :
       {PrefetchMode::kBulk, PrefetchMode::kCached, PrefetchMode::kPerKey}) {
    DriverConfig cfg;
    cfg.num_workers = 2;
    Driver driver(cfg);
    SlrConfig slr;
    slr.loop_options.prefetch = mode;
    SlrApp app(&driver, slr);
    ASSERT_TRUE(app.Init(data, 3000).ok());
    for (int p = 0; p < 3; ++p) {
      ASSERT_TRUE(app.RunPass().ok());
    }
    final_losses.push_back(app.LastPassLogLoss());
  }
  EXPECT_NEAR(final_losses[0], final_losses[1], 0.01);
  EXPECT_NEAR(final_losses[0], final_losses[2], 0.01);
}

// SLR's training loop compiled one of two ways over the same data: from
// declared Expr::Runtime accesses, so kernel replay records the weight keys,
// or from its statement body, so the compiled slice records them. Returns
// the fabric's messages and bytes of each pass and the final weights.
struct SlrLoopRun {
  std::vector<u64> messages;
  std::vector<u64> bytes;
  std::vector<f32> weights;
};

SlrLoopRun RunSlrLoop(const std::vector<SparseSample>& data, i64 num_features, bool from_body,
                      PrefetchMode prefetch, int rounds, int workers) {
  constexpr int kMaxNnz = 16;
  constexpr int kPasses = 3;
  DriverConfig cfg;
  cfg.num_workers = workers;
  cfg.seed = 3;
  Driver driver(cfg);
  const i64 num_samples = static_cast<i64>(data.size());
  const DistArrayId samples =
      driver.CreateDistArray("samples", {num_samples}, 2 + 2 * kMaxNnz, Density::kSparse);
  const DistArrayId weights =
      driver.CreateDistArray("weights", {num_features}, 1, Density::kDense);
  {
    CellStore& cells = driver.MutableCells(samples);
    for (i64 s = 0; s < num_samples; ++s) {
      const SparseSample& sample = data[static_cast<size_t>(s)];
      f32* cell = cells.GetOrCreate(s);
      const int n = std::min<int>(static_cast<int>(sample.features.size()), kMaxNnz);
      cell[0] = sample.label;
      cell[1] = static_cast<f32>(n);
      for (int f = 0; f < n; ++f) {
        cell[2 + 2 * f] = static_cast<f32>(sample.features[static_cast<size_t>(f)].first);
        cell[3 + 2 * f] = sample.features[static_cast<size_t>(f)].second;
      }
    }
  }
  driver.RegisterBuffer(weights, 1, MakeAddApplyFn());
  const LoopKernel kernel = [weights](LoopContext& ctx, IdxSpan, const f32* value) {
    const int n = static_cast<int>(value[1]);
    f64 margin = 0.0;
    for (int f = 0; f < n; ++f) {
      const i64 id[1] = {static_cast<i64>(value[2 + 2 * f])};
      margin += static_cast<f64>(ctx.Read(weights, id)[0]) * static_cast<f64>(value[3 + 2 * f]);
    }
    const f32 err = static_cast<f32>(1.0 / (1.0 + std::exp(-margin))) - value[0];
    for (int f = 0; f < n; ++f) {
      const i64 id[1] = {static_cast<i64>(value[2 + 2 * f])};
      const f32 update = -0.05f * err * value[3 + 2 * f];
      ctx.BufferUpdate(weights, id, &update);
    }
  };
  ParallelForOptions options;
  options.planner.replicate_threshold_floats = 0;  // server-hosted weights
  options.prefetch = prefetch;
  options.server_sync_rounds = rounds;
  StatusOr<i32> loop = Status::Internal("unset");
  if (from_body) {
    loop = driver.CompileBody(samples, {num_samples}, /*ordered=*/false, SlrLoopBody(weights),
                              kernel, options);
  } else {
    LoopSpec spec;
    spec.iter_space = samples;
    spec.iter_extents = {num_samples};
    spec.AddAccess(weights, "weights", {Expr::Runtime("feature_id")}, /*is_write=*/false);
    spec.AddAccess(weights, "weights", {Expr::Runtime("feature_id")}, /*is_write=*/true,
                   /*buffered=*/true);
    loop = driver.Compile(spec, kernel, options);
  }
  EXPECT_TRUE(loop.ok()) << loop.status();
  EXPECT_EQ(driver.PlanOf(*loop).placements.at(weights).scheme, PartitionScheme::kServer);
  SlrLoopRun run;
  for (int p = 0; p < kPasses; ++p) {
    const FabricStats before = driver.NetStats();
    EXPECT_TRUE(driver.Execute(*loop).ok());
    const FabricStats after = driver.NetStats();
    run.messages.push_back(after.messages_sent - before.messages_sent);
    run.bytes.push_back(after.bytes_sent - before.bytes_sent);
  }
  const CellStore& w = driver.Cells(weights);
  for (i64 f = 0; f < num_features; ++f) {
    const f32* v = w.Find(f);
    run.weights.push_back(v != nullptr ? v[0] : 0.0f);
  }
  return run;
}

TEST(Slr, CompiledSliceRequestsWhatKernelReplayRequests) {
  // The compiled slice must record exactly the key lists kernel replay
  // does: the same messages and bytes every pass, in both prefetch modes
  // that record, at one sync round and at eight. At one worker the rounds
  // run in a fixed order, so the trained weights are bit-identical too.
  auto data = GenerateSparseLr(SmallData());
  for (const PrefetchMode mode : {PrefetchMode::kBulk, PrefetchMode::kCached}) {
    for (const int rounds : {1, 8}) {
      for (const int workers : {1, 4}) {
        SCOPED_TRACE(::testing::Message() << "mode " << static_cast<int>(mode) << ", rounds "
                                          << rounds << ", workers " << workers);
        const SlrLoopRun replay = RunSlrLoop(data, 3000, /*from_body=*/false, mode, rounds,
                                             workers);
        const SlrLoopRun slice = RunSlrLoop(data, 3000, /*from_body=*/true, mode, rounds,
                                            workers);
        EXPECT_EQ(replay.messages, slice.messages);
        EXPECT_EQ(replay.bytes, slice.bytes);
        if (workers == 1) {
          ASSERT_EQ(replay.weights.size(), slice.weights.size());
          EXPECT_EQ(0, std::memcmp(replay.weights.data(), slice.weights.data(),
                                   replay.weights.size() * sizeof(f32)));
        }
      }
    }
  }
}

TEST(Slr, AdaRevRuns) {
  auto data = GenerateSparseLr(SmallData());
  DriverConfig cfg;
  cfg.num_workers = 4;
  Driver driver(cfg);
  SlrConfig slr;
  slr.adarev = true;
  SlrApp app(&driver, slr);
  ASSERT_TRUE(app.Init(data, 3000).ok());
  f64 first = 0.0;
  f64 last = 0.0;
  for (int p = 0; p < 6; ++p) {
    ASSERT_TRUE(app.RunPass().ok());
    if (p == 0) {
      first = app.LastPassLogLoss();
    }
    last = app.LastPassLogLoss();
  }
  EXPECT_LT(last, first);
}

}  // namespace
}  // namespace orion
