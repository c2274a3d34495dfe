// Comm/compute overlap engine: pass wall time with the engine off vs on,
// under a cost model that charges real time at the sender (so serialized
// communication actually stalls the pass the way a real link would).
//
// Two scenarios:
//   rotation+server — a 2D unordered loop that both rotates a kSpaceTime
//     array every step *and* prefetches a server-hosted table (non-aligned
//     i+j subscript): the overlap engine hides the prefetch round trip under
//     the previous step's compute and moves rotated-partition/flush sends
//     onto the comm thread.
//   sgd_mf — plain rotation (no server arrays): eager rotation only.
//
// Every configuration must be bit-for-bit identical to the synchronous run;
// a mismatch is the only failure (exit 1). Timings are written to
// BENCH_overlap.json for the CI smoke step.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/sgd_mf.h"
#include "src/runtime/driver.h"

namespace orion {
namespace {

constexpr int kWorkers = 4;

std::map<i64, std::vector<f32>> Snapshot(Driver* d, DistArrayId id) {
  std::map<i64, std::vector<f32>> out;
  const CellStore& c = d->Cells(id);
  c.ForEachConst([&](i64 key, const f32* v) {
    out[key].assign(v, v + c.value_dim());
  });
  return out;
}

bool BitIdentical(const std::map<i64, std::vector<f32>>& a,
                  const std::map<i64, std::vector<f32>>& b) {
  return a == b;  // f32 payloads are finite; == is bitwise here
}

// The cost model that makes serialized communication hurt: every message
// sleeps ~latency + bytes/bandwidth at the sender. The latency is chosen so
// a step's communication is comparable to its compute — the regime the
// overlap engine targets (pure latency-bound passes are limited by the
// transfer dependency chain itself, which no sender-side change shortens).
NetCostModel SlowLink() {
  NetCostModel m;
  m.latency_us = 1000.0;
  m.bandwidth_bps = 2e9;
  m.charge_real_time = true;
  return m;
}

struct RunResult {
  double sec_per_pass = 0.0;
  double overlap_seconds = 0.0;
  double hidden_seconds = 0.0;
  double serve_seconds = 0.0;       // master-side gather+assembly CPU time
  int shard_queue_depth = 0;        // peak requests in flight at the server
  int ring_depth = 0;               // peak prefetch ring occupancy
  double reply_wait_seconds = 0.0;  // executor time blocked on kParamReply
  WaitHistogram reply_wait;         // merged across workers and passes
  u64 zero_copy_bytes = 0;
  std::map<i64, std::vector<f32>> out_r;
  std::map<i64, std::vector<f32>> out_c;
  f64 accum = 0.0;
};

// ---- Scenario 1: rotation schedule + server-hosted table ----

RunResult RunRotationServer(bool overlap, bool zero_copy) {
  constexpr i64 kRows = 64;
  constexpr i64 kCols = 64;
  constexpr int kPasses = 6;

  DriverConfig cfg;
  cfg.num_workers = kWorkers;
  cfg.net = SlowLink();
  cfg.seed = 11;
  cfg.zero_copy = zero_copy;
  // Serve inline on every config: this bench isolates the overlap engine, and
  // async serving (measured by bench_param_serving) would speed up the
  // sync baseline too and mask the ratio under test.
  cfg.async_param_serving = false;
  Driver driver(cfg);

  auto data = driver.CreateDistArray("data", {kRows, kCols}, 1, Density::kSparse);
  auto out_r = driver.CreateDistArray("out_r", {kRows}, 4, Density::kDense);
  auto out_c = driver.CreateDistArray("out_c", {kCols}, 4, Density::kDense);
  auto table = driver.CreateDistArray("table", {kRows + kCols - 1}, 4, Density::kDense);
  {
    Rng rng(99);
    CellStore& cells = driver.MutableCells(data);
    for (i64 n = 0; n < 2500; ++n) {
      const i64 i = static_cast<i64>(rng.NextBounded(static_cast<u64>(kRows)));
      const i64 j = static_cast<i64>(rng.NextBounded(static_cast<u64>(kCols)));
      *cells.GetOrCreate(i * kCols + j) = 1.0f + 0.25f * static_cast<f32>(n % 7);
    }
    driver.MapCells(table, [](i64 key, f32* v) {
      for (int d = 0; d < 4; ++d) {
        v[d] = 0.5f + 0.001f * static_cast<f32>(key + d);
      }
    });
  }

  LoopSpec spec;
  spec.iter_space = data;
  spec.iter_extents = {kRows, kCols};
  spec.AddAccess(out_r, "out_r", {Expr::LoopIndex(0)}, true);
  spec.AddAccess(out_c, "out_c", {Expr::LoopIndex(1)}, true);
  spec.AddAccess(table, "table", {Expr::Add(Expr::LoopIndex(0), Expr::LoopIndex(1))},
                 false);

  const int acc = driver.CreateAccumulator();
  LoopKernel kernel = [=](LoopContext& ctx, IdxSpan idx, const f32* value) {
    const i64 k[1] = {idx[0] + idx[1]};
    const f32* t = ctx.Read(table, k);
    // A deterministic compute block: enough arithmetic per record that a
    // step's compute is the same order of magnitude as its communication.
    f32 s = value[0];
    for (int it = 0; it < 11000; ++it) {
      s = s * 0.999f + t[it & 3] * 0.001f;
    }
    const i64 ki[1] = {idx[0]};
    const i64 kj[1] = {idx[1]};
    f32* r = ctx.Mutate(out_r, ki);
    f32* c = ctx.Mutate(out_c, kj);
    for (int d = 0; d < 4; ++d) {
      r[d] += s * t[d];
      c[d] += s * t[d];
    }
    ctx.AccumulatorAdd(acc, static_cast<f64>(s));
  };

  ParallelForOptions options;
  options.prefetch = PrefetchMode::kCached;  // warm cache => deep early issue
  options.overlap = overlap;
  options.planner.replicate_threshold_floats = 0;  // force table -> kServer
  auto loop = driver.Compile(spec, kernel, options);
  ORION_CHECK_OK(loop.status());
  ORION_CHECK(driver.PlanOf(*loop).placements.at(table).scheme == PartitionScheme::kServer);

  RunResult res;
  for (int p = 0; p < kPasses; ++p) {
    ORION_CHECK_OK(driver.Execute(*loop));
    if (p > 0) {  // skip the recording pass: measure the warm-cache regime
      const LoopMetrics& m = driver.last_metrics();
      res.sec_per_pass += m.pass_wall_seconds;
      res.overlap_seconds += m.overlap_seconds;
      res.hidden_seconds += m.prefetch_wait_hidden_seconds;
      res.serve_seconds += m.param_serve_seconds;
      res.shard_queue_depth = std::max(res.shard_queue_depth, m.param_shard_queue_depth_max);
      res.ring_depth = std::max(res.ring_depth, m.prefetch_ring_depth_used);
      for (const WaitHistogram& h : m.worker_reply_wait) {
        res.reply_wait.Merge(h);
      }
      res.zero_copy_bytes += m.zero_copy_bytes;
    }
  }
  res.reply_wait_seconds = res.reply_wait.total_seconds;
  res.sec_per_pass /= kPasses - 1;
  res.out_r = Snapshot(&driver, out_r);
  res.out_c = Snapshot(&driver, out_c);
  res.accum = driver.AccumulatorValue(acc);
  return res;
}

// ---- Scenario 2: SGD-MF (rotation, no server arrays) ----

RunResult RunSgdMf(bool overlap, bool zero_copy) {
  RatingsConfig d;
  d.rows = 1200;
  d.cols = 960;
  d.nnz = 400000;
  d.true_rank = 8;
  d.seed = 31;
  const auto data = GenerateRatings(d);

  DriverConfig cfg;
  cfg.num_workers = kWorkers;
  cfg.net = SlowLink();
  cfg.seed = 7;
  cfg.zero_copy = zero_copy;
  cfg.async_param_serving = false;  // same reason as RunRotationServer
  Driver driver(cfg);
  SgdMfConfig mf;
  mf.rank = 48;
  mf.loop_options.overlap = overlap;
  SgdMfApp app(&driver, mf);
  ORION_CHECK_OK(app.Init(data, d.rows, d.cols));

  RunResult res;
  constexpr int kPasses = 3;
  for (int p = 0; p < kPasses; ++p) {
    ORION_CHECK_OK(app.RunPass());
    res.sec_per_pass += driver.last_metrics().pass_wall_seconds;
    res.overlap_seconds += driver.last_metrics().overlap_seconds;
    res.zero_copy_bytes += driver.last_metrics().zero_copy_bytes;
  }
  res.sec_per_pass /= kPasses;
  res.out_r = Snapshot(&driver, app.w());
  res.out_c = Snapshot(&driver, app.h());
  auto loss = app.EvalLoss();
  ORION_CHECK_OK(loss.status());
  res.accum = *loss;
  return res;
}

bool CheckIdentical(const char* scenario, const RunResult& sync, const RunResult& other,
                    const char* config) {
  const bool ok = BitIdentical(sync.out_r, other.out_r) &&
                  BitIdentical(sync.out_c, other.out_c) && sync.accum == other.accum;
  if (!ok) {
    std::printf("MISMATCH: %s %s is not bit-for-bit identical to sync\n", scenario, config);
  }
  return ok;
}

int Main() {
  PrintHeader("comm/compute overlap",
              "pass wall seconds, synchronous vs overlapped (pipelined prefetch + "
              "eager rotation) vs overlapped+zero-copy, real-time-charged link");

  const RunResult rot_sync = RunRotationServer(false, false);
  const RunResult rot_ovl = RunRotationServer(true, false);
  const RunResult rot_zc = RunRotationServer(true, true);
  const RunResult mf_sync = RunSgdMf(false, false);
  const RunResult mf_ovl = RunSgdMf(true, false);
  const RunResult mf_zc = RunSgdMf(true, true);

  bool identical = true;
  identical &= CheckIdentical("rotation+server", rot_sync, rot_ovl, "overlap");
  identical &= CheckIdentical("rotation+server", rot_sync, rot_zc, "overlap+zero_copy");
  identical &= CheckIdentical("sgd_mf", mf_sync, mf_ovl, "overlap");
  identical &= CheckIdentical("sgd_mf", mf_sync, mf_zc, "overlap+zero_copy");

  const double rot_speedup = rot_sync.sec_per_pass / rot_zc.sec_per_pass;
  const double mf_speedup = mf_sync.sec_per_pass / mf_zc.sec_per_pass;

  std::printf("scenario,config,sec_per_pass,overlap_sec,hidden_sec,zero_copy_bytes\n");
  std::printf("rotation_server,sync,%.4f,%.4f,%.4f,%llu\n", rot_sync.sec_per_pass,
              rot_sync.overlap_seconds, rot_sync.hidden_seconds,
              static_cast<unsigned long long>(rot_sync.zero_copy_bytes));
  std::printf("rotation_server,overlap,%.4f,%.4f,%.4f,%llu\n", rot_ovl.sec_per_pass,
              rot_ovl.overlap_seconds, rot_ovl.hidden_seconds,
              static_cast<unsigned long long>(rot_ovl.zero_copy_bytes));
  std::printf("rotation_server,overlap_zero_copy,%.4f,%.4f,%.4f,%llu\n", rot_zc.sec_per_pass,
              rot_zc.overlap_seconds, rot_zc.hidden_seconds,
              static_cast<unsigned long long>(rot_zc.zero_copy_bytes));
  std::printf("sgd_mf,sync,%.4f,%.4f,,%llu\n", mf_sync.sec_per_pass, mf_sync.overlap_seconds,
              static_cast<unsigned long long>(mf_sync.zero_copy_bytes));
  std::printf("sgd_mf,overlap,%.4f,%.4f,,%llu\n", mf_ovl.sec_per_pass, mf_ovl.overlap_seconds,
              static_cast<unsigned long long>(mf_ovl.zero_copy_bytes));
  std::printf("sgd_mf,overlap_zero_copy,%.4f,%.4f,,%llu\n", mf_zc.sec_per_pass,
              mf_zc.overlap_seconds, static_cast<unsigned long long>(mf_zc.zero_copy_bytes));
  std::printf("speedup rotation+server: %.2fx, sgd_mf: %.2fx\n", rot_speedup, mf_speedup);
  std::printf(
      "rotation_server overlap: serve_sec=%.4f shard_queue_depth=%d ring_depth=%d "
      "reply_wait_sec=%.4f reply_wait_p50=%.6f reply_wait_p99=%.6f\n",
      rot_ovl.serve_seconds, rot_ovl.shard_queue_depth, rot_ovl.ring_depth,
      rot_ovl.reply_wait_seconds, rot_ovl.reply_wait.ApproxPercentile(0.5),
      rot_ovl.reply_wait.ApproxPercentile(0.99));

  BenchJson("overlap")
      .Figure("rotation_server",
              JsonF("{\"sync_sec\": %.6f, \"overlap_sec\": %.6f, "
                    "\"overlap_zero_copy_sec\": %.6f, \"speedup\": %.3f}",
                    rot_sync.sec_per_pass, rot_ovl.sec_per_pass, rot_zc.sec_per_pass,
                    rot_speedup))
      .Figure("sgd_mf",
              JsonF("{\"sync_sec\": %.6f, \"overlap_sec\": %.6f, "
                    "\"overlap_zero_copy_sec\": %.6f, \"speedup\": %.3f}",
                    mf_sync.sec_per_pass, mf_ovl.sec_per_pass, mf_zc.sec_per_pass,
                    mf_speedup))
      .Figure("bit_for_bit_identical", identical)
      .Write();

  PrintShape("overlap hides >= 1.3x of the rotation+server pass time", rot_speedup >= 1.3);
  PrintShape("eager rotation speeds up SGD-MF passes", mf_speedup > 1.0);
  PrintShape("all configurations bit-for-bit identical to sync", identical);
  return identical ? 0 : 1;
}

}  // namespace
}  // namespace orion

int main() { return orion::Main(); }
