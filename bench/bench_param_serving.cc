// Async parameter serving + depth-k prefetch ring: pass wall time across a
// ring-depth sweep on the rotation+server scenario, under a cost model that
// charges real time at the sender.
//
// The PR-2 overlap engine (depth-1 double buffer, inline serving on the
// master's service loop) is the baseline; the sweep turns on the async
// ParamServer and deepens the ring. One extra point runs the deepest
// configuration under seeded message faults (drop/dup/delay of control
// traffic) to show the async path composes with supervision.
//
// A second figure serves a chunked 1D loop: runtime-subscripted server reads
// and buffered server writes, split into sync rounds, on the same link. The
// inline baseline serves every round's prefetch on the master's service
// loop (one serialized reply per worker per round); async serving pins a
// snapshot per request (a refcount bump) and pool threads gather from it
// with no lock while replies overlap on per-worker lanes. That workload is
// arrival-invariant (read-only table + additive integer-valued buffered
// updates), so every configuration must match the inline run bit for bit.
//
// Every configuration must be bit-for-bit identical to its reference run; a
// mismatch is the only failure (exit 1). Timings are written to
// BENCH_param_serving.json for the CI smoke step.
#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "bench/bench_util.h"
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

NetCostModel SlowLink() {
  NetCostModel m;
  m.latency_us = 1000.0;
  m.bandwidth_bps = 2e9;
  m.charge_real_time = true;
  return m;
}

struct Config {
  bool overlap = true;
  bool async_serving = true;
  int depth = 2;
  bool faults = false;
};

struct RunResult {
  double sec_per_pass = 0.0;
  double serve_seconds = 0.0;
  int shard_queue_depth = 0;
  int ring_depth = 0;
  double reply_wait_seconds = 0.0;
  WaitHistogram reply_wait;  // merged across workers and passes
  std::map<i64, std::vector<f32>> out_r;
  std::map<i64, std::vector<f32>> out_c;
  f64 accum = 0.0;
};

RunResult Run(const Config& c) {
  constexpr i64 kRows = 64;
  constexpr i64 kCols = 64;
  constexpr int kPasses = 6;

  DriverConfig cfg;
  cfg.num_workers = kWorkers;
  cfg.net = SlowLink();
  cfg.seed = 11;
  cfg.async_param_serving = c.async_serving;
  if (c.faults) {
    cfg.fault_plan.seed = 29;
    cfg.fault_plan.drop_prob = 0.03;
    cfg.fault_plan.dup_prob = 0.03;
    cfg.fault_plan.delay_prob = 0.03;
    cfg.supervisor.heartbeat_interval_seconds = 0.05;
    cfg.supervisor.retry_initial_seconds = 0.05;
  }
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
  // Lighter compute than bench_overlap's kernel: here the regime under test
  // is a master-bound pass, where the inline reply fan-out (one serialized
  // ~latency sleep per worker per step on the service loop) exceeds the
  // kernel time and stalls every worker. The async server's per-worker
  // reply lanes overlap that fan-out; the deep ring hides the round trip.
  LoopKernel kernel = [=](LoopContext& ctx, IdxSpan idx, const f32* value) {
    const i64 k[1] = {idx[0] + idx[1]};
    const f32* t = ctx.Read(table, k);
    f32 s = value[0];
    for (int it = 0; it < 2500; ++it) {
      s = s * 0.999f + t[it & 3] * 0.001f;
    }
    const i64 ki[1] = {idx[0]};
    const i64 kj[1] = {idx[1]};
    f32* r = ctx.Mutate(out_r, ki);
    f32* cc = ctx.Mutate(out_c, kj);
    for (int d = 0; d < 4; ++d) {
      r[d] += s * t[d];
      cc[d] += s * t[d];
    }
    ctx.AccumulatorAdd(acc, static_cast<f64>(s));
  };

  ParallelForOptions options;
  options.prefetch = PrefetchMode::kCached;  // warm cache => deep early issue
  options.prefetch_depth = c.depth;
  options.overlap = c.overlap;
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
      res.serve_seconds += m.param_serve_seconds;
      res.shard_queue_depth = std::max(res.shard_queue_depth, m.param_shard_queue_depth_max);
      res.ring_depth = std::max(res.ring_depth, m.prefetch_ring_depth_used);
      for (const WaitHistogram& h : m.worker_reply_wait) {
        res.reply_wait.Merge(h);
      }
    }
  }
  res.reply_wait_seconds = res.reply_wait.total_seconds;
  res.sec_per_pass /= kPasses - 1;
  res.out_r = Snapshot(&driver, out_r);
  res.out_c = Snapshot(&driver, out_c);
  res.accum = driver.AccumulatorValue(acc);
  return res;
}

bool Identical(const RunResult& a, const RunResult& b) {
  return a.out_r == b.out_r && a.out_c == b.out_c && a.accum == b.accum;
}

// ---- 1D chunked serving: snapshot serving vs inline ----

struct OneDResult {
  double sec_per_pass = 0.0;
  double serve_seconds = 0.0;
  u64 snapshot_pins = 0;
  std::map<i64, std::vector<f32>> table_w;
  f64 accum = 0.0;
};

OneDResult Run1D(bool async_serving) {
  constexpr i64 kSamples = 1536;
  constexpr i64 kKeys = 6000;
  constexpr int kRounds = 4;
  constexpr int kPasses = 4;

  DriverConfig cfg;
  cfg.num_workers = kWorkers;
  cfg.net = SlowLink();
  cfg.seed = 17;
  cfg.async_param_serving = async_serving;
  Driver driver(cfg);

  auto samples = driver.CreateDistArray("samples", {kSamples}, 3, Density::kDense);
  auto table_r = driver.CreateDistArray("table_r", {kKeys}, 8, Density::kDense);
  auto table_w = driver.CreateDistArray("table_w", {kKeys}, 4, Density::kDense);
  driver.MapCells(samples, [](i64 key, f32* v) {
    v[0] = static_cast<f32>((key * 131 + 17) % kKeys);  // read key
    v[1] = static_cast<f32>((key * 173 + 5) % kKeys);   // write key
    v[2] = static_cast<f32>(1 + key % 7);               // integer payload
  });
  driver.MapCells(table_r, [](i64 key, f32* v) {
    for (int d = 0; d < 8; ++d) {
      v[d] = static_cast<f32>((key + d) % 13);
    }
  });
  driver.RegisterBuffer(table_w, 4, MakeAddApplyFn());
  const int acc = driver.CreateAccumulator();

  LoopSpec spec;
  spec.iter_space = samples;
  spec.iter_extents = {kSamples};
  spec.AddAccess(table_r, "table_r", {Expr::Runtime("rk")}, /*is_write=*/false);
  spec.AddAccess(table_w, "table_w", {Expr::Runtime("wk")}, /*is_write=*/true,
                 /*buffered=*/true);
  LoopKernel kernel = [=](LoopContext& ctx, IdxSpan idx, const f32* value) {
    (void)idx;
    const i64 rk[1] = {static_cast<i64>(value[0])};
    const i64 wk[1] = {static_cast<i64>(value[1])};
    const f32* t = ctx.Read(table_r, rk);
    // Integer-valued f32 adds: exact and commutative, so the merged result
    // is independent of apply arrival order across workers.
    f32 upd[4];
    for (int d = 0; d < 4; ++d) {
      upd[d] = value[2] * (t[d] + t[d + 4] + 1.0f);
    }
    ctx.BufferUpdate(table_w, wk, upd);
    ctx.AccumulatorAdd(acc, static_cast<f64>(upd[0]));
  };

  ParallelForOptions options;
  options.prefetch = PrefetchMode::kBulk;
  options.server_sync_rounds = kRounds;
  options.planner.replicate_threshold_floats = 0;  // force both tables -> kServer
  auto loop = driver.Compile(spec, kernel, options);
  ORION_CHECK_OK(loop.status());
  ORION_CHECK(driver.PlanOf(*loop).form == ParallelForm::k1D);
  ORION_CHECK(driver.PlanOf(*loop).placements.at(table_r).scheme == PartitionScheme::kServer);

  OneDResult res;
  for (int p = 0; p < kPasses; ++p) {
    ORION_CHECK_OK(driver.Execute(*loop));
    const LoopMetrics& m = driver.last_metrics();
    res.sec_per_pass += m.pass_wall_seconds;
    res.serve_seconds += m.param_serve_seconds;
    res.snapshot_pins += m.versioned_snapshot_pins;
  }
  res.sec_per_pass /= kPasses;
  res.table_w = Snapshot(&driver, table_w);
  res.accum = driver.AccumulatorValue(acc);
  return res;
}

int Main() {
  PrintHeader("async parameter serving + depth-k prefetch ring",
              "pass wall seconds across ring depths, vs the depth-1 "
              "inline-serving overlap baseline, real-time-charged link");

  Config sync_cfg;
  sync_cfg.overlap = false;
  sync_cfg.async_serving = false;
  sync_cfg.depth = 1;
  const RunResult sync = Run(sync_cfg);

  Config base_cfg;  // PR-2 overlap engine: depth-1 pipeline, inline serving
  base_cfg.overlap = true;
  base_cfg.async_serving = false;
  base_cfg.depth = 1;
  const RunResult baseline = Run(base_cfg);

  bool identical = Identical(sync, baseline);
  if (!identical) {
    std::printf("MISMATCH: overlap baseline is not bit-for-bit identical to sync\n");
  }

  struct Point {
    int depth;
    RunResult res;
    bool identical;
  };
  std::vector<Point> points;
  std::printf("depth,sec_per_pass,speedup_vs_baseline,serve_sec,ring_depth,"
              "reply_wait_sec,identical\n");
  std::printf("sync,%.4f,,,,,\n", sync.sec_per_pass);
  std::printf("1(inline),%.4f,1.00,,,,%d\n", baseline.sec_per_pass, identical ? 1 : 0);
  for (int depth : {1, 2, 4}) {
    Config c;
    c.depth = depth;
    Point p{depth, Run(c), false};
    p.identical = Identical(sync, p.res);
    if (!p.identical) {
      std::printf("MISMATCH: depth=%d is not bit-for-bit identical to sync\n", depth);
      identical = false;
    }
    std::printf("%d,%.4f,%.2f,%.4f,%d,%.4f,%d\n", depth, p.res.sec_per_pass,
                baseline.sec_per_pass / p.res.sec_per_pass, p.res.serve_seconds,
                p.res.ring_depth, p.res.reply_wait_seconds, p.identical ? 1 : 0);
    points.push_back(std::move(p));
  }

  Config fault_cfg;
  fault_cfg.depth = 2;
  fault_cfg.faults = true;
  const RunResult faulted = Run(fault_cfg);
  const bool fault_identical = Identical(sync, faulted);
  if (!fault_identical) {
    std::printf("MISMATCH: fault-injected run is not bit-for-bit identical to sync\n");
    identical = false;
  }
  std::printf("2,%.4f,%.2f,%.4f,%d,%.4f,%d  (fault-injected)\n", faulted.sec_per_pass,
              baseline.sec_per_pass / faulted.sec_per_pass, faulted.serve_seconds,
              faulted.ring_depth, faulted.reply_wait_seconds, fault_identical ? 1 : 0);

  const OneDResult one_d_inline = Run1D(/*async_serving=*/false);
  ORION_CHECK(one_d_inline.snapshot_pins == 0);
  std::printf("\n1D chunked serving:\n");
  std::printf("config,sec_per_pass,speedup_vs_inline,serve_sec,pins,identical\n");
  std::printf("inline,%.4f,1.00,,,\n", one_d_inline.sec_per_pass);
  const OneDResult one_d = Run1D(/*async_serving=*/true);
  const bool one_d_same =
      one_d.table_w == one_d_inline.table_w && one_d.accum == one_d_inline.accum;
  if (!one_d_same) {
    std::printf("MISMATCH: 1D snapshot serving is not bit-for-bit identical to inline\n");
    identical = false;
  }
  ORION_CHECK(one_d.snapshot_pins > 0);
  const double one_d_speedup = one_d_inline.sec_per_pass / one_d.sec_per_pass;
  std::printf("snapshot,%.4f,%.2f,%.4f,%llu,%d\n", one_d.sec_per_pass, one_d_speedup,
              one_d.serve_seconds, static_cast<unsigned long long>(one_d.snapshot_pins),
              one_d_same ? 1 : 0);

  // Headline: the deep-ring configurations vs the depth-1 inline baseline.
  double best_speedup = 0.0;
  for (const Point& p : points) {
    if (p.depth >= 2) {
      best_speedup = std::max(best_speedup, baseline.sec_per_pass / p.res.sec_per_pass);
    }
  }

  std::vector<std::string> sweep_rows;
  for (const Point& p : points) {
    sweep_rows.push_back(
        JsonF("{\"depth\": %d, \"sec_per_pass\": %.6f, "
              "\"speedup_vs_baseline\": %.3f, \"serve_sec\": %.6f, "
              "\"ring_depth_used\": %d, \"reply_wait_sec\": %.6f, "
              "\"reply_wait_p50\": %.6f, \"reply_wait_p99\": %.6f, "
              "\"identical\": %s}",
              p.depth, p.res.sec_per_pass,
              baseline.sec_per_pass / p.res.sec_per_pass, p.res.serve_seconds,
              p.res.ring_depth, p.res.reply_wait_seconds,
              p.res.reply_wait.ApproxPercentile(0.5),
              p.res.reply_wait.ApproxPercentile(0.99), p.identical ? "true" : "false"));
  }
  BenchJson("param_serving")
      .Figure("sync_sec", sync.sec_per_pass)
      .Figure("overlap_depth1_inline_sec", baseline.sec_per_pass)
      .Figure("sweep", BenchJson::Array(sweep_rows))
      .Figure("fault_injected",
              JsonF("{\"depth\": 2, \"sec_per_pass\": %.6f, "
                    "\"identical\": %s}",
                    faulted.sec_per_pass, fault_identical ? "true" : "false"))
      .Figure("best_speedup_vs_baseline", JsonF("%.3f", best_speedup))
      .Figure("one_d",
              JsonF("{\"inline_sec\": %.6f, \"snapshot_sec\": %.6f, "
                    "\"speedup_vs_inline\": %.3f, \"serve_sec\": %.6f, "
                    "\"snapshot_pins\": %llu, \"identical\": %s}",
                    one_d_inline.sec_per_pass, one_d.sec_per_pass, one_d_speedup,
                    one_d.serve_seconds, static_cast<unsigned long long>(one_d.snapshot_pins),
                    one_d_same ? "true" : "false"))
      .Figure("bit_for_bit_identical", identical)
      .Write();

  PrintShape("async serving + deep ring beats the depth-1 inline baseline by >= 1.15x",
             best_speedup >= 1.15);
  PrintShape("1D snapshot serving beats the inline baseline by >= 1.15x", one_d_speedup >= 1.15);
  PrintShape("all configurations bit-for-bit identical to their reference run", identical);
  return identical ? 0 : 1;
}

}  // namespace
}  // namespace orion

int main() { return orion::Main(); }
