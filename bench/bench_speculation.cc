// Speculative parameter prefetch for ordered schedules: step t+1's server
// reads are fetched while step t computes, validated against the dirty-range
// summaries the barrier releases carry, and repaired key-by-key on conflict.
//
// On a latency-charged link the synchronous wavefront pays a blocking
// request/reply round trip every step on top of the per-step barrier;
// speculation overlaps that round trip with compute and the barrier itself,
// so the pass time drops while the result stays bit-for-bit identical —
// including under message-fault chaos. A second, conflict-heavy workload
// (the skewed-wavefront recurrence, whose step t+1 reads exactly what step t
// wrote) shows the controller measuring a ~100% conflict rate and reverting
// to synchronous fetches.
//
// Emits BENCH_speculation.json; exits 1 on any bitwise mismatch.
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/runtime/driver.h"

namespace orion {
namespace {

constexpr int kWorkers = 4;
constexpr int kWarmup = 2;    // pass 0 records the kCached key lists; pass 1
                              // lets the controller pick its depth
constexpr int kMeasured = 4;

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
  if (a.size() != b.size()) {
    return false;
  }
  for (const auto& [key, va] : a) {
    auto it = b.find(key);
    if (it == b.end() || va.size() != it->second.size() ||
        std::memcmp(va.data(), it->second.data(), va.size() * sizeof(f32)) != 0) {
      return false;
    }
  }
  return true;
}

// A congested cluster link with a charged (slept) per-message latency and a
// bandwidth term that makes the wide parameter replies the expensive part:
// blocking round trips show up as real pass-time, hidden ones do not.
NetCostModel LatencyChargedLink() {
  NetCostModel net;
  net.latency_us = 200.0;
  net.bandwidth_bps = 1.2e8;
  net.charge_real_time = true;
  return net;
}

// ---------------------------------------------------------------------------
// Wavefront workload: ordered 2-D sweep reading a server-hosted table every
// step (read-only: zero conflicts, the pure-win case for speculation).

struct WavefrontResult {
  double sec_per_pass = 0.0;
  LoopMetrics last;
  std::map<i64, std::vector<f32>> out_r;
  std::map<i64, std::vector<f32>> out_c;
};

WavefrontResult RunWavefront(bool speculate, FaultPlan fault_plan = {}) {
  constexpr i64 kRows = 16;
  constexpr i64 kCols = 16;
  // Wide cells: each step's table fetch moves ~tens of KB, so on the
  // bandwidth-limited link the reply transfer — not the fixed latency — is
  // what the synchronous wavefront blocks on every step.
  constexpr int kDim = 2048;

  DriverConfig cfg;
  cfg.num_workers = kWorkers;
  cfg.seed = 21;
  cfg.net = LatencyChargedLink();
  cfg.fault_plan = fault_plan;
  auto driver = std::make_unique<Driver>(cfg);
  auto data = driver->CreateDistArray("data", {kRows, kCols}, 1, Density::kSparse);
  auto out_r = driver->CreateDistArray("out_r", {kRows}, 1, Density::kDense);
  auto out_c = driver->CreateDistArray("out_c", {kCols}, 1, Density::kDense);
  auto table = driver->CreateDistArray("table", {kRows + kCols - 1}, kDim, Density::kDense);
  {
    CellStore& cells = driver->MutableCells(data);
    for (i64 i = 0; i < kRows; ++i) {
      for (i64 j = 0; j < kCols; ++j) {
        *cells.GetOrCreate(i * kCols + j) = 1.0f;
      }
    }
    driver->MapCells(table, [](i64 key, f32* v) {
      for (int d = 0; d < kDim; ++d) {
        v[d] = static_cast<f32>(key + 1 + d);
      }
    });
  }

  LoopSpec spec;
  spec.iter_space = data;
  spec.iter_extents = {kRows, kCols};
  spec.ordered = true;
  spec.AddAccess(out_r, "out_r", {Expr::LoopIndex(0)}, true);
  spec.AddAccess(out_c, "out_c", {Expr::LoopIndex(1)}, true);
  spec.AddAccess(table, "table", {Expr::Add(Expr::LoopIndex(0), Expr::LoopIndex(1))},
                 false);

  LoopKernel kernel = [=](LoopContext& ctx, IdxSpan idx, const f32* value) {
    const i64 k[1] = {idx[0] + idx[1]};
    const f32* tv = ctx.Read(table, k);
    f32 t = 0.0f;
    for (int d = 0; d < kDim; ++d) {
      t += tv[d];
    }
    const i64 ki[1] = {idx[0]};
    const i64 kj[1] = {idx[1]};
    ctx.Mutate(out_r, ki)[0] += value[0] * t;
    ctx.Mutate(out_c, kj)[0] += value[0] * t;
  };

  ParallelForOptions options;
  options.prefetch = PrefetchMode::kCached;
  options.speculate = speculate;
  // Let the speculation controller pipeline up to 4 steps ahead: one step's
  // window is shorter than the wide reply's transfer time, so depth > 1 is
  // where the round trip actually disappears from the critical path.
  options.prefetch_depth = 4;
  options.planner.replicate_threshold_floats = 0;
  auto loop = driver->Compile(spec, kernel, options);
  ORION_CHECK(loop.ok()) << loop.status();
  ORION_CHECK(driver->PlanOf(*loop).ordered);

  WavefrontResult res;
  for (int p = 0; p < kWarmup + kMeasured; ++p) {
    ORION_CHECK_OK(driver->Execute(*loop));
    if (p >= kWarmup) {
      res.sec_per_pass += driver->last_metrics().pass_wall_seconds;
    }
  }
  res.sec_per_pass /= kMeasured;
  res.last = driver->last_metrics();
  res.out_r = Snapshot(driver.get(), out_r);
  res.out_c = Snapshot(driver.get(), out_c);
  return res;
}

// ---------------------------------------------------------------------------
// Conflict workload: the skewed-wavefront recurrence, where step t+1 reads
// exactly the frontier step t overwrote — every speculative slot needs a
// repair, and the controller should measure that and fall back.

struct RecurrenceResult {
  LoopMetrics speculating_pass;  // the one pass that speculated
  int depth_after = -1;          // effective depth once the controller reacted
  double conflict_rate = 0.0;
  std::map<i64, std::vector<f32>> c_final;
};

RecurrenceResult RunRecurrence(bool speculate) {
  const i64 n = 14;
  const i64 m = 11;

  DriverConfig cfg;
  cfg.num_workers = kWorkers;
  cfg.net = LatencyChargedLink();
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
    driver.MapCells(b, [&](i64, f32* v) { v[0] = static_cast<f32>(1 + rng.NextBounded(5)); });
  }

  LoopSpec spec;
  spec.iter_space = grid;
  spec.iter_extents = {n, m};
  spec.AddAccess(c, "C", {Expr::LoopIndex(0), Expr::LoopIndex(1)}, /*is_write=*/true);
  spec.AddAccess(c, "C", {Expr::LoopIndex(0), Expr::LoopIndex(1)}, /*is_write=*/false);
  spec.AddAccess(c, "C", {Expr::Sub(Expr::LoopIndex(0), Expr::Const(1)), Expr::LoopIndex(1)},
                 /*is_write=*/false);
  spec.AddAccess(c, "C", {Expr::LoopIndex(0), Expr::Sub(Expr::LoopIndex(1), Expr::Const(1))},
                 /*is_write=*/false);
  spec.AddAccess(b, "B", {Expr::LoopIndex(0), Expr::LoopIndex(1)}, /*is_write=*/false);

  LoopKernel kernel = [&](LoopContext& ctx, IdxSpan idx, const f32* value) {
    const i64 i = idx[0];
    const i64 j = idx[1];
    f32 up = 0.0f;
    f32 left = 0.0f;
    if (i > 0) {
      const i64 ku[2] = {i - 1, j};
      up = ctx.Read(c, ku)[0];
    }
    if (j > 0) {
      const i64 kl[2] = {i, j - 1};
      left = ctx.Read(c, kl)[0];
    }
    const i64 kb[2] = {i, j};
    const f32 add = ctx.Read(b, kb)[0];
    const f32 old = ctx.Read(c, kb)[0];
    f32* out = ctx.Mutate(c, kb);
    out[0] = up + left + add + old;
  };

  ParallelForOptions options;
  options.prefetch = PrefetchMode::kCached;
  options.speculate = speculate;
  auto loop = driver.Compile(spec, kernel, options);
  ORION_CHECK(loop.ok()) << loop.status();

  RecurrenceResult res;
  ORION_CHECK_OK(driver.Execute(*loop));  // records keys
  ORION_CHECK_OK(driver.Execute(*loop));  // speculates (when enabled)
  res.speculating_pass = driver.last_metrics();
  res.conflict_rate = driver.ExportMetrics().Gauge("spec.conflict_rate");
  ORION_CHECK_OK(driver.Execute(*loop));  // controller has reacted
  res.depth_after = driver.last_metrics().spec_depth_effective;
  res.c_final = Snapshot(&driver, c);
  return res;
}

int Main() {
  PrintHeader("Speculative prefetch",
              "Ordered wavefront with snapshot-sourced step t+1 fetches, "
              "conflict validation, and partial repair (4 workers, "
              "200us / 120Mb/s latency-charged link)");

  const WavefrontResult sync = RunWavefront(/*speculate=*/false);
  const WavefrontResult spec = RunWavefront(/*speculate=*/true);

  FaultPlan chaos;
  chaos.seed = 13;
  chaos.drop_prob = 0.02;
  chaos.dup_prob = 0.02;
  chaos.delay_prob = 0.02;
  const WavefrontResult faulted = RunWavefront(/*speculate=*/true, chaos);

  const double speedup = sync.sec_per_pass / spec.sec_per_pass;
  const bool identical =
      BitIdentical(sync.out_r, spec.out_r) && BitIdentical(sync.out_c, spec.out_c);
  const bool faulted_identical =
      BitIdentical(sync.out_r, faulted.out_r) && BitIdentical(sync.out_c, faulted.out_c);

  const RecurrenceResult rec_sync = RunRecurrence(false);
  const RecurrenceResult rec_spec = RunRecurrence(true);
  const bool rec_identical = BitIdentical(rec_sync.c_final, rec_spec.c_final);

  std::printf("workload,config,sec_per_pass,spec_issued,spec_conflicts,hidden_s,wait_s\n");
  std::printf("wavefront,sync,%.4f,%llu,%llu,%.4f,%.4f\n", sync.sec_per_pass,
              static_cast<unsigned long long>(sync.last.spec_issued),
              static_cast<unsigned long long>(sync.last.spec_conflicts),
              sync.last.spec_hidden_seconds, sync.last.spec_wait_seconds);
  std::printf("wavefront,speculate,%.4f,%llu,%llu,%.4f,%.4f\n", spec.sec_per_pass,
              static_cast<unsigned long long>(spec.last.spec_issued),
              static_cast<unsigned long long>(spec.last.spec_conflicts),
              spec.last.spec_hidden_seconds, spec.last.spec_wait_seconds);
  std::printf("wavefront speedup: %.2fx, hidden=%.4fs\n", speedup,
              spec.last.spec_hidden_seconds);
  std::printf(
      "recurrence (forced conflicts): conflict_rate=%.2f issued=%llu conflicts=%llu "
      "repair_bytes=%llu depth_after=%d\n",
      rec_spec.conflict_rate,
      static_cast<unsigned long long>(rec_spec.speculating_pass.spec_issued),
      static_cast<unsigned long long>(rec_spec.speculating_pass.spec_conflicts),
      static_cast<unsigned long long>(rec_spec.speculating_pass.spec_repair_bytes),
      rec_spec.depth_after);

  BenchJson("speculation")
      .Figure("wavefront",
              JsonF("{\"sync_sec\": %.6f, \"spec_sec\": %.6f, \"speedup\": %.3f, "
                    "\"spec_issued\": %llu, \"spec_conflicts\": %llu, "
                    "\"hidden_seconds\": %.6f, \"wait_seconds\": %.6f}",
                    sync.sec_per_pass, spec.sec_per_pass, speedup,
                    static_cast<unsigned long long>(spec.last.spec_issued),
                    static_cast<unsigned long long>(spec.last.spec_conflicts),
                    spec.last.spec_hidden_seconds, spec.last.spec_wait_seconds))
      .Figure("recurrence",
              JsonF("{\"conflict_rate\": %.3f, \"spec_issued\": %llu, "
                    "\"spec_conflicts\": %llu, \"repair_bytes\": %llu, "
                    "\"controller_disabled\": %s}",
                    rec_spec.conflict_rate,
                    static_cast<unsigned long long>(rec_spec.speculating_pass.spec_issued),
                    static_cast<unsigned long long>(rec_spec.speculating_pass.spec_conflicts),
                    static_cast<unsigned long long>(
                        rec_spec.speculating_pass.spec_repair_bytes),
                    rec_spec.depth_after == 0 ? "true" : "false"))
      .Figure("bit_for_bit_identical", identical)
      .Figure("faulted_identical", faulted_identical)
      .Figure("recurrence_identical", rec_identical)
      .Write();

  PrintShape("speculation speeds up the ordered wavefront >= 1.2x", speedup >= 1.2);
  PrintShape("speculative replies land while compute runs (hidden wait > 0)",
             spec.last.spec_hidden_seconds > 0.0);
  PrintShape("bit-for-bit identical to synchronous (clean + faulted + conflicts)",
             identical && faulted_identical && rec_identical);
  PrintShape("controller reverts to synchronous under forced conflicts",
             rec_spec.depth_after == 0);

  const bool ok = identical && faulted_identical && rec_identical;
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace orion

int main() { return orion::Main(); }
