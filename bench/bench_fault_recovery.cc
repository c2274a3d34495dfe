// Fault recovery overhead: SGD MF training with one worker crash mid-run,
// sweeping the checkpoint interval K in two delta-log configurations:
//
//   full   compact_every = 1 — the log is folded into a fresh whole-store
//          base image (write-temp, fsync, rename) after every delta record,
//          and recovery degrades to N-1 workers.
//   delta  compact_every = 8 — checkpoints append only the pages dirtied
//          since the previous record to a CRC-framed delta log, and the
//          crashed rank REJOINS after restore, so the cluster finishes the
//          run at its full width.
//
// Expected shape: passes_replayed after the crash is bounded by K, so total
// recovery work falls as K shrinks while checkpoint count (and fault-free
// overhead) rises — the classic checkpoint-interval trade-off (paper
// Sec. 4.3 fault tolerance). A second experiment measures checkpoint bytes
// on a sparse-update workload, where delta records stay far below the
// whole-store base image a full checkpoint must rewrite every time.
//
// Emits BENCH_durability.json with the sweep and the bytes comparison.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/sgd_mf.h"
#include "src/dsm/dist_array_buffer.h"
#include "src/net/fault_injector.h"
#include "src/runtime/driver.h"

namespace orion {
namespace {

constexpr int kPasses = 10;
constexpr int kWorkers = 4;
constexpr int kCrashPass = 5;

RatingsConfig BenchData() {
  RatingsConfig d;
  d.rows = 1200;
  d.cols = 900;
  d.nnz = 80000;
  d.true_rank = 8;
  d.seed = 21;
  return d;
}

std::string CkptDir(const std::string& tag) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / ("orion_bench_recovery_" + tag)).string();
  // A stale delta log from a previous run would be adopted by the writer and
  // pollute the byte counts; start every run from an empty directory.
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

struct RunResult {
  double wall_seconds = 0.0;
  f64 final_loss = 0.0;
  RuntimeMetrics metrics;
};

RunResult Run(const std::vector<RatingEntry>& data, const RatingsConfig& dcfg,
              int every_n_passes, bool crash, bool delta_log) {
  DriverConfig cfg;
  cfg.num_workers = kWorkers;
  cfg.supervisor.enabled = true;
  cfg.supervisor.heartbeat_interval_seconds = 0.02;
  cfg.supervisor.death_timeout_seconds = 1.0;
  cfg.supervisor.retry_initial_seconds = 0.02;
  if (crash) {
    cfg.fault_plan.seed = 9;
    cfg.fault_plan.crashes.push_back(CrashPoint{/*rank=*/1, /*pass=*/kCrashPass, /*step=*/-1});
  }
  Driver driver(cfg);
  SgdMfConfig mf;
  mf.rank = 8;
  SgdMfApp app(&driver, mf);
  ORION_CHECK_OK(app.Init(data, dcfg.rows, dcfg.cols));
  const std::string tag = std::string(delta_log ? "delta_" : "full_") +
                          (crash ? "crash_k" : "clean_k") + std::to_string(every_n_passes);
  Driver::DurabilityOptions opt;
  opt.every_n_passes = every_n_passes;
  opt.compact_every = delta_log ? 8 : 1;
  opt.rejoin_crashed_workers = crash && delta_log;
  ORION_CHECK_OK(driver.EnableDurability({app.w(), app.h()}, CkptDir(tag), opt));

  const auto t0 = std::chrono::steady_clock::now();
  for (int p = 0; p < kPasses; ++p) {
    ORION_CHECK_OK(app.RunPass());
  }
  const auto t1 = std::chrono::steady_clock::now();

  RunResult r;
  r.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  r.final_loss = *app.EvalLoss();
  r.metrics = driver.runtime_metrics();
  return r;
}

struct SweepRow {
  int k = 0;
  RunResult r;
};

std::vector<SweepRow> CrashSweep(const std::vector<RatingEntry>& data,
                                 const RatingsConfig& dcfg, bool delta_log) {
  std::vector<SweepRow> rows;
  for (int k : {1, 2, 4, 8}) {
    RunResult r = Run(data, dcfg, k, /*crash=*/true, delta_log);
    std::printf("%s,%d,%.2f,%llu,%.3f,%llu,%.3f,%.1f\n", delta_log ? "delta" : "full", k,
                r.wall_seconds, static_cast<unsigned long long>(r.metrics.checkpoints_written),
                r.metrics.checkpoint_seconds,
                static_cast<unsigned long long>(r.metrics.passes_replayed),
                r.metrics.recovery_seconds, r.final_loss);
    ORION_CHECK(r.metrics.crashes_triggered == 1);
    ORION_CHECK(r.metrics.recoveries == 1);
    rows.push_back({k, std::move(r)});
  }
  return rows;
}

// ---- Sparse-update workload: delta bytes vs whole-store checkpoints ----
//
// A 32768-cell server table where every pass's writes land in page 0 only
// (write keys are taken mod 64; pages hold 256 cells). A whole-store
// checkpoint rewrites all 32768 cells each time — one base image, measured
// on disk from a compact_every = 1 log; a delta record ships one dirty page.

constexpr i64 kTableKeys = 32768;
constexpr i64 kTableSamples = 512;
constexpr int kSparsePasses = 12;

struct SparseRun {
  RuntimeMetrics metrics;
  u64 full_image_bytes = 0;  // on-disk size of one whole-store base image
};

SparseRun RunSparse(bool delta_log) {
  DriverConfig cfg;
  cfg.num_workers = kWorkers;
  cfg.seed = 13;
  Driver driver(cfg);
  const DistArrayId samples =
      driver.CreateDistArray("samples", {kTableSamples}, 3, Density::kDense);
  const DistArrayId table_r =
      driver.CreateDistArray("table_r", {kTableKeys}, 1, Density::kDense);
  const DistArrayId table_w =
      driver.CreateDistArray("table_w", {kTableKeys}, 1, Density::kDense);
  driver.MapCells(samples, [](i64 key, f32* v) {
    v[0] = static_cast<f32>((key * 31 + 7) % kTableKeys);  // read key: anywhere
    v[1] = static_cast<f32>((key * 17 + 3) % 64);          // write key: page 0 only
    v[2] = static_cast<f32>(1 + key % 5);
  });
  driver.MapCells(table_r, [](i64 key, f32* v) { v[0] = static_cast<f32>(key % 11); });
  driver.MapCells(table_w, [](i64 key, f32* v) { v[0] = static_cast<f32>(key % 5); });
  driver.RegisterBuffer(table_w, 1, MakeAddApplyFn());

  LoopSpec spec;
  spec.iter_space = samples;
  spec.iter_extents = {kTableSamples};
  spec.AddAccess(table_r, "table_r", {Expr::Runtime("rk")}, /*is_write=*/false);
  spec.AddAccess(table_w, "table_w", {Expr::Runtime("wk")}, /*is_write=*/true,
                 /*buffered=*/true);
  LoopKernel kernel = [table_r, table_w](LoopContext& ctx, IdxSpan idx, const f32* value) {
    (void)idx;
    const i64 rk[1] = {static_cast<i64>(value[0])};
    const i64 wk[1] = {static_cast<i64>(value[1])};
    const f32 upd = value[2] * (ctx.Read(table_r, rk)[0] + 1.0f);
    ctx.BufferUpdate(table_w, wk, &upd);
  };
  ParallelForOptions options;
  options.server_sync_rounds = 2;
  options.planner.replicate_threshold_floats = 0;  // both tables server-hosted
  auto loop = driver.Compile(spec, kernel, options);
  ORION_CHECK(loop.ok());

  const std::string dir = CkptDir(delta_log ? "sparse_delta" : "sparse_full");
  Driver::DurabilityOptions opt;
  opt.every_n_passes = 1;
  // Delta: keep every record a delta so bytes reflect dirty pages. Full:
  // rewrite the base image as often as the log allows.
  opt.compact_every = delta_log ? 0 : 1;
  ORION_CHECK_OK(driver.EnableDurability({table_w}, dir, opt));
  for (int p = 0; p < kSparsePasses; ++p) {
    ORION_CHECK_OK(driver.Execute(*loop));
  }

  SparseRun out;
  out.metrics = driver.runtime_metrics();
  if (!delta_log) {
    out.full_image_bytes =
        static_cast<u64>(std::filesystem::file_size(std::filesystem::path(dir) / "base.orib"));
  }
  return out;
}

int Main() {
  PrintHeader("Fault recovery & log-structured durability",
              "SGD MF, 4 workers, crash of worker 1 at pass 5; sweep checkpoint "
              "interval K with a whole-store base per record pair (full, "
              "compact_every=1) and a delta log (delta, compact_every=8). "
              "Replay after the crash is bounded by K; delta mode rejoins the "
              "crashed rank.");
  const auto dcfg = BenchData();
  const auto data = GenerateRatings(dcfg);

  const RunResult baseline = Run(data, dcfg, /*every_n_passes=*/4, /*crash=*/false,
                                 /*delta_log=*/false);
  std::printf("fault-free baseline (full, K=4): wall=%.2fs ckpts=%llu ckpt_time=%.3fs loss=%.1f\n\n",
              baseline.wall_seconds,
              static_cast<unsigned long long>(baseline.metrics.checkpoints_written),
              baseline.metrics.checkpoint_seconds, baseline.final_loss);

  std::printf("mode,K,wall_s,ckpts_written,ckpt_s,passes_replayed,recovery_s,final_loss\n");
  const std::vector<SweepRow> full_rows = CrashSweep(data, dcfg, /*delta_log=*/false);
  const std::vector<SweepRow> delta_rows = CrashSweep(data, dcfg, /*delta_log=*/true);

  bool replay_bounded = true;
  bool ckpts_monotone = true;
  bool rejoined = true;
  for (const auto* rows : {&full_rows, &delta_rows}) {
    u64 prev_ckpts = ~0ull;
    for (const SweepRow& row : *rows) {
      replay_bounded =
          replay_bounded && row.r.metrics.passes_replayed <= static_cast<u64>(row.k);
      ckpts_monotone = ckpts_monotone &&
                       (prev_ckpts == ~0ull || row.r.metrics.checkpoints_written <= prev_ckpts);
      prev_ckpts = row.r.metrics.checkpoints_written;
    }
  }
  for (const SweepRow& row : delta_rows) {
    rejoined = rejoined && row.r.metrics.worker_rejoins == 1;
  }

  std::printf("\nsparse-update checkpoint bytes (%d passes, K=1, %lld-cell table, "
              "writes confined to one page):\n",
              kSparsePasses, static_cast<long long>(kTableKeys));
  const SparseRun sp_full = RunSparse(/*delta_log=*/false);
  const SparseRun sp_delta = RunSparse(/*delta_log=*/true);
  const u64 full_total = sp_full.metrics.checkpoints_written * sp_full.full_image_bytes;
  const u64 delta_total = sp_delta.metrics.log_bytes_appended;
  const double bytes_ratio =
      delta_total > 0 ? static_cast<double>(full_total) / static_cast<double>(delta_total) : 0.0;
  std::printf("full : ckpts=%llu image_bytes=%llu total_bytes=%llu ckpt_s=%.3f\n",
              static_cast<unsigned long long>(sp_full.metrics.checkpoints_written),
              static_cast<unsigned long long>(sp_full.full_image_bytes),
              static_cast<unsigned long long>(full_total), sp_full.metrics.checkpoint_seconds);
  std::printf("delta: ckpts=%llu delta_records=%llu pages_deltad=%llu total_bytes=%llu "
              "ckpt_s=%.3f (%.1fx fewer bytes)\n",
              static_cast<unsigned long long>(sp_delta.metrics.checkpoints_written),
              static_cast<unsigned long long>(sp_delta.metrics.delta_checkpoints),
              static_cast<unsigned long long>(sp_delta.metrics.pages_deltad),
              static_cast<unsigned long long>(delta_total),
              sp_delta.metrics.checkpoint_seconds, bytes_ratio);

  auto sweep_json = [](const std::vector<SweepRow>& rows) {
    std::vector<std::string> out;
    for (const SweepRow& row : rows) {
      out.push_back(
          JsonF("{\"k\": %d, \"wall_s\": %.4f, \"ckpts_written\": %llu, "
                "\"ckpt_s\": %.4f, \"passes_replayed\": %llu, \"recovery_s\": %.4f, "
                "\"worker_rejoins\": %llu}",
                row.k, row.r.wall_seconds,
                static_cast<unsigned long long>(row.r.metrics.checkpoints_written),
                row.r.metrics.checkpoint_seconds,
                static_cast<unsigned long long>(row.r.metrics.passes_replayed),
                row.r.metrics.recovery_seconds,
                static_cast<unsigned long long>(row.r.metrics.worker_rejoins)));
    }
    return BenchJson::Array(out);
  };
  BenchJson("durability")
      .Figure("recovery_sweep", "{\"full\": " + sweep_json(full_rows) +
                                    ", \"delta\": " + sweep_json(delta_rows) + "}")
      .Figure("sparse_checkpoint_bytes",
              JsonF("{\"passes\": %d, \"full_image_bytes\": %llu, "
                    "\"full_total_bytes\": %llu, \"delta_total_bytes\": %llu, "
                    "\"delta_records\": %llu, \"pages_deltad\": %llu, "
                    "\"full_over_delta_bytes\": %.2f}",
                    kSparsePasses, static_cast<unsigned long long>(sp_full.full_image_bytes),
                    static_cast<unsigned long long>(full_total),
                    static_cast<unsigned long long>(delta_total),
                    static_cast<unsigned long long>(sp_delta.metrics.delta_checkpoints),
                    static_cast<unsigned long long>(sp_delta.metrics.pages_deltad),
                    bytes_ratio))
      .Write();

  PrintShape("replayed passes after the crash are bounded by the checkpoint interval K",
             replay_bounded);
  PrintShape("checkpoint count falls as K grows (fault-free overhead trade-off)",
             ckpts_monotone);
  PrintShape("delta mode rejoins the crashed rank (cluster back to full width)", rejoined);
  PrintShape("sparse-update delta log writes >= 4x fewer bytes than whole-store checkpoints",
             delta_total > 0 && full_total >= 4 * delta_total);
  PrintShape("all but the first two records are delta appends",
             sp_delta.metrics.delta_checkpoints >=
                 static_cast<u64>(kSparsePasses) - 1);
  return 0;
}

}  // namespace
}  // namespace orion

int main() { return orion::Main(); }
