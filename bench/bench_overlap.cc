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
// a mismatch is the only failure (exit 1). The speedups are timing shapes,
// and the machine's drift between two separate runs is as large as the gaps
// they test. So each scenario's synchronous and overlapped+zero-copy drivers
// run side by side, their timed passes alternating (which one goes first
// alternates too), and each shape line reads the per-pair ratio
// sync / overlapped: its median, its IQR, and how many pairs the overlapped
// pass won. Timings are written to BENCH_overlap.json for the CI smoke step.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/sgd_mf.h"
#include "src/runtime/driver.h"

namespace orion {
namespace {

constexpr int kWorkers = 4;
constexpr int kTimedPasses = 15;  // per configuration; also the number of pairs

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
  double sec_per_pass = 0.0;        // mean over the timed passes
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

// Adds one timed pass's metrics to `res`; returns its wall seconds.
double AddPass(const LoopMetrics& m, RunResult* res) {
  res->sec_per_pass += m.pass_wall_seconds;
  res->overlap_seconds += m.overlap_seconds;
  res->hidden_seconds += m.prefetch_wait_hidden_seconds;
  res->serve_seconds += m.param_serve_seconds;
  res->shard_queue_depth = std::max(res->shard_queue_depth, m.param_shard_queue_depth_max);
  res->ring_depth = std::max(res->ring_depth, m.prefetch_ring_depth_used);
  for (const WaitHistogram& h : m.worker_reply_wait) {
    res->reply_wait.Merge(h);
  }
  res->zero_copy_bytes += m.zero_copy_bytes;
  return m.pass_wall_seconds;
}

// ---- Scenario 1: rotation schedule + server-hosted table ----

// One configuration in its own driver. The constructor runs the untimed
// recording pass; Pass runs one timed pass and returns its wall seconds.
class RotationServerRun {
 public:
  RotationServerRun(bool overlap, bool zero_copy) {
    constexpr i64 kRows = 64;
    constexpr i64 kCols = 64;

    DriverConfig cfg;
    cfg.num_workers = kWorkers;
    cfg.net = SlowLink();
    cfg.seed = 11;
    cfg.zero_copy = zero_copy;
    // Serve inline on every config: this bench isolates the overlap engine,
    // and async serving (measured by bench_param_serving) would speed up the
    // sync baseline too and mask the ratio under test.
    cfg.async_param_serving = false;
    driver_ = std::make_unique<Driver>(cfg);
    Driver& driver = *driver_;

    auto data = driver.CreateDistArray("data", {kRows, kCols}, 1, Density::kSparse);
    out_r_ = driver.CreateDistArray("out_r", {kRows}, 4, Density::kDense);
    out_c_ = driver.CreateDistArray("out_c", {kCols}, 4, Density::kDense);
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
    spec.AddAccess(out_r_, "out_r", {Expr::LoopIndex(0)}, true);
    spec.AddAccess(out_c_, "out_c", {Expr::LoopIndex(1)}, true);
    spec.AddAccess(table, "table", {Expr::Add(Expr::LoopIndex(0), Expr::LoopIndex(1))},
                   false);

    acc_ = driver.CreateAccumulator();
    const DistArrayId out_r = out_r_;
    const DistArrayId out_c = out_c_;
    const int acc = acc_;
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
    loop_ = *loop;
    // The recording pass, untimed: the timed passes measure the warm-cache
    // regime.
    ORION_CHECK_OK(driver.Execute(loop_));
  }

  double Pass() {
    ORION_CHECK_OK(driver_->Execute(loop_));
    ++passes_;
    return AddPass(driver_->last_metrics(), &res_);
  }

  RunResult Result() {
    RunResult res = res_;
    res.reply_wait_seconds = res.reply_wait.total_seconds;
    res.sec_per_pass /= passes_;
    res.out_r = Snapshot(driver_.get(), out_r_);
    res.out_c = Snapshot(driver_.get(), out_c_);
    res.accum = driver_->AccumulatorValue(acc_);
    return res;
  }

 private:
  std::unique_ptr<Driver> driver_;
  DistArrayId out_r_ = -1;
  DistArrayId out_c_ = -1;
  int acc_ = -1;
  i32 loop_ = -1;
  int passes_ = 0;
  RunResult res_;
};

// ---- Scenario 2: SGD-MF (rotation, no server arrays) ----

class SgdMfRun {
 public:
  SgdMfRun(bool overlap, bool zero_copy) {
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
    cfg.async_param_serving = false;  // same reason as RotationServerRun
    driver_ = std::make_unique<Driver>(cfg);
    SgdMfConfig mf;
    mf.rank = 48;
    mf.loop_options.overlap = overlap;
    app_ = std::make_unique<SgdMfApp>(driver_.get(), mf);
    ORION_CHECK_OK(app_->Init(data, d.rows, d.cols));
  }

  double Pass() {
    ORION_CHECK_OK(app_->RunPass());
    ++passes_;
    return AddPass(driver_->last_metrics(), &res_);
  }

  RunResult Result() {
    RunResult res = res_;
    res.sec_per_pass /= passes_;
    res.out_r = Snapshot(driver_.get(), app_->w());
    res.out_c = Snapshot(driver_.get(), app_->h());
    auto loss = app_->EvalLoss();
    ORION_CHECK_OK(loss.status());
    res.accum = *loss;
    return res;
  }

 private:
  std::unique_ptr<Driver> driver_;
  std::unique_ptr<SgdMfApp> app_;
  int passes_ = 0;
  RunResult res_;
};

// The per-pair ratio sync / overlapped of alternating timed passes.
struct Paired {
  Spread ratio;
  int won = 0;  // pairs whose overlapped pass was the faster
};

template <typename Run>
Paired Alternate(Run* sync, Run* overlapped) {
  std::vector<double> ratios;
  int won = 0;
  for (int p = 0; p < kTimedPasses; ++p) {
    double s = 0.0;
    double o = 0.0;
    if (p % 2 == 0) {
      s = sync->Pass();
      o = overlapped->Pass();
    } else {
      o = overlapped->Pass();
      s = sync->Pass();
    }
    ratios.push_back(s / o);
    won += o < s ? 1 : 0;
  }
  return {SpreadOf(ratios), won};
}

// Runs the sync and overlapped+zero-copy configurations paired, then the
// overlapped one alone for as many passes. Results are sync, overlapped,
// overlapped+zero-copy.
template <typename Run>
Paired RunScenario(RunResult* sync, RunResult* overlapped, RunResult* zero_copy) {
  Paired paired;
  {
    Run s(false, false);
    Run z(true, true);
    paired = Alternate(&s, &z);
    *sync = s.Result();
    *zero_copy = z.Result();
  }
  Run o(true, false);
  for (int p = 0; p < kTimedPasses; ++p) {
    o.Pass();
  }
  *overlapped = o.Result();
  return paired;
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

void PrintPaired(const char* scenario, const Paired& p) {
  std::printf("%s paired sync/overlap_zero_copy ratio: median %.3f, IQR %.3f (q1 %.3f, q3 %.3f); "
              "overlapped faster in %d of %d pairs\n",
              scenario, p.ratio.median, p.ratio.q3 - p.ratio.q1, p.ratio.q1, p.ratio.q3, p.won,
              kTimedPasses);
}

int Main() {
  PrintHeader("comm/compute overlap",
              "pass wall seconds, synchronous vs overlapped (pipelined prefetch + "
              "eager rotation) vs overlapped+zero-copy, real-time-charged link");

  RunResult rot_sync;
  RunResult rot_ovl;
  RunResult rot_zc;
  const Paired rot = RunScenario<RotationServerRun>(&rot_sync, &rot_ovl, &rot_zc);
  RunResult mf_sync;
  RunResult mf_ovl;
  RunResult mf_zc;
  const Paired mf = RunScenario<SgdMfRun>(&mf_sync, &mf_ovl, &mf_zc);

  bool identical = true;
  identical &= CheckIdentical("rotation+server", rot_sync, rot_ovl, "overlap");
  identical &= CheckIdentical("rotation+server", rot_sync, rot_zc, "overlap+zero_copy");
  identical &= CheckIdentical("sgd_mf", mf_sync, mf_ovl, "overlap");
  identical &= CheckIdentical("sgd_mf", mf_sync, mf_zc, "overlap+zero_copy");

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
  PrintPaired("rotation+server", rot);
  PrintPaired("sgd_mf", mf);
  std::printf(
      "rotation_server overlap: serve_sec=%.4f shard_queue_depth=%d ring_depth=%d "
      "reply_wait_sec=%.4f reply_wait_p50=%.6f reply_wait_p99=%.6f\n",
      rot_ovl.serve_seconds, rot_ovl.shard_queue_depth, rot_ovl.ring_depth,
      rot_ovl.reply_wait_seconds, rot_ovl.reply_wait.ApproxPercentile(0.5),
      rot_ovl.reply_wait.ApproxPercentile(0.99));

  auto figure = [](const RunResult& sync, const RunResult& ovl, const RunResult& zc,
                   const Paired& p) {
    return JsonF("{\"sync_sec\": %.6f, \"overlap_sec\": %.6f, "
                 "\"overlap_zero_copy_sec\": %.6f, \"speedup\": %.3f, "
                 "\"speedup_iqr\": %.3f, \"pairs_won\": %d, \"pairs\": %d}",
                 sync.sec_per_pass, ovl.sec_per_pass, zc.sec_per_pass, p.ratio.median,
                 p.ratio.q3 - p.ratio.q1, p.won, kTimedPasses);
  };
  BenchJson("overlap")
      .Figure("rotation_server", figure(rot_sync, rot_ovl, rot_zc, rot))
      .Figure("sgd_mf", figure(mf_sync, mf_ovl, mf_zc, mf))
      .Figure("bit_for_bit_identical", identical)
      .Write();

  // Each speedup shape needs the overlapped pass to win most pairs as well.
  PrintShape("overlap hides >= 1.3x of the rotation+server pass time",
             2 * rot.won > kTimedPasses && rot.ratio.median >= 1.3);
  PrintShape("eager rotation speeds up SGD-MF passes",
             2 * mf.won > kTimedPasses && mf.ratio.median > 1.0);
  PrintShape("all configurations bit-for-bit identical to sync", identical);
  return identical ? 0 : 1;
}

}  // namespace
}  // namespace orion

int main() { return orion::Main(); }
