// Online serving while training: the serving tier answers batched lookups
// from pinned COW snapshots concurrently with an ordered wavefront pass.
//
// Run A trains alone; run B trains the identical workload while paced
// client threads drive batched lookups (256 keys/request) against the tier
// at ~150k keys/sec. The headline gates, checked by CI from the emitted
// JSON:
//   - bitwise_match: run B's final arrays are byte-identical to run A's
//     (serving is invisible to training) — the bench itself exits 1 if not;
//   - sustained_lookups_per_sec >= 100k, measured strictly inside the
//     training window;
//   - p99_seconds within p99_budget_seconds (generous: CI runners
//     timeshare one core between trainer, tier, and clients);
//   - training_slowdown_frac < 10% (median pass wall, B vs A);
//   - overload_shed_rate > 0: a deliberately rate-limited tier driven at 2x
//     its capacity sheds with explicit statuses instead of blocking.
//
// Freshness is spot-checked each pass against the workload's closed form
// (integer sums, exact in f32), so the tier is provably serving the latest
// published version, not a stale pin.
//
// Results go to BENCH_serving_tier.json for the CI gate.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/runtime/driver.h"
#include "src/serve/serving_tier.h"

namespace orion {
namespace {

using serve::LookupResult;
using serve::LookupStatus;
using serve::ServingTier;
using serve::ServingTierOptions;

constexpr i64 kRows = 64;
constexpr i64 kCols = 64;
constexpr int kPasses = 16;
constexpr int kClientThreads = 2;
constexpr int kKeysPerRequest = 256;
constexpr double kTargetKeysPerSec = 150e3;
constexpr double kP99BudgetSeconds = 0.20;  // single shared core in CI

std::map<i64, std::vector<f32>> SnapshotArray(Driver* d, DistArrayId id) {
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

struct Wavefront {
  std::unique_ptr<Driver> driver;
  DistArrayId data{}, out_r{}, out_c{}, table{};
  i32 loop = -1;
};

// Ordered 2-D wavefront: `table` is server-hosted (kServer), out_c rotates
// (kSpaceTime) and returns to the master every pass boundary, so both
// republish each pass. All sums are small integers — exact in f32:
//   out_c[j] after pass p = p * (kRows*j + kRows + kRows*(kRows-1)/2)
Wavefront MakeWavefront() {
  Wavefront w;
  DriverConfig cfg;
  cfg.num_workers = 4;
  cfg.seed = 21;
  w.driver = std::make_unique<Driver>(cfg);
  w.data = w.driver->CreateDistArray("data", {kRows, kCols}, 1, Density::kSparse);
  w.out_r = w.driver->CreateDistArray("out_r", {kRows}, 1, Density::kDense);
  w.out_c = w.driver->CreateDistArray("out_c", {kCols}, 1, Density::kDense);
  w.table = w.driver->CreateDistArray("table", {kRows + kCols - 1}, 1, Density::kDense);
  {
    CellStore& cells = w.driver->MutableCells(w.data);
    for (i64 i = 0; i < kRows; ++i) {
      for (i64 j = 0; j < kCols; ++j) {
        *cells.GetOrCreate(i * kCols + j) = 1.0f;
      }
    }
    w.driver->MapCells(w.table, [](i64 key, f32* v) { v[0] = static_cast<f32>(key + 1); });
  }

  LoopSpec spec;
  spec.iter_space = w.data;
  spec.iter_extents = {kRows, kCols};
  spec.ordered = true;
  spec.AddAccess(w.out_r, "out_r", {Expr::LoopIndex(0)}, true);
  spec.AddAccess(w.out_c, "out_c", {Expr::LoopIndex(1)}, true);
  spec.AddAccess(w.table, "table", {Expr::Add(Expr::LoopIndex(0), Expr::LoopIndex(1))},
                 false);
  const DistArrayId out_r = w.out_r;
  const DistArrayId out_c = w.out_c;
  const DistArrayId table = w.table;
  LoopKernel kernel = [=](LoopContext& ctx, IdxSpan idx, const f32* value) {
    const i64 k[1] = {idx[0] + idx[1]};
    const f32 t = ctx.Read(table, k)[0];
    // Deterministic compute ballast: stretches a pass to ~10ms so the
    // slowdown comparison is not dominated by per-pass scheduler jitter on
    // shared CI cores. volatile defeats loop elision; the result is unused.
    volatile f32 sink = 0.0f;
    for (int s = 0; s < 2500; ++s) {
      sink = sink + 1.0f;
    }
    const i64 ki[1] = {idx[0]};
    const i64 kj[1] = {idx[1]};
    ctx.Mutate(out_r, ki)[0] += value[0] * t;
    ctx.Mutate(out_c, kj)[0] += value[0] * t;
  };
  ParallelForOptions options;
  options.prefetch = PrefetchMode::kCached;
  options.planner.replicate_threshold_floats = 0;
  auto loop = w.driver->Compile(spec, kernel, options);
  ORION_CHECK_OK(loop.status());
  ORION_CHECK(w.driver->PlanOf(*loop).placements.at(w.table).scheme ==
              PartitionScheme::kServer);
  w.loop = *loop;
  return w;
}

f32 ExpectedOutC(int pass, i64 j) {
  return static_cast<f32>(pass * (kRows * j + kRows + kRows * (kRows - 1) / 2));
}

// Deadline-paced client: batched lookups against the tier at a fixed rate,
// alternating arrays. Self-corrects after oversleep by issuing immediately
// until caught up (bursts count against the tier's own p99, as they would
// in production).
struct PacedClient {
  PacedClient(ServingTier* tier, std::vector<DistArrayId> arrays, double keys_per_sec)
      : tier_(tier), arrays_(std::move(arrays)) {
    interval_ = std::chrono::duration_cast<std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(kKeysPerRequest / keys_per_sec));
    thread_ = std::thread([this] { Run(); });
  }
  void StopAndJoin() {
    stop_.store(true);
    thread_.join();
  }
  void Run() {
    std::vector<i64> keys(kKeysPerRequest);
    auto next = std::chrono::steady_clock::now();
    u64 x = 0x9e3779b97f4a7c15ull;
    while (!stop_.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_until(next);
      next += interval_;
      for (auto& k : keys) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        k = static_cast<i64>((x >> 33) % kCols);
      }
      const LookupResult r = tier_->Lookup(arrays_[x % arrays_.size()], keys);
      switch (r.status) {
        case LookupStatus::kOk:
          ++ok_;
          break;
        case LookupStatus::kNotServing:
          ++not_serving_;
          break;
        default:
          ++shed_;
          break;
      }
    }
  }

  ServingTier* tier_;
  std::vector<DistArrayId> arrays_;
  std::chrono::steady_clock::duration interval_{};
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<u64> ok_{0}, not_serving_{0}, shed_{0};
};

double MedianSeconds(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

struct TrainResult {
  std::vector<double> pass_seconds;
  std::map<i64, std::vector<f32>> out_r, out_c, table;
};

int Main() {
  PrintHeader("serving_tier",
              "Batched snapshot lookups served concurrently with an ordered "
              "wavefront; training must be bit-for-bit unaffected.");

  // ---- Run A: training alone -------------------------------------------
  TrainResult a;
  {
    Wavefront w = MakeWavefront();
    for (int p = 0; p < kPasses; ++p) {
      const auto t0 = std::chrono::steady_clock::now();
      ORION_CHECK_OK(w.driver->Execute(w.loop));
      a.pass_seconds.push_back(
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
    }
    a.out_r = SnapshotArray(w.driver.get(), w.out_r);
    a.out_c = SnapshotArray(w.driver.get(), w.out_c);
    a.table = SnapshotArray(w.driver.get(), w.table);
  }

  // ---- Run B: training + tier + paced clients --------------------------
  TrainResult b;
  double sustained_qps = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  u64 client_ok = 0;
  u64 client_not_serving = 0;
  u64 client_shed = 0;
  bool fresh_ok = true;
  {
    Wavefront w = MakeWavefront();
    auto tier_or = w.driver->StartServingTier({w.out_c, w.table});
    ORION_CHECK_OK(tier_or.status());
    ServingTier* tier = *tier_or;

    std::vector<std::unique_ptr<PacedClient>> clients;
    for (int c = 0; c < kClientThreads; ++c) {
      clients.push_back(std::make_unique<PacedClient>(
          tier, std::vector<DistArrayId>{w.out_c, w.table},
          kTargetKeysPerSec / kClientThreads));
    }

    const serve::ServingStats before = tier->StatsSnapshot();
    const auto window0 = std::chrono::steady_clock::now();
    for (int p = 0; p < kPasses; ++p) {
      const auto t0 = std::chrono::steady_clock::now();
      ORION_CHECK_OK(w.driver->Execute(w.loop));
      b.pass_seconds.push_back(
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
      // Freshness spot check: the boundary publish inside Execute() means
      // the served out_c now reflects exactly p+1 completed passes.
      const LookupResult r = tier->Lookup(w.out_c, {0, kCols / 2, kCols - 1});
      if (r.status != LookupStatus::kOk || r.values[0] != ExpectedOutC(p + 1, 0) ||
          r.values[1] != ExpectedOutC(p + 1, kCols / 2) ||
          r.values[2] != ExpectedOutC(p + 1, kCols - 1)) {
        fresh_ok = false;
      }
    }
    const double window_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - window0).count();
    const serve::ServingStats after = tier->StatsSnapshot();
    sustained_qps =
        static_cast<double>(after.keys_looked_up - before.keys_looked_up) / window_seconds;
    const WaitHistogram lat = tier->LatencySnapshot();
    p50 = lat.ApproxPercentile(0.50);
    p99 = lat.ApproxPercentile(0.99);

    for (auto& c : clients) {
      c->StopAndJoin();
      client_ok += c->ok_.load();
      client_not_serving += c->not_serving_.load();
      client_shed += c->shed_.load();
    }
    b.out_r = SnapshotArray(w.driver.get(), w.out_r);
    b.out_c = SnapshotArray(w.driver.get(), w.out_c);
    b.table = SnapshotArray(w.driver.get(), w.table);
    w.driver->StopServingTier();
  }

  const bool bitwise = BitIdentical(a.out_r, b.out_r) && BitIdentical(a.out_c, b.out_c) &&
                       BitIdentical(a.table, b.table);
  const double med_a = MedianSeconds(a.pass_seconds);
  const double med_b = MedianSeconds(b.pass_seconds);
  const double slowdown = med_a > 0.0 ? (med_b - med_a) / med_a : 0.0;

  // ---- Overload: 2x+ a rate-limited tier's concurrency ------------------
  // Lookup() is a closed loop (callers block on their reply), so overload
  // means more concurrent clients than the tier has queue+service slots:
  // one shard, a 2-deep queue, 1ms service per single-request batch, and 12
  // clients re-issuing as fast as their replies come back. The bounded
  // queue must shed the excess — and every caller must still return.
  double shed_rate = 0.0;
  {
    CellStore flat = CellStore::DenseRange(1, 0, kCols - 1);
    for (i64 k = 0; k < kCols; ++k) {
      *flat.GetOrCreate(k) = 1.0f;
    }
    VersionedCellStore store(std::move(flat));
    store.BeginServing();
    ServingTierOptions opt;
    opt.num_shards = 1;
    opt.max_queue_per_shard = 2;
    opt.max_batch = 1;
    opt.batch_delay_seconds_for_test = 0.001;
    ServingTier tier({{1, "overload", 1}}, opt);
    auto pub = store.PublishVersion();
    tier.Publish(1, std::move(pub.snap), pub.seq);

    std::atomic<bool> stop{false};
    std::atomic<u64> ok{0}, shed{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < 12; ++c) {
      clients.emplace_back([&] {
        while (!stop.load(std::memory_order_relaxed)) {
          const LookupResult r = tier.Lookup(1, {0, 1, 2, 3});
          if (r.status == LookupStatus::kOk) {
            ++ok;
          } else {
            ++shed;
          }
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    stop.store(true);
    for (auto& t : clients) {
      t.join();
    }
    tier.Stop();
    const u64 total = ok.load() + shed.load();
    shed_rate = total > 0 ? static_cast<double>(shed.load()) / static_cast<double>(total)
                          : 0.0;
    std::printf("overload: ok=%llu shed=%llu rate=%.3f\n",
                static_cast<unsigned long long>(ok.load()),
                static_cast<unsigned long long>(shed.load()), shed_rate);
  }

  std::printf(
      "sustained=%.0f keys/s  p50=%.6fs  p99=%.6fs  slowdown=%.3f  "
      "client ok=%llu not_serving=%llu shed=%llu  bitwise=%d fresh=%d\n",
      sustained_qps, p50, p99, slowdown, static_cast<unsigned long long>(client_ok),
      static_cast<unsigned long long>(client_not_serving),
      static_cast<unsigned long long>(client_shed), bitwise ? 1 : 0, fresh_ok ? 1 : 0);

  PrintShape("training bit-for-bit identical with serving on", bitwise);
  PrintShape("served values track the latest published pass exactly", fresh_ok);
  PrintShape("sustained >= 100k lookups/sec while training", sustained_qps >= 100e3);
  PrintShape("p99 within budget", p99 <= kP99BudgetSeconds);
  PrintShape("training slowdown under 10%", slowdown < 0.10);
  PrintShape("2x overload sheds instead of blocking", shed_rate > 0.0);

  BenchJson out("serving_tier");
  out.Figure("sustained_lookups_per_sec", sustained_qps)
      .Figure("p50_seconds", p50)
      .Figure("p99_seconds", p99)
      .Figure("p99_budget_seconds", kP99BudgetSeconds)
      .Figure("training_pass_seconds_idle", med_a)
      .Figure("training_pass_seconds_serving", med_b)
      .Figure("training_slowdown_frac", slowdown)
      .Figure("overload_shed_rate", shed_rate)
      .Figure("served_fresh", fresh_ok)
      .Figure("bitwise_match", bitwise);
  if (!out.Write()) {
    std::fprintf(stderr, "failed to write BENCH_serving_tier.json\n");
    return 1;
  }
  if (!bitwise || !fresh_ok) {
    std::fprintf(stderr, "FAIL: serving perturbed training or served stale values\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace orion

int main() { return orion::Main(); }
