// Data-plane raw-speed microbenchmarks: SIMD gather/apply/clone kernels and
// pooled serialization.
//
//  - gather/apply: simd::CopyF32 / simd::AddF32 throughput at the forced
//    scalar level vs the best runtime-dispatched level, over cell-shaped
//    strided spans (the shape Gather and the deferred-apply folds see). The
//    scalar reference is compiled with auto-vectorization off, so the ratio
//    is kernel vs honest scalar loop, not kernel vs compiler output.
//  - clone: VersionedCellStore pagination + copy-on-write page-clone
//    throughput.
//  - serialization: encode/consume/release loop over PartData-sized
//    payloads; reports allocations-per-message and the pool hit rate
//    (steady state must be ~0 fresh allocations per message).
//
// Results go to BENCH_dataplane.json. The CI smoke step compares the
// *dimensionless* figures (speedups, hit rate) against the committed
// baseline bench/dataplane_baseline.json and fails on a >10% drop —
// absolute MB/s is machine-dependent and is reported but not gated.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/buffer_pool.h"
#include "src/common/rng.h"
#include "src/common/serde.h"
#include "src/common/simd.h"
#include "src/common/timer.h"
#include "src/dsm/cell_store.h"
#include "src/dsm/versioned_store.h"
#include "src/runtime/protocol.h"

namespace orion {
namespace {

constexpr size_t kCells = 1 << 16;   // cells per kernel pass
constexpr i32 kVdim = 8;             // typical parameter-row width
constexpr size_t kFloats = kCells * kVdim;
constexpr int kReps = 40;

double MbPerSec(size_t bytes_per_rep, int reps, double seconds) {
  return static_cast<double>(bytes_per_rep) * reps / seconds / 1e6;
}

// Copy kernel in the gather shape: one CopyF32 per cell of kVdim lanes
// (what ParamServer::Gather and the scatter/fold loops issue), plus the
// page-sized bulk shape BeginServing issues. Returns MB/s.
double BenchCopy(simd::Level level, std::vector<f32>* dst, const std::vector<f32>* src) {
  simd::ForceLevel(level);
  Stopwatch sw;
  for (int r = 0; r < kReps; ++r) {
    for (size_t c = 0; c < kCells; ++c) {
      simd::CopyF32(dst->data() + c * kVdim, src->data() + c * kVdim, kVdim);
    }
  }
  const double sec = sw.ElapsedSeconds();
  simd::ResetLevel();
  return MbPerSec(kFloats * sizeof(f32), kReps, sec);
}

double BenchAdd(simd::Level level, std::vector<f32>* dst, const std::vector<f32>* src) {
  simd::ForceLevel(level);
  Stopwatch sw;
  for (int r = 0; r < kReps; ++r) {
    for (size_t c = 0; c < kCells; ++c) {
      simd::AddF32(dst->data() + c * kVdim, src->data() + c * kVdim, kVdim);
    }
  }
  const double sec = sw.ElapsedSeconds();
  simd::ResetLevel();
  return MbPerSec(kFloats * sizeof(f32), kReps, sec);
}

// Pagination (BeginServing/Collapse round trips) throughput: the bulk-copy
// path page clones share. Returns MB/s of cell bytes moved per direction.
double BenchClone(simd::Level level) {
  constexpr i64 kStoreCells = 40000;
  constexpr i32 kDim = 8;
  CellStore flat(kDim, CellStore::Layout::kFullDense, kStoreCells);
  Rng rng(7);
  for (i64 k = 0; k < kStoreCells; ++k) {
    f32* v = flat.GetOrCreate(k);
    for (i32 d = 0; d < kDim; ++d) {
      v[d] = static_cast<f32>(rng.NextGaussian());
    }
  }
  VersionedCellStore store(std::move(flat));
  simd::ForceLevel(level);
  constexpr int kRounds = 20;
  Stopwatch sw;
  for (int r = 0; r < kRounds; ++r) {
    store.BeginServing();   // chop into pages (bulk copy)
    (void)store.Flat();     // collapse back (bulk copy)
  }
  const double sec = sw.ElapsedSeconds();
  simd::ResetLevel();
  // Two bulk copies per round.
  return MbPerSec(static_cast<size_t>(kStoreCells) * kDim * sizeof(f32) * 2, kRounds,
                  sec);
}

// Steady-state serialization loop: encode a PartData-sized payload, consume
// it, release the buffer. Reports the pool hit rate and fresh allocations
// per message once warm.
struct SerdePoint {
  double hit_rate = 0.0;
  double allocs_per_message = 0.0;
  double mb_per_sec = 0.0;
};

SerdePoint BenchSerde() {
  constexpr int kMessages = 2000;
  constexpr i64 kPartCells = 512;
  PartData pd;
  pd.array = 1;
  pd.cells = CellStore(kVdim, CellStore::Layout::kHashed, 0);
  Rng rng(9);
  for (i64 k = 0; k < kPartCells; ++k) {
    f32* v = pd.cells.GetOrCreate(k * 3);
    for (i32 d = 0; d < kVdim; ++d) {
      v[d] = static_cast<f32>(rng.NextGaussian());
    }
  }
  // Warm the cache so the measured window is steady state.
  for (int i = 0; i < 4; ++i) {
    BufferPool::Release(Encode(pd));
  }
  BufferPool::ResetStatsForTest();
  size_t bytes = 0;
  Stopwatch sw;
  for (int i = 0; i < kMessages; ++i) {
    std::vector<u8> payload = Encode(pd);
    bytes += payload.size();
    PartData back = Decode<PartData>(payload);
    ORION_CHECK(back.cells.NumCells() == kPartCells);
    BufferPool::Release(std::move(payload));
  }
  const double sec = sw.ElapsedSeconds();
  const BufferPool::Stats s = BufferPool::AggregateStats();
  SerdePoint p;
  p.hit_rate = s.acquires == 0
                   ? 0.0
                   : static_cast<double>(s.hits) / static_cast<double>(s.acquires);
  p.allocs_per_message =
      static_cast<double>(s.acquires - s.hits) / static_cast<double>(kMessages);
  p.mb_per_sec = static_cast<double>(bytes) / sec / 1e6;
  return p;
}

// ---- Regression gate ----

// Reads "key": value out of a flat JSON file (the committed baseline).
// Returns fallback when the file or key is missing, so a fresh checkout
// without a baseline still runs.
double JsonNumber(const std::string& text, const std::string& key, double fallback) {
  const std::string needle = "\"" + key + "\"";
  const size_t at = text.find(needle);
  if (at == std::string::npos) {
    return fallback;
  }
  const size_t colon = text.find(':', at);
  if (colon == std::string::npos) {
    return fallback;
  }
  return std::atof(text.c_str() + colon + 1);
}

std::string ReadFileOrEmpty(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return {};
  }
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    out.append(buf, n);
  }
  std::fclose(f);
  return out;
}

int Main(int argc, char** argv) {
  PrintHeader("data-plane raw speed",
              "SIMD gather/apply/clone kernels vs forced-scalar, pooled "
              "serialization");
  const std::string baseline_path = argc > 1 ? argv[1] : "";

  Rng rng(3);
  std::vector<f32> src(kFloats), dst(kFloats);
  for (f32& v : src) {
    v = static_cast<f32>(rng.NextGaussian());
  }

  // Best-of-N per configuration: a single-core container timeshares with
  // everything else on the machine, so the max over trials is the honest
  // kernel throughput while mean/min fold in scheduler noise.
  constexpr int kTrials = 5;
  auto best_of = [&](auto&& fn) {
    double best = 0.0;
    for (int t = 0; t < kTrials; ++t) {
      best = std::max(best, fn());
    }
    return best;
  };
  (void)BenchCopy(simd::Level::kScalar, &dst, &src);  // warm-up
  const double copy_scalar =
      best_of([&] { return BenchCopy(simd::Level::kScalar, &dst, &src); });
  const double copy_best =
      best_of([&] { return BenchCopy(simd::BestSupportedLevel(), &dst, &src); });
  const double add_scalar =
      best_of([&] { return BenchAdd(simd::Level::kScalar, &dst, &src); });
  const double add_best =
      best_of([&] { return BenchAdd(simd::BestSupportedLevel(), &dst, &src); });
  const double clone_scalar = best_of([] { return BenchClone(simd::Level::kScalar); });
  const double clone_best =
      best_of([] { return BenchClone(simd::BestSupportedLevel()); });
  const double copy_speedup = copy_best / copy_scalar;
  const double add_speedup = add_best / add_scalar;
  const double clone_speedup = clone_best / clone_scalar;

  std::printf("kernel,scalar_mb_s,%s_mb_s,speedup\n",
              simd::LevelName(simd::BestSupportedLevel()));
  std::printf("gather_copy,%.0f,%.0f,%.2f\n", copy_scalar, copy_best, copy_speedup);
  std::printf("apply_add,%.0f,%.0f,%.2f\n", add_scalar, add_best, add_speedup);
  std::printf("page_clone,%.0f,%.0f,%.2f\n", clone_scalar, clone_best, clone_speedup);

  const SerdePoint serde = BenchSerde();
  std::printf("serialization: %.0f MB/s, pool hit rate %.3f, allocs/message %.4f\n",
              serde.mb_per_sec, serde.hit_rate, serde.allocs_per_message);

  BenchJson("dataplane")
      .Figure("best_level", JsonF("\"%s\"", simd::LevelName(simd::BestSupportedLevel())))
      .Figure("gather_copy_scalar_mb_s", JsonF("%.1f", copy_scalar))
      .Figure("gather_copy_simd_mb_s", JsonF("%.1f", copy_best))
      .Figure("gather_copy_speedup", JsonF("%.3f", copy_speedup))
      .Figure("apply_add_scalar_mb_s", JsonF("%.1f", add_scalar))
      .Figure("apply_add_simd_mb_s", JsonF("%.1f", add_best))
      .Figure("apply_add_speedup", JsonF("%.3f", add_speedup))
      .Figure("page_clone_scalar_mb_s", JsonF("%.1f", clone_scalar))
      .Figure("page_clone_simd_mb_s", JsonF("%.1f", clone_best))
      .Figure("page_clone_speedup", JsonF("%.3f", clone_speedup))
      .Figure("serde_mb_per_sec", JsonF("%.1f", serde.mb_per_sec))
      .Figure("pool_hit_rate", JsonF("%.4f", serde.hit_rate))
      .Figure("allocs_per_message", JsonF("%.4f", serde.allocs_per_message))
      .Write();

  bool ok = true;
  // The kernels must beat the honest scalar loop on at least one of the
  // three paths (acceptance: >= 1.15x), and the pool must make the
  // steady-state encode loop allocation-free.
  const double best = std::max({copy_speedup, add_speedup, clone_speedup});
  PrintShape("SIMD beats forced-scalar by >= 1.15x on gather, apply, or clone",
             best >= 1.15);
  ok = ok && best >= 1.15;
  PrintShape("steady-state pool hit rate >= 0.95 (allocs/message ~ 0)",
             serde.hit_rate >= 0.95);
  ok = ok && serde.hit_rate >= 0.95;

  // Regression gate vs the committed baseline: dimensionless ratios only.
  if (!baseline_path.empty()) {
    const std::string base = ReadFileOrEmpty(baseline_path);
    if (base.empty()) {
      std::printf("baseline %s missing; gate skipped\n", baseline_path.c_str());
    } else {
      struct Gate {
        const char* key;
        double now;
      };
      const Gate gates[] = {
          {"gather_copy_speedup", copy_speedup},
          {"apply_add_speedup", add_speedup},
          {"page_clone_speedup", clone_speedup},
          {"pool_hit_rate", serde.hit_rate},
      };
      for (const Gate& g : gates) {
        const double want = JsonNumber(base, g.key, 0.0);
        if (want > 0.0 && g.now < want * 0.9) {
          std::printf("REGRESSION: %s %.3f < 90%% of baseline %.3f\n", g.key, g.now,
                      want);
          ok = false;
        } else {
          std::printf("gate %s: %.3f (baseline %.3f) OK\n", g.key, g.now, want);
        }
      }
    }
  }

  return ok ? 0 : 1;
}

}  // namespace
}  // namespace orion

int main(int argc, char** argv) { return orion::Main(argc, argv); }
