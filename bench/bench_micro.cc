// Library micro-benchmarks (google-benchmark): the static-analysis path
// (subscript classification, dependence vectors, planning), storage
// primitives, the worker's buffered-update and key sort-unique paths, and
// schedule math. These quantify the "compilation" cost the paper amortizes
// by compiling each loop once (Sec. 4.1).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "src/analysis/dependence.h"
#include "src/analysis/plan.h"
#include "src/analysis/unimodular.h"
#include "src/common/rng.h"
#include "src/dsm/bucket.h"
#include "src/dsm/cell_store.h"
#include "src/dsm/dist_array_buffer.h"
#include "src/ir/expr.h"
#include "src/sched/schedule.h"

namespace orion {
namespace {

LoopSpec MfSpec() {
  LoopSpec spec;
  spec.iter_space = 0;
  spec.iter_extents = {10000, 8000};
  spec.AddAccess(1, "W", {Expr::LoopIndex(0)}, false);
  spec.AddAccess(2, "H", {Expr::LoopIndex(1)}, false);
  spec.AddAccess(1, "W", {Expr::LoopIndex(0)}, true);
  spec.AddAccess(2, "H", {Expr::LoopIndex(1)}, true);
  return spec;
}

void BM_ClassifySubscript(benchmark::State& state) {
  auto e = Expr::Add(Expr::LoopIndex(1), Expr::Const(3));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ClassifySubscript(e));
  }
}
BENCHMARK(BM_ClassifySubscript);

void BM_ComputeDependenceVectors(benchmark::State& state) {
  const LoopSpec spec = MfSpec();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeDependenceVectors(spec));
  }
}
BENCHMARK(BM_ComputeDependenceVectors);

void BM_PlanLoop(benchmark::State& state) {
  const LoopSpec spec = MfSpec();
  std::map<DistArrayId, ArrayStats> stats;
  stats[1] = ArrayStats{10000, 8};
  stats[2] = ArrayStats{8000, 8};
  PlannerOptions options;
  options.num_workers = 8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(PlanLoop(spec, stats, options));
  }
}
BENCHMARK(BM_PlanLoop);

void BM_UnimodularSearch(benchmark::State& state) {
  std::vector<DepVec> deps;
  DepVec d1(2);
  d1[0] = DepEntry::Value(0);
  d1[1] = DepEntry::Value(1);
  DepVec d2(2);
  d2[0] = DepEntry::Value(1);
  d2[1] = DepEntry::Value(0);
  deps.push_back(d1);
  deps.push_back(d2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FindOuterCarryingTransform(deps));
  }
}
BENCHMARK(BM_UnimodularSearch);

void BM_CellStoreHashedGet(benchmark::State& state) {
  CellStore store(8, CellStore::Layout::kHashed, 0);
  Rng rng(1);
  for (int i = 0; i < 100000; ++i) {
    store.GetOrCreate(static_cast<i64>(rng.NextBounded(1 << 20)));
  }
  Rng probe(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Get(static_cast<i64>(probe.NextBounded(1 << 20))));
  }
}
BENCHMARK(BM_CellStoreHashedGet);

void BM_CellStoreDenseRangeGet(benchmark::State& state) {
  CellStore store = CellStore::DenseRange(8, 1000, 101000);
  Rng probe(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Get(1000 + static_cast<i64>(probe.NextBounded(100000))));
  }
}
BENCHMARK(BM_CellStoreDenseRangeGet);

void BM_CellStoreSerializeRoundtrip(benchmark::State& state) {
  CellStore store = CellStore::DenseRange(8, 0, 9999);
  for (auto _ : state) {
    ByteWriter w;
    store.Serialize(&w);
    auto bytes = w.Take();
    ByteReader r(bytes);
    benchmark::DoNotOptimize(CellStore::Deserialize(&r));
  }
}
BENCHMARK(BM_CellStoreSerializeRoundtrip);

// SLR-shaped buffered updates: a 20k-update stream over 50k cells in which a
// quarter of the updates are a key's first touch, accumulated and drained.
void BM_BufferAccumulate(benchmark::State& state) {
  constexpr i64 kCells = 50000;
  constexpr int kUnique = 5000;
  constexpr int kRepeats = 4;
  Rng rng(3);
  std::vector<i64> unique;
  std::vector<bool> taken(kCells, false);
  while (static_cast<int>(unique.size()) < kUnique) {
    const i64 k = rng.NextIndex(kCells);
    if (!taken[static_cast<size_t>(k)]) {
      taken[static_cast<size_t>(k)] = true;
      unique.push_back(k);
    }
  }
  std::vector<i64> stream;
  for (int r = 0; r < kRepeats; ++r) {
    stream.insert(stream.end(), unique.begin(), unique.end());
  }
  for (size_t i = stream.size() - 1; i > 0; --i) {
    std::swap(stream[i], stream[static_cast<size_t>(rng.NextIndex(static_cast<i64>(i) + 1))]);
  }
  DistArrayBuffer buf(0, 1, kCells, MakeAddApplyFn());
  const f32 update = 0.5f;
  for (auto _ : state) {
    for (const i64 key : stream) {
      buf.Accumulate(key, &update);
    }
    benchmark::DoNotOptimize(buf.Drain());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<i64>(stream.size()));
}
BENCHMARK(BM_BufferAccumulate);

// A prefetch key list: 12k keys drawn over 50k (dense range, duplicates).
void BM_SortUniqueKeysDenseRange(benchmark::State& state) {
  Rng rng(5);
  std::vector<i64> keys(12000);
  for (i64& k : keys) {
    k = rng.NextIndex(50000);
  }
  std::vector<i64> work;
  std::vector<i64> scratch;
  for (auto _ : state) {
    work = keys;
    SortUniqueKeys(&work, &scratch);
    benchmark::DoNotOptimize(work.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<i64>(keys.size()));
}
BENCHMARK(BM_SortUniqueKeysDenseRange);

void BM_RotationScheduleMath(benchmark::State& state) {
  RotationSchedule sched{16, 2};
  int step = 0;
  for (auto _ : state) {
    step = (step + 1) % sched.num_steps();
    for (int w = 0; w < sched.num_workers; ++w) {
      benchmark::DoNotOptimize(sched.TimePartAt(w, step));
    }
  }
}
BENCHMARK(BM_RotationScheduleMath);

}  // namespace
}  // namespace orion

BENCHMARK_MAIN();
