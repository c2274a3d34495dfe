// Library micro-benchmarks (google-benchmark): the static-analysis path
// (subscript classification, dependence vectors, planning), storage
// primitives, a kernel's DistArray accesses through a LoopContext, the
// worker's buffered-update, key-recording (the compiled prefetch slice) and
// key sort-unique paths, and schedule math.
// These quantify the "compilation" cost the paper amortizes by compiling
// each loop once (Sec. 4.1).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "src/analysis/dependence.h"
#include "src/analysis/plan.h"
#include "src/analysis/unimodular.h"
#include "src/common/rng.h"
#include "src/dsm/bucket.h"
#include "src/dsm/cell_store.h"
#include "src/dsm/dist_array_buffer.h"
#include "src/dsm/versioned_store.h"
#include "src/apps/slr.h"
#include "src/ir/analyze_body.h"
#include "src/ir/expr.h"
#include "src/ir/loop_context.h"
#include "src/runtime/param_server.h"
#include "src/runtime/protocol.h"
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

// A LoopContext over dense stores and buffers, as a worker holds them for
// one block. Its indirect path finds the array's store or buffer and key
// space by id, encodes, and asks the store or buffer, as a worker does for
// an array without a view; with views installed, Read, Mutate and
// BufferUpdate resolve inline instead.
class DenseBlockContext : public LoopContext {
 public:
  void AddArray(DistArrayId id, const KeySpace* ks, CellStore* store,
                DistArrayBuffer* buf = nullptr) {
    if (static_cast<size_t>(id) >= arrays_.size()) {
      arrays_.resize(static_cast<size_t>(id) + 1);
    }
    arrays_[static_cast<size_t>(id)] = {ks, store, buf};
  }
  void InstallViews() {
    for (size_t id = 0; id < arrays_.size(); ++id) {
      const Array& a = arrays_[id];
      if (a.store != nullptr) {
        InstallView(static_cast<DistArrayId>(id), a.store, *a.ks, /*writable=*/true);
      }
    }
  }
  void InstallBufferViews() {
    for (size_t id = 0; id < arrays_.size(); ++id) {
      const Array& a = arrays_[id];
      if (a.buf != nullptr) {
        InstallBufferView(static_cast<DistArrayId>(id), a.buf, *a.ks);
      }
    }
  }
  void AccumulatorAdd(int, f64) override {}

 protected:
  const f32* ReadIndirect(DistArrayId array, IdxSpan idx) override {
    const Array& a = arrays_[static_cast<size_t>(array)];
    return a.store->Get(a.ks->EncodeUnchecked(idx));
  }
  f32* MutateIndirect(DistArrayId array, IdxSpan idx) override {
    const Array& a = arrays_[static_cast<size_t>(array)];
    return a.store->GetOrCreate(a.ks->EncodeUnchecked(idx));
  }
  void BufferUpdateIndirect(DistArrayId array, IdxSpan idx, const f32* update) override {
    const Array& a = arrays_[static_cast<size_t>(array)];
    a.buf->Accumulate(a.ks->EncodeUnchecked(idx), update);
  }

 private:
  struct Array {
    const KeySpace* ks = nullptr;
    CellStore* store = nullptr;
    DistArrayBuffer* buf = nullptr;
  };
  std::vector<Array> arrays_;
};

// One SGD-MF block of ~19k ratings at rank 16, run as a worker runs it:
// decode each rating's key, call the kernel through LoopKernel, and let it
// Mutate W[i] and H[j] through the context. Arg 0 takes every access through
// the virtual indirect path, arg 1 through the block's direct views. Items
// are ratings.
void BM_LoopContextAccess(benchmark::State& state) {
  constexpr i64 kRows = 600;
  constexpr i64 kCols = 500;
  constexpr i32 kRank = 16;
  constexpr DistArrayId kW = 1;
  constexpr DistArrayId kH = 2;
  const KeySpace ratings_ks({kRows, kCols});
  const KeySpace w_ks({kRows});
  const KeySpace h_ks({kCols});
  CellStore ratings(1, CellStore::Layout::kHashed, 0);
  Rng rng(11);
  auto uniform = [&rng](f32 scale) { return scale * static_cast<f32>(rng.NextDouble()); };
  while (ratings.NumCells() < 19000) {
    *ratings.GetOrCreate(rng.NextIndex(kRows * kCols)) = 1.0f + uniform(0.5f);
  }
  CellStore w = CellStore::DenseRange(kRank, 0, kRows - 1);
  CellStore h = CellStore::DenseRange(kRank, 0, kCols - 1);
  for (CellStore* factors : {&w, &h}) {
    factors->ForEachFast([&](i64, f32* v) {
      for (int k = 0; k < kRank; ++k) {
        v[k] = uniform(0.1f);
      }
    });
  }
  const LoopKernel kernel = [](LoopContext& ctx, IdxSpan idx, const f32* value) {
    const i64 key_i[1] = {idx[0]};
    const i64 key_j[1] = {idx[1]};
    f32* wi = ctx.Mutate(kW, key_i);
    f32* hj = ctx.Mutate(kH, key_j);
    f32 pred = 0.0f;
    for (int k = 0; k < kRank; ++k) {
      pred += wi[k] * hj[k];
    }
    const f32 step = 2e-4f * (value[0] - pred);
    for (int k = 0; k < kRank; ++k) {
      const f32 wk = wi[k];
      wi[k] = wk + step * hj[k];
      hj[k] = hj[k] + step * wk;
    }
  };
  DenseBlockContext ctx;
  ctx.AddArray(kW, &w_ks, &w);
  ctx.AddArray(kH, &h_ks, &h);
  if (state.range(0) != 0) {
    ctx.InstallViews();
  }
  std::vector<i64> idx(2);
  for (auto _ : state) {
    ratings.ForEachFast([&](i64 key, f32* value) {
      ratings_ks.DecodeInto(key, idx);
      kernel(ctx, idx, value);
    });
    benchmark::DoNotOptimize(w.raw_values_data());
  }
  state.SetItemsProcessed(state.iterations() * ratings.NumCells());
}
BENCHMARK(BM_LoopContextAccess)->Arg(0)->Arg(1);

// One SLR block: 625 samples of 30 features over 50k weights. Each sample's
// value span is [label, n, id_0, x_0, ..., id_29, x_29], as SlrApp lays it out.
constexpr i64 kSlrCells = 50000;
constexpr i64 kSlrSamples = 625;
constexpr int kSlrFeatures = 30;
constexpr size_t kSlrValueDim = 2 + 2 * kSlrFeatures;

std::vector<f32> SlrBlock() {
  Rng rng(13);
  std::vector<f32> values(static_cast<size_t>(kSlrSamples) * kSlrValueDim);
  for (i64 s = 0; s < kSlrSamples; ++s) {
    f32* row = values.data() + static_cast<size_t>(s) * kSlrValueDim;
    row[0] = static_cast<f32>(rng.NextIndex(2));
    row[1] = static_cast<f32>(kSlrFeatures);
    for (int f = 0; f < kSlrFeatures; ++f) {
      row[2 + 2 * f] = static_cast<f32>(rng.NextIndex(kSlrCells));  // exact below 2^24
      row[3 + 2 * f] = static_cast<f32>(rng.NextDouble());
    }
  }
  return values;
}

// That block run as a worker runs it: the kernel reads each feature's weight
// (through a view, in both args) and buffers its gradient, then the buffer
// drains, as it does once per sync round. Arg 0 takes every BufferUpdate
// through the virtual indirect path, arg 1 through a buffer view. Items are
// buffered updates.
void BM_LoopContextBufferUpdate(benchmark::State& state) {
  constexpr DistArrayId kWeights = 1;
  const KeySpace w_ks({kSlrCells});
  CellStore w = CellStore::DenseRange(1, 0, kSlrCells - 1);
  w.ForEachFast([](i64 key, f32* v) { v[0] = static_cast<f32>(key % 7) * 1e-3f; });
  DistArrayBuffer buf(kWeights, 1, kSlrCells, MakeAddApplyFn());
  const std::vector<f32> samples = SlrBlock();
  const LoopKernel kernel = [](LoopContext& ctx, IdxSpan, const f32* value) {
    const int n = static_cast<int>(value[1]);
    f64 margin = 0.0;
    for (int f = 0; f < n; ++f) {
      const i64 id[1] = {static_cast<i64>(value[2 + 2 * f])};
      margin += static_cast<f64>(ctx.Read(kWeights, id)[0]) * static_cast<f64>(value[3 + 2 * f]);
    }
    const f32 err = (margin > 0.0 ? 1.0f : 0.0f) - value[0];
    for (int f = 0; f < n; ++f) {
      const i64 id[1] = {static_cast<i64>(value[2 + 2 * f])};
      const f32 update = -1e-3f * err * value[3 + 2 * f];
      ctx.BufferUpdate(kWeights, id, &update);
    }
  };
  DenseBlockContext ctx;
  ctx.AddArray(kWeights, &w_ks, &w, &buf);
  ctx.InstallViews();
  if (state.range(0) != 0) {
    ctx.InstallBufferViews();
  }
  std::vector<i64> idx(1);
  for (auto _ : state) {
    for (i64 s = 0; s < kSlrSamples; ++s) {
      idx[0] = s;
      kernel(ctx, idx, samples.data() + static_cast<size_t>(s) * kSlrValueDim);
    }
    benchmark::DoNotOptimize(buf.Drain());
  }
  state.SetItemsProcessed(state.iterations() * kSlrSamples * kSlrFeatures);
}
BENCHMARK(BM_LoopContextBufferUpdate)->Arg(0)->Arg(1);

// The recording pass's read stream over that block (18.75k weight reads)
// collected into a sorted, unique key list: arg 0 appends every key and runs
// SortUniqueKeys, arg 1 marks a KeyBitmap and scans it. Items are reads.
void BM_RecordKeys(benchmark::State& state) {
  const std::vector<f32> samples = SlrBlock();
  std::vector<i64> stream;
  for (i64 s = 0; s < kSlrSamples; ++s) {
    const f32* row = samples.data() + static_cast<size_t>(s) * kSlrValueDim;
    for (int f = 0; f < kSlrFeatures; ++f) {
      stream.push_back(static_cast<i64>(row[2 + 2 * f]));
    }
  }
  const bool bitmap = state.range(0) != 0;
  KeyBitmap marks(kSlrCells);
  std::vector<i64> keys;
  std::vector<i64> scratch;
  for (auto _ : state) {
    keys.clear();
    if (bitmap) {
      for (const i64 k : stream) {
        marks.Mark(k);
      }
      marks.TakeSorted(&keys);
    } else {
      for (const i64 k : stream) {
        keys.push_back(k);
      }
      SortUniqueKeys(&keys, &scratch);
    }
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<i64>(stream.size()));
}
BENCHMARK(BM_RecordKeys)->Arg(0)->Arg(1);

// The compiled prefetch slice of SLR's body run over that block, marking a
// KeyBitmap as the executor's recorder does, then scanned into the sorted,
// unique key list. Items are recorded reads.
void BM_PrefetchSlice(benchmark::State& state) {
  constexpr DistArrayId kWeights = 1;
  PrefetchProgram program = SynthesizePrefetch(SlrLoopBody(kWeights));
  program.BindKeySpace(kWeights, KeySpace({kSlrCells}));

  const std::vector<f32> samples = SlrBlock();
  std::vector<f64> frame(program.frame_size());
  KeyBitmap marks(kSlrCells);
  std::vector<i64> keys;
  std::vector<i64> idx(1);
  for (auto _ : state) {
    keys.clear();
    for (i64 s = 0; s < kSlrSamples; ++s) {
      idx[0] = s;
      program.Run(idx, samples.data() + static_cast<size_t>(s) * kSlrValueDim,
                  static_cast<i32>(kSlrValueDim), frame,
                  [&](int, i64 key) { marks.Mark(key); });
    }
    marks.TakeSorted(&keys);
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetItemsProcessed(state.iterations() * kSlrSamples * kSlrFeatures);
}
BENCHMARK(BM_PrefetchSlice);

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

// A scatter's group-by: 300k distinct one-float cells, in shuffled order,
// into 16 hashed parts (a 4-worker rotation grid's worker x time parts).
void BM_BucketCells(benchmark::State& state) {
  constexpr size_t kCells = 300000;
  constexpr u32 kParts = 16;
  Rng rng(11);
  std::vector<f32> values(kCells);
  std::vector<CellRef> cells;
  std::vector<u32> part_of;
  cells.reserve(kCells);
  part_of.reserve(kCells);
  for (size_t i = 0; i < kCells; ++i) {
    values[i] = static_cast<f32>(i % 5 + 1);
    cells.push_back({static_cast<i64>(i) * 37, &values[i]});
  }
  for (size_t i = kCells; i-- > 1;) {
    std::swap(cells[i], cells[rng.NextBounded(i + 1)]);
  }
  for (size_t i = 0; i < kCells; ++i) {
    part_of.push_back(static_cast<u32>(rng.NextBounded(kParts)));
  }
  for (auto _ : state) {
    std::vector<std::optional<CellStore>> parts(kParts);
    BucketCells(cells, part_of, 1, &parts);
    benchmark::DoNotOptimize(parts.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<i64>(kCells));
}
BENCHMARK(BM_BucketCells);

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

// An SLR prefetch request's key list: 12k sorted, unique keys over 50k.
std::vector<i64> SortedPrefetchKeys() {
  Rng rng(7);
  std::vector<i64> keys(12000);
  for (i64& k : keys) {
    k = rng.NextIndex(50000);
  }
  std::vector<i64> scratch;
  SortUniqueKeys(&keys, &scratch);
  return keys;
}

// A ParamRequest for that list: sized (all the fabric does on the zero-copy
// path) or encoded (the serialized path, which sizes to reserve first).
void BM_KeyListEncode(benchmark::State& state, bool encode) {
  ParamRequest req{0, 0, SortedPrefetchKeys()};
  for (auto _ : state) {
    if (encode) {
      benchmark::DoNotOptimize(Encode(req));
    } else {
      benchmark::DoNotOptimize(WireSize(req));
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<i64>(req.keys.size()));
  state.counters["bytes_per_key"] =
      static_cast<double>(WireSize(req)) / static_cast<double>(req.keys.size());
}
BENCHMARK_CAPTURE(BM_KeyListEncode, wire_size, false);
BENCHMARK_CAPTURE(BM_KeyListEncode, encode, true);

// The master's gather for that list from a pinned snapshot of a 50k-cell
// dense array, on the zero-copy path (no encode).
void BM_BuildParamReply(benchmark::State& state) {
  constexpr i64 kCells = 50000;
  const ParamRequest req{0, 0, SortedPrefetchKeys()};
  CellStore dense(1, CellStore::Layout::kFullDense, kCells);
  for (i64 k = 0; k < kCells; ++k) {
    dense.GetOrCreate(k)[0] = static_cast<f32>(k);
  }
  VersionedCellStore store(std::move(dense));
  store.BeginServing();
  const VersionedCellStore::Snapshot snap = store.Pin();
  for (auto _ : state) {
    Message reply = BuildParamReply(req, snap, 1, /*zero_copy=*/true);
    benchmark::DoNotOptimize(reply.WireSize());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<i64>(req.keys.size()));
}
BENCHMARK(BM_BuildParamReply);

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
