// Versioned copy-on-write parameter store: snapshot serving must be
// bit-for-bit identical to synchronous inline serving (and to the serial
// recurrence) in every configuration (1D chunked rounds, wavefront
// overwrites, fault injection, crash recovery), while gather
// tasks copy from pinned snapshots with no lock held.
//
// Unit layer: the publish -> pin -> clone-on-write -> retire lifecycle of
// VersionedCellStore (no copy when unique, copy when pinned, hashed inserts
// invisible to older snapshots, collapse back to a flat CellStore).
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <map>
#include <vector>

#include "src/common/rng.h"
#include "src/dsm/dist_array_buffer.h"
#include "src/dsm/versioned_store.h"
#include "src/net/fault_injector.h"
#include "src/runtime/driver.h"

namespace orion {
namespace {

constexpr i64 kP = VersionedCellStore::kPageCells;

// ---------------------------------------------------------------------------
// Unit: snapshot isolation and page-refcount lifecycle.

TEST(VersionedStore, SnapshotIsolationDense) {
  constexpr i32 kDim = 2;
  constexpr i64 kCells = 2 * kP + 77;  // three pages, last partial
  CellStore flat(kDim, CellStore::Layout::kFullDense, kCells);
  for (i64 k = 0; k < kCells; ++k) {
    f32* v = flat.GetOrCreate(k);
    v[0] = static_cast<f32>(k);
    v[1] = static_cast<f32>(-k);
  }
  VersionedCellStore store(std::move(flat));
  EXPECT_FALSE(store.paged());
  store.BeginServing();
  EXPECT_TRUE(store.paged());
  EXPECT_EQ(store.num_pages(), 3);
  EXPECT_EQ(store.NumCells(), kCells);

  VersionedCellStore::Snapshot snap = store.Pin();
  ASSERT_TRUE(snap.valid());
  EXPECT_EQ(store.live_pins(), 1);

  // Writer touches page 0 and page 2; the pinned snapshot keeps the old
  // values, a fresh pin observes the new ones.
  store.GetOrCreate(3)[0] = 1000.0f;
  store.GetOrCreate(2 * kP + 5)[1] = 2000.0f;
  EXPECT_EQ(snap.Get(3)[0], 3.0f);
  EXPECT_EQ(snap.Get(2 * kP + 5)[1], static_cast<f32>(-(2 * kP + 5)));
  EXPECT_EQ(store.Get(3)[0], 1000.0f);

  VersionedCellStore::Snapshot snap2 = store.Pin();
  EXPECT_EQ(snap2.Get(3)[0], 1000.0f);
  EXPECT_EQ(snap2.Get(2 * kP + 5)[1], 2000.0f);
  EXPECT_EQ(snap2.Get(kP + 1)[0], static_cast<f32>(kP + 1));  // untouched page

  snap.Release();
  snap2.Release();
  EXPECT_EQ(store.live_pins(), 0);

  const VersionedCellStore::Stats s = store.TakeStats();
  EXPECT_EQ(s.pins, 2u);
  EXPECT_EQ(s.pages_cloned, 2u);  // pages 0 and 2, exactly once each
  EXPECT_EQ(s.cow_bytes, 2u * static_cast<u64>(kP) * kDim * sizeof(f32));

  // Collapse restores a plain CellStore with the mutated contents.
  CellStore& back = store.Flat();
  EXPECT_FALSE(store.paged());
  EXPECT_EQ(back.NumCells(), kCells);
  EXPECT_EQ(back.Get(3)[0], 1000.0f);
  EXPECT_EQ(back.Get(2 * kP + 5)[1], 2000.0f);
  EXPECT_EQ(back.Get(kP + 1)[0], static_cast<f32>(kP + 1));
}

TEST(VersionedStore, NoCopyWhenUnique) {
  CellStore flat(1, CellStore::Layout::kFullDense, kP + 10);
  VersionedCellStore store(std::move(flat));
  store.BeginServing();

  // Pin and release: once no snapshot is live, writes claim pages in place.
  store.Pin().Release();
  EXPECT_EQ(store.live_pins(), 0);
  store.GetOrCreate(1)[0] = 5.0f;
  store.GetOrCreate(kP + 1)[0] = 6.0f;
  const VersionedCellStore::Stats s = store.TakeStats();
  EXPECT_EQ(s.pins, 1u);
  EXPECT_EQ(s.pages_cloned, 0u);
  EXPECT_EQ(s.cow_bytes, 0u);
  EXPECT_EQ(store.Get(1)[0], 5.0f);
}

TEST(VersionedStore, PageRefcountLifecycle) {
  CellStore flat(1, CellStore::Layout::kFullDense, 2 * kP);
  for (i64 k = 0; k < 2 * kP; ++k) {
    *flat.GetOrCreate(k) = static_cast<f32>(k);
  }
  VersionedCellStore store(std::move(flat));
  store.BeginServing();
  // One page table references each page.
  EXPECT_EQ(store.PageUseCount(0), 1);
  EXPECT_EQ(store.PageUseCount(kP), 1);

  VersionedCellStore::Snapshot snap = store.Pin();
  // COW write to page 0: the writer's table is cloned, page 0 forks (fresh,
  // uniquely owned), page 1 is now shared by both tables.
  store.GetOrCreate(0)[0] = -1.0f;
  EXPECT_EQ(store.PageUseCount(0), 1);
  EXPECT_EQ(store.PageUseCount(kP), 2);
  EXPECT_EQ(snap.Get(0)[0], 0.0f);  // pinned version unchanged

  // Retire: releasing the last snapshot drops the old table and with it the
  // old page 0; the shared page returns to a single owner.
  snap.Release();
  EXPECT_EQ(store.live_pins(), 0);
  EXPECT_EQ(store.PageUseCount(kP), 1);

  // Repeated writes to an already-forked page never clone again.
  const u64 cloned_before = store.stats().pages_cloned;
  store.GetOrCreate(1)[0] = -2.0f;
  EXPECT_EQ(store.stats().pages_cloned, cloned_before);
}

TEST(VersionedStore, HashedInsertInvisibleToOlderSnapshots) {
  CellStore flat(1, CellStore::Layout::kHashed, 0);
  for (i64 key : {11, 42, 900}) {
    *flat.GetOrCreate(key) = static_cast<f32>(key);
  }
  VersionedCellStore store(std::move(flat));
  store.BeginServing();
  VersionedCellStore::Snapshot snap = store.Pin();

  // Insert a new key and mutate an old one while pinned.
  *store.GetOrCreate(7777) = 1.0f;
  *store.GetOrCreate(42) = -42.0f;
  EXPECT_EQ(snap.Get(7777), nullptr);  // index was cloned before the insert
  EXPECT_EQ(snap.Get(42)[0], 42.0f);
  EXPECT_EQ(store.Get(7777)[0], 1.0f);
  EXPECT_EQ(store.Get(42)[0], -42.0f);
  EXPECT_EQ(store.NumCells(), 4);

  VersionedCellStore::Snapshot snap2 = store.Pin();
  EXPECT_EQ(snap2.Get(7777)[0], 1.0f);
  snap.Release();
  snap2.Release();

  CellStore& back = store.Flat();
  EXPECT_EQ(back.NumCells(), 4);
  EXPECT_EQ(back.Get(7777)[0], 1.0f);
  EXPECT_EQ(back.Get(42)[0], -42.0f);
  EXPECT_EQ(back.Get(11)[0], 11.0f);
}

// Enough inserts under a live pin to grow the writer's index several times:
// the pinned snapshot keeps resolving through its own copy.
TEST(VersionedStore, HashedIndexGrowthUnderPinLeavesSnapshotIntact) {
  constexpr i64 kOld = 300;
  CellStore flat(1, CellStore::Layout::kHashed, 0);
  for (i64 k = 0; k < kOld; ++k) {
    *flat.GetOrCreate(-k * 1000003) = static_cast<f32>(k);
  }
  VersionedCellStore store(std::move(flat));
  store.BeginServing();
  VersionedCellStore::Snapshot snap = store.Pin();

  constexpr i64 kNew = 4000;
  for (i64 k = 0; k < kNew; ++k) {
    *store.GetOrCreate(k * 1000003 + 1) = -1.0f;
  }
  *store.GetOrCreate(0) = 99.0f;  // an old key, rewritten after the growth
  EXPECT_EQ(store.NumCells(), kOld + kNew);
  for (i64 k = 0; k < kOld; ++k) {
    const f32* v = snap.Get(-k * 1000003);
    ASSERT_NE(v, nullptr) << "old key " << k;
    EXPECT_EQ(v[0], static_cast<f32>(k));
  }
  for (i64 k = 0; k < kNew; ++k) {
    ASSERT_EQ(snap.Get(k * 1000003 + 1), nullptr) << "new key " << k;
    EXPECT_EQ(store.Get(k * 1000003 + 1)[0], -1.0f);
  }
  EXPECT_EQ(store.Get(0)[0], 99.0f);
  snap.Release();
  EXPECT_EQ(store.Flat().NumCells(), kOld + kNew);
}

TEST(VersionedStore, AssignDropsPagesAndGoesFlat) {
  CellStore flat(1, CellStore::Layout::kFullDense, kP);
  VersionedCellStore store(std::move(flat));
  store.BeginServing();
  store.Pin().Release();

  CellStore replacement(1, CellStore::Layout::kFullDense, 3);
  *replacement.GetOrCreate(2) = 9.0f;
  store = std::move(replacement);  // the recovery-restore path
  EXPECT_FALSE(store.paged());
  EXPECT_EQ(store.NumCells(), 3);
  EXPECT_EQ(store.Get(2)[0], 9.0f);
}

// The same copy-on-write-under-pin writes and MergeAdd applied to a paged
// store and to a plain CellStore give bit-identical contents, for dense and
// hashed layouts spanning several pages; the pinned snapshot keeps the
// pre-write contents bit for bit.
TEST(VersionedStore, PagedWritesMatchFlatStore) {
  constexpr i32 kDim = 3;
  constexpr i64 kCells = 5 * kP + 220;  // six pages, last partial
  for (bool dense : {true, false}) {
    SCOPED_TRACE(dense ? "dense" : "hashed");
    auto key_of = [dense](i64 k) { return dense ? k : k * 7 + 1; };
    CellStore flat = dense ? CellStore(kDim, CellStore::Layout::kFullDense, kCells)
                           : CellStore(kDim, CellStore::Layout::kHashed, 0);
    Rng rng(0x9a6e5eedULL);
    for (i64 k = 0; k < kCells; ++k) {
      f32* v = flat.GetOrCreate(key_of(k));
      for (i32 d = 0; d < kDim; ++d) {
        v[d] = static_cast<f32>(rng.NextGaussian());
      }
    }
    const CellStore before = flat;
    VersionedCellStore store(flat);
    store.BeginServing();
    ASSERT_EQ(store.num_pages(), 6);

    VersionedCellStore::Snapshot snap = store.Pin();
    Rng wr(0x11ULL);
    for (int i = 0; i < 300; ++i) {
      const i64 key = key_of(wr.NextIndex(kCells));
      for (f32* v : {store.GetOrCreate(key), flat.GetOrCreate(key)}) {
        v[0] += 1.0f;
        v[2] = static_cast<f32>(i);
      }
    }
    CellStore updates(kDim, CellStore::Layout::kHashed, 0);
    for (int i = 0; i < 100; ++i) {
      updates.GetOrCreate(key_of(wr.NextIndex(kCells)))[1] = 0.25f;
    }
    store.MergeAdd(updates);
    flat.MergeAdd(updates);
    EXPECT_GT(store.stats().pages_cloned, 0u);

    ASSERT_EQ(store.NumCells(), flat.NumCells());
    const size_t bytes = kDim * sizeof(f32);
    flat.ForEachConst([&](i64 key, const f32* want) {
      ASSERT_NE(store.Get(key), nullptr) << "key " << key;
      EXPECT_EQ(std::memcmp(store.Get(key), want, bytes), 0) << "key " << key;
    });
    before.ForEachConst([&](i64 key, const f32* want) {
      EXPECT_EQ(std::memcmp(snap.Get(key), want, bytes), 0) << "snapshot key " << key;
    });
    snap.Release();
  }
}

// ---------------------------------------------------------------------------
// Integration: 1D chunked loops served from snapshots.
//
// The workload is arrival-invariant by construction — reads hit a read-only
// server table and writes are additive integer-valued updates to a
// write-only server array — so the final state is bitwise independent of
// mid-pass apply interleaving and async serving can be compared bit-for-bit
// against inline serving across worker timings.

std::map<i64, std::vector<f32>> Snapshot(Driver* d, DistArrayId id) {
  std::map<i64, std::vector<f32>> out;
  const CellStore& c = d->Cells(id);
  c.ForEachConst([&](i64 key, const f32* v) { out[key].assign(v, v + c.value_dim()); });
  return out;
}

::testing::AssertionResult BitIdentical(const std::map<i64, std::vector<f32>>& a,
                                        const std::map<i64, std::vector<f32>>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "cell counts differ: " << a.size() << " vs " << b.size();
  }
  for (const auto& [key, va] : a) {
    auto it = b.find(key);
    if (it == b.end()) {
      return ::testing::AssertionFailure() << "key " << key << " missing";
    }
    if (va.size() != it->second.size() ||
        std::memcmp(va.data(), it->second.data(), va.size() * sizeof(f32)) != 0) {
      return ::testing::AssertionFailure() << "key " << key << " differs bitwise";
    }
  }
  return ::testing::AssertionSuccess();
}

struct OneDOptions {
  bool async = true;  // false: the inline-serving oracle
  int rounds = 2;
  int workers = 4;
  int passes = 3;
  PrefetchMode prefetch = PrefetchMode::kBulk;
  FaultPlan fault_plan;
  bool recovery = false;
  std::string recovery_dir;
};

struct OneDResult {
  std::map<i64, std::vector<f32>> table_w;
  f64 accum = 0.0;
  LoopMetrics last;
  RuntimeMetrics runtime;
};

OneDResult RunOneD(const OneDOptions& opt) {
  constexpr i64 kSamples = 96;
  constexpr i64 kKeys = 700;  // ~3 pages when paginated

  DriverConfig cfg;
  cfg.num_workers = opt.workers;
  cfg.seed = 19;
  cfg.async_param_serving = opt.async;
  cfg.fault_plan = opt.fault_plan;
  if (cfg.fault_plan.Active()) {
    cfg.supervisor.enabled = true;
    cfg.supervisor.heartbeat_interval_seconds = 0.02;
    cfg.supervisor.retry_initial_seconds = 0.02;
    cfg.supervisor.death_timeout_seconds = 2.0;
  }
  Driver driver(cfg);

  auto samples = driver.CreateDistArray("samples", {kSamples}, 3, Density::kDense);
  auto table_r = driver.CreateDistArray("table_r", {kKeys}, 2, Density::kDense);
  auto table_w = driver.CreateDistArray("table_w", {kKeys}, 1, Density::kDense);
  driver.MapCells(samples, [](i64 key, f32* v) {
    v[0] = static_cast<f32>((key * 31 + 7) % kKeys);   // read key
    v[1] = static_cast<f32>((key * 17 + 3) % kKeys);   // write key
    v[2] = static_cast<f32>(1 + key % 5);              // small integer payload
  });
  driver.MapCells(table_r, [](i64 key, f32* v) {
    v[0] = static_cast<f32>(key % 11);
    v[1] = static_cast<f32>(key % 7);
  });
  driver.RegisterBuffer(table_w, 1, MakeAddApplyFn());
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
    // Integer-valued f32 arithmetic: adds are exact, so the merged result is
    // independent of apply order.
    const f32 upd = value[2] * (t[0] + 1.0f);
    ctx.BufferUpdate(table_w, wk, &upd);
    ctx.AccumulatorAdd(acc, static_cast<f64>(upd));
  };

  ParallelForOptions options;
  options.prefetch = opt.prefetch;
  options.server_sync_rounds = opt.rounds;
  options.planner.replicate_threshold_floats = 0;  // force both tables -> kServer
  auto loop = driver.Compile(spec, kernel, options);
  EXPECT_TRUE(loop.ok()) << loop.status();
  EXPECT_EQ(driver.PlanOf(*loop).form, ParallelForm::k1D);
  EXPECT_EQ(driver.PlanOf(*loop).placements.at(table_r).scheme, PartitionScheme::kServer);
  EXPECT_EQ(driver.PlanOf(*loop).placements.at(table_w).scheme, PartitionScheme::kServer);

  if (opt.recovery) {
    Driver::DurabilityOptions durability;
    durability.every_n_passes = 2;
    EXPECT_TRUE(driver.EnableDurability({table_w}, opt.recovery_dir, durability).ok());
  }
  OneDResult res;
  for (int p = 0; p < opt.passes; ++p) {
    EXPECT_TRUE(driver.Execute(*loop).ok());
  }
  res.last = driver.last_metrics();
  res.runtime = driver.runtime_metrics();
  res.table_w = Snapshot(&driver, table_w);
  res.accum = driver.AccumulatorValue(acc);
  return res;
}

TEST(VersionedServing1D, AsyncMatchesInlineAcrossRounds) {
  OneDOptions inline_opt;
  inline_opt.async = false;
  const OneDResult ref = RunOneD(inline_opt);
  EXPECT_EQ(ref.last.versioned_snapshot_pins, 0u);

  for (int rounds : {1, 2, 4}) {
    OneDOptions o;
    o.rounds = rounds;
    const OneDResult got = RunOneD(o);
    EXPECT_TRUE(BitIdentical(ref.table_w, got.table_w)) << "rounds=" << rounds;
    EXPECT_EQ(ref.accum, got.accum) << "rounds=" << rounds;
    // Snapshot serving actually ran: pins were taken and the ParamServer
    // had requests in flight.
    EXPECT_GT(got.last.versioned_snapshot_pins, 0u);
    EXPECT_GT(got.last.param_shard_queue_depth_max, 0);
  }
}

TEST(VersionedServing1D, ReadOwnWritesSingleWorker) {
  // One worker, multiple rounds, float (non-integer) math, reads and
  // buffered writes to the SAME server array: round r+1's request must
  // observe round r's flushes. With one worker the run is fully
  // deterministic, so inline and snapshot serving must agree bitwise even
  // though the values are order-sensitive floats.
  static constexpr i64 kSamples = 64;
  static constexpr i64 kKeys = 300;

  auto run = [&](bool async) {
    DriverConfig cfg;
    cfg.num_workers = 1;
    cfg.seed = 5;
    cfg.async_param_serving = async;
    Driver driver(cfg);

    auto samples = driver.CreateDistArray("samples", {kSamples}, 2, Density::kDense);
    auto weights = driver.CreateDistArray("weights", {kKeys}, 1, Density::kDense);
    driver.MapCells(samples, [](i64 key, f32* v) {
      v[0] = static_cast<f32>((key * 13 + 1) % kKeys);
      v[1] = 0.25f + 0.001f * static_cast<f32>(key);
    });
    driver.MapCells(weights, [](i64 key, f32* v) {
      v[0] = 0.1f * static_cast<f32>(key % 9);
    });
    driver.RegisterBuffer(weights, 1, MakeAddApplyFn());

    LoopSpec spec;
    spec.iter_space = samples;
    spec.iter_extents = {kSamples};
    spec.AddAccess(weights, "weights", {Expr::Runtime("k")}, /*is_write=*/false);
    spec.AddAccess(weights, "weights", {Expr::Runtime("k")}, /*is_write=*/true,
                   /*buffered=*/true);
    LoopKernel kernel = [=](LoopContext& ctx, IdxSpan idx, const f32* value) {
      (void)idx;
      const i64 k[1] = {static_cast<i64>(value[0])};
      const f32 w = ctx.Read(weights, k)[0];
      const f32 g = value[1] * (1.0f - w);  // depends on the freshest w
      ctx.BufferUpdate(weights, k, &g);
    };

    ParallelForOptions options;
    options.server_sync_rounds = 4;
    options.planner.replicate_threshold_floats = 0;
    auto loop = driver.Compile(spec, kernel, options);
    EXPECT_TRUE(loop.ok()) << loop.status();
    for (int p = 0; p < 3; ++p) {
      EXPECT_TRUE(driver.Execute(*loop).ok());
    }
    return Snapshot(&driver, weights);
  };

  EXPECT_TRUE(BitIdentical(run(false), run(true)));
}

// ---------------------------------------------------------------------------
// Integration: wavefront/lockstep mid-pass overwrites racing pinned gathers.
// The skewed recurrence C[i][j] = C[i-1][j] + C[i][j-1] + B[i][j] has a
// unique solution, so every serving configuration must reproduce the serial
// result exactly; server-hosted C is both prefetched per step (gathers) and
// overwritten mid-step (kOverwrite flushes), the hottest COW path.

struct RecurrenceRun {
  std::vector<f32> c;       // the parallel run's C, row-major
  std::vector<f32> serial;  // the same recurrence evaluated serially
  u64 pages_cloned = 0;
};

RecurrenceRun RunRecurrence(bool async) {
  const i64 n = 14;
  const i64 m = 11;

  DriverConfig cfg;
  cfg.num_workers = 3;
  cfg.async_param_serving = async;
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
    driver.MapCells(b, [&](i64, f32* v) { v[0] = static_cast<f32>(rng.NextBounded(5)); });
  }

  LoopSpec spec;
  spec.iter_space = grid;
  spec.iter_extents = {n, m};
  spec.AddAccess(c, "C", {Expr::LoopIndex(0), Expr::LoopIndex(1)}, /*is_write=*/true);
  spec.AddAccess(c, "C", {Expr::Sub(Expr::LoopIndex(0), Expr::Const(1)), Expr::LoopIndex(1)},
                 /*is_write=*/false);
  spec.AddAccess(c, "C", {Expr::LoopIndex(0), Expr::Sub(Expr::LoopIndex(1), Expr::Const(1))},
                 /*is_write=*/false);
  spec.AddAccess(b, "B", {Expr::LoopIndex(0), Expr::LoopIndex(1)}, /*is_write=*/false);
  LoopKernel kernel = [&](LoopContext& ctx, IdxSpan idx, const f32* value) {
    (void)value;
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
    f32* out = ctx.Mutate(c, kb);
    out[0] = up + left + ctx.Read(b, kb)[0];
  };

  auto loop = driver.Compile(spec, kernel, {});
  EXPECT_TRUE(loop.ok()) << loop.status();
  EXPECT_TRUE(driver.Execute(*loop).ok());

  RecurrenceRun run;
  run.pages_cloned = driver.last_metrics().versioned_pages_cloned;
  const CellStore& got = driver.Cells(c);
  for (i64 k = 0; k < n * m; ++k) {
    const f32* v = got.Get(k);
    run.c.push_back(v != nullptr ? v[0] : 0.0f);
  }
  const CellStore& bs = driver.Cells(b);
  run.serial.assign(static_cast<size_t>(n * m), 0.0f);
  for (i64 i = 0; i < n; ++i) {
    for (i64 j = 0; j < m; ++j) {
      const i64 k = i * m + j;
      const f32 up = i > 0 ? run.serial[static_cast<size_t>(k - m)] : 0.0f;
      const f32 left = j > 0 ? run.serial[static_cast<size_t>(k - 1)] : 0.0f;
      run.serial[static_cast<size_t>(k)] = up + left + bs.Get(k)[0];
    }
  }
  return run;
}

TEST(VersionedServing2D, WavefrontOverwritesVsConcurrentGathers) {
  const RecurrenceRun ref = RunRecurrence(/*async=*/false);
  EXPECT_EQ(ref.serial, ref.c);
  EXPECT_EQ(ref.pages_cloned, 0u);

  const RecurrenceRun got = RunRecurrence(/*async=*/true);
  EXPECT_EQ(got.serial, got.c);
  EXPECT_EQ(ref.c, got.c);
}

// ---------------------------------------------------------------------------
// Chaos: message faults and a mid-run crash with versioned serving active.

TEST(VersionedServingChaos, MessageFaultsStayBitForBit) {
  OneDOptions inline_opt;
  inline_opt.async = false;
  const OneDResult ref = RunOneD(inline_opt);

  OneDOptions chaos;
  chaos.fault_plan.seed = 13;
  chaos.fault_plan.drop_prob = 0.05;
  chaos.fault_plan.dup_prob = 0.05;
  chaos.fault_plan.delay_prob = 0.05;
  const OneDResult got = RunOneD(chaos);
  EXPECT_TRUE(BitIdentical(ref.table_w, got.table_w));
  EXPECT_EQ(ref.accum, got.accum);
  EXPECT_GT(got.last.versioned_snapshot_pins, 0u);
}

TEST(VersionedServingChaos, CrashRecoveryRestoresPagedMaster) {
  OneDOptions crash;
  crash.passes = 5;
  crash.recovery = true;
  // Each run starts from an empty directory: the delta-log writer adopts any
  // log it finds there.
  crash.recovery_dir = ::testing::TempDir() + "/orion_versioned_crash";
  std::filesystem::remove_all(crash.recovery_dir);
  crash.fault_plan.seed = 29;
  crash.fault_plan.crashes = {{/*rank=*/1, /*pass=*/2, /*step=*/-1}};

  OneDOptions clean = crash;
  clean.fault_plan = FaultPlan{};
  clean.recovery_dir = ::testing::TempDir() + "/orion_versioned_clean";
  std::filesystem::remove_all(clean.recovery_dir);

  const OneDResult want = RunOneD(clean);
  const OneDResult got = RunOneD(crash);
  // The crashed run recovered from the delta log (restoring straight over
  // the paginated master) and replayed to the same state as the clean run.
  EXPECT_EQ(got.runtime.crashes_triggered, 1u);
  EXPECT_EQ(got.runtime.workers_lost, 1u);
  EXPECT_EQ(got.runtime.recoveries, 1u);
  EXPECT_TRUE(BitIdentical(want.table_w, got.table_w));
}

}  // namespace
}  // namespace orion
