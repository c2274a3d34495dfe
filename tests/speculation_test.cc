// Speculative parameter prefetch for ordered (wavefront / lockstep)
// schedules: while step t computes, step t+1's server reads are fetched
// against the master's current state, then validated at the barrier against
// the dirty-range summaries of the kOverwrite writes the intervening steps
// flushed, re-fetching only conflicting keys. Everything here checks the
// acceptance bar: bit-for-bit identity with the synchronous fetch — on a
// read-only table, under forced conflicts, and under message-fault chaos — and
// the controller's sticky fallback to synchronous under high conflict.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "src/common/rng.h"
#include "src/dsm/bucket.h"
#include "src/runtime/driver.h"
#include "src/runtime/speculation.h"

namespace orion {
namespace {

// Bitwise snapshot of a DistArray's master cells (gathers first).
std::map<i64, std::vector<f32>> Snapshot(Driver* d, DistArrayId id) {
  std::map<i64, std::vector<f32>> out;
  const CellStore& c = d->Cells(id);
  c.ForEachConst([&](i64 key, const f32* v) {
    out[key].assign(v, v + c.value_dim());
  });
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

// ---------------------------------------------------------------------------
// Ordered wavefront over a dense 2-D space with a read-only server-hosted
// table: the zero-conflict case. Speculation should engage from pass 2 on
// (the kCached key lists warm during pass 1) and never need a repair.

struct TableResult {
  std::map<i64, std::vector<f32>> out_r;
  std::map<i64, std::vector<f32>> out_c;
  LoopMetrics last;
  u64 spec_requests_served = 0;
};

TableResult RunWavefrontTable(bool speculate, int passes, FaultPlan fault_plan = {}) {
  constexpr i64 kRows = 8;
  constexpr i64 kCols = 8;

  DriverConfig cfg;
  cfg.num_workers = 4;
  cfg.seed = 21;
  cfg.fault_plan = fault_plan;
  auto driver = std::make_unique<Driver>(cfg);
  auto data = driver->CreateDistArray("data", {kRows, kCols}, 1, Density::kSparse);
  auto out_r = driver->CreateDistArray("out_r", {kRows}, 1, Density::kDense);
  auto out_c = driver->CreateDistArray("out_c", {kCols}, 1, Density::kDense);
  auto table = driver->CreateDistArray("table", {kRows + kCols - 1}, 1, Density::kDense);
  {
    CellStore& cells = driver->MutableCells(data);
    for (i64 i = 0; i < kRows; ++i) {
      for (i64 j = 0; j < kCols; ++j) {
        *cells.GetOrCreate(i * kCols + j) = 1.0f;
      }
    }
    driver->MapCells(table, [](i64 key, f32* v) { v[0] = static_cast<f32>(key + 1); });
  }

  LoopSpec spec;
  spec.iter_space = data;
  spec.iter_extents = {kRows, kCols};
  spec.ordered = true;  // request serializable (wavefront) execution
  spec.AddAccess(out_r, "out_r", {Expr::LoopIndex(0)}, true);
  spec.AddAccess(out_c, "out_c", {Expr::LoopIndex(1)}, true);
  // Data-skewed subscript i + j with replication priced out: served from the
  // master, so ordered execution prefetches it every step.
  spec.AddAccess(table, "table", {Expr::Add(Expr::LoopIndex(0), Expr::LoopIndex(1))},
                 false);

  LoopKernel kernel = [=](LoopContext& ctx, IdxSpan idx, const f32* value) {
    const i64 k[1] = {idx[0] + idx[1]};
    const f32 t = ctx.Read(table, k)[0];
    const i64 ki[1] = {idx[0]};
    const i64 kj[1] = {idx[1]};
    ctx.Mutate(out_r, ki)[0] += value[0] * t;
    ctx.Mutate(out_c, kj)[0] += value[0] * t;
  };

  ParallelForOptions options;
  options.prefetch = PrefetchMode::kCached;
  options.speculate = speculate;
  options.planner.replicate_threshold_floats = 0;
  auto loop = driver->Compile(spec, kernel, options);
  EXPECT_TRUE(loop.ok()) << loop.status();
  EXPECT_EQ(driver->PlanOf(*loop).placements.at(table).scheme, PartitionScheme::kServer);
  EXPECT_TRUE(driver->PlanOf(*loop).ordered);

  TableResult res;
  for (int p = 0; p < passes; ++p) {
    EXPECT_TRUE(driver->Execute(*loop).ok());
    res.spec_requests_served += driver->last_metrics().spec_requests_served;
  }
  res.last = driver->last_metrics();
  res.out_r = Snapshot(driver.get(), out_r);
  res.out_c = Snapshot(driver.get(), out_c);
  return res;
}

TEST(Speculation, WavefrontBitForBitAcrossShardCounts) {
  const TableResult off = RunWavefrontTable(/*speculate=*/false, 3);
  const TableResult on = RunWavefrontTable(/*speculate=*/true, 3);
  EXPECT_TRUE(BitIdentical(off.out_r, on.out_r));
  EXPECT_TRUE(BitIdentical(off.out_c, on.out_c));
  // Speculation really ran (kCached keys warm after pass 1) and — the
  // table being read-only — never hit a conflict.
  EXPECT_GT(on.last.spec_issued, 0u);
  EXPECT_EQ(on.last.spec_conflicts, 0u);
  EXPECT_GT(on.spec_requests_served, 0u);
  EXPECT_EQ(off.last.spec_issued, 0u);
  EXPECT_EQ(off.last.spec_depth_effective, 0);
}

// ---------------------------------------------------------------------------
// Forced conflicts: the skewed-wavefront recurrence C[i][j] = C[i-1][j] +
// C[i][j-1] + B[i][j] + C_old[i][j] writes the server-hosted C every step,
// and step t+1 reads exactly the frontier step t overwrote. The C_old term
// makes each pass's values strictly larger than the last, so a stale
// speculative payload (frontier values from the previous pass) is
// *observably* wrong — a single missed repair breaks the bitwise comparison
// against the synchronous run.

struct RecurrenceResult {
  std::map<i64, std::vector<f32>> c_pass2;
  std::map<i64, std::vector<f32>> c_final;
  LoopMetrics pass2;
  int depth_pass3 = 0;
  double enabled_pass3 = -1.0;
  double conflict_rate_pass2 = -1.0;
};

RecurrenceResult RunRecurrence(bool speculate) {
  const i64 n = 14;
  const i64 m = 11;

  DriverConfig cfg;
  cfg.num_workers = 4;
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
    const f32 old = ctx.Read(c, kb)[0];  // previous pass's value
    f32* out = ctx.Mutate(c, kb);
    out[0] = up + left + add + old;
  };

  ParallelForOptions options;
  options.prefetch = PrefetchMode::kCached;
  options.speculate = speculate;
  auto loop = driver.Compile(spec, kernel, options);
  EXPECT_TRUE(loop.ok()) << loop.status();
  EXPECT_EQ(driver.PlanOf(*loop).form, ParallelForm::k2DUnimodular);

  RecurrenceResult res;
  EXPECT_TRUE(driver.Execute(*loop).ok());  // pass 1: records + caches keys
  EXPECT_TRUE(driver.Execute(*loop).ok());  // pass 2: speculates into conflicts
  res.pass2 = driver.last_metrics();
  res.conflict_rate_pass2 = driver.ExportMetrics().Gauge("spec.conflict_rate");
  res.c_pass2 = Snapshot(&driver, c);
  EXPECT_TRUE(driver.Execute(*loop).ok());  // pass 3: controller has reacted
  res.depth_pass3 = driver.last_metrics().spec_depth_effective;
  res.enabled_pass3 = driver.ExportMetrics().Gauge("spec.enabled");
  res.c_final = Snapshot(&driver, c);
  return res;
}

TEST(Speculation, SabotageRepairsEveryOverwrittenRange) {
  const RecurrenceResult off = RunRecurrence(false);
  const RecurrenceResult on = RunRecurrence(true);

  // The speculating run really speculated and really conflicted…
  EXPECT_GT(on.pass2.spec_issued, 0u);
  EXPECT_GT(on.pass2.spec_conflicts, 0u);
  EXPECT_GT(on.pass2.spec_repair_bytes, 0u);
  EXPECT_EQ(off.pass2.spec_issued, 0u);

  // …and every overwritten range was caught: bitwise identity against the
  // synchronous run at the pass where every frontier value changed.
  EXPECT_TRUE(BitIdentical(off.c_pass2, on.c_pass2));
  EXPECT_TRUE(BitIdentical(off.c_final, on.c_final));

  // The serial recurrence (3 accumulating passes), for good measure — same
  // per-cell expression order, so the result is bit-exact even past the
  // f32 integer range.
  std::map<i64, std::vector<f32>> want;
  {
    const i64 n = 14;
    const i64 m = 11;
    Rng rng(31);  // same stream as RunRecurrence
    std::vector<f32> bvals(static_cast<size_t>(n * m));
    for (auto& v : bvals) {
      v = static_cast<f32>(1 + rng.NextBounded(5));
    }
    std::vector<f32> cvals(static_cast<size_t>(n * m), 0.0f);
    for (int pass = 0; pass < 3; ++pass) {
      for (i64 i = 0; i < n; ++i) {
        for (i64 j = 0; j < m; ++j) {
          const f32 up = i > 0 ? cvals[static_cast<size_t>((i - 1) * m + j)] : 0.0f;
          const f32 left = j > 0 ? cvals[static_cast<size_t>(i * m + j - 1)] : 0.0f;
          f32& cell = cvals[static_cast<size_t>(i * m + j)];
          cell = up + left + bvals[static_cast<size_t>(i * m + j)] + cell;
        }
      }
    }
    for (i64 k = 0; k < n * m; ++k) {
      want[k] = {cvals[static_cast<size_t>(k)]};
    }
  }
  EXPECT_TRUE(BitIdentical(want, on.c_final));
}

TEST(Speculation, ControllerDisablesUnderHighConflict) {
  const RecurrenceResult on = RunRecurrence(true);
  // Pass 2 conflicted on (essentially) every slot: the recurrence's step
  // t+1 reads are exactly step t's writes.
  EXPECT_GT(on.conflict_rate_pass2, 0.5);
  // The controller's disable is sticky: pass 3 reverted to synchronous.
  EXPECT_EQ(on.depth_pass3, 0);
  EXPECT_EQ(on.enabled_pass3, 0.0);
}

// ---------------------------------------------------------------------------
// Chaos: message-level drop / duplicate / delay faults with speculation
// active. Supervision resends arrivals and releases; the dirty summaries ride
// the (re)releases, so validation still sees every intervening flush and the
// result stays bitwise equal to the fault-free synchronous run.

TEST(Speculation, ChaosDropDupDelayStaysBitForBit) {
  const TableResult ref = RunWavefrontTable(/*speculate=*/false, 3);

  FaultPlan chaos;
  chaos.seed = 13;
  chaos.drop_prob = 0.05;
  chaos.dup_prob = 0.05;
  chaos.delay_prob = 0.05;
  const TableResult got = RunWavefrontTable(/*speculate=*/true, 3, chaos);

  EXPECT_TRUE(BitIdentical(ref.out_r, got.out_r));
  EXPECT_TRUE(BitIdentical(ref.out_c, got.out_c));
  EXPECT_GT(got.last.spec_issued, 0u);  // speculation stayed engaged under faults
}

// ---------------------------------------------------------------------------
// The conflict check itself: a requested key list, shuffled with duplicates
// and sort-uniqued the way the executor does, intersected with a step's dirty
// ranges, against a brute-force scan of every range for every key.

TEST(Speculation, ConflictKeysOfSortUniqueOutputMatchBruteForce) {
  Rng rng(23);
  std::vector<i64> scratch;
  for (int trial = 0; trial < 40; ++trial) {
    const i64 span = 1 + rng.NextIndex(trial % 2 == 0 ? 200 : 100000);
    ArrayDirtyRanges dirty;
    std::set<i64> written;
    const i64 writes = rng.NextIndex(trial % 5 == 0 ? 3000 : 300);
    for (int batch = 0; batch < 3; ++batch) {
      std::vector<i64> keys;
      for (i64 i = 0; i < writes; ++i) {
        keys.push_back(rng.NextIndex(span) - span / 2);
      }
      written.insert(keys.begin(), keys.end());
      dirty.AddKeys(keys);
    }
    std::vector<i64> requested;
    for (i64 i = 0, n = rng.NextIndex(2000); i < n; ++i) {
      requested.push_back(rng.NextIndex(span) - span / 2);
    }
    SortUniqueKeys(&requested, &scratch);

    std::vector<i64> want;
    for (const i64 k : requested) {
      const bool hit = dirty.all_dirty ||
                       std::any_of(dirty.ranges.begin(), dirty.ranges.end(), [&](const auto& r) {
                         return r.first <= k && k <= r.second;
                       });
      if (hit) {
        want.push_back(k);
      }
      // Over-approximation is allowed; missing a written key is not.
      if (written.count(k) > 0) {
        EXPECT_TRUE(hit) << "written key " << k << " outside every dirty range";
      }
    }
    EXPECT_EQ(dirty.ConflictKeys(requested), want) << "trial " << trial;
  }
}

// An unsorted or duplicated list would make the merge walk skip repairs, so
// ConflictKeys refuses it outright.
TEST(SpeculationDeathTest, ConflictKeysRejectsAListThatIsNotStrictlyIncreasing) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ArrayDirtyRanges dirty;
  dirty.AddKeys({1, 2, 3});
  EXPECT_EQ(dirty.ConflictKeys({0, 2, 5}), std::vector<i64>{2});
  EXPECT_DEATH(dirty.ConflictKeys({5, 2}), "strictly increasing");
  EXPECT_DEATH(dirty.ConflictKeys({2, 2}), "strictly increasing");
}

}  // namespace
}  // namespace orion
