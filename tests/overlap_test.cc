// Comm/compute overlap engine: pipelined prefetch, eager rotation, and the
// zero-copy fast path must be *bit-for-bit* identical to fully synchronous
// execution — same schedule, same apply order, same f64 accumulator folds.
// Also covers the satellite fixes: targeted prefetch-key-cache invalidation
// on DropArray and ForEachSlice chunk boundaries.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "src/apps/lda.h"
#include "src/apps/sgd_mf.h"
#include "src/runtime/driver.h"
#include "src/runtime/protocol.h"

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
// SGD-MF: rotated (kSpaceTime) partitions with eager rotation + zero-copy.

TEST(Overlap, SgdMfRotationBitForBit) {
  RatingsConfig d;
  d.rows = 200;
  d.cols = 160;
  d.nnz = 8000;
  d.true_rank = 4;
  d.seed = 13;
  auto data = GenerateRatings(d);

  SgdMfConfig mf;
  mf.rank = 4;
  mf.step_size = 0.02f;

  auto run = [&](bool overlap, bool zero_copy) {
    DriverConfig cfg;
    cfg.num_workers = 4;
    cfg.seed = 5;
    cfg.zero_copy = zero_copy;
    auto driver = std::make_unique<Driver>(cfg);
    SgdMfConfig m = mf;
    m.loop_options.overlap = overlap;
    auto app = std::make_unique<SgdMfApp>(driver.get(), m);
    EXPECT_TRUE(app->Init(data, 200, 160).ok());
    std::vector<f64> losses;
    for (int p = 0; p < 4; ++p) {
      EXPECT_TRUE(app->RunPass().ok());
      auto loss = app->EvalLoss();
      EXPECT_TRUE(loss.ok());
      losses.push_back(*loss);
    }
    auto w = Snapshot(driver.get(), app->w());
    auto h = Snapshot(driver.get(), app->h());
    return std::make_tuple(std::move(w), std::move(h), std::move(losses));
  };

  auto [w_sync, h_sync, loss_sync] = run(/*overlap=*/false, /*zero_copy=*/false);
  auto [w_ovl, h_ovl, loss_ovl] = run(/*overlap=*/true, /*zero_copy=*/true);

  EXPECT_TRUE(BitIdentical(w_sync, w_ovl));
  EXPECT_TRUE(BitIdentical(h_sync, h_ovl));
  ASSERT_EQ(loss_sync.size(), loss_ovl.size());
  for (size_t i = 0; i < loss_sync.size(); ++i) {
    EXPECT_EQ(loss_sync[i], loss_ovl[i]) << "pass " << i;  // exact f64
  }
}

TEST(Overlap, SgdMfWavefrontBitForBit) {
  RatingsConfig d;
  d.rows = 120;
  d.cols = 100;
  d.nnz = 4000;
  d.true_rank = 3;
  d.seed = 17;
  auto data = GenerateRatings(d);

  auto run = [&](bool overlap) {
    DriverConfig cfg;
    cfg.num_workers = 3;
    cfg.seed = 9;
    auto driver = std::make_unique<Driver>(cfg);
    SgdMfConfig m;
    m.rank = 3;
    m.loop_options.ordered = true;
    m.loop_options.overlap = overlap;
    auto app = std::make_unique<SgdMfApp>(driver.get(), m);
    EXPECT_TRUE(app->Init(data, 120, 100).ok());
    EXPECT_TRUE(app->train_plan().ordered);
    for (int p = 0; p < 2; ++p) {
      EXPECT_TRUE(app->RunPass().ok());
    }
    return std::make_pair(Snapshot(driver.get(), app->w()),
                          Snapshot(driver.get(), app->h()));
  };

  auto [w_sync, h_sync] = run(false);
  auto [w_ovl, h_ovl] = run(true);
  EXPECT_TRUE(BitIdentical(w_sync, w_ovl));
  EXPECT_TRUE(BitIdentical(h_sync, h_ovl));
}

TEST(Overlap, MetricsVisible) {
  RatingsConfig d;
  d.rows = 120;
  d.cols = 100;
  d.nnz = 4000;
  d.true_rank = 3;
  d.seed = 19;
  auto data = GenerateRatings(d);

  DriverConfig cfg;
  cfg.num_workers = 4;
  Driver driver(cfg);  // zero_copy defaults on
  SgdMfConfig m;
  m.rank = 3;          // overlap defaults on
  SgdMfApp app(&driver, m);
  ASSERT_TRUE(app.Init(data, 120, 100).ok());
  ASSERT_TRUE(app.RunPass().ok());
  const LoopMetrics& lm = driver.last_metrics();
  EXPECT_GT(lm.zero_copy_bytes, 0u);       // rotated parts travel zero-copy
  EXPECT_GT(lm.overlap_seconds, 0.0);      // comm thread carried the sends
  EXPECT_GE(lm.prefetch_wait_hidden_seconds, 0.0);
  EXPECT_LE(lm.zero_copy_bytes, lm.bytes_sent);
}

// ---------------------------------------------------------------------------
// LDA with topic totals forced onto the server placement: buffered server
// updates defer to pass end (rank order), so pipelined prefetch must read
// exactly what the synchronous pass reads.

void LdaBitForBit(PrefetchMode prefetch) {
  CorpusConfig c;
  c.num_docs = 150;
  c.vocab = 250;
  c.true_topics = 6;
  c.doc_length = 30;
  c.seed = 23;
  auto corpus = GenerateCorpus(c);

  auto run = [&](bool overlap, bool zero_copy) {
    DriverConfig cfg;
    cfg.num_workers = 4;
    cfg.seed = 3;
    cfg.zero_copy = zero_copy;
    auto driver = std::make_unique<Driver>(cfg);
    LdaConfig l;
    l.num_topics = 6;
    l.loop_options.overlap = overlap;
    l.loop_options.prefetch = prefetch;
    // Make replication unaffordable so the topic totals land on the server
    // placement (read + buffered write through the master).
    l.loop_options.planner.replicate_threshold_floats = 0;
    auto app = std::make_unique<LdaApp>(driver.get(), l);
    EXPECT_TRUE(app->Init(corpus, 150, 250).ok());
    EXPECT_EQ(app->train_plan().placements.at(app->topic_sum()).scheme,
              PartitionScheme::kServer);
    for (int p = 0; p < 3; ++p) {
      EXPECT_TRUE(app->RunPass().ok());
    }
    auto ll = app->EvalLogLikelihood();
    EXPECT_TRUE(ll.ok());
    return std::make_tuple(Snapshot(driver.get(), app->doc_topic()),
                           Snapshot(driver.get(), app->word_topic()),
                           Snapshot(driver.get(), app->topic_sum()), *ll);
  };

  auto [dt_sync, wt_sync, ts_sync, ll_sync] = run(false, false);
  auto [dt_ovl, wt_ovl, ts_ovl, ll_ovl] = run(true, true);

  EXPECT_TRUE(BitIdentical(dt_sync, dt_ovl));
  EXPECT_TRUE(BitIdentical(wt_sync, wt_ovl));
  EXPECT_TRUE(BitIdentical(ts_sync, ts_ovl));
  EXPECT_EQ(ll_sync, ll_ovl);  // exact f64
}

TEST(Overlap, LdaServerBulkPrefetchBitForBit) { LdaBitForBit(PrefetchMode::kBulk); }
TEST(Overlap, LdaServerCachedPrefetchBitForBit) { LdaBitForBit(PrefetchMode::kCached); }

// ---------------------------------------------------------------------------
// Prefetch key-cache invalidation: dropping (re-scattering) the iteration
// space must invalidate cached key lists recorded from it, or a kCached loop
// reads zeros for keys its new iterations touch.

TEST(Overlap, PrefetchCacheInvalidatedByIterSpaceDrop) {
  constexpr i64 kRows = 8;
  constexpr i64 kCols = 8;

  auto run = [&](bool overlap) {
    DriverConfig cfg;
    cfg.num_workers = 2;
    cfg.seed = 21;
    cfg.zero_copy = overlap;
    auto driver = std::make_unique<Driver>(cfg);
    auto data = driver->CreateDistArray("data", {kRows, kCols}, 1, Density::kSparse);
    auto out_r = driver->CreateDistArray("out_r", {kRows}, 1, Density::kDense);
    auto out_c = driver->CreateDistArray("out_c", {kCols}, 1, Density::kDense);
    auto table = driver->CreateDistArray("table", {kRows + kCols - 1}, 1, Density::kDense);
    {
      CellStore& cells = driver->MutableCells(data);
      for (i64 i = 0; i < kRows; ++i) {
        *cells.GetOrCreate(i * kCols + i) = 1.0f;  // diagonal
      }
      driver->MapCells(table, [](i64 key, f32* v) { v[0] = static_cast<f32>(key + 1); });
    }

    LoopSpec spec;
    spec.iter_space = data;
    spec.iter_extents = {kRows, kCols};
    spec.AddAccess(out_r, "out_r", {Expr::LoopIndex(0)}, true);
    spec.AddAccess(out_c, "out_c", {Expr::LoopIndex(1)}, true);
    // Data-skewed subscript i + j: never aligned, so with replication priced
    // out the planner must serve it from the master.
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
    options.overlap = overlap;
    options.planner.replicate_threshold_floats = 0;
    auto loop = driver->Compile(spec, kernel, options);
    EXPECT_TRUE(loop.ok()) << loop.status();
    EXPECT_EQ(driver->PlanOf(*loop).placements.at(table).scheme, PartitionScheme::kServer);

    EXPECT_TRUE(driver->Execute(*loop).ok());  // pass 1: records + caches keys

    // Mutate the iteration space: the gather drops it from workers, and the
    // re-scatter ships new records into *blocks that were non-empty in
    // pass 1* — so their key lists are cached — while needing table keys
    // (1 and 13, both odd) the diagonal (all even keys) never fetched. A
    // stale cache reads those as zero.
    {
      CellStore& cells = driver->MutableCells(data);
      *cells.GetOrCreate(1 * kCols + 0) = 1.0f;              // (1, 0) -> key 1
      *cells.GetOrCreate(6 * kCols + (kCols - 1)) = 1.0f;    // (6, 7) -> key 13
    }
    EXPECT_TRUE(driver->Execute(*loop).ok());  // pass 2: must re-record

    return std::make_pair(Snapshot(driver.get(), out_r), Snapshot(driver.get(), out_c));
  };

  // Expected totals (exact in f32: all values are small integers). Pass 1
  // covers the diagonal; pass 2 covers the diagonal plus the two new cells.
  std::map<i64, std::vector<f32>> want_r;
  std::map<i64, std::vector<f32>> want_c;
  for (i64 i = 0; i < kRows; ++i) {
    want_r[i] = {2.0f * static_cast<f32>(2 * i + 1)};
    want_c[i] = {2.0f * static_cast<f32>(2 * i + 1)};
  }
  want_r[1][0] += 2.0f;          // (1,0) reads table[1] = 2
  want_c[0][0] += 2.0f;
  want_r[6][0] += 14.0f;         // (6,7) reads table[13] = 14
  want_c[kCols - 1][0] += 14.0f;

  auto [r_ovl, c_ovl] = run(true);
  EXPECT_TRUE(BitIdentical(want_r, r_ovl));
  EXPECT_TRUE(BitIdentical(want_c, c_ovl));
  auto [r_sync, c_sync] = run(false);
  EXPECT_TRUE(BitIdentical(r_sync, r_ovl));
  EXPECT_TRUE(BitIdentical(c_sync, c_ovl));
}

// ---------------------------------------------------------------------------
// ForEachSlice chunk boundaries.

TEST(CellStoreSlice, EmptyStoreVisitsNothing) {
  CellStore s(1, CellStore::Layout::kHashed, 0);
  int visits = 0;
  for (int c = 0; c < 4; ++c) {
    s.ForEachSlice(c, 4, [&](i64, f32*) { ++visits; });
  }
  EXPECT_EQ(visits, 0);
}

TEST(CellStoreSlice, MoreChunksThanCellsCoversAllOnce) {
  CellStore s(1, CellStore::Layout::kHashed, 0);
  *s.GetOrCreate(10) = 1.0f;
  *s.GetOrCreate(20) = 2.0f;
  std::vector<i64> seen;
  for (int c = 0; c < 5; ++c) {
    s.ForEachSlice(c, 5, [&](i64 key, f32*) { seen.push_back(key); });
  }
  EXPECT_EQ(seen, s.keys());  // every cell exactly once, in sequence order
}

TEST(CellStoreSlice, ChunksAreContiguousAndComplete) {
  CellStore s(2, CellStore::Layout::kHashed, 0);
  for (i64 k = 0; k < 7; ++k) {
    s.GetOrCreate(k * 3)[0] = static_cast<f32>(k);
  }
  std::vector<i64> seen;
  for (int c = 0; c < 3; ++c) {
    s.ForEachSlice(c, 3, [&](i64 key, f32*) { seen.push_back(key); });
  }
  EXPECT_EQ(seen, s.keys());
}

TEST(CellStoreSlice, SingleChunkEqualsForEach) {
  CellStore s(1, CellStore::Layout::kHashed, 0);
  for (i64 k = 0; k < 5; ++k) {
    *s.GetOrCreate(k + 100) = static_cast<f32>(k);
  }
  std::vector<i64> sliced;
  std::vector<i64> full;
  s.ForEachSlice(0, 1, [&](i64 key, f32*) { sliced.push_back(key); });
  s.ForEach([&](i64 key, f32*) { full.push_back(key); });
  EXPECT_EQ(sliced, full);
}

}  // namespace
}  // namespace orion
