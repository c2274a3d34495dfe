// Online snapshot-serving tier: lookups answered from pinned COW snapshots
// concurrently with training. The acceptance bar checked here: training is
// bit-for-bit identical with serving on or off; lookups at a pass boundary
// return exactly the latest published version (staleness bounded by one
// pass); overload sheds with explicit statuses instead of blocking; the
// quiesce handshake survives lookup hammering across pass boundaries and
// Flat() collapses; and the tier stays correct under message-fault chaos and
// a worker crash + rejoin.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/runtime/driver.h"
#include "src/serve/serving_tier.h"

namespace orion {
namespace {

using serve::LookupResult;
using serve::LookupStatus;
using serve::ServingTier;
using serve::ServingTierOptions;

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
// Standalone tier over a hand-built store: the version lifecycle without a
// driver in the way.

TEST(ServingTierStandalone, PublishLookupRepublishQuiesce) {
  constexpr i64 kCells = 100;
  constexpr i32 kDim = 4;
  CellStore flat = CellStore::DenseRange(kDim, 0, kCells - 1);
  for (i64 k = 0; k < kCells; ++k) {
    f32* v = flat.GetOrCreate(k);
    for (i32 d = 0; d < kDim; ++d) {
      v[d] = static_cast<f32>(k * 10 + d);
    }
  }
  VersionedCellStore store(std::move(flat));
  store.BeginServing();

  ServingTier tier({{/*id=*/7, "t", kDim}}, ServingTierOptions{});

  auto pub = store.PublishVersion();
  EXPECT_EQ(pub.seq, 1u);
  tier.Publish(7, std::move(pub.snap), pub.seq);
  EXPECT_EQ(tier.published_version(7), 1u);

  // In-range hits, plus out-of-range keys answered as graceful misses.
  const std::vector<i64> keys = {0, 5, 99, -3, 1000};
  LookupResult r = tier.Lookup(7, keys);
  ASSERT_EQ(r.status, LookupStatus::kOk);
  EXPECT_EQ(r.version, 1u);
  ASSERT_EQ(r.values.size(), keys.size() * kDim);
  ASSERT_EQ(r.hits.size(), keys.size());
  EXPECT_EQ(r.hits[0], 1);
  EXPECT_EQ(r.hits[1], 1);
  EXPECT_EQ(r.hits[2], 1);
  EXPECT_EQ(r.hits[3], 0);
  EXPECT_EQ(r.hits[4], 0);
  EXPECT_EQ(r.values[1 * kDim + 2], 52.0f);  // key 5, lane 2
  EXPECT_EQ(r.values[3 * kDim + 0], 0.0f);   // missed keys stay zero

  // Writer mutates after the publish: the served version must not move
  // (snapshot isolation) until the next publish swaps it in.
  store.GetOrCreate(5)[2] = -1.0f;
  r = tier.Lookup(7, keys);
  ASSERT_EQ(r.status, LookupStatus::kOk);
  EXPECT_EQ(r.values[1 * kDim + 2], 52.0f);

  auto pub2 = store.PublishVersion();
  EXPECT_EQ(pub2.seq, 2u);
  tier.Publish(7, std::move(pub2.snap), pub2.seq);
  r = tier.Lookup(7, {5});
  ASSERT_EQ(r.status, LookupStatus::kOk);
  EXPECT_EQ(r.version, 2u);
  EXPECT_EQ(r.values[2], -1.0f);

  // Lookup on an array the tier was never given.
  EXPECT_EQ(tier.Lookup(99, {0}).status, LookupStatus::kNotServing);

  // Quiesce releases the pin, so the store may collapse to flat again.
  EXPECT_GT(store.live_pins(), 0);
  tier.QuiesceForCollapse(7);
  EXPECT_EQ(store.live_pins(), 0);
  EXPECT_EQ(tier.Lookup(7, {5}).status, LookupStatus::kNotServing);
  CellStore& back = store.Flat();
  EXPECT_EQ(back.Get(5)[2], -1.0f);

  const serve::ServingStats ss = tier.StatsSnapshot();
  EXPECT_EQ(ss.versions_published, 2u);
  EXPECT_GE(ss.ok, 3u);
  EXPECT_GE(ss.not_serving, 2u);
  EXPECT_EQ(ss.shed_queue_full + ss.shed_bytes, 0u);
  EXPECT_GT(tier.LatencySnapshot().total_count(), 0u);

  tier.Stop();
  EXPECT_EQ(tier.Lookup(7, {5}).status, LookupStatus::kShutdown);
}

TEST(ServingTierStandalone, DirtyPagesTrackPublishDeltas) {
  constexpr i64 kCells = 2048;
  CellStore flat = CellStore::DenseRange(1, 0, kCells - 1);
  for (i64 k = 0; k < kCells; ++k) {
    *flat.GetOrCreate(k) = static_cast<f32>(k);
  }
  VersionedCellStore store(std::move(flat));
  store.BeginServing();

  // First publish after pagination: every page is new to its version.
  auto p1 = store.PublishVersion();
  EXPECT_EQ(p1.dirty_pages.size(), 8u);

  // One cell written -> exactly one page in the next publish's delta, even
  // though the checkpoint-delta bitmap was cleared independently in between.
  store.MarkCheckpointed();
  *store.GetOrCreate(700) = -7.0f;
  auto p2 = store.PublishVersion();
  ASSERT_EQ(p2.dirty_pages.size(), 1u);
  EXPECT_EQ(p2.dirty_pages[0], 700u / 256u);

  // No writes -> empty delta.
  auto p3 = store.PublishVersion();
  EXPECT_TRUE(p3.dirty_pages.empty());
  EXPECT_EQ(p3.seq, 3u);
}

// ---------------------------------------------------------------------------
// Overload: bounded queues and the in-flight-bytes budget shed with explicit
// statuses; every caller returns (nothing blocks indefinitely).

TEST(ServingTierStandalone, OverloadShedsInsteadOfBlocking) {
  CellStore flat = CellStore::DenseRange(1, 0, 63);
  for (i64 k = 0; k < 64; ++k) {
    *flat.GetOrCreate(k) = 1.0f;
  }
  VersionedCellStore store(std::move(flat));
  store.BeginServing();

  ServingTierOptions opt;
  opt.num_shards = 1;
  opt.max_queue_per_shard = 2;
  opt.max_batch = 1;
  opt.batch_delay_seconds_for_test = 0.01;  // serve ~100/s so the queue fills
  ServingTier tier({{1, "t", 1}}, opt);
  auto pub = store.PublishVersion();
  tier.Publish(1, std::move(pub.snap), pub.seq);

  constexpr int kClients = 8;
  constexpr int kPerClient = 6;
  std::atomic<int> ok{0}, shed{0}, other{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < kPerClient; ++i) {
        const LookupResult r = tier.Lookup(1, {static_cast<i64>(i)});
        if (r.status == LookupStatus::kOk) {
          ++ok;
        } else if (r.status == LookupStatus::kShedQueueFull) {
          ++shed;
        } else {
          ++other;
        }
      }
    });
  }
  for (auto& t : clients) {
    t.join();
  }
  EXPECT_EQ(ok + shed + other, kClients * kPerClient);  // everyone returned
  EXPECT_GT(ok.load(), 0);
  EXPECT_GT(shed.load(), 0) << "bounded queue never shed under 8x overload";
  EXPECT_EQ(other.load(), 0);

  // Bytes budget: a request whose reply alone exceeds the limit is rejected
  // up front with its own status.
  ServingTierOptions tiny;
  tiny.max_inflight_bytes = 16;
  ServingTier tier2({{1, "t", 1}}, tiny);
  const std::vector<i64> big(100, 0);
  EXPECT_EQ(tier2.Lookup(1, big).status, LookupStatus::kShedBytes);
  EXPECT_EQ(tier2.StatsSnapshot().shed_bytes, 1u);
}

// ---------------------------------------------------------------------------
// Driver-integrated workload: the ordered wavefront over a dense 2-D space.
// `table` is server-hosted (master-authoritative all pass), out_r/out_c
// rotate and return to the master at every pass boundary, so all three
// republish each pass. The kernel's sums are small integers — exact in f32 —
// so per-pass freshness can be asserted against closed forms:
//   out_r[i] = p * (8i + 36),  out_c[j] = p * (8j + 36),  table[k] = k + 1.

constexpr i64 kRows = 8;
constexpr i64 kCols = 8;

struct Wavefront {
  std::unique_ptr<Driver> driver;
  DistArrayId data{}, out_r{}, out_c{}, table{};
  i32 loop = -1;
};

Wavefront MakeWavefront(FaultPlan fault_plan = {}) {
  Wavefront w;
  DriverConfig cfg;
  cfg.num_workers = 4;
  cfg.seed = 21;
  cfg.fault_plan = fault_plan;
  if (cfg.fault_plan.Active()) {
    cfg.supervisor.enabled = true;
    cfg.supervisor.heartbeat_interval_seconds = 0.02;
    cfg.supervisor.retry_initial_seconds = 0.02;
    cfg.supervisor.death_timeout_seconds = 1.0;
  }
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
    const i64 ki[1] = {idx[0]};
    const i64 kj[1] = {idx[1]};
    ctx.Mutate(out_r, ki)[0] += value[0] * t;
    ctx.Mutate(out_c, kj)[0] += value[0] * t;
  };

  ParallelForOptions options;
  options.prefetch = PrefetchMode::kCached;
  options.planner.replicate_threshold_floats = 0;
  auto loop = w.driver->Compile(spec, kernel, options);
  EXPECT_TRUE(loop.ok()) << loop.status();
  EXPECT_EQ(w.driver->PlanOf(*loop).placements.at(w.table).scheme,
            PartitionScheme::kServer);
  w.loop = *loop;
  return w;
}

// Client hammer: spins lookups against every served array until stopped,
// tallying statuses. Read-only traffic — must never perturb training.
struct Hammer {
  explicit Hammer(ServingTier* tier, std::vector<DistArrayId> arrays, int threads = 2)
      : tier_(tier), arrays_(std::move(arrays)) {
    for (int t = 0; t < threads; ++t) {
      threads_.emplace_back([this, t] { Run(t); });
    }
  }
  void StopAndJoin() {
    stop_.store(true);
    for (auto& t : threads_) {
      t.join();
    }
  }
  void Run(int seed) {
    u64 x = static_cast<u64>(seed) * 2654435761u + 12345u;
    std::vector<i64> keys(8);
    while (!stop_.load(std::memory_order_relaxed)) {
      for (auto& k : keys) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        k = static_cast<i64>((x >> 33) % kRows);
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
          ++other_;
          break;
      }
    }
  }

  ServingTier* tier_;
  std::vector<DistArrayId> arrays_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stop_{false};
  std::atomic<u64> ok_{0}, not_serving_{0}, other_{0};
};

TEST(ServingTierDriver, RequiresVersionedAsyncServing) {
  DriverConfig cfg;
  cfg.num_workers = 2;
  cfg.async_param_serving = false;
  Driver driver(cfg);
  auto a = driver.CreateDistArray("a", {8}, 1, Density::kDense);
  auto tier = driver.StartServingTier({a});
  EXPECT_FALSE(tier.ok());
}

TEST(ServingTierDriver, TrainingBitForBitWithServingOnOff) {
  Wavefront off = MakeWavefront();
  for (int p = 0; p < 4; ++p) {
    ASSERT_TRUE(off.driver->Execute(off.loop).ok());
  }
  const auto want_r = Snapshot(off.driver.get(), off.out_r);
  const auto want_c = Snapshot(off.driver.get(), off.out_c);

  Wavefront on = MakeWavefront();
  auto tier = on.driver->StartServingTier({on.out_r, on.out_c, on.table});
  ASSERT_TRUE(tier.ok()) << tier.status();
  Hammer hammer(*tier, {on.out_r, on.out_c, on.table});
  for (int p = 0; p < 4; ++p) {
    ASSERT_TRUE(on.driver->Execute(on.loop).ok());
  }
  hammer.StopAndJoin();

  EXPECT_TRUE(BitIdentical(want_r, Snapshot(on.driver.get(), on.out_r)));
  EXPECT_TRUE(BitIdentical(want_c, Snapshot(on.driver.get(), on.out_c)));
  EXPECT_GT(hammer.ok_.load(), 0u) << "hammer never got an answer";
  EXPECT_EQ(hammer.other_.load(), 0u);
}

TEST(ServingTierDriver, LookupsReturnLatestPublishedVersion) {
  Wavefront w = MakeWavefront();
  auto tier_or = w.driver->StartServingTier({w.out_r, w.out_c, w.table});
  ASSERT_TRUE(tier_or.ok()) << tier_or.status();
  ServingTier* tier = *tier_or;

  // Publish round 1 ran at start. Compile already scattered the arrays:
  // `table` is server-hosted (master always authoritative -> published),
  // while out_r (kRange, worker-resident) and out_c (kSpaceTime, rotating)
  // skip this round — their partitions live on workers right now.
  EXPECT_EQ(tier->published_version(w.table), 1u);
  EXPECT_EQ(tier->published_version(w.out_c), 0u);
  EXPECT_EQ(tier->published_version(w.out_r), 0u);
  LookupResult r = tier->Lookup(w.table, {3});
  ASSERT_EQ(r.status, LookupStatus::kOk);
  EXPECT_EQ(r.version, 1u);
  EXPECT_EQ(r.values[0], 4.0f);
  EXPECT_EQ(tier->Lookup(w.out_c, {0}).status, LookupStatus::kNotServing);

  for (int p = 1; p <= 3; ++p) {
    ASSERT_TRUE(w.driver->Execute(w.loop).ok());
    // Staleness bound: the boundary publish already happened inside
    // Execute(). out_c's rotated partitions returned to the master at the
    // boundary, so its lookups now reflect every completed pass exactly —
    // version p+1 (round 1 ran at start), zero passes stale.
    EXPECT_EQ(tier->published_version(w.out_c), static_cast<u64>(p) + 1);
    EXPECT_EQ(tier->published_version(w.table), static_cast<u64>(p) + 1);
    for (i64 j = 0; j < kCols; ++j) {
      r = tier->Lookup(w.out_c, {j});
      ASSERT_EQ(r.status, LookupStatus::kOk);
      EXPECT_EQ(r.version, static_cast<u64>(p) + 1);
      EXPECT_EQ(r.values[0], static_cast<f32>(p * (8 * j + 36)))
          << "pass " << p << " col " << j;
    }
    r = tier->Lookup(w.table, {3});
    ASSERT_EQ(r.status, LookupStatus::kOk);
    EXPECT_EQ(r.values[0], 4.0f);
    // out_r stays worker-resident across passes (space-partitioned, never
    // rotates home), so the authority rule keeps skipping it rather than
    // gathering — it must never serve a half-stale master copy.
    EXPECT_EQ(tier->published_version(w.out_r), 0u);
    EXPECT_EQ(tier->Lookup(w.out_r, {0}).status, LookupStatus::kNotServing);
  }
}

// The pin-release regression test: lookups hammer across pass boundaries
// while the driver repeatedly collapses a served master to flat
// (MutableCells). Before the QuiesceForCollapse handshake this CHECK-failed
// on Flat()'s zero-pin invariant.
TEST(ServingTierDriver, QuiesceAcrossPassBoundaryHammer) {
  Wavefront w = MakeWavefront();
  auto tier_or = w.driver->StartServingTier({w.out_r, w.out_c, w.table});
  ASSERT_TRUE(tier_or.ok()) << tier_or.status();
  Hammer hammer(*tier_or, {w.out_r, w.out_c, w.table}, /*threads=*/4);

  constexpr int kPasses = 6;
  for (int p = 0; p < kPasses; ++p) {
    ASSERT_TRUE(w.driver->Execute(w.loop).ok());
    // Forces the collapse path mid-hammer: gather (no-op at the boundary),
    // quiesce, Flat(). The next pass's boundary publish re-paginates.
    CellStore& flat = w.driver->MutableCells(w.out_r);
    EXPECT_EQ(flat.Get(0)[0], static_cast<f32>((p + 1) * 36));
  }
  hammer.StopAndJoin();

  EXPECT_GT(hammer.ok_.load(), 0u);
  EXPECT_EQ(hammer.other_.load(), 0u);
  // out_r was quiesced by the last MutableCells and (worker-resident) never
  // republished; out_c's served state is still exact after six collapses.
  EXPECT_EQ((*tier_or)->Lookup(w.out_r, {0}).status, LookupStatus::kNotServing);
  for (i64 j = 0; j < kCols; ++j) {
    const LookupResult r = (*tier_or)->Lookup(w.out_c, {j});
    ASSERT_EQ(r.status, LookupStatus::kOk);
    EXPECT_EQ(r.version, static_cast<u64>(kPasses) + 1);
    EXPECT_EQ(r.values[0], static_cast<f32>(kPasses * (8 * j + 36)));
  }
}

// ---------------------------------------------------------------------------
// Chaos, part 1: message-level drop / duplicate / delay faults with the tier
// active and hammering. Supervision retransmits; training stays bit-for-bit
// equal to the fault-free serving-off run.

TEST(ServingTierChaos, DropDupDelayStaysBitForBit) {
  Wavefront clean = MakeWavefront();
  for (int p = 0; p < 3; ++p) {
    ASSERT_TRUE(clean.driver->Execute(clean.loop).ok());
  }
  const auto want_r = Snapshot(clean.driver.get(), clean.out_r);
  const auto want_c = Snapshot(clean.driver.get(), clean.out_c);

  FaultPlan chaos;
  chaos.seed = 13;
  chaos.drop_prob = 0.05;
  chaos.dup_prob = 0.05;
  chaos.delay_prob = 0.05;
  Wavefront w = MakeWavefront(chaos);
  auto tier = w.driver->StartServingTier({w.out_r, w.out_c, w.table});
  ASSERT_TRUE(tier.ok()) << tier.status();
  Hammer hammer(*tier, {w.out_r, w.out_c, w.table});
  for (int p = 0; p < 3; ++p) {
    ASSERT_TRUE(w.driver->Execute(w.loop).ok());
  }
  hammer.StopAndJoin();

  EXPECT_TRUE(BitIdentical(want_r, Snapshot(w.driver.get(), w.out_r)));
  EXPECT_TRUE(BitIdentical(want_c, Snapshot(w.driver.get(), w.out_c)));
  EXPECT_GT(hammer.ok_.load(), 0u);
  EXPECT_EQ(hammer.other_.load(), 0u);
}

// Chaos, part 2: a worker crash mid-training with durability-log recovery
// and rejoin, the tier serving (and being quiesced/republished by the
// recovery restore) throughout. Uses the 1-D server-hosted workload the
// durability suite proves clean-vs-chaos identity on.

struct ServerWorkload {
  std::unique_ptr<Driver> driver;
  DistArrayId samples{}, table_r{}, table_w{};
  i32 loop = -1;
};

ServerWorkload MakeServerWorkload(FaultPlan fault_plan = {}) {
  constexpr i64 kSamples = 64;
  constexpr i64 kTable = 40;
  ServerWorkload w;
  DriverConfig cfg;
  cfg.num_workers = 4;
  cfg.seed = 5;
  cfg.fault_plan = fault_plan;
  if (cfg.fault_plan.Active()) {
    cfg.supervisor.enabled = true;
    cfg.supervisor.heartbeat_interval_seconds = 0.02;
    cfg.supervisor.retry_initial_seconds = 0.02;
    cfg.supervisor.death_timeout_seconds = 1.0;
  }
  w.driver = std::make_unique<Driver>(cfg);
  w.samples = w.driver->CreateDistArray("samples", {kSamples}, 3, Density::kSparse);
  w.table_r = w.driver->CreateDistArray("table_r", {kTable}, 1, Density::kDense);
  w.table_w = w.driver->CreateDistArray("table_w", {kTable}, 1, Density::kDense);
  {
    CellStore& cells = w.driver->MutableCells(w.samples);
    for (i64 s = 0; s < kSamples; ++s) {
      f32* v = cells.GetOrCreate(s);
      v[0] = static_cast<f32>(s % kTable);        // read key
      v[1] = static_cast<f32>((s * 7) % kTable);  // write key
      v[2] = 0.01f * static_cast<f32>(s % 5 + 1);
    }
    w.driver->MapCells(w.table_r, [](i64 key, f32* v) {
      v[0] = static_cast<f32>(key % 3);
    });
  }
  w.driver->RegisterBuffer(w.table_w, 1, MakeAddApplyFn());

  LoopSpec spec;
  spec.iter_space = w.samples;
  spec.iter_extents = {kSamples};
  spec.AddAccess(w.table_r, "table_r", {Expr::Runtime("rk")}, /*is_write=*/false);
  spec.AddAccess(w.table_w, "table_w", {Expr::Runtime("wk")}, /*is_write=*/true,
                 /*buffered=*/true);
  const DistArrayId table_r = w.table_r;
  const DistArrayId table_w = w.table_w;
  LoopKernel kernel = [=](LoopContext& ctx, IdxSpan idx, const f32* value) {
    (void)idx;
    const i64 rk[1] = {static_cast<i64>(value[0])};
    const i64 wk[1] = {static_cast<i64>(value[1])};
    const f32 upd = value[2] * (ctx.Read(table_r, rk)[0] + 1.0f);
    ctx.BufferUpdate(table_w, wk, &upd);
  };
  ParallelForOptions options;
  options.server_sync_rounds = 2;
  options.planner.replicate_threshold_floats = 0;  // both tables -> kServer
  auto loop = w.driver->Compile(spec, kernel, options);
  EXPECT_TRUE(loop.ok()) << loop.status();
  w.loop = *loop;
  return w;
}

TEST(ServingTierChaos, WorkerCrashRejoinWithTierActive) {
  const std::string dir = ::testing::TempDir() + "/serve_rejoin";
  // The delta-log writer adopts a log already in its directory; start both
  // runs from empty ones.
  std::filesystem::remove_all(dir + "_clean");
  std::filesystem::remove_all(dir + "_chaos");

  ServerWorkload clean = MakeServerWorkload();
  {
    Driver::DurabilityOptions o;
    o.every_n_passes = 1;
    ASSERT_TRUE(clean.driver->EnableDurability({clean.table_w}, dir + "_clean", o).ok());
  }
  for (int p = 0; p < 5; ++p) {
    ASSERT_TRUE(clean.driver->Execute(clean.loop).ok());
  }
  const auto want = Snapshot(clean.driver.get(), clean.table_w);

  FaultPlan chaos;
  chaos.seed = 29;
  chaos.crashes = {{/*rank=*/1, /*pass=*/2, /*step=*/-1}};
  ServerWorkload w = MakeServerWorkload(chaos);
  {
    Driver::DurabilityOptions o;
    o.every_n_passes = 1;
    o.rejoin_crashed_workers = true;
    ASSERT_TRUE(w.driver->EnableDurability({w.table_w}, dir + "_chaos", o).ok());
  }
  auto tier = w.driver->StartServingTier({w.table_w, w.table_r});
  ASSERT_TRUE(tier.ok()) << tier.status();
  Hammer hammer(*tier, {w.table_w, w.table_r});
  for (int p = 0; p < 5; ++p) {
    ASSERT_TRUE(w.driver->Execute(w.loop).ok());
  }
  hammer.StopAndJoin();

  const RuntimeMetrics rm = w.driver->runtime_metrics();
  EXPECT_EQ(rm.crashes_triggered, 1u);
  EXPECT_EQ(rm.worker_rejoins, 1u);
  EXPECT_EQ(w.driver->live_ranks().size(), 4u);
  EXPECT_TRUE(BitIdentical(want, Snapshot(w.driver.get(), w.table_w)));
  EXPECT_GT(hammer.ok_.load(), 0u);
  EXPECT_EQ(hammer.other_.load(), 0u);
}

// ---------------------------------------------------------------------------
// Observability: serve.* counters/gauges and per-array dirty-page gauges +
// series all land in the registry.

TEST(ServingTierDriver, MetricsAndDirtyPageGaugesExported) {
  Wavefront w = MakeWavefront();
  auto tier_or = w.driver->StartServingTier({w.out_c, w.table});
  ASSERT_TRUE(tier_or.ok());
  for (int p = 0; p < 2; ++p) {
    ASSERT_TRUE(w.driver->Execute(w.loop).ok());
    (void)(*tier_or)->Lookup(w.out_c, {0, 1, 2, 3});
    (void)(*tier_or)->Lookup(w.table, {0, 1, 2, 3});
  }
  const MetricsRegistry reg = w.driver->ExportMetrics();
  EXPECT_GT(reg.Counter("serve.requests"), 0u);
  EXPECT_GT(reg.Counter("serve.ok"), 0u);
  EXPECT_GT(reg.Counter("serve.keys_looked_up"), 0u);
  EXPECT_GT(reg.Counter("serve.versions_published"), 0u);
  EXPECT_TRUE(reg.HasHistogram("serve.latency"));
  EXPECT_GE(reg.Gauge("serve.p99_seconds"), reg.Gauge("serve.p50_seconds"));
  // out_c is rewritten wholesale every pass: its last publish delta covers
  // its one page. The read-only table's delta is empty after the first.
  EXPECT_GT(reg.Gauge("versioned.dirty_pages.out_c"), 0.0);
  EXPECT_EQ(reg.Gauge("versioned.dirty_pages.table"), 0.0);
  // One dirty-page series point per publish of that array: out_c skipped the
  // start round (still scattered) and published at both pass boundaries; the
  // table published all three rounds. serve.qps records every round.
  EXPECT_EQ(reg.SeriesCopy("versioned.dirty_pages.out_c").size(), 2u);
  EXPECT_EQ(reg.SeriesCopy("versioned.dirty_pages.table").size(), 3u);
  EXPECT_EQ(reg.SeriesCopy("serve.qps").size(), 3u);

  // Stopping the tier keeps training (and a restart) working.
  w.driver->StopServingTier();
  EXPECT_EQ((*tier_or)->Lookup(w.out_c, {0}).status, LookupStatus::kShutdown);
  ASSERT_TRUE(w.driver->Execute(w.loop).ok());
  auto again = w.driver->StartServingTier({w.table});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->Lookup(w.table, {0}).status, LookupStatus::kOk);
}

}  // namespace
}  // namespace orion
