// Log-structured durability: delta-log round trips, torn-write crash sweeps,
// point-in-time restore, master restart, and worker rejoin (ROADMAP
// "log-structured durability").
//
// The E2E workload is the arrival-invariant 1D server workload from
// versioned_store_test: reads hit a read-only server table, writes are
// additive integer-valued updates, so every restore/replay configuration can
// be compared bit-for-bit against an uninterrupted run.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "src/common/durable_io.h"
#include "src/dsm/delta_log.h"
#include "src/dsm/dist_array_buffer.h"
#include "src/dsm/versioned_store.h"
#include "src/net/fault_injector.h"
#include "src/runtime/driver.h"

namespace orion {
namespace {

// Tests run as parallel ctest processes; each needs its own log dir, and a
// stale dir from a previous run must not leak state into this one.
std::string LogDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "/orion_dur_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

using CellMap = std::map<i64, std::vector<f32>>;

CellMap StoreSnapshot(const VersionedCellStore& s) {
  CellMap out;
  const i32 vdim = s.value_dim();
  s.ForEachConst([&](i64 key, const f32* v) { out[key].assign(v, v + vdim); });
  return out;
}

CellMap CellsSnapshot(const CellStore& c) {
  CellMap out;
  c.ForEachConst([&](i64 key, const f32* v) { out[key].assign(v, v + c.value_dim()); });
  return out;
}

::testing::AssertionResult BitIdentical(const CellMap& a, const CellMap& b) {
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

void WriteFileRaw(const std::string& path, const std::vector<u8>& bytes, size_t n) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(bytes.data()), static_cast<std::streamsize>(n));
}

// ---- Delta log unit tests ----

TEST(DeltaLog, DenseRoundTripBaseThenDelta) {
  const std::string dir = LogDir("roundtrip");
  CellStore flat(1, CellStore::Layout::kFullDense, 700);
  for (i64 k = 0; k < 700; ++k) {
    *flat.GetOrCreate(k) = static_cast<f32>(k % 7);
  }
  VersionedCellStore store(std::move(flat));
  store.BeginServing();
  ASSERT_EQ(store.num_pages(), 3);

  auto writer = DeltaLogWriter::Open(dir, {/*compact_every=*/8});
  ASSERT_TRUE(writer.ok()) << writer.status();

  MasterRecord m0;
  m0.next_pass = 0;
  m0.config_seed = 7;
  m0.num_workers = 4;
  m0.live_ranks = {0, 1, 2, 3};
  m0.accumulators = {1.5};
  const CellMap snap0 = StoreSnapshot(store);
  auto s0 = (*writer)->AppendCheckpoint(m0, {{"t", &store}});
  ASSERT_TRUE(s0.ok()) << s0.status();
  EXPECT_TRUE(s0->wrote_base);
  EXPECT_FALSE(s0->compacted);
  EXPECT_TRUE(store.delta_tracking_valid());

  // Dirty two of the three pages; the next checkpoint ships exactly those.
  store.GetOrCreate(5)[0] = 42.0f;
  store.GetOrCreate(600)[0] = -1.0f;
  MasterRecord m1 = m0;
  m1.next_pass = 1;
  m1.accumulators = {2.5};
  const CellMap snap1 = StoreSnapshot(store);
  auto s1 = (*writer)->AppendCheckpoint(m1, {{"t", &store}});
  ASSERT_TRUE(s1.ok()) << s1.status();
  EXPECT_FALSE(s1->wrote_base);
  EXPECT_EQ(s1->pages_deltad, 2u);
  EXPECT_EQ(s1->full_arrays, 0);
  EXPECT_LT(s1->bytes_appended, s0->bytes_appended);

  auto reader = DeltaLogReader::Open(dir);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_FALSE(reader->torn_tail());
  ASSERT_EQ(reader->points().size(), 2u);
  EXPECT_EQ(reader->points()[0].pass, 0);
  EXPECT_EQ(reader->points()[1].pass, 1);

  auto at0 = reader->StateAtPass(0);
  ASSERT_TRUE(at0.ok()) << at0.status();
  EXPECT_TRUE(BitIdentical(snap0, CellsSnapshot(at0->arrays.at("t"))));
  EXPECT_EQ(at0->master.accumulators, std::vector<f64>{1.5});
  EXPECT_EQ(at0->master.config_seed, 7u);
  EXPECT_EQ(at0->master.live_ranks, (std::vector<i32>{0, 1, 2, 3}));

  auto at1 = reader->Latest();
  ASSERT_TRUE(at1.ok()) << at1.status();
  EXPECT_TRUE(BitIdentical(snap1, CellsSnapshot(at1->arrays.at("t"))));
  EXPECT_EQ(at1->master.next_pass, 1);

  EXPECT_EQ(reader->StateAt(99).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(reader->StateAtPass(7).status().code(), StatusCode::kNotFound);
}

TEST(DeltaLog, HashedGrowthAndCompaction) {
  const std::string dir = LogDir("compact");
  CellStore flat(2, CellStore::Layout::kHashed, 0);
  for (i64 k = 0; k < 300; ++k) {
    f32* v = flat.GetOrCreate(k * 3);
    v[0] = static_cast<f32>(k);
    v[1] = static_cast<f32>(k) + 0.5f;
  }
  VersionedCellStore store(std::move(flat));
  store.BeginServing();

  auto writer = DeltaLogWriter::Open(dir, {/*compact_every=*/2});
  ASSERT_TRUE(writer.ok()) << writer.status();
  MasterRecord m;
  auto append = [&](i64 pass) {
    m.next_pass = pass;
    return (*writer)->AppendCheckpoint(m, {{"t", &store}});
  };

  ASSERT_TRUE(append(0).ok());  // base

  // Delta with hashed growth: new keys past the checkpoint mark.
  store.GetOrCreate(12)[0] = 100.0f;
  store.GetOrCreate(9001)[1] = 7.0f;
  store.GetOrCreate(9002)[0] = 8.0f;
  auto d1 = append(1);
  ASSERT_TRUE(d1.ok()) << d1.status();
  EXPECT_FALSE(d1->wrote_base);
  EXPECT_GE(d1->pages_deltad, 1u);

  store.GetOrCreate(9001)[0] = 9.0f;
  ASSERT_TRUE(append(2).ok());  // second delta: at the compaction threshold

  store.GetOrCreate(21)[1] = -3.0f;
  const CellMap live = StoreSnapshot(store);
  auto d3 = append(3);
  ASSERT_TRUE(d3.ok()) << d3.status();
  EXPECT_TRUE(d3->wrote_base);   // folded: 2 records + this one > compact_every
  EXPECT_TRUE(d3->compacted);

  auto reader = DeltaLogReader::Open(dir);
  ASSERT_TRUE(reader.ok()) << reader.status();
  // History before the fold is gone; the base is the only restorable point.
  ASSERT_EQ(reader->points().size(), 1u);
  EXPECT_EQ(reader->points()[0].pass, 3);
  auto latest = reader->Latest();
  ASSERT_TRUE(latest.ok()) << latest.status();
  EXPECT_TRUE(BitIdentical(live, CellsSnapshot(latest->arrays.at("t"))));

  // Appends continue as deltas on top of the fresh base.
  store.GetOrCreate(9001)[0] = 11.0f;
  const CellMap live2 = StoreSnapshot(store);
  ASSERT_TRUE(append(4).ok());
  auto reader2 = DeltaLogReader::Open(dir);
  ASSERT_TRUE(reader2.ok());
  ASSERT_EQ(reader2->points().size(), 2u);
  auto latest2 = reader2->Latest();
  ASSERT_TRUE(latest2.ok());
  EXPECT_TRUE(BitIdentical(live2, CellsSnapshot(latest2->arrays.at("t"))));
}

// Crash-at-every-byte-offset sweep: truncating the WAL at any length must
// leave a log that opens cleanly and restores a valid prefix of the recorded
// checkpoints — never corrupt cells, never a crash.
TEST(DeltaLog, TornTailSweepRestoresValidPrefix) {
  const std::string dir = LogDir("torn_src");
  CellStore flat(1, CellStore::Layout::kFullDense, 8);
  for (i64 k = 0; k < 8; ++k) {
    *flat.GetOrCreate(k) = static_cast<f32>(k);
  }
  VersionedCellStore store(std::move(flat));
  store.BeginServing();

  auto writer = DeltaLogWriter::Open(dir, {/*compact_every=*/0});
  ASSERT_TRUE(writer.ok());
  std::vector<CellMap> expected;  // state at each recorded point
  MasterRecord m;
  for (i64 pass = 0; pass < 4; ++pass) {
    if (pass > 0) {
      store.GetOrCreate(pass % 8)[0] = 100.0f + static_cast<f32>(pass);
    }
    expected.push_back(StoreSnapshot(store));
    m.next_pass = pass;
    ASSERT_TRUE((*writer)->AppendCheckpoint(m, {{"t", &store}}).ok());
  }

  auto base_bytes = ReadFileBytes(dir + "/base.orib");
  auto wal_bytes = ReadFileBytes(dir + "/wal.oril");
  ASSERT_TRUE(base_bytes.ok());
  ASSERT_TRUE(wal_bytes.ok());
  ASSERT_GT(wal_bytes->size(), 0u);

  // A replacement state for append-after-truncation: a flat store (no page
  // tracking) so the appended record is a self-contained full image.
  CellStore repl_flat(1, CellStore::Layout::kFullDense, 8);
  for (i64 k = 0; k < 8; ++k) {
    *repl_flat.GetOrCreate(k) = 0.5f * static_cast<f32>(k);
  }
  VersionedCellStore repl(std::move(repl_flat));
  const CellMap repl_snap = StoreSnapshot(repl);

  const std::string tdir = LogDir("torn_case");
  for (size_t len = 0; len < wal_bytes->size(); ++len) {
    std::filesystem::remove_all(tdir);
    std::filesystem::create_directories(tdir);
    WriteFileRaw(tdir + "/base.orib", *base_bytes, base_bytes->size());
    WriteFileRaw(tdir + "/wal.oril", *wal_bytes, len);

    auto reader = DeltaLogReader::Open(tdir);
    ASSERT_TRUE(reader.ok()) << "len=" << len << ": " << reader.status();
    const size_t npoints = reader->points().size();
    ASSERT_GE(npoints, 1u) << "len=" << len;       // the base always survives
    ASSERT_LE(npoints, expected.size()) << "len=" << len;
    EXPECT_LE(reader->valid_wal_bytes(), len) << "len=" << len;
    for (size_t p = 0; p < npoints; ++p) {
      ASSERT_EQ(reader->points()[p].pass, static_cast<i64>(p)) << "len=" << len;
      auto st = reader->StateAt(reader->points()[p].seq);
      ASSERT_TRUE(st.ok()) << "len=" << len << " point=" << p;
      EXPECT_TRUE(BitIdentical(expected[p], CellsSnapshot(st->arrays.at("t"))))
          << "len=" << len << " point=" << p;
    }

    // A writer reopening over the torn tail truncates it and appends cleanly.
    auto rewriter = DeltaLogWriter::Open(tdir, {/*compact_every=*/0});
    ASSERT_TRUE(rewriter.ok()) << "len=" << len << ": " << rewriter.status();
    MasterRecord mr;
    mr.next_pass = 50;
    ASSERT_TRUE((*rewriter)->AppendCheckpoint(mr, {{"t", &repl}}).ok()) << "len=" << len;
    auto reader2 = DeltaLogReader::Open(tdir);
    ASSERT_TRUE(reader2.ok()) << "len=" << len;
    ASSERT_EQ(reader2->points().size(), npoints + 1) << "len=" << len;
    EXPECT_FALSE(reader2->torn_tail()) << "len=" << len;
    auto latest = reader2->Latest();
    ASSERT_TRUE(latest.ok()) << "len=" << len;
    EXPECT_EQ(latest->master.next_pass, 50) << "len=" << len;
    EXPECT_TRUE(BitIdentical(repl_snap, CellsSnapshot(latest->arrays.at("t"))))
        << "len=" << len;
  }

  // Bit-flip sweep: corruption anywhere in the WAL (headers included — the
  // checksum covers seq and size, not just the payload) yields a valid
  // prefix, never wrong cells.
  for (size_t off = 0; off < wal_bytes->size(); off += 3) {
    std::filesystem::remove_all(tdir);
    std::filesystem::create_directories(tdir);
    WriteFileRaw(tdir + "/base.orib", *base_bytes, base_bytes->size());
    std::vector<u8> flipped = *wal_bytes;
    flipped[off] ^= 0x40;
    WriteFileRaw(tdir + "/wal.oril", flipped, flipped.size());

    auto reader = DeltaLogReader::Open(tdir);
    ASSERT_TRUE(reader.ok()) << "off=" << off;
    const size_t npoints = reader->points().size();
    ASSERT_GE(npoints, 1u);
    ASSERT_LE(npoints, expected.size()) << "off=" << off;
    for (size_t p = 0; p < npoints; ++p) {
      auto st = reader->StateAt(reader->points()[p].seq);
      ASSERT_TRUE(st.ok()) << "off=" << off;
      EXPECT_TRUE(BitIdentical(expected[p], CellsSnapshot(st->arrays.at("t"))))
          << "off=" << off << " point=" << p;
    }
  }

  // A corrupt *base* is a clean open error — nothing to restore from.
  std::filesystem::remove_all(tdir);
  std::filesystem::create_directories(tdir);
  std::vector<u8> bad_base = *base_bytes;
  bad_base[bad_base.size() / 2] ^= 0x01;
  WriteFileRaw(tdir + "/base.orib", bad_base, bad_base.size());
  auto broken = DeltaLogReader::Open(tdir);
  EXPECT_FALSE(broken.ok());
}

// ---- E2E: the arrival-invariant 1D server workload ----

constexpr i64 kSamples = 96;
constexpr i64 kKeys = 4096;  // 16 pages when paginated

struct WlOptions {
  int workers = 4;
  u64 seed = 19;
  FaultPlan fault_plan;
};

// Sparse-write server workload: reads spread over all of table_r, writes
// confined to keys [0, 64) — one dirty page out of 16 — so delta checkpoints
// stay far below a full image.
class Workload {
 public:
  explicit Workload(const WlOptions& opt) : driver_(MakeCfg(opt)) {
    samples_ = driver_.CreateDistArray("samples", {kSamples}, 3, Density::kDense);
    table_r_ = driver_.CreateDistArray("table_r", {kKeys}, 1, Density::kDense);
    table_w_ = driver_.CreateDistArray("table_w", {kKeys}, 1, Density::kDense);
    driver_.MapCells(samples_, [](i64 key, f32* v) {
      v[0] = static_cast<f32>((key * 31 + 7) % kKeys);  // read key
      v[1] = static_cast<f32>((key * 17 + 3) % 64);     // write key: page 0 only
      v[2] = static_cast<f32>(1 + key % 5);             // integer payload
    });
    driver_.MapCells(table_r_, [](i64 key, f32* v) {
      v[0] = static_cast<f32>(key % 11);
    });
    driver_.MapCells(table_w_, [](i64 key, f32* v) {
      v[0] = static_cast<f32>(key % 5);
    });
    driver_.RegisterBuffer(table_w_, 1, MakeAddApplyFn());
    acc_ = driver_.CreateAccumulator();

    LoopSpec spec;
    spec.iter_space = samples_;
    spec.iter_extents = {kSamples};
    spec.AddAccess(table_r_, "table_r", {Expr::Runtime("rk")}, /*is_write=*/false);
    spec.AddAccess(table_w_, "table_w", {Expr::Runtime("wk")}, /*is_write=*/true,
                   /*buffered=*/true);
    const DistArrayId table_r = table_r_;
    const DistArrayId table_w = table_w_;
    const int acc = acc_;
    LoopKernel kernel = [=](LoopContext& ctx, IdxSpan idx, const f32* value) {
      (void)idx;
      const i64 rk[1] = {static_cast<i64>(value[0])};
      const i64 wk[1] = {static_cast<i64>(value[1])};
      const f32 upd = value[2] * (ctx.Read(table_r, rk)[0] + 1.0f);
      ctx.BufferUpdate(table_w, wk, &upd);
      ctx.AccumulatorAdd(acc, static_cast<f64>(upd));
    };
    ParallelForOptions options;
    options.server_sync_rounds = 2;
    options.planner.replicate_threshold_floats = 0;  // both tables -> kServer
    auto loop = driver_.Compile(spec, kernel, options);
    EXPECT_TRUE(loop.ok()) << loop.status();
    loop_ = *loop;
  }

  Status EnableLog(const std::string& dir, int compact_every = 8,
                   bool rejoin = false) {
    Driver::DurabilityOptions o;
    o.every_n_passes = 1;
    o.compact_every = compact_every;
    o.rejoin_crashed_workers = rejoin;
    return driver_.EnableDurability({table_w_}, dir, o);
  }

  Status RunPasses(int n) {
    for (int p = 0; p < n; ++p) {
      Status s = driver_.Execute(loop_);
      if (!s.ok()) {
        return s;
      }
    }
    return Status::Ok();
  }

  CellMap SnapshotW() { return CellsSnapshot(driver_.Cells(table_w_)); }
  f64 Accum() const { return driver_.AccumulatorValue(acc_); }
  Driver& driver() { return driver_; }
  DistArrayId table_w() const { return table_w_; }

 private:
  static DriverConfig MakeCfg(const WlOptions& opt) {
    DriverConfig cfg;
    cfg.num_workers = opt.workers;
    cfg.seed = opt.seed;
    cfg.async_param_serving = true;
    cfg.fault_plan = opt.fault_plan;
    if (cfg.fault_plan.Active()) {
      cfg.supervisor.enabled = true;
      cfg.supervisor.heartbeat_interval_seconds = 0.02;
      cfg.supervisor.retry_initial_seconds = 0.02;
      cfg.supervisor.death_timeout_seconds = 1.0;
    }
    return cfg;
  }

  Driver driver_;
  DistArrayId samples_ = kInvalidDistArrayId;
  DistArrayId table_r_ = kInvalidDistArrayId;
  DistArrayId table_w_ = kInvalidDistArrayId;
  int acc_ = -1;
  i32 loop_ = -1;
};

TEST(DurabilityE2E, DeltaBytesStayFarBelowFullCheckpoints) {
  const int kPasses = 10;
  WlOptions opt;
  Workload wl(opt);
  ASSERT_TRUE(wl.EnableLog(LogDir("delta_scale"), /*compact_every=*/0).ok());
  ASSERT_TRUE(wl.RunPasses(kPasses).ok());

  // One full serialized image of table_w, for scale.
  ByteWriter full;
  wl.driver().Cells(wl.table_w()).Serialize(&full);
  const u64 full_bytes = full.bytes().size();

  const RuntimeMetrics rm = wl.driver().runtime_metrics();
  // Baseline + one per pass; all but the base and the first post-pagination
  // record are delta appends.
  EXPECT_EQ(rm.checkpoints_written, static_cast<u64>(kPasses) + 1);
  EXPECT_GE(rm.delta_checkpoints, static_cast<u64>(kPasses) - 2);
  EXPECT_GT(rm.pages_deltad, 0u);
  // Writes are confined to one page of sixteen, so each delta is a small
  // fraction of a full image; the whole log costs less than 40% of writing
  // full checkpoints every pass.
  EXPECT_LT(rm.pages_deltad, 2 * rm.delta_checkpoints);
  EXPECT_LT(rm.log_bytes_appended, (static_cast<u64>(kPasses) + 1) * full_bytes * 2 / 5);
  EXPECT_EQ(rm.compactions, 0u);

  // The counters surface through the unified registry and the critical-path
  // report grows a checkpoint-stall column.
  const MetricsRegistry reg = wl.driver().ExportMetrics();
  EXPECT_EQ(reg.Counter("durability.delta_checkpoints"), rm.delta_checkpoints);
  EXPECT_EQ(reg.Counter("durability.log_bytes_appended"), rm.log_bytes_appended);
  EXPECT_EQ(reg.Counter("durability.pages_deltad"), rm.pages_deltad);
  EXPECT_EQ(reg.Counter("durability.compactions"), 0u);
  EXPECT_EQ(reg.Counter("durability.worker_rejoins"), 0u);
  EXPECT_NE(wl.driver().CriticalPathReport().find("ckpt"), std::string::npos);

  // Every pass is a restore point.
  auto points = wl.driver().DurabilityPoints();
  ASSERT_TRUE(points.ok()) << points.status();
  ASSERT_EQ(points->size(), static_cast<size_t>(kPasses) + 1);
  EXPECT_EQ(points->front().pass, 0);
  EXPECT_EQ(points->back().pass, kPasses);
}

// Driver::Checkpoint reads the paged master in place: the next durable pass
// still ships only the pages it dirtied, not a full array.
TEST(DurabilityE2E, CheckpointLeavesDeltaTrackingIntact) {
  WlOptions opt;
  Workload wl(opt);
  ASSERT_TRUE(wl.EnableLog(LogDir("ckpt_between"), /*compact_every=*/0).ok());
  ASSERT_TRUE(wl.RunPasses(3).ok());
  const u64 deltad = wl.driver().ExportMetrics().Counter("durability.pages_deltad");
  ASSERT_GT(deltad, 0u);

  const std::string path = LogDir("ckpt_between_file") + "/table_w.ckpt";
  ASSERT_TRUE(wl.driver().Checkpoint(wl.table_w(), path).ok());
  ASSERT_TRUE(wl.RunPasses(1).ok());
  EXPECT_GT(wl.driver().ExportMetrics().Counter("durability.pages_deltad"), deltad);
}

TEST(DurabilityE2E, CompactionFoldsTheLog) {
  WlOptions opt;
  Workload wl(opt);
  ASSERT_TRUE(wl.EnableLog(LogDir("compact_e2e"), /*compact_every=*/3).ok());
  ASSERT_TRUE(wl.RunPasses(8).ok());
  const RuntimeMetrics rm = wl.driver().runtime_metrics();
  EXPECT_GE(rm.compactions, 1u);
  auto points = wl.driver().DurabilityPoints();
  ASSERT_TRUE(points.ok());
  // Compaction trims history: far fewer live points than checkpoints taken.
  EXPECT_LT(points->size(), rm.checkpoints_written);
  EXPECT_EQ(points->back().pass, 8);
  // The trimmed log still restores the latest state exactly.
  const CellMap before = wl.SnapshotW();
  ASSERT_TRUE(wl.driver().RestoreToPass(8).ok());
  EXPECT_TRUE(BitIdentical(before, wl.SnapshotW()));
}

TEST(DurabilityE2E, MasterRestartResumesBitForBit) {
  const std::string dir = LogDir("master_restart");

  WlOptions opt;
  Workload ref(opt);
  ASSERT_TRUE(ref.EnableLog(LogDir("master_restart_ref")).ok());
  ASSERT_TRUE(ref.RunPasses(6).ok());
  const CellMap want = ref.SnapshotW();
  const f64 want_acc = ref.Accum();

  {
    Workload a(opt);
    ASSERT_TRUE(a.EnableLog(dir).ok());
    ASSERT_TRUE(a.RunPasses(3).ok());
    // Driver a dies here; the log directory is all that survives.
  }

  // A fresh master: same deterministic program, resumed from the log.
  Workload b(opt);
  ASSERT_TRUE(b.EnableLog(dir).ok());
  auto resumed = b.driver().ResumeFromLog();
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(*resumed, 3);
  EXPECT_GT(b.driver().runtime_metrics().restore_seconds, 0.0);
  ASSERT_TRUE(b.RunPasses(3).ok());

  EXPECT_TRUE(BitIdentical(want, b.SnapshotW()));
  EXPECT_EQ(want_acc, b.Accum());

  // A mismatched configuration must refuse to resume.
  WlOptions other = opt;
  other.seed = 99;
  Workload c(other);
  ASSERT_TRUE(c.EnableLog(dir).ok());
  EXPECT_EQ(c.driver().ResumeFromLog().status().code(), StatusCode::kInvalidArgument);
}

TEST(DurabilityE2E, PointInTimeRestoreIsBitForBit) {
  WlOptions opt;

  Workload ref4(opt);
  ASSERT_TRUE(ref4.EnableLog(LogDir("pit_ref4")).ok());
  ASSERT_TRUE(ref4.RunPasses(4).ok());
  const CellMap want4 = ref4.SnapshotW();
  const f64 want4_acc = ref4.Accum();

  Workload wl(opt);
  ASSERT_TRUE(wl.EnableLog(LogDir("pit")).ok());
  ASSERT_TRUE(wl.RunPasses(6).ok());
  const CellMap want6 = wl.SnapshotW();
  const f64 want6_acc = wl.Accum();

  // Rewind the live cluster to the state right after pass 4.
  ASSERT_TRUE(wl.driver().RestoreToPass(4).ok());
  EXPECT_TRUE(BitIdentical(want4, wl.SnapshotW()));
  EXPECT_EQ(want4_acc, wl.Accum());

  // Training continues from the restored point and lands exactly where the
  // uninterrupted run did.
  ASSERT_TRUE(wl.RunPasses(2).ok());
  EXPECT_TRUE(BitIdentical(want6, wl.SnapshotW()));
  EXPECT_EQ(want6_acc, wl.Accum());

  EXPECT_EQ(wl.driver().RestoreToPass(77).code(), StatusCode::kNotFound);
}

TEST(DurabilityE2E, WorkerCrashRejoinsAndMatchesCleanRunBitForBit) {
  WlOptions clean_opt;
  Workload clean(clean_opt);
  ASSERT_TRUE(clean.EnableLog(LogDir("rejoin_clean")).ok());
  ASSERT_TRUE(clean.RunPasses(5).ok());
  const CellMap want = clean.SnapshotW();
  const f64 want_acc = clean.Accum();

  WlOptions chaos_opt;
  chaos_opt.fault_plan.seed = 29;
  chaos_opt.fault_plan.crashes = {{/*rank=*/1, /*pass=*/2, /*step=*/-1}};
  Workload chaos(chaos_opt);
  ASSERT_TRUE(chaos.EnableLog(LogDir("rejoin_chaos"), /*compact_every=*/8,
                              /*rejoin=*/true)
                  .ok());
  ASSERT_TRUE(chaos.RunPasses(5).ok());

  const RuntimeMetrics rm = chaos.driver().runtime_metrics();
  EXPECT_EQ(rm.crashes_triggered, 1u);
  EXPECT_EQ(rm.workers_lost, 1u);
  EXPECT_EQ(rm.recoveries, 1u);
  EXPECT_EQ(rm.worker_rejoins, 1u);
  EXPECT_GT(rm.restore_seconds, 0.0);
  // The crashed rank is back: full-strength ring, not the retired N-1.
  EXPECT_EQ(chaos.driver().live_ranks().size(), 4u);

  EXPECT_TRUE(BitIdentical(want, chaos.SnapshotW()));
  EXPECT_EQ(want_acc, chaos.Accum());

  // Rewind the rejoined cluster to pass 3 and retrain: retire, rejoin and
  // the restore's reconfigure all ran on one driver, which must again land
  // where the clean run did.
  ASSERT_TRUE(chaos.driver().RestoreToPass(3).ok());
  ASSERT_TRUE(chaos.RunPasses(2).ok());
  EXPECT_TRUE(BitIdentical(want, chaos.SnapshotW()));
  EXPECT_EQ(want_acc, chaos.Accum());
}

// ---- Satellite: no false-positive death during long state transfers ----

// A worker that was just sent a bulk transfer installs it silently; with a
// death timeout shorter than the install, the old supervisor declared it
// dead and cascaded a pointless recovery. The state-transfer grace window
// must keep it alive until it first speaks.
TEST(DurabilitySupervision, StateTransferGraceAvoidsFalseDeath) {
  constexpr i64 kCells = 1'000'000;  // ~16 MB scattered + ~4 MB written back

  auto run = [&](double grace_seconds) {
    DriverConfig cfg;
    cfg.num_workers = 2;
    cfg.seed = 3;
    cfg.supervisor.enabled = true;
    cfg.supervisor.heartbeat_interval_seconds = 0.01;
    cfg.supervisor.retry_initial_seconds = 0.02;
    cfg.supervisor.death_timeout_seconds = 0.05;  // << install time
    cfg.supervisor.state_transfer_grace_seconds = grace_seconds;
    Driver driver(cfg);
    auto samples = driver.CreateDistArray("samples", {kCells}, 4, Density::kDense);
    auto out = driver.CreateDistArray("out", {kCells}, 1, Density::kDense);
    driver.MapCells(samples, [](i64 key, f32* v) {
      v[0] = static_cast<f32>(key % 13);
      v[1] = v[2] = v[3] = 0.0f;
    });
    LoopSpec spec;
    spec.iter_space = samples;
    spec.iter_extents = {kCells};
    spec.AddAccess(out, "out", {Expr::LoopIndex(0)}, /*is_write=*/true);
    LoopKernel kernel = [=](LoopContext& ctx, IdxSpan idx, const f32* value) {
      const i64 k[1] = {idx[0]};
      ctx.Mutate(out, k)[0] = value[0] + 1.0f;
    };
    auto loop = driver.Compile(spec, kernel, {});
    EXPECT_TRUE(loop.ok()) << loop.status();
    return driver.Execute(*loop);
  };

  // Regression: with the grace window (default-sized), the scatter install
  // must never be mistaken for death, no matter how slow the machine.
  const Status ok_status = run(/*grace_seconds=*/10.0);
  EXPECT_TRUE(ok_status.ok()) << ok_status;

  // Without the grace window this is the old behavior: on machines where the
  // install outruns the 50ms timeout the worker is falsely declared dead.
  // Both outcomes are legal here — the arm documents the failure mode, and
  // the failure must be the clean "lost worker" path, not a hang or crash.
  const Status bare_status = run(/*grace_seconds=*/0.0);
  if (!bare_status.ok()) {
    EXPECT_NE(bare_status.message().find("lost"), std::string::npos);
  }
}

}  // namespace
}  // namespace orion
