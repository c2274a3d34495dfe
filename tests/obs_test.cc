// Live telemetry plane: background monitor, Prometheus exposition endpoint,
// straggler detector, and the crash-safe flight recorder (ROADMAP
// "observability").
//
// The load-bearing invariant is the last test: enabling the monitor and the
// scrape endpoint must leave the computation bit-for-bit identical, because
// probes only read atomics and the endpoint renders from an immutable
// registry snapshot — observability can never feed back into scheduling.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/flight_recorder.h"
#include "src/common/metrics_registry.h"
#include "src/net/fault_injector.h"
#include "src/obs/anomaly.h"
#include "src/obs/metrics_endpoint.h"
#include "src/obs/monitor.h"
#include "src/runtime/driver.h"

namespace orion {
namespace {

std::string TempPath(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "/orion_obs_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string ReadFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

using CellMap = std::map<i64, std::vector<f32>>;

CellMap Snapshot(Driver* d, DistArrayId id) {
  CellMap out;
  const CellStore& c = d->Cells(id);
  c.ForEachConst([&](i64 key, const f32* v) {
    out[key].assign(v, v + c.value_dim());
  });
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

// Ordered 8x8 wavefront over a server-hosted table: every step ends in a
// global barrier, so the master observes one (rank, arrival) round per step
// — the feed the straggler detector consumes.
struct WavefrontRun {
  CellMap out_r;
  CellMap out_c;
  f64 accum = 0.0;
  std::string report;
  MetricsRegistry metrics;
  std::vector<bool> flagged;  // per physical rank
};

struct WavefrontKnobs {
  int passes = 3;
  FaultPlan fault_plan;
  bool monitor = false;
  bool endpoint = false;
  // Scraped mid-run when the endpoint is up (one body per pass).
  std::vector<std::string>* scrapes = nullptr;
};

WavefrontRun RunWavefront(const WavefrontKnobs& knobs) {
  constexpr int kWorkers = 4;
  constexpr i64 kN = 8;

  DriverConfig cfg;
  cfg.num_workers = kWorkers;
  cfg.seed = 21;
  cfg.fault_plan = knobs.fault_plan;
  if (cfg.fault_plan.Active()) {
    cfg.supervisor.enabled = true;
    cfg.supervisor.heartbeat_interval_seconds = 0.02;
    cfg.supervisor.retry_initial_seconds = 0.02;
    cfg.supervisor.death_timeout_seconds = 2.0;
  }
  Driver driver(cfg);
  if (knobs.monitor) {
    ORION_CHECK_OK(driver.EnableMonitor(/*period_seconds=*/0.005));
  }
  int port = 0;
  if (knobs.endpoint) {
    auto p = driver.StartMetricsEndpoint(0);
    ORION_CHECK_OK(p.status());
    port = *p;
  }

  auto data = driver.CreateDistArray("data", {kN, kN}, 1, Density::kDense);
  auto out_r = driver.CreateDistArray("out_r", {kN}, 2, Density::kDense);
  auto out_c = driver.CreateDistArray("out_c", {kN}, 2, Density::kDense);
  auto table = driver.CreateDistArray("table", {2 * kN - 1}, 2, Density::kDense);
  driver.MapCells(data, [](i64 key, f32* v) {
    v[0] = 1.0f + 0.125f * static_cast<f32>(key % 5);
  });
  driver.MapCells(table, [](i64 key, f32* v) {
    v[0] = 0.5f + 0.01f * static_cast<f32>(key);
    v[1] = 1.0f - 0.01f * static_cast<f32>(key);
  });
  const int acc = driver.CreateAccumulator();

  LoopSpec spec;
  spec.iter_space = data;
  spec.iter_extents = {kN, kN};
  spec.ordered = true;
  spec.AddAccess(out_r, "out_r", {Expr::LoopIndex(0)}, /*is_write=*/true);
  spec.AddAccess(out_c, "out_c", {Expr::LoopIndex(1)}, /*is_write=*/true);
  spec.AddAccess(table, "table", {Expr::Add(Expr::LoopIndex(0), Expr::LoopIndex(1))},
                 /*is_write=*/false);

  LoopKernel kernel = [=](LoopContext& ctx, IdxSpan idx, const f32* value) {
    const i64 k[1] = {idx[0] + idx[1]};
    const f32* t = ctx.Read(table, k);
    const f32 s = value[0] * t[0] + t[1];
    const i64 ki[1] = {idx[0]};
    const i64 kj[1] = {idx[1]};
    ctx.Mutate(out_r, ki)[0] += s;
    ctx.Mutate(out_c, kj)[1] += s * 0.5f;
    ctx.AccumulatorAdd(acc, static_cast<f64>(s));
  };

  ParallelForOptions options;
  options.prefetch = PrefetchMode::kCached;
  options.planner.replicate_threshold_floats = 0;  // force table -> kServer
  auto loop = driver.Compile(spec, kernel, options);
  ORION_CHECK_OK(loop.status());

  WavefrontRun run;
  for (int p = 0; p < knobs.passes; ++p) {
    ORION_CHECK_OK(driver.Execute(*loop));
    if (knobs.endpoint && knobs.scrapes != nullptr) {
      auto body = obs::HttpGet(port, "/metrics");
      ORION_CHECK_OK(body.status());
      knobs.scrapes->push_back(*std::move(body));
    }
  }

  if (knobs.monitor) {
    driver.monitor()->SampleNow();  // final sample sees the finished run
  }
  run.out_r = Snapshot(&driver, out_r);
  run.out_c = Snapshot(&driver, out_c);
  run.accum = driver.AccumulatorValue(acc);
  run.report = driver.CriticalPathReport();
  run.metrics = driver.ExportMetrics();
  for (int r = 0; r < kWorkers; ++r) {
    run.flagged.push_back(driver.StragglerFlagged(r));
  }
  return run;
}

// ---- Monitor ----

TEST(ObsMonitor, SamplesProbesAndMergesLiveSeries) {
  WavefrontKnobs knobs;
  knobs.monitor = true;
  const WavefrontRun run = RunWavefront(knobs);

  EXPECT_GT(run.metrics.Counter("live.monitor.samples"), 0u);
  const auto gauges = run.metrics.GaugesSnapshot();
  // Probe families registered by the driver, all under the live. prefix.
  EXPECT_TRUE(gauges.count("live.fabric.inbox.master"));
  EXPECT_TRUE(gauges.count("live.prefetch.ring_fill.w0"));
  EXPECT_TRUE(gauges.count("live.rank.w0.completed"));
  EXPECT_TRUE(gauges.count("live.bufferpool.pooled_bytes"));
  // The per-rank completed-pass watermark saw the run finish.
  EXPECT_GE(gauges.at("live.rank.w0.completed"), 0.0);
  // Each retained sample contributes one series point per probe.
  EXPECT_FALSE(run.metrics.SeriesCopy("live.rank.w0.completed").empty());
}

TEST(ObsMonitor, StartStopIsIdempotentAndStandalone) {
  obs::Monitor::Options opt;
  opt.period_seconds = 0.001;
  opt.ring_capacity = 4;
  obs::Monitor mon(opt);
  std::atomic<int> calls{0};
  mon.RegisterProbe("probe.a", [&] { return static_cast<double>(++calls); });
  ASSERT_TRUE(mon.Start().ok());
  EXPECT_TRUE(mon.running());
  EXPECT_FALSE(mon.Start().ok());  // double-start refused
  mon.SampleNow();
  mon.Stop();
  mon.Stop();  // idempotent
  EXPECT_FALSE(mon.running());
  EXPECT_GT(mon.samples_taken(), 0u);
  // Ring stays bounded no matter how many samples were taken.
  EXPECT_LE(mon.SamplesSnapshot().size(), 4u);
  const obs::Monitor::Sample last = mon.Latest();
  ASSERT_EQ(last.values.size(), 1u);
  EXPECT_GT(last.values[0], 0.0);
}

// ---- Prometheus endpoint ----

TEST(ObsEndpoint, ServesScrapeAndHealthOverLoopback) {
  std::vector<std::string> scrapes;
  WavefrontKnobs knobs;
  knobs.monitor = true;
  knobs.endpoint = true;
  knobs.scrapes = &scrapes;
  RunWavefront(knobs);

  ASSERT_EQ(scrapes.size(), 3u);
  const std::string& body = scrapes.back();
  EXPECT_NE(body.find("# TYPE orion_pass_wall_seconds gauge"), std::string::npos);
  EXPECT_NE(body.find("orion_live_"), std::string::npos);
  // Wait histograms expose the full cumulative triple.
  EXPECT_NE(body.find("orion_pass_reply_wait_bucket{le=\"+Inf\"}"), std::string::npos);
  EXPECT_NE(body.find("orion_pass_reply_wait_sum"), std::string::npos);
  EXPECT_NE(body.find("orion_pass_reply_wait_count"), std::string::npos);

  // Exposition hygiene: one # TYPE line per family, never two.
  std::set<std::string> type_lines;
  std::istringstream lines(body);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("# TYPE ", 0) == 0) {
      EXPECT_TRUE(type_lines.insert(line).second) << "duplicate: " << line;
    }
  }
  EXPECT_GT(type_lines.size(), 10u);
}

TEST(ObsEndpoint, HealthAndNotFound) {
  obs::Monitor mon;
  obs::MetricsEndpoint ep(&mon);
  auto port = ep.Start(0);
  ASSERT_TRUE(port.ok()) << port.status();
  ASSERT_GT(*port, 0);

  auto health = obs::HttpGet(*port, "/healthz");
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_EQ(*health, "ok\n");

  // No registry published yet: /metrics still answers (empty families).
  auto metrics = obs::HttpGet(*port, "/metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.status();

  EXPECT_FALSE(obs::HttpGet(*port, "/nope").ok());
  ep.Stop();
  ep.Stop();  // idempotent
  EXPECT_FALSE(obs::HttpGet(*port, "/healthz").ok());
}

TEST(ObsEndpoint, RenderEscapesAndSanitizesNames) {
  MetricsRegistry reg;
  reg.SetGauge("weird.gauge-with/slash", 2.5);
  reg.SetCounter("plain.counter", 7);
  const std::string text = obs::RenderPrometheus(reg, nullptr);
  EXPECT_NE(text.find("orion_weird_gauge_with_slash 2.5"), std::string::npos);
  EXPECT_NE(text.find("orion_plain_counter 7"), std::string::npos);
  // Sample lines carry only sanitized names ('/' survives in # HELP text).
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind('#', 0) != 0) {
      EXPECT_EQ(line.find('/'), std::string::npos) << line;
    }
  }
}

// ---- Straggler detector ----

TEST(ObsAnomaly, UnitFlagAfterConfirmRoundsAndVerdict) {
  obs::StragglerDetector det;
  // Too few ranks: ignored entirely.
  det.ObserveRound({{0, 1.0}, {1, 5.0}});
  EXPECT_EQ(det.rounds(), 0u);

  const std::vector<std::pair<int, double>> skewed = {
      {0, 0.010}, {1, 0.011}, {2, 0.060}, {3, 0.010}};
  det.ObserveRound(skewed);
  det.ObserveRound(skewed);
  EXPECT_FALSE(det.Flagged(2));  // two rounds: not confirmed yet
  det.ObserveRound(skewed);
  EXPECT_TRUE(det.Flagged(2));
  EXPECT_FALSE(det.Flagged(0));
  EXPECT_GT(det.LagEwma(2), 0.0);
  EXPECT_EQ(det.TakeNewlyFlagged(), std::vector<int>{2});
  EXPECT_TRUE(det.TakeNewlyFlagged().empty());  // WARN-once semantics
  EXPECT_NE(det.Verdict().find("rank 2"), std::string::npos);

  // The flag is sticky: it takes confirm_rounds healthy rounds in a row to
  // clear, so one in-band observation cannot flap the verdict.
  const std::vector<std::pair<int, double>> even = {
      {0, 0.010}, {1, 0.010}, {2, 0.010}, {3, 0.010}};
  det.ObserveRound(even);
  det.ObserveRound(even);
  EXPECT_TRUE(det.Flagged(2));
  det.ObserveRound(even);
  EXPECT_FALSE(det.Flagged(2));
}

TEST(ObsAnomaly, InjectedStraggleIsDetectedEndToEnd) {
  WavefrontKnobs knobs;
  knobs.fault_plan.straggle_rank = 2;
  knobs.fault_plan.straggle_seconds = 0.015;
  const WavefrontRun run = RunWavefront(knobs);

  ASSERT_EQ(run.flagged.size(), 4u);
  EXPECT_TRUE(run.flagged[2]);
  EXPECT_FALSE(run.flagged[0]);
  EXPECT_FALSE(run.flagged[1]);
  EXPECT_FALSE(run.flagged[3]);
  EXPECT_EQ(run.metrics.Gauge("anomaly.straggler.2"), 1.0);
  EXPECT_GT(run.metrics.Gauge("anomaly.straggler_lag_ewma.2"), 0.0);
  EXPECT_GT(run.metrics.Counter("anomaly.flags_total"), 0u);
  EXPECT_NE(run.report.find("stragglers: rank 2"), std::string::npos);

  // The straggle clause is pure timing skew: the computation is untouched.
  const WavefrontRun clean = RunWavefront({});
  EXPECT_TRUE(BitIdentical(clean.out_r, run.out_r));
  EXPECT_TRUE(BitIdentical(clean.out_c, run.out_c));
  EXPECT_EQ(clean.accum, run.accum);
}

TEST(ObsAnomaly, CleanChaosRunStaysSilent) {
  // Message faults (drop/dup/delay) delay single rounds, never the same
  // rank for confirm_rounds in a row — no straggler flags.
  WavefrontKnobs knobs;
  knobs.fault_plan.seed = 29;
  knobs.fault_plan.drop_prob = 0.03;
  knobs.fault_plan.dup_prob = 0.03;
  knobs.fault_plan.delay_prob = 0.03;
  const WavefrontRun run = RunWavefront(knobs);

  EXPECT_EQ(run.metrics.Counter("anomaly.flags_total"), 0u);
  EXPECT_NE(run.report.find("stragglers: none"), std::string::npos);
  EXPECT_GT(run.metrics.Counter("anomaly.rounds"), 0u);
}

// ---- Determinism: the whole plane is observation-only ----

TEST(ObsDeterminism, MonitorAndEndpointOnOffBitIdentical) {
  const WavefrontRun off = RunWavefront({});

  std::vector<std::string> scrapes;
  WavefrontKnobs on;
  on.monitor = true;
  on.endpoint = true;
  on.scrapes = &scrapes;
  const WavefrontRun watched = RunWavefront(on);

  EXPECT_TRUE(BitIdentical(off.out_r, watched.out_r));
  EXPECT_TRUE(BitIdentical(off.out_c, watched.out_c));
  EXPECT_EQ(off.accum, watched.accum);
  EXPECT_FALSE(scrapes.empty());  // the endpoint really was scraped mid-run
}

// ---- Flight recorder ----

TEST(ObsFlightRecorder, RingWrapsAndDumpsOldestFirst) {
  fr::ResetForTest();
  constexpr int kEvents = 5000;  // > ring capacity (4096): oldest overwritten
  for (int i = 0; i < kEvents; ++i) {
    fr::Record(fr::EventKind::kNote, i % 4, i, 2 * i, "wrap");
  }
  EXPECT_EQ(fr::TotalRecorded(), static_cast<u64>(kEvents));
  const auto events = fr::SnapshotEvents();
  ASSERT_FALSE(events.empty());
  EXPECT_LE(events.size(), 4096u);
  // Oldest first, contiguous tail of the record stream.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a, events[i - 1].a + 1);
  }
  EXPECT_EQ(events.back().a, kEvents - 1);
  EXPECT_EQ(events.back().detail, "wrap");

  const std::string json = fr::DumpJson("unit");
  EXPECT_NE(json.find("\"reason\":\"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"events\""), std::string::npos);
  EXPECT_NE(json.find("\"note\""), std::string::npos);
}

TEST(ObsFlightRecorder, FatalDumpPathIsSignalSafeRenderer) {
  fr::ResetForTest();
  fr::Record(fr::EventKind::kNote, 1, 42, 0, "fatal-test");
  const std::string path = TempPath("fatal") + "/blackbox.json";
  fr::SetFatalDumpPath(path.c_str());
  fr::DumpOnFatal("test_reason");
  const std::string dump = ReadFile(path);
  ASSERT_FALSE(dump.empty());
  EXPECT_NE(dump.find("test_reason"), std::string::npos);
  EXPECT_NE(dump.find("fatal-test"), std::string::npos);
  EXPECT_NE(dump.find("\"events_recorded\""), std::string::npos);
}

TEST(ObsFlightRecorder, CrashRecoveryLeavesParseableBlackBox) {
  fr::ResetForTest();

  // The durability rejoin scenario: rank 1 crashes at pass 2, is retired to
  // N-1, then streams back in from the delta log.
  constexpr i64 kKeys = 256;
  constexpr i64 kSamples = 2048;
  DriverConfig cfg;
  cfg.num_workers = 4;
  cfg.seed = 19;
  cfg.fault_plan.seed = 29;
  cfg.fault_plan.crashes = {{/*rank=*/1, /*pass=*/2, /*step=*/-1}};
  cfg.supervisor.enabled = true;
  cfg.supervisor.heartbeat_interval_seconds = 0.02;
  cfg.supervisor.retry_initial_seconds = 0.02;
  cfg.supervisor.death_timeout_seconds = 1.0;
  Driver driver(cfg);

  auto samples = driver.CreateDistArray("samples", {kSamples}, 3, Density::kDense);
  auto table_r = driver.CreateDistArray("table_r", {kKeys}, 1, Density::kDense);
  auto table_w = driver.CreateDistArray("table_w", {kKeys}, 1, Density::kDense);
  driver.MapCells(samples, [](i64 key, f32* v) {
    v[0] = static_cast<f32>((key * 31 + 7) % kKeys);
    v[1] = static_cast<f32>((key * 17 + 3) % 64);
    v[2] = static_cast<f32>(1 + key % 5);
  });
  driver.MapCells(table_r, [](i64 key, f32* v) { v[0] = static_cast<f32>(key % 11); });
  driver.MapCells(table_w, [](i64 key, f32* v) { v[0] = static_cast<f32>(key % 5); });
  driver.RegisterBuffer(table_w, 1, MakeAddApplyFn());

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
    const f32 upd = value[2] * (ctx.Read(table_r, rk)[0] + 1.0f);
    ctx.BufferUpdate(table_w, wk, &upd);
  };
  ParallelForOptions options;
  options.server_sync_rounds = 2;
  options.planner.replicate_threshold_floats = 0;
  auto loop = driver.Compile(spec, kernel, options);
  ASSERT_TRUE(loop.ok()) << loop.status();

  Driver::DurabilityOptions dur;
  dur.every_n_passes = 1;
  dur.rejoin_crashed_workers = true;
  ASSERT_TRUE(driver.EnableDurability({table_w}, TempPath("blackbox_log"), dur).ok());

  for (int p = 0; p < 5; ++p) {
    ASSERT_TRUE(driver.Execute(*loop).ok());
  }
  const RuntimeMetrics rm = driver.runtime_metrics();
  ASSERT_EQ(rm.workers_lost, 1u);
  ASSERT_EQ(rm.worker_rejoins, 1u);

  const std::string path = TempPath("blackbox") + "/blackbox.json";
  ASSERT_TRUE(driver.DumpBlackBox(path).ok());
  const std::string dump = ReadFile(path);
  ASSERT_FALSE(dump.empty());
  EXPECT_EQ(dump.front(), '{');

  // The whole membership transition is on the record: the crash decision,
  // the death verdict, the retire to N-1, and the rejoin back to N.
  EXPECT_NE(dump.find("\"crash_point\""), std::string::npos);
  EXPECT_NE(dump.find("\"worker_dead\""), std::string::npos);
  EXPECT_NE(dump.find("\"retire\""), std::string::npos);
  EXPECT_NE(dump.find("\"rejoin\""), std::string::npos);
  EXPECT_NE(dump.find("\"checkpoint\""), std::string::npos);
  EXPECT_NE(dump.find("\"pass_start\""), std::string::npos);
  EXPECT_NE(dump.find("\"live_ranks\":[0,1,2,3]"), std::string::npos);

  // Structurally sound JSON: balanced braces and brackets.
  int braces = 0, brackets = 0;
  bool in_string = false;
  for (size_t i = 0; i < dump.size(); ++i) {
    const char ch = dump[i];
    if (in_string) {
      if (ch == '\\') ++i;
      else if (ch == '"') in_string = false;
      continue;
    }
    if (ch == '"') in_string = true;
    else if (ch == '{') ++braces;
    else if (ch == '}') --braces;
    else if (ch == '[') ++brackets;
    else if (ch == ']') --brackets;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

// ---- Registry hardening (the TSan target) ----

TEST(ObsRegistry, DumpConcurrentWithAppendIsSafe) {
  constexpr u64 kWrites = 20000;
  MetricsRegistry reg;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (u64 n = 0; n < kWrites; ++n) {
      reg.AddCounter("hammer.count", 1);
      reg.SetGauge("hammer.gauge", static_cast<double>(n));
      reg.AppendSeries("hammer.series", static_cast<double>(n));
    }
    done.store(true);
  });
  // Dump continuously while the writer runs (the TSan target).
  while (!done.load()) {
    ASSERT_FALSE(reg.ToJson().empty());
  }
  writer.join();
  // Every dump was one consistent cut; the final one reflects all writes.
  const std::string fin = reg.ToJson();
  EXPECT_NE(fin.find("hammer.series"), std::string::npos);
  EXPECT_EQ(reg.Counter("hammer.count"), kWrites);
  EXPECT_EQ(reg.SeriesCopy("hammer.series").size(), kWrites);
}

TEST(ObsRegistry, JsonEscapesHostileNames) {
  MetricsRegistry reg;
  reg.SetGauge("evil\"name\\with\nnewline", 1.0);
  const std::string json = reg.ToJson();
  EXPECT_NE(json.find("evil\\\"name\\\\with\\nnewline"), std::string::npos);
  // Still one structurally valid object (trailing newline after the brace).
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.find_last_not_of('\n'), json.size() - 2);
  EXPECT_EQ(json[json.size() - 2], '}');
}

}  // namespace
}  // namespace orion
