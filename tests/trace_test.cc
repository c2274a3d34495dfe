// Span tracer: ring mechanics (wraparound, cross-thread merge, nesting,
// serialization), export format, critical-path attribution, and — most
// important — neutrality: enabling tracing must not change a single bit of
// any training result, across prefetch depths and under fault
// injection. Trace bytes ride PassDone, so this also exercises the
// payload-size independence of the fault injector's decisions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/common/trace.h"
#include "src/net/fault_injector.h"
#include "src/runtime/driver.h"
#include "src/runtime/protocol.h"

namespace orion {
namespace {

// Restores a clean global tracer state no matter how a test exits.
struct TracerGuard {
  TracerGuard() { trace::Reset(); }
  ~TracerGuard() {
    trace::SetEnabled(false);
    trace::SetThreadRank(kMasterRank);
    trace::SetThreadPass(-1);
    trace::SetThreadStep(-1);
    trace::SetRingCapacity(size_t{1} << 15);
    trace::Reset();
  }
};

TEST(Tracer, DisabledRecordsNothing) {
  TracerGuard guard;
  ASSERT_FALSE(trace::Enabled());
  {
    ORION_TRACE_SPAN(kExecutor, "noop");
  }
  trace::Emit(trace::Category::kExecutor, "noop", 1, 2);
  EXPECT_TRUE(trace::DrainAll().empty());
}

TEST(Tracer, SpanCarriesThreadContext) {
  TracerGuard guard;
  trace::SetEnabled(true);
  trace::SetThreadRank(3);
  trace::SetThreadPass(7);
  trace::SetThreadStep(2);
  {
    ORION_TRACE_SPAN(kExecutor, "work");
  }
  std::vector<trace::Span> spans = trace::DrainRank(3);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "work");
  EXPECT_EQ(spans[0].rank, 3);
  EXPECT_EQ(spans[0].pass, 7);
  EXPECT_EQ(spans[0].step, 2);
  EXPECT_EQ(spans[0].category, static_cast<u16>(trace::Category::kExecutor));
  EXPECT_LE(spans[0].start_ns, spans[0].end_ns);
}

TEST(Tracer, RingWrapsOverwritingOldest) {
  TracerGuard guard;
  // Capacity applies to rings created after the call, so emit from a fresh
  // thread rather than this one (which may already own a full-size ring).
  trace::SetRingCapacity(4);
  trace::SetEnabled(true);
  const u64 dropped_before = trace::DroppedCount();
  std::thread t([] {
    trace::SetThreadRank(77);
    for (i64 i = 0; i < 10; ++i) {
      trace::Emit(trace::Category::kExecutor, "s", i * 10, i * 10 + 5);
    }
  });
  t.join();
  std::vector<trace::Span> spans = trace::DrainRank(77);
  ASSERT_EQ(spans.size(), 4u);
  // Oldest surviving record is #6; order is chronological.
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].start_ns, static_cast<i64>((6 + i) * 10));
  }
  EXPECT_EQ(trace::DroppedCount() - dropped_before, 6u);
}

TEST(Tracer, DrainRankLeavesOtherRanksBuffered) {
  TracerGuard guard;
  trace::SetEnabled(true);
  trace::SetThreadRank(1);
  trace::Emit(trace::Category::kExecutor, "mine", 10, 20);
  trace::SetThreadRank(2);
  trace::Emit(trace::Category::kExecutor, "theirs", 30, 40);
  std::vector<trace::Span> one = trace::DrainRank(1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].name, "mine");
  std::vector<trace::Span> rest = trace::DrainAll();
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].name, "theirs");
}

TEST(Tracer, NestedSpansCloseInnerFirst) {
  TracerGuard guard;
  trace::SetEnabled(true);
  trace::SetThreadRank(5);
  {
    ORION_TRACE_SPAN(kExecutor, "outer");
    { ORION_TRACE_SPAN(kExecutor, "inner"); }
  }
  std::vector<trace::Span> spans = trace::DrainRank(5);
  ASSERT_EQ(spans.size(), 2u);
  // RAII order: inner destructs (and records) first.
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[1].name, "outer");
  EXPECT_LE(spans[1].start_ns, spans[0].start_ns);
  EXPECT_GE(spans[1].end_ns, spans[0].end_ns);
  // The exporter sorts by start time, so the enclosing span comes first —
  // the nesting convention Perfetto expects for same-track events.
  const std::string json = trace::ChromeTraceJson(spans);
  EXPECT_LT(json.find("\"outer\""), json.find("\"inner\""));
}

TEST(Tracer, CrossThreadMergeIsChronological) {
  TracerGuard guard;
  trace::SetEnabled(true);
  // Two threads interleave synthetic timestamps; the merged drain must come
  // out per-thread chronological and the exporter globally start-sorted.
  std::thread a([] {
    trace::SetThreadRank(0);
    trace::Emit(trace::Category::kExecutor, "a0", 100, 150);
    trace::Emit(trace::Category::kExecutor, "a1", 300, 350);
  });
  std::thread b([] {
    trace::SetThreadRank(1);
    trace::Emit(trace::Category::kExecutor, "b0", 200, 250);
    trace::Emit(trace::Category::kExecutor, "b1", 400, 450);
  });
  a.join();
  b.join();
  std::vector<trace::Span> spans = trace::DrainAll();
  ASSERT_EQ(spans.size(), 4u);
  const std::string json = trace::ChromeTraceJson(spans);
  const size_t p0 = json.find("\"a0\"");
  const size_t p1 = json.find("\"b0\"");
  const size_t p2 = json.find("\"a1\"");
  const size_t p3 = json.find("\"b1\"");
  ASSERT_NE(p0, std::string::npos);
  EXPECT_LT(p0, p1);
  EXPECT_LT(p1, p2);
  EXPECT_LT(p2, p3);
}

TEST(Tracer, SerializationRoundTrips) {
  TracerGuard guard;
  std::vector<trace::Span> in;
  trace::Span s;
  s.start_ns = 12345;
  s.end_ns = 67890;
  s.pass = 3;
  s.step = 9;
  s.rank = 2;
  s.tid = 11;
  s.category = static_cast<u16>(trace::Category::kParamServer);
  s.name = "gather";
  in.push_back(s);
  s.name = "quoted \"name\" with\\slash";
  s.rank = kMasterRank;
  in.push_back(s);

  // Spans travel as a PassDone piggyback.
  PassDone done;
  done.spans = in;
  const std::vector<u8> bytes = Encode(done);
  EXPECT_EQ(bytes.size(), WireSize(done));
  std::vector<trace::Span> out = Decode<PassDone>(bytes).spans;
  ASSERT_EQ(out.size(), in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i].start_ns, in[i].start_ns);
    EXPECT_EQ(out[i].end_ns, in[i].end_ns);
    EXPECT_EQ(out[i].pass, in[i].pass);
    EXPECT_EQ(out[i].step, in[i].step);
    EXPECT_EQ(out[i].rank, in[i].rank);
    EXPECT_EQ(out[i].tid, in[i].tid);
    EXPECT_EQ(out[i].category, in[i].category);
    EXPECT_EQ(out[i].name, in[i].name);
  }
}

TEST(Tracer, ChromeJsonEscapesAndPids) {
  TracerGuard guard;
  trace::Span s;
  s.start_ns = 1000;
  s.end_ns = 2500;
  s.rank = kMasterRank;
  s.name = "has \"quotes\"";
  const std::string json = trace::ChromeTraceJson({s});
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("has \\\"quotes\\\""), std::string::npos);
  // Master-side rank -1 maps to pid 0.
  EXPECT_NE(json.find("\"pid\":0"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Synthetic critical-path attribution: hand-built spans with known durations.

TEST(Tracer, CriticalPathAttributesKnownSpans) {
  TracerGuard guard;
  auto mk = [](trace::Category cat, const char* name, i64 s, i64 e, i32 rank, i64 pass) {
    trace::Span sp;
    sp.category = static_cast<u16>(cat);
    sp.name = name;
    sp.start_ns = s;
    sp.end_ns = e;
    sp.rank = rank;
    sp.pass = pass;
    return sp;
  };
  const i64 ms = 1000000;
  std::vector<trace::Span> spans;
  // Master pass window: [0, 10ms].
  spans.push_back(mk(trace::Category::kDriver, "pass", 0, 10 * ms, kMasterRank, 0));
  spans.push_back(mk(trace::Category::kDriver, "deferred_applies", 9 * ms, 10 * ms,
                     kMasterRank, 0));
  // Worker 0 is critical: pass span 1..9ms with 4ms compute, 2ms prefetch
  // wait, 1ms barrier.
  spans.push_back(mk(trace::Category::kExecutor, "pass", 1 * ms, 9 * ms, 0, 0));
  spans.push_back(mk(trace::Category::kExecutor, "compute", 1 * ms, 5 * ms, 0, 0));
  spans.push_back(mk(trace::Category::kExecutor, "prefetch_wait", 5 * ms, 7 * ms, 0, 0));
  spans.push_back(mk(trace::Category::kExecutor, "barrier", 8 * ms, 9 * ms, 0, 0));
  // Worker 1 finishes earlier — not critical.
  spans.push_back(mk(trace::Category::kExecutor, "pass", 1 * ms, 5 * ms, 1, 0));
  spans.push_back(mk(trace::Category::kExecutor, "compute", 1 * ms, 5 * ms, 1, 0));
  // Server work overlaps worker time; informational only.
  spans.push_back(mk(trace::Category::kParamServer, "gather", 2 * ms, 3 * ms,
                     kMasterRank, -1));

  std::vector<trace::PassBreakdown> passes = trace::AnalyzeCriticalPath(spans);
  ASSERT_EQ(passes.size(), 1u);
  const trace::PassBreakdown& p = passes[0];
  EXPECT_EQ(p.pass, 0);
  EXPECT_EQ(p.critical_rank, 0);
  EXPECT_NEAR(p.wall_seconds, 0.010, 1e-9);
  EXPECT_NEAR(p.compute_seconds, 0.004, 1e-9);
  EXPECT_NEAR(p.prefetch_wait_seconds, 0.002, 1e-9);
  EXPECT_NEAR(p.barrier_seconds, 0.001, 1e-9);
  EXPECT_NEAR(p.master_apply_seconds, 0.001, 1e-9);
  EXPECT_NEAR(p.param_serve_seconds, 0.001, 1e-9);
  EXPECT_NEAR(p.Sum(), p.wall_seconds, 1e-9);

  const std::string table = trace::FormatCriticalPathTable(passes);
  EXPECT_NE(table.find("compute"), std::string::npos);
  EXPECT_NE(table.find("total"), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end: rotation schedule + server-hosted table, the same harness the
// param-serving suite uses, with a probe hook to inspect the live driver.

struct RotationResult {
  std::map<i64, std::vector<f32>> out_r;
  std::map<i64, std::vector<f32>> out_c;
  f64 accum = 0.0;
  std::vector<FaultEvent> fault_events;
};

struct RotationOptions {
  int prefetch_depth = 2;
  bool async_serving = true;
  bool overlap = true;
  FaultPlan fault_plan;
};

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

::testing::AssertionResult SameResult(const RotationResult& a, const RotationResult& b) {
  auto r = BitIdentical(a.out_r, b.out_r);
  if (!r) {
    return r;
  }
  auto c = BitIdentical(a.out_c, b.out_c);
  if (!c) {
    return c;
  }
  if (a.accum != b.accum) {
    return ::testing::AssertionFailure() << "accumulators differ";
  }
  return ::testing::AssertionSuccess();
}

// `probe` runs against the live driver after the last pass, before results
// are snapshotted — the hook through which traced runs dump and analyze.
RotationResult RunRotationServer(const RotationOptions& opt,
                                 const std::function<void(Driver&)>& probe = nullptr) {
  constexpr i64 kRows = 24;
  constexpr i64 kCols = 24;
  constexpr int kPasses = 4;

  DriverConfig cfg;
  cfg.num_workers = 4;
  cfg.seed = 11;
  cfg.net.latency_us = 200.0;
  cfg.net.bandwidth_bps = 1e9;
  cfg.async_param_serving = opt.async_serving;
  cfg.fault_plan = opt.fault_plan;
  if (cfg.fault_plan.Active()) {
    cfg.supervisor.enabled = true;
    cfg.supervisor.heartbeat_interval_seconds = 0.02;
    cfg.supervisor.retry_initial_seconds = 0.02;
  }
  Driver driver(cfg);

  auto data = driver.CreateDistArray("data", {kRows, kCols}, 1, Density::kSparse);
  auto out_r = driver.CreateDistArray("out_r", {kRows}, 2, Density::kDense);
  auto out_c = driver.CreateDistArray("out_c", {kCols}, 2, Density::kDense);
  auto table = driver.CreateDistArray("table", {kRows + kCols - 1}, 2, Density::kDense);
  {
    Rng rng(99);
    CellStore& cells = driver.MutableCells(data);
    for (i64 n = 0; n < 600; ++n) {
      const i64 i = static_cast<i64>(rng.NextBounded(static_cast<u64>(kRows)));
      const i64 j = static_cast<i64>(rng.NextBounded(static_cast<u64>(kCols)));
      *cells.GetOrCreate(i * kCols + j) = 1.0f + 0.25f * static_cast<f32>(n % 7);
    }
    driver.MapCells(table, [](i64 key, f32* v) {
      v[0] = 0.5f + 0.001f * static_cast<f32>(key);
      v[1] = 1.0f - 0.002f * static_cast<f32>(key);
    });
  }

  LoopSpec spec;
  spec.iter_space = data;
  spec.iter_extents = {kRows, kCols};
  spec.AddAccess(out_r, "out_r", {Expr::LoopIndex(0)}, true);
  spec.AddAccess(out_c, "out_c", {Expr::LoopIndex(1)}, true);
  spec.AddAccess(table, "table", {Expr::Add(Expr::LoopIndex(0), Expr::LoopIndex(1))},
                 false);

  const int acc = driver.CreateAccumulator();
  LoopKernel kernel = [=](LoopContext& ctx, IdxSpan idx, const f32* value) {
    const i64 k[1] = {idx[0] + idx[1]};
    const f32* t = ctx.Read(table, k);
    const f32 s = value[0] * t[0] + t[1];
    const i64 ki[1] = {idx[0]};
    const i64 kj[1] = {idx[1]};
    ctx.Mutate(out_r, ki)[0] += s;
    ctx.Mutate(out_r, ki)[1] += s * t[0];
    ctx.Mutate(out_c, kj)[0] += s;
    ctx.Mutate(out_c, kj)[1] += s * t[1];
    ctx.AccumulatorAdd(acc, static_cast<f64>(s));
  };

  ParallelForOptions options;
  options.prefetch = PrefetchMode::kCached;
  options.prefetch_depth = opt.prefetch_depth;
  options.overlap = opt.overlap;
  options.planner.replicate_threshold_floats = 0;  // force table -> kServer
  auto loop = driver.Compile(spec, kernel, options);
  EXPECT_TRUE(loop.ok()) << loop.status();

  RotationResult res;
  for (int p = 0; p < kPasses; ++p) {
    EXPECT_TRUE(driver.Execute(*loop).ok());
  }
  if (probe) {
    probe(driver);
  }
  res.out_r = Snapshot(&driver, out_r);
  res.out_c = Snapshot(&driver, out_c);
  res.accum = driver.AccumulatorValue(acc);
  res.fault_events = driver.fault_events();
  return res;
}

RotationResult RunTraced(const RotationOptions& opt,
                         const std::function<void(Driver&)>& probe = nullptr) {
  TracerGuard guard;
  trace::SetEnabled(true);
  return RunRotationServer(opt, probe);
}

TEST(TracerNeutrality, DepthAndShardMatrixBitForBit) {
  RotationOptions sync;
  sync.overlap = false;
  sync.async_serving = false;
  sync.prefetch_depth = 1;
  const RotationResult ref = RunRotationServer(sync);

  for (int depth : {1, 2, 4}) {
    RotationOptions o;
    o.prefetch_depth = depth;
    const RotationResult untraced = RunRotationServer(o);
    const RotationResult traced = RunTraced(o);
    EXPECT_TRUE(SameResult(ref, untraced)) << "depth " << depth;
    EXPECT_TRUE(SameResult(untraced, traced)) << "tracing changed results at depth " << depth;
  }
}

TEST(TracerNeutrality, ChaosRunBitForBit) {
  RotationOptions chaos;
  chaos.prefetch_depth = 2;
  chaos.fault_plan.seed = 17;
  chaos.fault_plan.drop_prob = 0.05;
  chaos.fault_plan.dup_prob = 0.05;
  chaos.fault_plan.delay_prob = 0.05;

  const RotationResult untraced = RunRotationServer(chaos);
  const RotationResult traced = RunTraced(chaos);
  EXPECT_TRUE(SameResult(untraced, traced)) << "tracing changed chaos-run results";
  EXPECT_FALSE(traced.fault_events.empty());
}

TEST(TracerAcceptance, TracedRunExportsClusterTimeline) {
  const std::string path = ::testing::TempDir() + "/orion_trace_test.json";
  std::vector<trace::Span> collected;
  std::string report;
  std::vector<trace::PassBreakdown> passes;

  RotationOptions o;
  o.prefetch_depth = 2;
  RunTraced(o, [&](Driver& driver) {
    ASSERT_TRUE(driver.DumpTrace(path).ok());
    collected = driver.CollectTrace();
    passes = trace::AnalyzeCriticalPath(collected);
    report = driver.CriticalPathReport();
  });

  // Spans arrived from the master, from >= 2 distinct workers, and from the
  // ParamServer pool.
  bool has_driver = false;
  bool has_server = false;
  std::vector<i32> worker_ranks;
  for (const trace::Span& s : collected) {
    const auto cat = static_cast<trace::Category>(s.category);
    if (cat == trace::Category::kDriver) {
      has_driver = true;
    }
    if (cat == trace::Category::kParamServer) {
      has_server = true;
    }
    if (cat == trace::Category::kExecutor && s.rank >= 0) {
      worker_ranks.push_back(s.rank);
    }
  }
  std::sort(worker_ranks.begin(), worker_ranks.end());
  worker_ranks.erase(std::unique(worker_ranks.begin(), worker_ranks.end()),
                     worker_ranks.end());
  EXPECT_TRUE(has_driver);
  EXPECT_TRUE(has_server);
  EXPECT_GE(worker_ranks.size(), 2u);

  // Dumped file is Chrome trace JSON with master + >= 2 worker processes.
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string json = ss.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"driver\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"executor\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"param_server\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":0"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":2"), std::string::npos);
  std::remove(path.c_str());

  // Critical-path attribution: one breakdown per pass, buckets sum to the
  // master-observed wall time (5% tolerance), nonzero compute on the
  // critical worker.
  ASSERT_EQ(passes.size(), 4u);
  for (const trace::PassBreakdown& p : passes) {
    EXPECT_GE(p.critical_rank, 0) << "pass " << p.pass;
    EXPECT_GT(p.wall_seconds, 0.0);
    EXPECT_GT(p.compute_seconds, 0.0) << "pass " << p.pass;
    EXPECT_NEAR(p.Sum(), p.wall_seconds, 0.05 * p.wall_seconds) << "pass " << p.pass;
  }
  EXPECT_NE(report.find("compute"), std::string::npos);
  EXPECT_NE(report.find("total"), std::string::npos);
}

}  // namespace
}  // namespace orion
