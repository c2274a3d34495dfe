// Chaos tests: seeded fault injection (drop / duplicate / delay / crash)
// against the supervised runtime, and checkpoint-based recovery from worker
// loss (paper Sec. 4.3).
//
// Determinism contract: injected drop/duplicate/delay decisions are a pure
// function of (plan seed, link, per-link faultable sequence number), so two
// runs of the same program with the same plan inject the same faults. The
// global interleaving of *release* events depends on thread timing, so
// cross-run comparisons canonicalize the log to decision events per link.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "src/apps/lda.h"
#include "src/apps/sgd_mf.h"
#include "src/net/fault_injector.h"
#include "src/runtime/driver.h"
#include "src/runtime/protocol.h"

namespace orion {
namespace {

PassDone MakePassDone(i32 loop_id, i32 pass) {
  PassDone d;
  d.loop_id = loop_id;
  d.pass = pass;
  return d;
}

RatingsConfig SmallData() {
  RatingsConfig d;
  d.rows = 300;
  d.cols = 240;
  d.nnz = 12000;
  d.true_rank = 4;
  d.seed = 7;
  return d;
}

SupervisorConfig FastSupervision() {
  SupervisorConfig s;
  s.enabled = true;
  s.heartbeat_interval_seconds = 0.02;
  s.death_timeout_seconds = 2.0;
  s.retry_initial_seconds = 0.02;
  return s;
}

// Tests run as parallel ctest processes; each needs its own checkpoint dir.
// Every run starts from an empty one: the delta-log writer adopts any log it
// finds there, which would carry one run's records and compaction counter
// into the next.
std::string RecoveryDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "/orion_fi_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

Driver::DurabilityOptions EveryTwoPasses() {
  Driver::DurabilityOptions opt;
  opt.every_n_passes = 2;
  return opt;
}

Message ControlMsg(WorkerId from, WorkerId to, std::vector<u8> payload) {
  Message m;
  m.from = from;
  m.to = to;
  m.kind = MsgKind::kControl;
  m.payload = std::move(payload);
  return m;
}

// Decision events only (drop / duplicate / delay / crash), in per-link
// order. Release events are timing-dependent and excluded.
std::vector<FaultEvent> CanonicalEvents(std::vector<FaultEvent> events) {
  events.erase(std::remove_if(events.begin(), events.end(),
                              [](const FaultEvent& e) {
                                return e.kind == FaultEvent::Kind::kRelease;
                              }),
               events.end());
  std::sort(events.begin(), events.end(), [](const FaultEvent& a, const FaultEvent& b) {
    return std::make_tuple(a.from, a.to, a.link_seq, static_cast<int>(a.kind), a.pass,
                           a.step) < std::make_tuple(b.from, b.to, b.link_seq,
                                                     static_cast<int>(b.kind), b.pass,
                                                     b.step);
  });
  return events;
}

// ---- Injector unit tests ----

TEST(FaultInjector, SameSeedSameDecisions) {
  FaultPlan plan;
  plan.seed = 42;
  plan.drop_prob = 0.1;
  plan.dup_prob = 0.1;
  plan.delay_prob = 0.1;

  auto run = [&](u64 seed) {
    FaultPlan p = plan;
    p.seed = seed;
    FaultInjector inj(p);
    for (int pass = 0; pass < 50; ++pass) {
      for (WorkerId w = 0; w < 4; ++w) {
        inj.Process(ControlMsg(kMasterRank, w, Encode(StartPass{0, pass})));
        inj.Process(ControlMsg(w, kMasterRank, Encode(MakePassDone(0, pass))));
      }
    }
    return inj.events();
  };

  const auto a = run(42);
  const auto b = run(42);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);  // single-threaded: the full log, releases included
  EXPECT_NE(run(43), a);
}

TEST(FaultInjector, OnlyEligibleMessagesAreFaulted) {
  FaultPlan plan;
  plan.drop_prob = 1.0;  // drop every eligible message
  plan.fault_barrier_msgs = false;
  FaultInjector inj(plan);

  // kControl kStartPass: eligible, dropped.
  EXPECT_TRUE(inj.Process(ControlMsg(kMasterRank, 0, Encode(StartPass{0, 0}))).empty());
  // kControl kGather: not in faultable_control_ops, passes through.
  EXPECT_EQ(inj.Process(ControlMsg(kMasterRank, 0, Encode(ArrayOp{ControlOp::kGather, 0})))
                .size(),
            1u);
  // kBarrier with fault_barrier_msgs = false: passes through.
  Message barrier;
  barrier.from = 0;
  barrier.to = kMasterRank;
  barrier.kind = MsgKind::kBarrier;
  barrier.payload = Encode(BarrierMsg{});
  EXPECT_EQ(inj.Process(barrier).size(), 1u);
  // Data plane is never eligible.
  Message data;
  data.from = kMasterRank;
  data.to = 1;
  data.kind = MsgKind::kPartitionData;
  EXPECT_EQ(inj.Process(data).size(), 1u);

  EXPECT_EQ(inj.stats().dropped, 1u);
}

TEST(FaultInjector, CrashPointsFireExactlyOnce) {
  FaultPlan plan;
  plan.crashes = {{/*rank=*/1, /*pass=*/3, /*step=*/-1}};
  FaultInjector inj(plan);
  EXPECT_FALSE(inj.ShouldCrash(1, 2, -1));
  EXPECT_FALSE(inj.ShouldCrash(0, 3, -1));
  EXPECT_TRUE(inj.ShouldCrash(1, 3, -1));
  EXPECT_FALSE(inj.ShouldCrash(1, 3, -1));  // one-shot
  EXPECT_EQ(inj.stats().crashes_triggered, 1u);
}

TEST(FaultInjector, DuplicateDeliversTwice) {
  FaultPlan plan;
  plan.dup_prob = 1.0;
  FaultInjector inj(plan);
  const auto out = inj.Process(ControlMsg(0, kMasterRank, Encode(MakePassDone(0, 0))));
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(inj.stats().duplicated, 1u);
}

TEST(FaultInjector, DelayedMessageIsReleasedAfterLaterTraffic) {
  FaultPlan plan;
  plan.delay_prob = 1.0;
  plan.delay_release_after = 2;
  FaultInjector inj(plan);
  EXPECT_TRUE(inj.Process(ControlMsg(0, kMasterRank, Encode(MakePassDone(0, 0)))).empty());
  // Unfaulted traffic toward the same destination ages the holdback.
  Message data;
  data.from = 1;
  data.to = kMasterRank;
  data.kind = MsgKind::kParamUpdate;
  EXPECT_EQ(inj.Process(data).size(), 1u);
  const auto out = inj.Process(data);  // second send -> release
  ASSERT_EQ(out.size(), 2u);
  // The reordering: the triggering message first, the held one after it.
  EXPECT_EQ(out[0].kind, MsgKind::kParamUpdate);
  EXPECT_EQ(out[1].kind, MsgKind::kControl);
  EXPECT_EQ(inj.stats().released, 1u);
}

// ---- Worker reports fold across workers by each metric's declared rule. ----

TEST(LoopMetrics, FoldTakesMaxOfTimesAndRingDepthAndSumsSpecCounts) {
  WorkerPassMetrics a;
  a.compute_seconds = 0.5;
  a.wait_seconds = 0.1;
  a.overlap_send_seconds = 0.3;
  a.prefetch_hidden_seconds = 0.05;
  a.ring_depth_used = 2;
  a.spec_issued = 5;
  a.spec_conflicts = 1;
  a.spec_repair_bytes = 100;
  a.spec_hidden_seconds = 0.02;
  a.spec_wait_seconds = 0.4;
  WorkerPassMetrics b;
  b.compute_seconds = 0.2;
  b.wait_seconds = 0.6;
  b.overlap_send_seconds = 0.1;
  b.prefetch_hidden_seconds = 0.07;
  b.ring_depth_used = 4;
  b.spec_issued = 7;
  b.spec_conflicts = 3;
  b.spec_repair_bytes = 250;
  b.spec_hidden_seconds = 0.09;
  b.spec_wait_seconds = 0.1;

  LoopMetrics lm;
  lm.pass_wall_seconds = 1.0;
  lm.spec_issued = 99;
  lm.ResetPass();
  EXPECT_EQ(lm.pass_wall_seconds, 1.0) << "assigned at pass end, not reset";
  EXPECT_EQ(lm.spec_issued, 0u);
  lm.Fold(a);
  lm.Fold(b);
  EXPECT_EQ(lm.max_worker_compute_seconds, 0.5);
  EXPECT_EQ(lm.max_worker_wait_seconds, 0.6);
  EXPECT_EQ(lm.overlap_seconds, 0.3);
  EXPECT_EQ(lm.prefetch_wait_hidden_seconds, 0.07);
  EXPECT_EQ(lm.prefetch_ring_depth_used, 4);
  EXPECT_EQ(lm.spec_hidden_seconds, 0.09);
  EXPECT_EQ(lm.spec_wait_seconds, 0.4);
  EXPECT_EQ(lm.spec_issued, 12u);
  EXPECT_EQ(lm.spec_conflicts, 4u);
  EXPECT_EQ(lm.spec_repair_bytes, 350u);

  MetricsRegistry reg;
  lm.ExportTo(&reg);
  EXPECT_EQ(reg.Counter("spec.issued"), 12u);
  EXPECT_EQ(reg.Gauge("pass.max_worker_wait_seconds"), 0.6);
  std::map<std::string, std::vector<double>> series;
  lm.AppendSeriesTo(&series);
  EXPECT_EQ(series.count("pass.wall_seconds"), 1u);
  EXPECT_EQ(series.count("spec.repair_bytes"), 1u);
  EXPECT_EQ(series.count("spec.issued"), 0u);
}

// ---- End-to-end chaos: SGD MF ----

// Message faults without crashes must not change the computation at all:
// every lost control message is retransmitted with identical content, and
// the data plane is never faulted, so the final model is bit-for-bit the
// model of a fault-free run.
TEST(FaultInjectionE2E, SgdMfBitForBitUnderMessageFaults) {
  auto data = GenerateRatings(SmallData());
  SgdMfConfig mf;
  mf.rank = 4;

  auto train = [&](const FaultPlan& plan, std::vector<f32>* w_out,
                   std::vector<f32>* h_out) {
    DriverConfig cfg;
    cfg.num_workers = 4;
    cfg.fault_plan = plan;
    cfg.supervisor = FastSupervision();
    Driver driver(cfg);
    SgdMfApp app(&driver, mf);
    ASSERT_TRUE(app.Init(data, 300, 240).ok());
    for (int p = 0; p < 5; ++p) {
      ASSERT_TRUE(app.RunPass().ok());
    }
    driver.MutableCells(app.w()).ForEachConst(
        [&](i64, const f32* v) { w_out->insert(w_out->end(), v, v + 4); });
    driver.MutableCells(app.h()).ForEachConst(
        [&](i64, const f32* v) { h_out->insert(h_out->end(), v, v + 4); });
    if (plan.HasMessageFaults()) {
      const RuntimeMetrics rm = driver.runtime_metrics();
      EXPECT_GT(rm.faults_dropped + rm.faults_duplicated + rm.faults_delayed, 0u);
      EXPECT_EQ(rm.workers_lost, 0u);
    }
  };

  std::vector<f32> w_clean, h_clean;
  train(FaultPlan{}, &w_clean, &h_clean);

  FaultPlan chaos;
  chaos.seed = 11;
  chaos.drop_prob = 0.05;
  chaos.dup_prob = 0.05;
  chaos.delay_prob = 0.05;
  std::vector<f32> w_faulty, h_faulty;
  train(chaos, &w_faulty, &h_faulty);

  EXPECT_EQ(w_clean, w_faulty);
  EXPECT_EQ(h_clean, h_faulty);
}

TEST(FaultInjectionE2E, SgdMfCrashRecoveryConvergesAndIsDeterministic) {
  auto data = GenerateRatings(SmallData());
  SgdMfConfig mf;
  mf.rank = 4;

  FaultPlan chaos;
  chaos.seed = 5;
  chaos.drop_prob = 0.05;  // <= 5% of control messages, per the fault model
  chaos.crashes = {{/*rank=*/1, /*pass=*/3, /*step=*/-1}};

  auto train = [&](f64* loss0, f64* loss_final, RuntimeMetrics* rm,
                   std::vector<FaultEvent>* events, size_t* live) {
    DriverConfig cfg;
    cfg.num_workers = 4;
    cfg.fault_plan = chaos;
    cfg.supervisor = FastSupervision();
    cfg.supervisor.death_timeout_seconds = 1.0;
    Driver driver(cfg);
    SgdMfApp app(&driver, mf);
    ASSERT_TRUE(app.Init(data, 300, 240).ok());
    ASSERT_TRUE(driver
                    .EnableDurability({app.w(), app.h()}, RecoveryDir("crash_mf"),
                                      EveryTwoPasses())
                    .ok());
    *loss0 = *app.EvalLoss();
    for (int p = 0; p < 8; ++p) {
      ASSERT_TRUE(app.RunPass().ok());
    }
    *loss_final = *app.EvalLoss();
    *rm = driver.runtime_metrics();
    *events = CanonicalEvents(driver.fault_events());
    *live = driver.live_ranks().size();
  };

  f64 loss0 = 0.0, loss_final = 0.0;
  RuntimeMetrics rm;
  std::vector<FaultEvent> events_a;
  size_t live = 0;
  train(&loss0, &loss_final, &rm, &events_a, &live);

  // The run absorbed one worker loss and still trained to convergence.
  EXPECT_EQ(rm.crashes_triggered, 1u);
  EXPECT_EQ(rm.workers_lost, 1u);
  EXPECT_EQ(rm.recoveries, 1u);
  EXPECT_GE(rm.checkpoints_written, 2u);  // baseline + at least one periodic
  EXPECT_GT(rm.recovery_seconds, 0.0);
  EXPECT_EQ(live, 3u);  // graceful degradation to N-1 executors
  EXPECT_LT(loss_final, 0.25 * loss0);

  // Same seed, same program -> the same injected-fault sequence.
  f64 l0 = 0.0, lf = 0.0;
  RuntimeMetrics rm2;
  std::vector<FaultEvent> events_b;
  size_t live2 = 0;
  train(&l0, &lf, &rm2, &events_b, &live2);
  EXPECT_FALSE(events_a.empty());
  EXPECT_EQ(events_a, events_b);
  EXPECT_EQ(rm2.workers_lost, 1u);
}

TEST(FaultInjectionE2E, OrderedWavefrontSurvivesBarrierFaultsAndCrash) {
  auto data = GenerateRatings(SmallData());
  SgdMfConfig mf;
  mf.rank = 4;
  mf.loop_options.ordered = true;  // wavefront schedule with step barriers

  FaultPlan chaos;
  chaos.seed = 21;
  chaos.drop_prob = 0.04;
  chaos.dup_prob = 0.03;
  chaos.fault_barrier_msgs = true;
  chaos.crashes = {{/*rank=*/2, /*pass=*/2, /*step=*/1}};  // mid-wavefront

  DriverConfig cfg;
  cfg.num_workers = 3;
  cfg.fault_plan = chaos;
  cfg.supervisor = FastSupervision();
  cfg.supervisor.death_timeout_seconds = 1.0;
  Driver driver(cfg);
  SgdMfApp app(&driver, mf);
  ASSERT_TRUE(app.Init(data, 300, 240).ok());
  ASSERT_TRUE(app.train_plan().ordered);
  ASSERT_TRUE(driver
                  .EnableDurability({app.w(), app.h()}, RecoveryDir("wavefront_mf"),
                                    EveryTwoPasses())
                  .ok());

  const f64 loss0 = *app.EvalLoss();
  for (int p = 0; p < 6; ++p) {
    ASSERT_TRUE(app.RunPass().ok());
  }
  EXPECT_LT(*app.EvalLoss(), 0.5 * loss0);
  const RuntimeMetrics rm = driver.runtime_metrics();
  EXPECT_EQ(rm.crashes_triggered, 1u);
  EXPECT_EQ(rm.recoveries, 1u);
  EXPECT_EQ(driver.live_ranks().size(), 2u);
}

TEST(FaultInjectionE2E, CrashWithoutRecoveryFailsTheExecute) {
  auto data = GenerateRatings(SmallData());
  SgdMfConfig mf;
  mf.rank = 4;

  FaultPlan chaos;
  chaos.crashes = {{/*rank=*/0, /*pass=*/1, /*step=*/-1}};

  DriverConfig cfg;
  cfg.num_workers = 3;
  cfg.fault_plan = chaos;
  cfg.supervisor = FastSupervision();
  cfg.supervisor.death_timeout_seconds = 0.5;
  Driver driver(cfg);
  SgdMfApp app(&driver, mf);
  ASSERT_TRUE(app.Init(data, 300, 240).ok());

  ASSERT_TRUE(app.RunPass().ok());            // pass 0 is clean
  const Status failed = app.RunPass();        // worker 0 crashes at pass 1
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.message().find("lost"), std::string::npos);
}

// ---- End-to-end chaos: LDA ----

// LDA's topic totals are replicated with bounded staleness (snapshot
// broadcast timing is wall-clock dependent), so no bit-for-bit claim —
// the run must complete under faults and still improve the model.
TEST(FaultInjectionE2E, LdaCompletesAndImprovesUnderMessageFaults) {
  CorpusConfig c;
  c.num_docs = 200;
  c.vocab = 300;
  auto corpus = GenerateCorpus(c);

  FaultPlan chaos;
  chaos.seed = 17;
  chaos.drop_prob = 0.05;
  chaos.dup_prob = 0.05;
  chaos.delay_prob = 0.05;

  DriverConfig cfg;
  cfg.num_workers = 4;
  cfg.fault_plan = chaos;
  cfg.supervisor = FastSupervision();
  Driver driver(cfg);
  LdaConfig lda;
  lda.num_topics = 10;
  LdaApp app(&driver, lda);
  ASSERT_TRUE(app.Init(corpus, c.num_docs, c.vocab).ok());

  const f64 ll0 = *app.EvalLogLikelihood();
  for (int p = 0; p < 5; ++p) {
    ASSERT_TRUE(app.RunPass().ok());
  }
  EXPECT_GT(*app.EvalLogLikelihood(), ll0);
  const RuntimeMetrics rm = driver.runtime_metrics();
  EXPECT_GT(rm.faults_dropped + rm.faults_duplicated + rm.faults_delayed, 0u);
  EXPECT_EQ(rm.workers_lost, 0u);
}

}  // namespace
}  // namespace orion
