// Async parameter serving + depth-k prefetch ring: every configuration
// (ring depth k, fault injection, per-key vs bulk request shape) must be
// *bit-for-bit* identical to fully synchronous inline serving — same reply
// bytes, same apply order, same f64 folds.
// Also covers the coalesced kPerKey metering identity: one wire message
// carrying K keys must charge the fabric exactly like K single-key messages.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <optional>
#include <tuple>
#include <vector>

#include "src/apps/lda.h"
#include "src/common/rng.h"
#include "src/dsm/versioned_store.h"
#include "src/net/fabric.h"
#include "src/net/fault_injector.h"
#include "src/runtime/driver.h"
#include "src/runtime/param_server.h"
#include "src/runtime/protocol.h"

namespace orion {
namespace {

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
// Rotation schedule + server-hosted table (non-aligned i+j subscript): the
// scenario where both the prefetch ring and the async server are hot.

struct RotationResult {
  std::map<i64, std::vector<f32>> out_r;
  std::map<i64, std::vector<f32>> out_c;
  f64 accum = 0.0;
  LoopMetrics last;
  double virtual_net_seconds = 0.0;  // summed over passes
  std::vector<FaultEvent> fault_events;
};

struct RotationOptions {
  bool overlap = true;
  int prefetch_depth = 2;
  bool async_serving = true;
  PrefetchMode prefetch = PrefetchMode::kCached;
  FaultPlan fault_plan;
};

RotationResult RunRotationServer(const RotationOptions& opt) {
  constexpr i64 kRows = 24;
  constexpr i64 kCols = 24;
  constexpr int kPasses = 4;

  DriverConfig cfg;
  cfg.num_workers = 4;
  cfg.seed = 11;
  // Modeled-only link (no real-time charging): gives nonzero virtual cost so
  // the per-key metering comparison has something to compare, keeps tests fast.
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
  options.prefetch = opt.prefetch;
  options.prefetch_depth = opt.prefetch_depth;
  options.overlap = opt.overlap;
  options.planner.replicate_threshold_floats = 0;  // force table -> kServer
  auto loop = driver.Compile(spec, kernel, options);
  EXPECT_TRUE(loop.ok()) << loop.status();
  EXPECT_EQ(driver.PlanOf(*loop).placements.at(table).scheme, PartitionScheme::kServer);

  RotationResult res;
  for (int p = 0; p < kPasses; ++p) {
    EXPECT_TRUE(driver.Execute(*loop).ok());
    res.virtual_net_seconds += driver.last_metrics().virtual_net_seconds;
  }
  res.last = driver.last_metrics();
  res.out_r = Snapshot(&driver, out_r);
  res.out_c = Snapshot(&driver, out_c);
  res.accum = driver.AccumulatorValue(acc);
  res.fault_events = driver.fault_events();
  return res;
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

TEST(ParamServing, RotationDepthSweepBitForBit) {
  RotationOptions sync;
  sync.overlap = false;
  sync.async_serving = false;
  sync.prefetch_depth = 1;
  const RotationResult ref = RunRotationServer(sync);

  for (int depth : {1, 2, 4}) {
    RotationOptions o;
    o.prefetch_depth = depth;
    const RotationResult got = RunRotationServer(o);
    EXPECT_TRUE(SameResult(ref, got)) << "depth " << depth;
    EXPECT_LE(got.last.prefetch_ring_depth_used, depth);
    if (depth >= 2) {
      // Warm kCached key lists let the ring actually fill past 1.
      EXPECT_GE(got.last.prefetch_ring_depth_used, 2) << "depth " << depth;
    }
    // The async path ran and reported its work.
    EXPECT_GT(got.last.param_shard_queue_depth_max, 0);
    EXPECT_EQ(got.last.worker_reply_wait.size(), 4u);
    u64 awaits = 0;
    for (const WaitHistogram& h : got.last.worker_reply_wait) {
      awaits += h.total_count();
    }
    EXPECT_GT(awaits, 0u);
  }
}

TEST(ParamServing, ChaosWhileShardedServingActive) {
  RotationOptions clean;
  clean.overlap = false;
  clean.async_serving = false;
  const RotationResult ref = RunRotationServer(clean);

  RotationOptions chaos;
  chaos.prefetch_depth = 2;
  chaos.fault_plan.seed = 17;
  chaos.fault_plan.drop_prob = 0.05;
  chaos.fault_plan.dup_prob = 0.05;
  chaos.fault_plan.delay_prob = 0.05;
  const RotationResult a = RunRotationServer(chaos);
  EXPECT_TRUE(SameResult(ref, a));
  EXPECT_FALSE(a.fault_events.empty());

  // Decision events are a pure function of the plan seed: async replies and
  // server pool threads must not perturb the injected sequence. Releases are
  // timing-dependent, so compare decisions only, canonically ordered.
  auto canonical = [](std::vector<FaultEvent> events) {
    events.erase(std::remove_if(events.begin(), events.end(),
                                [](const FaultEvent& e) {
                                  return e.kind == FaultEvent::Kind::kRelease;
                                }),
                 events.end());
    std::sort(events.begin(), events.end(),
              [](const FaultEvent& x, const FaultEvent& y) {
                return std::make_tuple(x.from, x.to, x.link_seq,
                                       static_cast<int>(x.kind)) <
                       std::make_tuple(y.from, y.to, y.link_seq,
                                       static_cast<int>(y.kind));
              });
    return events;
  };
  const RotationResult b = RunRotationServer(chaos);
  EXPECT_TRUE(SameResult(ref, b));
  EXPECT_EQ(canonical(a.fault_events), canonical(b.fault_events));
}

TEST(ParamServing, PerKeyMatchesBulkAndCostsMore) {
  RotationOptions bulk;
  bulk.prefetch = PrefetchMode::kBulk;
  RotationOptions perkey;
  perkey.prefetch = PrefetchMode::kPerKey;
  const RotationResult rb = RunRotationServer(bulk);
  const RotationResult rp = RunRotationServer(perkey);
  EXPECT_TRUE(SameResult(rb, rp));
  // Coalescing must not erase the modeled per-message cost of the storm.
  EXPECT_GT(rp.virtual_net_seconds, rb.virtual_net_seconds);
  EXPECT_GT(rp.last.messages_sent, rb.last.messages_sent);
}

// ---------------------------------------------------------------------------
// LDA with server-hosted topic totals: buffered server applies defer to pass
// end, the regime that makes deep prefetch legal in the first place.

void LdaDepthBitForBit(PrefetchMode prefetch) {
  CorpusConfig c;
  c.num_docs = 120;
  c.vocab = 200;
  c.true_topics = 5;
  c.doc_length = 25;
  c.seed = 23;
  auto corpus = GenerateCorpus(c);

  auto run = [&](bool overlap, bool async_serving, int depth) {
    DriverConfig cfg;
    cfg.num_workers = 4;
    cfg.seed = 3;
    cfg.async_param_serving = async_serving;
    auto driver = std::make_unique<Driver>(cfg);
    LdaConfig l;
    l.num_topics = 5;
    l.loop_options.overlap = overlap;
    l.loop_options.prefetch = prefetch;
    l.loop_options.prefetch_depth = depth;
    l.loop_options.planner.replicate_threshold_floats = 0;
    auto app = std::make_unique<LdaApp>(driver.get(), l);
    EXPECT_TRUE(app->Init(corpus, 120, 200).ok());
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

  auto [dt_sync, wt_sync, ts_sync, ll_sync] = run(false, false, 1);
  for (int depth : {1, 4}) {
    auto [dt, wt, ts, ll] = run(true, true, depth);
    EXPECT_TRUE(BitIdentical(dt_sync, dt)) << "depth " << depth;
    EXPECT_TRUE(BitIdentical(wt_sync, wt)) << "depth " << depth;
    EXPECT_TRUE(BitIdentical(ts_sync, ts)) << "depth " << depth;
    EXPECT_EQ(ll_sync, ll) << "depth " << depth;  // exact f64
  }
}

TEST(ParamServing, LdaBulkDepthBitForBit) { LdaDepthBitForBit(PrefetchMode::kBulk); }
TEST(ParamServing, LdaCachedDepthBitForBit) { LdaDepthBitForBit(PrefetchMode::kCached); }

// ---------------------------------------------------------------------------
// Coalesced kPerKey metering: one wire message carrying K keys must charge
// the fabric (messages, bytes, virtual seconds) exactly like the K single-key
// messages the storm used to send.

TEST(PerKeyMetering, CoalescedRequestChargesLikeStorm) {
  NetCostModel net;
  net.latency_us = 500.0;
  net.bandwidth_bps = 1e9;
  const std::vector<i64> keys = {3, 17, 42, 100, 255, 1023, 4096};

  Fabric storm(1, net);
  for (i64 key : keys) {
    ParamRequest req{7, 5, {key}};
    req.per_key = true;
    Message m;
    m.from = 0;
    m.to = kMasterRank;
    m.kind = MsgKind::kParamRequest;
    Attach(&m, std::move(req), /*zero_copy=*/false);
    storm.Send(std::move(m));
  }

  Fabric coalesced(1, net);
  {
    ParamRequest req{7, 5, keys};
    req.per_key = true;
    Message m;
    m.from = 0;
    m.to = kMasterRank;
    m.kind = MsgKind::kParamRequest;
    MeterAsPerKeyRequests(&m, req);
    Attach(&m, std::move(req), /*zero_copy=*/false);
    coalesced.Send(std::move(m));
  }

  const FabricStats a = storm.Stats();
  const FabricStats b = coalesced.Stats();
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
  EXPECT_DOUBLE_EQ(a.virtual_net_seconds, b.virtual_net_seconds);
}

TEST(PerKeyMetering, CoalescedReplyChargesLikeStorm) {
  NetCostModel net;
  net.latency_us = 500.0;
  net.bandwidth_bps = 1e9;
  constexpr i32 kDim = 3;
  const std::vector<i64> keys = {2, 9, 31, 64, 77};

  CellStore master(kDim, CellStore::Layout::kHashed, 0);
  for (i64 key : keys) {
    f32* v = master.GetOrCreate(key);
    for (int d = 0; d < kDim; ++d) {
      v[d] = static_cast<f32>(key * 10 + d);
    }
  }

  Fabric storm(1, net);
  for (i64 key : keys) {
    ParamRequest req{4, 2, {key}};
    req.per_key = true;
    Message reply = BuildParamReply(req, master, kDim, /*zero_copy=*/false);
    reply.to = 0;
    storm.Send(std::move(reply));
  }

  Fabric coalesced(1, net);
  {
    ParamRequest req{4, 2, keys};
    req.per_key = true;
    Message reply = BuildParamReply(req, master, kDim, /*zero_copy=*/false);
    reply.to = 0;
    coalesced.Send(std::move(reply));
  }

  const FabricStats a = storm.Stats();
  const FabricStats b = coalesced.Stats();
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
  EXPECT_DOUBLE_EQ(a.virtual_net_seconds, b.virtual_net_seconds);
}

TEST(PerKeyMetering, ParamRequestEncodedSizeMatchesEncode) {
  ParamRequest empty{1, 0, {}};
  EXPECT_EQ(WireSize(empty), Encode(empty).size());

  ParamRequest bulk{2, 3, {1, 2, 3, 4, 5}};
  EXPECT_EQ(WireSize(bulk), Encode(bulk).size());

  ParamRequest perkey{2, 3, {10, 20}};
  perkey.per_key = true;
  EXPECT_EQ(WireSize(perkey), Encode(perkey).size());
  const ParamRequest decoded = Decode<ParamRequest>(Encode(perkey));
  EXPECT_TRUE(decoded.per_key);
  EXPECT_EQ(decoded.keys, perkey.keys);
}

// BuildParamReply assembles hits in request-key order. It is the one reply
// builder of both serving paths; ParamServerReply below checks that the async
// path feeds it the same bytes.
TEST(PerKeyMetering, BuildParamReplyPreservesKeyOrder) {
  constexpr i32 kDim = 2;
  CellStore master(kDim, CellStore::Layout::kHashed, 0);
  for (i64 key : {5, 1, 9}) {
    f32* v = master.GetOrCreate(key);
    v[0] = static_cast<f32>(key);
    v[1] = static_cast<f32>(-key);
  }
  ParamRequest req{0, 0, {9, 4, 1, 5}};  // 4 misses
  Message reply = BuildParamReply(req, master, kDim, /*zero_copy=*/false);
  const ParamReply pr = Take<ParamReply>(reply);
  EXPECT_EQ(pr.values, (std::vector<f32>{9, -9, 1, -1, 5, -5}));  // request order, misses skipped
  EXPECT_EQ(pr.hits, (std::vector<u64>{0b1101}));                  // key 4 missed
}

// A reply gathered on a ParamServer pool thread from a pinned snapshot must
// match, byte for byte and hit for hit, what BuildParamReply builds
// from the flat store the inline path would have read at pin time — while the
// writer keeps cloning pages and the hashed index after each pin.
TEST(ParamServerReply, MatchesBuildParamReplyOnFlatStore) {
  constexpr i32 kDim = 3;
  constexpr DistArrayId kArray = 7;
  constexpr WorkerId kWorker = 1;
  ParamRequest per_key{kArray, 5, {44, 45, 44, 601}};
  per_key.per_key = true;
  // Even keys below 600 hit from the start; odd keys miss until the writer
  // inserts 601, 603, ... one per request.
  const std::vector<ParamRequest> requests = {
      {kArray, 1, {10, 3, 10, 598, 7, 0, 10}},  // duplicates and misses
      {kArray, 2, {}},                          // no keys at all
      {kArray, 3, {1, 5, 9}},                   // misses only
      {kArray, 4, {42, 601, 42, 603, 605, 2, 4, 6, 8, 44}},
      per_key,
  };

  for (bool zero_copy : {false, true}) {
    Fabric fabric(/*num_workers=*/2);
    fabric.SetZeroCopy(zero_copy);
    // `oracle` is the flat store the inline path reads; `store` receives the
    // same writes through the copy-on-write writer path.
    CellStore oracle(kDim, CellStore::Layout::kHashed, 0);
    VersionedCellStore store(CellStore(kDim, CellStore::Layout::kHashed, 0));
    auto write = [&](i64 key, f32 base) {
      f32* o = oracle.GetOrCreate(key);
      f32* v = store.GetOrCreate(key);
      for (i32 d = 0; d < kDim; ++d) {
        o[d] = v[d] = base + static_cast<f32>(d);
      }
    };
    for (i64 key = 0; key < 600; key += 2) {
      write(key, 0.5f * static_cast<f32>(key));
    }
    store.BeginServing();

    std::vector<Message> expected;
    {
      ParamServer server(&fabric, /*num_workers=*/2);
      for (size_t i = 0; i < requests.size(); ++i) {
        expected.push_back(BuildParamReply(requests[i], oracle, kDim, zero_copy));
        server.HandleRequestSnapshot(requests[i], kWorker, store.Pin(), kDim);
        // The gather may still be running: overwrites clone pinned pages and
        // the insert clones the pinned hashed index.
        const f32 base = 1000.0f * static_cast<f32>(i + 1);
        for (i64 key : {10, 42, 44}) {
          write(key, base);
        }
        write(601 + 2 * static_cast<i64>(i), base);
      }
      server.Quiesce();
      EXPECT_EQ(store.live_pins(), 0) << "zero_copy=" << zero_copy;
    }
    EXPECT_GT(store.stats().pages_cloned, 0u);

    // Pool threads finish in any order; a reply is matched by its step tag.
    std::map<u32, Message> received;
    while (std::optional<Message> m = fabric.TryRecv(kWorker)) {
      received[m->tag] = std::move(*m);
    }
    ASSERT_EQ(received.size(), expected.size());
    for (Message& want : expected) {
      SCOPED_TRACE(::testing::Message() << "zero_copy=" << zero_copy << " step " << want.tag);
      auto got = received.find(want.tag);
      ASSERT_NE(got, received.end());
      Message& reply = got->second;
      EXPECT_EQ(reply.from, kMasterRank);
      EXPECT_EQ(reply.to, kWorker);
      EXPECT_EQ(reply.kind, MsgKind::kParamReply);
      EXPECT_EQ(reply.meter_messages, want.meter_messages);
      EXPECT_EQ(reply.meter_extra_bytes, want.meter_extra_bytes);
      EXPECT_EQ(reply.WireSize(), want.WireSize());
      EXPECT_EQ(reply.zc != nullptr, zero_copy);
      const ParamReply got_pr = Take<ParamReply>(reply);
      const ParamReply want_pr = Take<ParamReply>(want);
      EXPECT_EQ(got_pr.array, kArray);
      EXPECT_EQ(got_pr.step, want_pr.step);
      EXPECT_EQ(got_pr.hits, want_pr.hits);
      EXPECT_EQ(Encode(got_pr), Encode(want_pr));
    }
  }
}

}  // namespace
}  // namespace orion
