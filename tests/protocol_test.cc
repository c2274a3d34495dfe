// The wire codec (runtime/protocol.h): every wire type is one field list,
// and Encode, Decode and WireSize are derived from it.
//
//  - Golden bytes pin the exact encoding of one fixed instance of every wire
//    type, nested fields included, so a codec change that moves a byte fails
//    here instead of silently shifting every metered byte figure.
//  - A seeded fuzz checks, for every type, that Decode(Encode(x)) encodes
//    back to the same bytes, that WireSize(x) == Encode(x).size(), and that
//    Take(Attach(x)) returns x with the same Message::WireSize() whether the
//    value travels zero-copy or serialized.
//  - Truncated or over-counted input CHECK-fails instead of reading past the
//    payload, also a key-list varint cut mid-byte.
//  - Key lists of every shape (empty, one key, sorted, unsorted, negative,
//    next to INT64_MIN and INT64_MAX) round-trip on both transport paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/net/fabric.h"
#include "src/runtime/param_server.h"
#include "src/runtime/protocol.h"

namespace orion {
namespace {

// ---- Fixed instances ------------------------------------------------------

u64 Fnv1a(const std::vector<u8>& bytes) {
  u64 h = 1469598103934665603ull;
  for (u8 c : bytes) {
    h = (h ^ c) * 1099511628211ull;
  }
  return h;
}

trace::Span MakeSpan(i64 start, const char* name) {
  trace::Span s;
  s.start_ns = start;
  s.end_ns = start + 15;
  s.pass = 9;
  s.step = 1;
  s.rank = 2;
  s.tid = 5;
  s.category = 1;
  s.name = name;
  return s;
}

PassDone MakePassDone(i32 loop_id, i32 pass) {
  PassDone d;
  d.loop_id = loop_id;
  d.pass = pass;
  return d;
}

PassDone GoldenPassDone() {
  PassDone d = MakePassDone(4, 9);
  WorkerPassMetrics& m = d.metrics;
  m.compute_seconds = 0.5;
  m.wait_seconds = 0.25;
  m.overlap_send_seconds = 0.125;
  m.prefetch_hidden_seconds = 0.0625;
  m.ring_depth_used = 3;
  m.spec_issued = 11;
  m.spec_conflicts = 2;
  m.spec_repair_bytes = 4096;
  m.spec_hidden_seconds = 0.03;
  m.spec_wait_seconds = 0.02;
  m.reply_wait.Add(0.0);
  m.reply_wait.Add(2e-3);
  m.reply_wait.Add(0.5);
  d.accumulators = {1.5, -2.25};
  d.spans = {MakeSpan(10, "compute"), MakeSpan(40, "")};
  return d;
}

Retire GoldenRetire() {
  Retire r;
  r.op = ControlOp::kRejoin;
  r.phase = 1;
  r.is_ack = true;
  r.logical_rank = 2;
  r.ring = {0, 2, 3};
  return r;
}

BarrierMsg GoldenBarrier(bool dirty, bool spans) {
  BarrierMsg b;
  b.pass = 6;
  b.release = dirty;
  b.has_dirty = dirty;
  if (dirty) {
    b.dirty.AddKeys(1, {7, 8, 9, 30});
    b.dirty.arrays[4].all_dirty = true;
  }
  if (spans) {
    b.span_seq = 17;
    b.spans = {MakeSpan(100, "barrier")};
  }
  return b;
}

PartData GoldenHashedPart() {
  PartData pd;
  pd.array = 3;
  pd.part = 7;
  pd.mode = PartDataMode::kApplyBufferUdf;
  pd.cells = CellStore(4, CellStore::Layout::kHashed, 0);
  for (i64 k = 0; k < 13; ++k) {
    pd.cells.GetOrCreate(k * 11)[2] = static_cast<f32>(k);
  }
  return pd;
}

PartData GoldenDensePart() {
  PartData pd;
  pd.array = 0;
  pd.part = -1;
  pd.mode = PartDataMode::kOverwrite;
  pd.cells = CellStore::DenseRange(3, 5, 20);
  for (i64 k = 5; k <= 20; ++k) {
    for (int j = 0; j < 3; ++j) {
      pd.cells.GetOrCreate(k)[j] = static_cast<f32>(k) * 0.5f + static_cast<f32>(j);
    }
  }
  return pd;
}

PartData GoldenEmptyPart() {
  PartData pd;
  pd.array = 1;
  pd.mode = PartDataMode::kReplicaSnapshot;
  pd.cells = CellStore(2, CellStore::Layout::kHashed, 0);
  return pd;
}

ParamRequest GoldenRequest() {
  ParamRequest r;
  r.array = 2;
  r.step = 5;
  r.keys = {1, 4, 9, 1000000007};
  r.per_key = true;
  r.speculative = true;
  return r;
}

// Four requested keys; with misses, the second key missed.
ParamReply GoldenReply(bool misses) {
  ParamReply r;
  r.array = 2;
  r.step = 5;
  if (misses) {
    r.hits = {0b1101};
    r.values = {1.5f, -2.0f, 0.25f, 4.0f, 8.0f, -0.5f};
  } else {
    r.values = {1.5f, -2.0f, 3.0f, 3.5f, 0.25f, 4.0f, 8.0f, -0.5f};
  }
  return r;
}

struct Golden {
  const char* name;
  std::vector<u8> bytes;
  size_t size;
  u64 fnv;
};

// Sizes and FNV-1a checksums recorded from the hand-written per-type codecs
// this codec replaced, except the entries with key lists (PartDataHashed,
// PartDataEmpty, ParamRequest), re-recorded when key lists became
// zigzag-varint deltas, and the ParamReply entries, recorded with them. They
// must never change without a deliberate wire format change.
std::vector<Golden> GoldenEncodings() {
  return {
      {"StartPass", Encode(StartPass{3, 7, 2}), 14, 0xd7d134c9be7d8704ull},
      {"PassDone", Encode(GoldenPassDone()), 277, 0x9c3778eee12c948eull},
      {"Heartbeat", Encode(Heartbeat{true, 42, 5, 4}), 15, 0xcacd185aab097304ull},
      {"Retire", Encode(GoldenRetire()), 31, 0xcde4c9335f8774feull},
      {"BarrierPlain", Encode(GoldenBarrier(false, false)), 6, 0x1ac0cec19fe3a69dull},
      {"BarrierDirty", Encode(GoldenBarrier(true, false)), 60, 0x90374373a771f2dfull},
      {"BarrierSpans", Encode(GoldenBarrier(false, true)), 71, 0xaa86c05e55c5dec4ull},
      {"BarrierBoth", Encode(GoldenBarrier(true, true)), 125, 0x22cff6b1562ed896ull},
      {"PartDataHashed", Encode(GoldenHashedPart()), 247, 0x7ce6d7ae20208d78ull},
      {"PartDataDense", Encode(GoldenDensePart()), 230, 0x1289ec6966a8b208ull},
      {"PartDataEmpty", Encode(GoldenEmptyPart()), 26, 0x850b06428dc575f9ull},
      {"ParamRequest", Encode(GoldenRequest()), 22, 0x2cbf083f8148bdcbull},
      {"ParamReplyMisses", Encode(GoldenReply(true)), 56, 0xe6a1417de4e8b6cfull},
      {"ParamReplyAllHit", Encode(GoldenReply(false)), 56, 0x6459cc6a43a033f1ull},
      {"ArrayOp", Encode(ArrayOp{ControlOp::kDropArray, 6}), 6, 0x140d8ef57684c7a9ull},
  };
}

TEST(ProtocolGolden, EveryWireTypeKeepsItsBytes) {
  for (const Golden& g : GoldenEncodings()) {
    EXPECT_EQ(g.bytes.size(), g.size) << g.name;
    EXPECT_EQ(Fnv1a(g.bytes), g.fnv) << g.name;
  }
}

// Every golden encoding is consumed to its last byte: cutting one byte off
// any of them must CHECK-fail rather than read past the payload.
TEST(ProtocolDeathTest, TruncatedPayloadsAbort) {
  const std::vector<u8> pass_done = Encode(GoldenPassDone());
  const std::vector<u8> barrier = Encode(GoldenBarrier(true, true));
  const std::vector<u8> part = Encode(GoldenHashedPart());
  const std::vector<u8> request = Encode(GoldenRequest());
  const std::vector<u8> retire = Encode(GoldenRetire());
  const std::vector<u8> reply = Encode(GoldenReply(true));
  auto cut = [](std::vector<u8> b) {
    b.pop_back();
    return b;
  };
  EXPECT_DEATH(Decode<PassDone>(cut(pass_done)), "overrun");
  EXPECT_DEATH(Decode<BarrierMsg>(cut(barrier)), "overrun");
  EXPECT_DEATH(Decode<PartData>(cut(part)), "overrun");
  EXPECT_DEATH(Decode<ParamRequest>(cut(request)), "overrun");
  EXPECT_DEATH(Decode<Retire>(cut(retire)), "overrun");
  EXPECT_DEATH(Decode<ParamReply>(cut(reply)), "overrun");
}

// A key list whose last varint is cut after its first byte, and one whose
// varint runs past 64 bits.
TEST(ProtocolDeathTest, KeyListVarintCutMidByteAborts) {
  ParamRequest r;
  r.keys = {1, i64{1} << 40};  // the second delta takes 6 bytes
  const std::vector<u8> bytes = Encode(r);
  const size_t list_start = 2 * sizeof(i32) + sizeof(u8) + sizeof(u32);
  const std::vector<u8> cut(bytes.begin(), bytes.begin() + list_start + 2);
  EXPECT_DEATH(Decode<ParamRequest>(cut), "overrun");

  std::vector<u8> endless(bytes.begin(), bytes.begin() + list_start);
  endless.insert(endless.end(), 11, 0xff);
  EXPECT_DEATH(Decode<ParamRequest>(endless), "overflows 64 bits");
}

// The hashed store's key list decodes into the same duplicate check as
// before: a delta of zero repeats a key.
TEST(ProtocolDeathTest, HashedStoreWithRepeatedKeyAborts) {
  PartData pd;
  pd.cells = CellStore(1, CellStore::Layout::kHashed, 0);
  pd.cells.GetOrCreate(5)[0] = 1.0f;
  pd.cells.GetOrCreate(9)[0] = 2.0f;
  std::vector<u8> bytes = Encode(pd);
  // array, part, mode, value_dim, layout, count, first key: then the delta.
  const size_t delta_at = 2 * sizeof(i32) + 2 * sizeof(u8) + sizeof(i32) + sizeof(u32) + 1;
  ASSERT_EQ(bytes[delta_at], wire::ZigZag(4));
  bytes[delta_at] = 0;
  EXPECT_DEATH(Decode<PartData>(bytes), "repeats key");
}

// A count field larger than the bytes that follow it must CHECK-fail before
// anything is allocated for it, even when count * element size wraps.
TEST(ProtocolDeathTest, OversizedCountsAbort) {
  std::vector<u8> request = Encode(GoldenRequest());
  const u32 huge_keys = ~u32{0};  // every key takes at least one byte
  std::memcpy(request.data() + 2 * sizeof(i32) + sizeof(u8), &huge_keys, sizeof(huge_keys));
  EXPECT_DEATH(Decode<ParamRequest>(request), "overrun");

  std::vector<u8> reply = Encode(GoldenReply(false));
  const u64 huge = (u64{1} << 62) + 1;  // * sizeof(f32) wraps to 4
  std::memcpy(reply.data() + 2 * sizeof(i32) + sizeof(u64), &huge, sizeof(huge));
  EXPECT_DEATH(Decode<ParamReply>(reply), "overrun");

  PassDone done = MakePassDone(1, 2);
  done.spans = {MakeSpan(0, "x")};
  std::vector<u8> bytes = Encode(done);
  const u64 name_len = ~u64{0};
  std::memcpy(bytes.data() + bytes.size() - 1 - sizeof(u64), &name_len, sizeof(name_len));
  EXPECT_DEATH(Decode<PassDone>(bytes), "overrun");
}

// ---- Seeded fuzz ----------------------------------------------------------

class WireFuzz {
 public:
  explicit WireFuzz(u64 seed) : rng_(seed) {}

  i64 Int(i64 lo, i64 hi) { return lo + rng_.NextIndex(hi - lo + 1); }
  bool Coin() { return rng_.NextBounded(2) == 1; }
  // Empty about one time in four.
  size_t Count(size_t max) { return rng_.NextBounded(4) == 0 ? 0 : 1 + rng_.NextBounded(max); }

  trace::Span Span() {
    trace::Span s;
    s.start_ns = Int(0, 1 << 30);
    s.end_ns = s.start_ns + Int(0, 1000);
    s.pass = Int(-1, 50);
    s.step = Int(-1, 50);
    s.rank = static_cast<i32>(Int(-1, 7));
    s.tid = static_cast<i32>(Int(0, 31));
    s.category = static_cast<u16>(Int(0, trace::kNumCategories - 1));
    s.name = std::string(Count(12), static_cast<char>('a' + Int(0, 25)));
    return s;
  }

  std::vector<trace::Span> Spans() {
    std::vector<trace::Span> out(Count(4));
    for (trace::Span& s : out) {
      s = Span();
    }
    return out;
  }

  WorkerPassMetrics Metrics() {
    WorkerPassMetrics m;
    m.compute_seconds = rng_.NextDouble();
    m.wait_seconds = rng_.NextDouble();
    m.overlap_send_seconds = rng_.NextDouble();
    m.prefetch_hidden_seconds = rng_.NextDouble();
    m.ring_depth_used = static_cast<i32>(Int(0, 8));
    m.spec_issued = static_cast<u32>(Int(0, 1000));
    m.spec_conflicts = static_cast<u32>(Int(0, 1000));
    m.spec_repair_bytes = rng_.NextU64();
    m.spec_hidden_seconds = rng_.NextDouble();
    m.spec_wait_seconds = rng_.NextDouble();
    for (size_t i = Count(20); i > 0; --i) {
      m.reply_wait.Add(rng_.NextDouble() * 2.0);
    }
    return m;
  }

  StepDirtySummary Dirty() {
    StepDirtySummary s;
    for (size_t a = Count(3); a > 0; --a) {
      const DistArrayId array = static_cast<DistArrayId>(Int(0, 9));
      if (rng_.NextBounded(5) == 0) {
        s.arrays[array].all_dirty = true;
        continue;
      }
      std::vector<i64> keys(1 + rng_.NextBounded(40));
      for (i64& k : keys) {
        k = Int(0, 500);
      }
      s.AddKeys(array, std::move(keys));
    }
    return s;
  }

  CellStore Cells() {
    const i32 dim = static_cast<i32>(Int(1, 4));
    CellStore c;
    switch (rng_.NextBounded(3)) {
      case 0: {
        c = CellStore(dim, CellStore::Layout::kHashed, 0);
        for (size_t n = Count(30); n > 0; --n) {
          c.GetOrCreate(Int(-100, 100000))[0] = static_cast<f32>(rng_.NextGaussian());
        }
        break;
      }
      case 1: {
        const i64 lo = Int(-50, 50);
        c = CellStore::DenseRange(dim, lo, lo - 1 + static_cast<i64>(Count(20)));
        break;
      }
      default:
        c = CellStore(dim, CellStore::Layout::kFullDense, static_cast<i64>(Count(20)));
        break;
    }
    if (c.IsDense()) {
      for (i64 k = c.range_lo(); k <= c.range_hi(); ++k) {
        c.GetOrCreate(k)[dim - 1] = static_cast<f32>(rng_.NextGaussian());
      }
    }
    return c;
  }

  StartPass RandomStartPass() {
    return StartPass{static_cast<i32>(Int(0, 9)), static_cast<i32>(Int(0, 99)),
                     static_cast<i32>(Int(0, 4))};
  }

  PassDone RandomPassDone() {
    PassDone d;
    d.loop_id = static_cast<i32>(Int(0, 9));
    d.pass = static_cast<i32>(Int(0, 99));
    d.metrics = Metrics();
    d.accumulators.resize(Count(5));
    for (f64& a : d.accumulators) {
      a = rng_.NextGaussian();
    }
    d.spans = Spans();
    return d;
  }

  Heartbeat RandomHeartbeat() {
    return Heartbeat{Coin(), static_cast<u32>(rng_.NextU64()), static_cast<i32>(Int(-1, 99)),
                     static_cast<i32>(Int(-1, 99))};
  }

  Retire RandomRetire() {
    Retire r;
    r.op = Coin() ? ControlOp::kRetire : ControlOp::kRejoin;
    r.phase = static_cast<i32>(Int(0, 1));
    r.is_ack = Coin();
    r.logical_rank = static_cast<i32>(Int(0, 7));
    r.ring.resize(Count(8));
    for (i32& rank : r.ring) {
      rank = static_cast<i32>(Int(0, 15));
    }
    return r;
  }

  BarrierMsg RandomBarrier() {
    BarrierMsg b;
    b.pass = static_cast<i32>(Int(0, 99));
    b.release = Coin();
    b.has_dirty = Coin();
    if (b.has_dirty) {
      b.dirty = Dirty();  // may be empty: "present and empty" is its own state
    }
    b.spans = Spans();
    if (!b.spans.empty()) {
      b.span_seq = static_cast<u32>(Int(0, 1000));
    }
    return b;
  }

  PartData RandomPartData() {
    PartData pd;
    pd.array = static_cast<DistArrayId>(Int(0, 9));
    pd.part = static_cast<i32>(Int(-1, 15));
    pd.mode = static_cast<PartDataMode>(Int(0, 5));
    pd.cells = Cells();
    return pd;
  }

  ParamRequest RandomParamRequest() {
    ParamRequest r;
    r.array = static_cast<DistArrayId>(Int(0, 9));
    r.step = static_cast<i32>(Int(0, 99));
    r.keys.resize(Count(50));
    for (i64& k : r.keys) {
      k = Int(0, 1 << 20);
    }
    r.per_key = Coin();
    r.speculative = Coin();
    return r;
  }

  // Keys of one shape: sorted and unique, unsorted with repeats, negative,
  // or packed against INT64_MIN and INT64_MAX, where deltas wrap.
  std::vector<i64> Keys(bool unique) {
    constexpr i64 kMin = std::numeric_limits<i64>::min();
    constexpr i64 kMax = std::numeric_limits<i64>::max();
    std::vector<i64> keys(Count(60));
    const u64 shape = rng_.NextBounded(4);
    for (size_t i = 0; i < keys.size(); ++i) {
      switch (shape) {
        case 0:
          keys[i] = (i == 0 ? 0 : keys[i - 1]) + Int(1, 300);
          break;
        case 1:
          keys[i] = Int(0, 1 << 20);
          break;
        case 2:
          keys[i] = Int(-(i64{1} << 40), 50);
          break;
        default:
          keys[i] = Coin() ? kMin + Int(0, 40) : kMax - Int(0, 40);
          break;
      }
    }
    if (unique) {
      std::sort(keys.begin(), keys.end());
      keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
      if (Coin()) {
        std::reverse(keys.begin(), keys.end());
      }
    }
    return keys;
  }

  PartData HashedPart() {
    PartData pd;
    pd.array = static_cast<DistArrayId>(Int(0, 9));
    const i32 dim = static_cast<i32>(Int(1, 3));
    std::vector<i64> keys = Keys(/*unique=*/true);
    std::vector<f32> values(keys.size() * static_cast<size_t>(dim));
    for (f32& v : values) {
      v = static_cast<f32>(rng_.NextGaussian());
    }
    pd.cells = CellStore::Hashed(dim, std::move(keys), std::move(values));
    return pd;
  }

  ParamReply RandomParamReply() {
    ParamReply r;
    r.array = static_cast<DistArrayId>(Int(0, 9));
    r.step = static_cast<i32>(Int(0, 99));
    const size_t n = Count(150);
    const size_t dim = static_cast<size_t>(Int(1, 3));
    size_t hits = n;
    if (n > 0 && Coin()) {
      r.hits.resize((n + 63) / 64);
      hits = 0;
      for (size_t i = 0; i < n; ++i) {
        if (Coin()) {
          r.hits[i >> 6] |= u64{1} << (i & 63);
          ++hits;
        }
      }
    }
    r.values.resize(hits * dim);
    for (f32& v : r.values) {
      v = static_cast<f32>(rng_.NextGaussian());
    }
    return r;
  }

  ArrayOp RandomArrayOp() {
    return ArrayOp{Coin() ? ControlOp::kGather : ControlOp::kDropArray,
                   static_cast<DistArrayId>(Int(0, 9))};
  }

 private:
  Rng rng_;
};

// The codec's invariants for one value, on both transport paths.
template <class T>
void ExpectRoundTrips(const T& x) {
  const std::vector<u8> bytes = Encode(x);
  ASSERT_EQ(WireSize(x), bytes.size());
  EXPECT_EQ(Encode(Decode<T>(bytes)), bytes);
  for (bool zero_copy : {false, true}) {
    Message m;
    Attach(&m, x, zero_copy);
    EXPECT_EQ(m.WireSize(), Message::kHeaderBytes + bytes.size()) << "zero_copy " << zero_copy;
    EXPECT_EQ(Encode(Take<T>(m)), bytes) << "zero_copy " << zero_copy;
  }
  // A broadcast carrier: every receiver copies the same value out.
  Message shared;
  Attach(&shared, x, /*zero_copy=*/true, /*multi_reader=*/true);
  Message copy = shared;
  EXPECT_EQ(Encode(Take<T>(copy)), bytes);
  EXPECT_EQ(Encode(Take<T>(shared)), bytes);
}

TEST(ProtocolFuzz, EveryWireTypeRoundTripsOnBothPaths) {
  int barrier_masks[4] = {0, 0, 0, 0};
  int layouts[3] = {0, 0, 0};
  for (u64 seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    WireFuzz f(seed);
    ExpectRoundTrips(f.RandomStartPass());
    ExpectRoundTrips(f.RandomPassDone());
    ExpectRoundTrips(f.RandomHeartbeat());
    ExpectRoundTrips(f.RandomRetire());
    const BarrierMsg b = f.RandomBarrier();
    ++barrier_masks[(b.has_dirty ? 1 : 0) | (b.spans.empty() ? 0 : 2)];
    ExpectRoundTrips(b);
    const PartData pd = f.RandomPartData();
    ++layouts[static_cast<int>(pd.cells.layout())];
    ExpectRoundTrips(pd);
    ExpectRoundTrips(f.RandomParamRequest());
    ExpectRoundTrips(f.RandomParamReply());
    ExpectRoundTrips(f.RandomArrayOp());
    // The nested field lists are wire types of their own.
    ExpectRoundTrips(f.Metrics());
    ExpectRoundTrips(f.Dirty());
    ExpectRoundTrips(f.Span());
  }
  for (int mask = 0; mask < 4; ++mask) {
    EXPECT_GT(barrier_masks[mask], 0) << "barrier section mask " << mask << " never drawn";
  }
  for (int layout = 0; layout < 3; ++layout) {
    EXPECT_GT(layouts[layout], 0) << "cell store layout " << layout << " never drawn";
  }
}

// Key lists of every shape, in a request (any order, repeats allowed) and
// in a hashed store (unique keys, any order), on both transport paths.
TEST(ProtocolFuzz, KeyListsRoundTripOnBothPaths) {
  int shapes_with_keys = 0;
  for (u64 seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    WireFuzz f(seed);
    ParamRequest req;
    req.keys = f.Keys(/*unique=*/false);
    ExpectRoundTrips(req);
    EXPECT_EQ(Decode<ParamRequest>(Encode(req)).keys, req.keys);
    const PartData pd = f.HashedPart();
    ExpectRoundTrips(pd);
    EXPECT_EQ(Decode<PartData>(Encode(pd)).cells.keys(), pd.cells.keys());
    shapes_with_keys += req.keys.size() > 1 ? 1 : 0;
  }
  EXPECT_GT(shapes_with_keys, 100);
  for (const std::vector<i64>& keys : std::vector<std::vector<i64>>{
           {},
           {0},
           {std::numeric_limits<i64>::min()},
           {std::numeric_limits<i64>::max(), std::numeric_limits<i64>::min(), 0, -1},
           {std::numeric_limits<i64>::min(), std::numeric_limits<i64>::max()},
       }) {
    ParamRequest req;
    req.keys = keys;
    ExpectRoundTrips(req);
    EXPECT_EQ(Decode<ParamRequest>(Encode(req)).keys, keys);
  }
}

// A sorted, unique key list with small gaps costs one byte per key.
TEST(ProtocolKeyList, SortedGapsUnder64CostOneBytePerKey) {
  ParamRequest req;
  for (i64 k = 1000; k < 1000 + 63 * 500; k += 63) {
    req.keys.push_back(k);
  }
  ParamRequest empty;
  // The first key, 1000, takes two bytes; every later gap one.
  EXPECT_EQ(WireSize(req), WireSize(empty) + 2 + (req.keys.size() - 1));
}

// ---- kPerKey metering: a coalesced message charges exactly what the storm
// of single-key messages would have, whatever the keys and misses. ----

TEST(ProtocolMetering, PerKeyRequestsChargeLikeStormForAnyKeys) {
  const std::vector<i64> keys = {900, -3, std::numeric_limits<i64>::max(), 17, 16, 1 << 30};
  Fabric storm(1);
  for (const i64 key : keys) {
    ParamRequest req{7, 5, {key}};
    req.per_key = true;
    Message m = MakeMessage(0, kMasterRank, MsgKind::kParamRequest);
    Attach(&m, std::move(req), /*zero_copy=*/false);
    storm.Send(std::move(m));
  }
  Fabric coalesced(1);
  ParamRequest req{7, 5, keys};
  req.per_key = true;
  Message m = MakeMessage(0, kMasterRank, MsgKind::kParamRequest);
  MeterAsPerKeyRequests(&m, req);
  Attach(&m, std::move(req), /*zero_copy=*/true);
  coalesced.Send(std::move(m));
  EXPECT_EQ(storm.Stats().messages_sent, coalesced.Stats().messages_sent);
  EXPECT_EQ(storm.Stats().bytes_sent, coalesced.Stats().bytes_sent);
}

TEST(ProtocolMetering, PerKeyRepliesWithMissesChargeLikeStorm) {
  constexpr i32 kDim = 2;
  CellStore master(kDim, CellStore::Layout::kHashed, 0);
  for (const i64 key : {4, 8, 15, 16}) {
    master.GetOrCreate(key)[1] = static_cast<f32>(key);
  }
  const std::vector<i64> keys = {4, 5, 8, 15, 23, 16, 42};  // 3 misses
  Fabric storm(1);
  for (const i64 key : keys) {
    ParamRequest req{3, 1, {key}};
    req.per_key = true;
    Message reply = BuildParamReply(req, master, kDim, /*zero_copy=*/false);
    reply.to = 0;
    storm.Send(std::move(reply));
  }
  Fabric coalesced(1);
  ParamRequest req{3, 1, keys};
  req.per_key = true;
  Message reply = BuildParamReply(req, master, kDim, /*zero_copy=*/true);
  reply.to = 0;
  coalesced.Send(std::move(reply));
  EXPECT_EQ(storm.Stats().messages_sent, coalesced.Stats().messages_sent);
  EXPECT_EQ(storm.Stats().bytes_sent, coalesced.Stats().bytes_sent);
}

// ---- Round trips of the control messages workers exchange every pass -----

TEST(Protocol, StartPassRoundTrips) {
  const std::vector<u8> bytes = Encode(StartPass{3, 7, 2});
  EXPECT_EQ(bytes.size(), sizeof(u16) + 3 * sizeof(i32));
  EXPECT_EQ(PeekControlOp(bytes), ControlOp::kStartPass);
  const StartPass got = Decode<StartPass>(bytes);
  EXPECT_EQ(got.loop_id, 3);
  EXPECT_EQ(got.pass, 7);
  EXPECT_EQ(got.spec_depth, 2);
}

TEST(Protocol, PassDoneRoundTrips) {
  PassDone want = MakePassDone(4, 9);
  WorkerPassMetrics& m = want.metrics;
  m.compute_seconds = 0.5;
  m.wait_seconds = 0.25;
  m.overlap_send_seconds = 0.125;
  m.prefetch_hidden_seconds = 0.0625;
  m.ring_depth_used = 3;
  m.spec_issued = 11;
  m.spec_conflicts = 2;
  m.spec_repair_bytes = 4096;
  m.spec_hidden_seconds = 0.03;
  m.spec_wait_seconds = 0.02;
  m.reply_wait.Add(0.0);
  m.reply_wait.Add(2e-3);
  m.reply_wait.Add(0.5);
  want.accumulators = {1.5, -2.25};
  trace::Span span;
  span.start_ns = 10;
  span.end_ns = 25;
  span.pass = 9;
  span.step = 1;
  span.rank = 2;
  span.tid = 5;
  span.category = 1;
  span.name = "compute";
  want.spans = {span};

  const std::vector<u8> bytes = Encode(want);
  EXPECT_EQ(PeekControlOp(bytes), ControlOp::kPassDone);
  const PassDone got = Decode<PassDone>(bytes);
  EXPECT_EQ(got.loop_id, 4);
  EXPECT_EQ(got.pass, 9);
  const WorkerPassMetrics& g = got.metrics;
  EXPECT_EQ(g.compute_seconds, 0.5);
  EXPECT_EQ(g.wait_seconds, 0.25);
  EXPECT_EQ(g.overlap_send_seconds, 0.125);
  EXPECT_EQ(g.prefetch_hidden_seconds, 0.0625);
  EXPECT_EQ(g.ring_depth_used, 3);
  EXPECT_EQ(g.spec_issued, 11u);
  EXPECT_EQ(g.spec_conflicts, 2u);
  EXPECT_EQ(g.spec_repair_bytes, 4096u);
  EXPECT_EQ(g.spec_hidden_seconds, 0.03);
  EXPECT_EQ(g.spec_wait_seconds, 0.02);
  EXPECT_EQ(g.reply_wait.total_count(), 3u);
  for (int b = 0; b < WaitHistogram::kNumBuckets; ++b) {
    EXPECT_EQ(g.reply_wait.counts[b], m.reply_wait.counts[b]) << "bucket " << b;
  }
  EXPECT_EQ(g.reply_wait.total_seconds, m.reply_wait.total_seconds);
  EXPECT_EQ(g.reply_wait.max_seconds, 0.5);
  EXPECT_EQ(got.accumulators, want.accumulators);
  ASSERT_EQ(got.spans.size(), 1u);
  EXPECT_EQ(got.spans[0].start_ns, 10);
  EXPECT_EQ(got.spans[0].end_ns, 25);
  EXPECT_EQ(got.spans[0].pass, 9);
  EXPECT_EQ(got.spans[0].step, 1);
  EXPECT_EQ(got.spans[0].rank, 2);
  EXPECT_EQ(got.spans[0].tid, 5);
  EXPECT_EQ(got.spans[0].category, 1);
  EXPECT_EQ(got.spans[0].name, "compute");
}

// ---- Zero-copy metering: WireSize must equal the real encoding, or the
// fabric's cost model drifts between the two paths. ----

TEST(ZeroCopy, SerializedBytesMatchesEncodeHashed) {
  PartData pd;
  pd.array = 3;
  pd.part = 7;
  pd.mode = PartDataMode::kApplyBufferUdf;
  pd.cells = CellStore(4, CellStore::Layout::kHashed, 0);
  for (i64 k = 0; k < 13; ++k) {
    pd.cells.GetOrCreate(k * 11)[2] = static_cast<f32>(k);
  }
  EXPECT_EQ(WireSize(pd), Encode(pd).size());
}

TEST(ZeroCopy, SerializedBytesMatchesEncodeDense) {
  PartData pd;
  pd.array = 0;
  pd.part = -1;
  pd.mode = PartDataMode::kOverwrite;
  pd.cells = CellStore::DenseRange(3, 5, 20);
  EXPECT_EQ(WireSize(pd), Encode(pd).size());

  PartData empty;
  empty.cells = CellStore(1, CellStore::Layout::kHashed, 0);
  EXPECT_EQ(WireSize(empty), Encode(empty).size());
}

}  // namespace
}  // namespace orion
