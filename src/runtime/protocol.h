// Wire protocol between the master (driver) and executors.
//
// Every payload is serialized with ByteWriter/ByteReader; the structs here
// are the typed views. Control messages carry a leading ControlOp.
#ifndef ORION_SRC_RUNTIME_PROTOCOL_H_
#define ORION_SRC_RUNTIME_PROTOCOL_H_

#include <string>
#include <vector>

#include "src/common/serde.h"
#include "src/common/trace.h"
#include "src/common/types.h"
#include "src/dsm/cell_store.h"
#include "src/net/message.h"
#include "src/runtime/metrics.h"
#include "src/runtime/speculation.h"

namespace orion {

enum class ControlOp : u16 {
  kStartPass = 1,    // master -> worker: run one pass of a compiled loop
  kPassDone = 2,     // worker -> master: pass finished (+ accumulators)
  kGather = 3,       // master -> worker: ship array cells back, drop them
  kDropArray = 4,    // master -> worker: drop local cells of an array
  kStepBarrier = 5,  // worker -> master: wavefront step done
  kStepGo = 6,       // master -> worker: proceed to next wavefront step
  kHeartbeat = 7,    // master <-> worker: liveness ping / pong
  kRetire = 8,       // master -> worker: adopt post-failure configuration
  kRejoin = 9,       // master -> worker: adopt re-expanded configuration
};

struct StartPass {
  i32 loop_id = 0;
  i32 pass = 0;
  // Speculation depth for ordered schedules: how many steps ahead the
  // executor may fetch parameters speculatively. 0 = synchronous fetch
  // (speculation off, or the controller disabled it).
  i32 spec_depth = 0;

  std::vector<u8> Encode() const {
    ByteWriter w(sizeof(u16) + 3 * sizeof(i32));
    w.Put<u16>(static_cast<u16>(ControlOp::kStartPass));
    w.Put<i32>(loop_id);
    w.Put<i32>(pass);
    w.Put<i32>(spec_depth);
    return w.Take();
  }

  static StartPass Decode(const std::vector<u8>& payload) {
    ByteReader r(payload);
    r.Get<u16>();  // op
    StartPass s;
    s.loop_id = r.Get<i32>();
    s.pass = r.Get<i32>();
    s.spec_depth = r.Get<i32>();
    return s;
  }
};

struct PassDone {
  i32 loop_id = 0;
  i32 pass = 0;
  WorkerPassMetrics metrics;  // the worker's pass report (metrics.h)
  std::vector<f64> accumulators;
  // Span tracer piggyback: the worker's drained spans (empty when tracing
  // is disabled).
  std::vector<trace::Span> spans;

  std::vector<u8> Encode() const {
    // Fixed fields plus the accumulator vector; the histogram and spans
    // grow the buffer amortized if present.
    ByteWriter w(sizeof(u16) + 2 * sizeof(i32) + sizeof(WorkerPassMetrics) +
                 accumulators.size() * sizeof(f64) + 64);
    w.Put<u16>(static_cast<u16>(ControlOp::kPassDone));
    w.Put<i32>(loop_id);
    w.Put<i32>(pass);
    metrics.Serialize(&w);
    w.PutVec(accumulators);
    trace::SerializeSpans(spans, &w);
    return w.Take();
  }

  static PassDone Decode(const std::vector<u8>& payload) {
    ByteReader r(payload);
    r.Get<u16>();  // op
    PassDone d;
    d.loop_id = r.Get<i32>();
    d.pass = r.Get<i32>();
    d.metrics = WorkerPassMetrics::Deserialize(&r);
    d.accumulators = r.GetVec<f64>();
    d.spans = trace::DeserializeSpans(&r);
    return d;
  }
};

// Liveness probe. The master pings workers it has not heard from recently;
// a worker answers with is_reply = true and its progress watermarks so the
// master can tell "alive but slow" from "dead".
struct Heartbeat {
  bool is_reply = false;
  u32 seq = 0;
  i32 last_started_pass = -1;
  i32 last_completed_pass = -1;

  std::vector<u8> Encode() const {
    ByteWriter w(sizeof(u16) + sizeof(u8) + sizeof(u32) + 2 * sizeof(i32));
    w.Put<u16>(static_cast<u16>(ControlOp::kHeartbeat));
    w.Put<u8>(is_reply ? 1 : 0);
    w.Put<u32>(seq);
    w.Put<i32>(last_started_pass);
    w.Put<i32>(last_completed_pass);
    return w.Take();
  }

  static Heartbeat Decode(const std::vector<u8>& payload) {
    ByteReader r(payload);
    r.Get<u16>();  // op
    Heartbeat h;
    h.is_reply = r.Get<u8>() != 0;
    h.seq = r.Get<u32>();
    h.last_started_pass = r.Get<i32>();
    h.last_completed_pass = r.Get<i32>();
    return h;
  }
};

// Cluster reconfiguration, delivered reliably in two phases (both acked
// with is_ack = true). Phase 0: adopt the new logical rank and ring of
// member physical ranks — after every ack, no pre-reconfiguration message
// can still be produced. Phase 1: drop all local DistArray state and loop
// caches so the driver can re-scatter from the checkpoint.
//
// Two ops share this shape: kRetire shrinks the ring after a failure, and
// kRejoin re-expands it when a recovered rank re-enters (or resets the
// current ring for a point-in-time restore). Acks echo the request's op so
// a rejoin ack collection cannot be satisfied by a stale retire ack.
struct Retire {
  ControlOp op = ControlOp::kRetire;
  i32 phase = 0;
  bool is_ack = false;
  i32 logical_rank = 0;
  std::vector<i32> ring;  // member physical ranks, in logical order

  std::vector<u8> Encode() const {
    ByteWriter w(sizeof(u16) + 2 * sizeof(i32) + sizeof(u8) + sizeof(u64) +
                 ring.size() * sizeof(i32));
    w.Put<u16>(static_cast<u16>(op));
    w.Put<i32>(phase);
    w.Put<u8>(is_ack ? 1 : 0);
    w.Put<i32>(logical_rank);
    w.PutVec(ring);
    return w.Take();
  }

  static Retire Decode(const std::vector<u8>& payload) {
    ByteReader r(payload);
    Retire t;
    t.op = static_cast<ControlOp>(r.Get<u16>());
    t.phase = r.Get<i32>();
    t.is_ack = r.Get<u8>() != 0;
    t.logical_rank = r.Get<i32>();
    t.ring = r.GetVec<i32>();
    return t;
  }
};

// Payload of kBarrier messages. The pass number disambiguates retransmitted
// or delayed barrier traffic across passes (the tag alone carries only the
// step). `release` marks the master -> worker "go" broadcast.
//
// Two optional trailing sections, framed by a section mask:
//   bit 0 — releases while speculation is on carry the dirty-range summary
//           of the kOverwrite writes flushed during this step (present even
//           when empty: "present and empty" proves nothing changed, where
//           absence would force the validator to assume everything did).
//   bit 1 — arrivals piggyback a partial trace-ring drain when the worker's
//           span ring ran >75% full mid-pass, so long wavefront passes stop
//           wrapping rings before PassDone. `span_seq` is a per-worker
//           monotonic batch id: supervision resends ship the same batch and
//           the master appends each batch once.
struct BarrierMsg {
  i32 pass = 0;
  bool release = false;
  bool has_dirty = false;
  StepDirtySummary dirty;
  u32 span_seq = 0;
  std::vector<trace::Span> spans;

  std::vector<u8> Encode() const {
    ByteWriter w(sizeof(i32) + 2 * sizeof(u8));
    w.Put<i32>(pass);
    w.Put<u8>(release ? 1 : 0);
    const u8 mask =
        static_cast<u8>((has_dirty ? 1 : 0) | (spans.empty() ? 0 : 2));
    w.Put<u8>(mask);
    if (has_dirty) {
      dirty.Serialize(&w);
    }
    if (!spans.empty()) {
      w.Put<u32>(span_seq);
      trace::SerializeSpans(spans, &w);
    }
    return w.Take();
  }

  static BarrierMsg Decode(const std::vector<u8>& payload) {
    ByteReader r(payload);
    BarrierMsg b;
    b.pass = r.Get<i32>();
    b.release = r.Get<u8>() != 0;
    const u8 mask = r.Get<u8>();
    if ((mask & 1) != 0) {
      b.has_dirty = true;
      b.dirty = StepDirtySummary::Deserialize(&r);
    }
    if ((mask & 2) != 0) {
      b.span_seq = r.Get<u32>();
      b.spans = trace::DeserializeSpans(&r);
    }
    return b;
  }
};

// Header for kPartitionData messages: a chunk of DistArray cells.
// `part` is the time-partition index for rotated partitions, -1 otherwise.
enum class PartDataMode : u8 {
  kInstallPart = 0,    // install into the receiver's partition map [part]
  kInstallRange = 1,   // install as the receiver's range-partition cells
  kOverwrite = 2,      // master-side: overwrite authoritative cells
  kApplyAdd = 3,       // apply as additive deltas
  kApplyBufferUdf = 4, // apply with the registered buffer UDF
  kReplicaSnapshot = 5,// full replicated-array refresh
};

struct PartData {
  DistArrayId array = kInvalidDistArrayId;
  i32 part = -1;
  PartDataMode mode = PartDataMode::kInstallPart;
  CellStore cells;

  std::vector<u8> Encode() const {
    ByteWriter w(EncodedSize());
    w.Put<i32>(array);
    w.Put<i32>(part);
    w.Put<u8>(static_cast<u8>(mode));
    cells.Serialize(&w);
    return w.Take();
  }

  static PartData Decode(const std::vector<u8>& payload) {
    ByteReader r(payload);
    PartData p;
    p.array = r.Get<i32>();
    p.part = r.Get<i32>();
    p.mode = static_cast<PartDataMode>(r.Get<u8>());
    p.cells = CellStore::Deserialize(&r);
    return p;
  }

  // Exact size Encode() would produce; the fabric meters this when the
  // message travels zero-copy.
  size_t EncodedSize() const {
    return sizeof(i32) + sizeof(i32) + sizeof(u8) + cells.SerializedBytes();
  }
};

// Tags for rotated-partition messages double as the time-partition index
// (plus one so tag 0 stays "untagged").
inline u32 PartTag(int tau) { return static_cast<u32>(tau + 1); }

// Zero-copy carrier for PartData (kPartitionData / kParamReply /
// kParamUpdate): the struct travels by shared pointer, skipping
// Encode/Decode, while the fabric still charges the exact encoded size.
struct ZeroCopyPart final : ZeroCopyPayload {
  PartData pd;
  // Set by broadcast senders that hand one carrier to several receivers.
  // Receivers of a multi-reader part must always copy: deciding move-vs-copy
  // from use_count() would race, because another receiver's copy-then-release
  // is not synchronized-with a relaxed refcount load observing count == 1.
  bool multi_reader = false;
  size_t EncodedSize() const override { return pd.EncodedSize(); }
};

// Packs `pd` into `m`: by reference when the fabric's zero-copy fast path is
// on, serialized otherwise.
inline void AttachPart(Message* m, PartData pd, bool zero_copy) {
  if (zero_copy) {
    auto z = std::make_shared<ZeroCopyPart>();
    z->pd = std::move(pd);
    m->zc = std::move(z);
  } else {
    m->payload = pd.Encode();
  }
}

// Unpacks a PartData from either representation. A multi-reader payload
// (replica broadcast) is always copied — concurrent receivers may be reading
// it. A single-reader one is moved out when uniquely owned; the use_count()
// check only guards same-queue duplicates, which the one receiver thread
// consumes sequentially, so no concurrent access is possible there.
inline PartData TakePart(Message& m) {
  if (m.zc != nullptr) {
    auto* z = static_cast<ZeroCopyPart*>(m.zc.get());
    PartData out = (!z->multi_reader && m.zc.use_count() == 1) ? std::move(z->pd)
                                                               : PartData(z->pd);
    m.zc.reset();
    return out;
  }
  return PartData::Decode(m.payload);
}

// Bulk-prefetch request: the synthesized access-pattern pass's key list.
struct ParamRequest {
  DistArrayId array = kInvalidDistArrayId;
  i32 step = 0;
  std::vector<i64> keys;
  // Marks a coalesced kPerKey storm: the keys travel in one wire message but
  // the exchange is metered as keys.size() per-key request/reply pairs.
  bool per_key = false;
  // Marks a speculative fetch issued against a pinned snapshot while an
  // earlier step still runs; repair re-fetches after validation stay false.
  // Purely observational on the master (counted into spec.requests_served);
  // serving is identical either way.
  bool speculative = false;

  std::vector<u8> Encode() const {
    ByteWriter w(EncodedSize());
    w.Put<i32>(array);
    w.Put<i32>(step);
    w.Put<u8>(per_key ? 1 : 0);
    w.PutVec(keys);
    w.Put<u8>(speculative ? 1 : 0);
    return w.Take();
  }

  static ParamRequest Decode(const std::vector<u8>& payload) {
    ByteReader r(payload);
    ParamRequest p;
    p.array = r.Get<i32>();
    p.step = r.Get<i32>();
    p.per_key = r.Get<u8>() != 0;
    p.keys = r.GetVec<i64>();
    p.speculative = r.Get<u8>() != 0;
    return p;
  }

  // Exact size Encode() would produce; the fabric meters this when the
  // request travels zero-copy.
  size_t EncodedSize() const {
    return sizeof(i32) + sizeof(i32) + sizeof(u8) + sizeof(u64) +
           keys.size() * sizeof(i64) + sizeof(u8);
  }
};

// Zero-copy carrier for ParamRequest: in-process requests skip Encode/Decode
// just like replies, while the fabric still charges the exact encoded size.
struct ZeroCopyParamRequest final : ZeroCopyPayload {
  ParamRequest req;
  size_t EncodedSize() const override { return req.EncodedSize(); }
};

inline void AttachParamRequest(Message* m, ParamRequest req, bool zero_copy) {
  if (zero_copy) {
    auto z = std::make_shared<ZeroCopyParamRequest>();
    z->req = std::move(req);
    m->zc = std::move(z);
  } else {
    m->payload = req.Encode();
  }
}

inline ParamRequest TakeParamRequest(Message& m) {
  if (m.zc != nullptr) {
    auto* z = static_cast<ZeroCopyParamRequest*>(m.zc.get());
    ParamRequest out = m.zc.use_count() == 1 ? std::move(z->req) : z->req;
    m.zc.reset();
    return out;
  }
  return ParamRequest::Decode(m.payload);
}

// kPerKey cost modeling for a coalesced request: had the storm really been
// sent, each key would have been its own message — one transport header plus
// one single-key ParamRequest. Meter the batched message as that many
// latencies and the framing bytes of the (n - 1) messages it absorbed; the
// key payload bytes themselves are identical in both representations.
inline void MeterAsPerKeyRequests(Message* m, const ParamRequest& req) {
  const size_t n = req.keys.size();
  if (!req.per_key || n <= 1) {
    return;
  }
  // Each of the n-1 extra virtual messages repeats the header and the fixed
  // request fields; the keys themselves are already counted once in the real
  // coalesced payload, so the shell here is key-less.
  ParamRequest shell;
  shell.per_key = true;
  const size_t per_msg = Message::kHeaderBytes + shell.EncodedSize();
  m->meter_messages = static_cast<u32>(n);
  m->meter_extra_bytes = (n - 1) * per_msg;
}

// Same for the reply: per-key replies each carry a transport header plus an
// empty PartData shell (header + empty CellStore); the cell bytes of found
// keys are identical whether they travel in one reply or n.
inline void MeterAsPerKeyReplies(Message* m, size_t num_keys, i32 value_dim) {
  if (num_keys <= 1) {
    return;
  }
  PartData shell;
  shell.cells = CellStore(value_dim, CellStore::Layout::kHashed, 0);
  const size_t per_msg = Message::kHeaderBytes + shell.EncodedSize();
  m->meter_messages = static_cast<u32>(num_keys);
  m->meter_extra_bytes = (num_keys - 1) * per_msg;
}

// kGather / kDropArray control message.
struct ArrayOp {
  ControlOp op = ControlOp::kGather;
  DistArrayId array = kInvalidDistArrayId;

  std::vector<u8> Encode() const {
    ByteWriter w(sizeof(u16) + sizeof(i32));
    w.Put<u16>(static_cast<u16>(op));
    w.Put<i32>(array);
    return w.Take();
  }
};

inline ControlOp PeekControlOp(const std::vector<u8>& payload) {
  ByteReader r(payload);
  return static_cast<ControlOp>(r.Get<u16>());
}

}  // namespace orion

#endif  // ORION_SRC_RUNTIME_PROTOCOL_H_
