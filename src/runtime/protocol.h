// Wire protocol between the master (driver) and executors.
//
// A wire type is its field list: each struct here declares one member
// template
//
//   template <class V> void Fields(V& v) { v(a, b, c); }
//
// that visits its fields in wire order, and the one codec below derives
// Encode, Decode and WireSize from it, so the bytes written, the bytes read
// and the size the fabric meters on the zero-copy path cannot disagree.
// Control messages visit their ControlOp first, as a u16 prefix the fault
// injector and the service loops peek.
#ifndef ORION_SRC_RUNTIME_PROTOCOL_H_
#define ORION_SRC_RUNTIME_PROTOCOL_H_

#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/serde.h"
#include "src/common/trace.h"
#include "src/common/types.h"
#include "src/dsm/cell_store.h"
#include "src/net/message.h"
#include "src/runtime/metrics.h"
#include "src/runtime/speculation.h"

namespace orion {

namespace wire {

enum class Mode { kWrite, kRead, kSize };

template <Mode M>
class Codec;

template <class T>
concept HasFields = requires(T& x, Codec<Mode::kSize>& v) { x.Fields(v); };

// One visitor per direction, with one overload per field kind. Encoding and
// sizing visit a const value through a const_cast and only read it; a field
// list may assign its own fields only when V::kReading.
template <Mode M>
class Codec {
 public:
  static constexpr bool kReading = M == Mode::kRead;

  Codec() = default;
  explicit Codec(ByteWriter* w) : w_(w) {}
  explicit Codec(ByteReader* r) : r_(r) {}

  template <class... F>
  void operator()(F&&... fields) {
    (Field(fields), ...);
  }

  size_t size() const { return size_; }

 private:
  // Trivially copyable scalars and enums: their bytes.
  template <class T>
    requires(std::is_trivially_copyable_v<T> && !HasFields<T>)
  void Field(T& x) {
    if constexpr (M == Mode::kWrite) {
      w_->Put(x);
    } else if constexpr (M == Mode::kRead) {
      x = r_->template Get<T>();
    } else {
      size_ += sizeof(T);
    }
  }

  // bool: one byte, 0 or 1.
  void Field(bool& b) {
    if constexpr (M == Mode::kWrite) {
      w_->Put<u8>(b ? 1 : 0);
    } else if constexpr (M == Mode::kRead) {
      b = r_->Get<u8>() != 0;
    } else {
      size_ += sizeof(u8);
    }
  }

  // A vector of trivially copyable elements: u64 count, then the elements
  // in one block.
  template <class T>
    requires std::is_trivially_copyable_v<T>
  void Field(std::vector<T>& v) {
    if constexpr (M == Mode::kWrite) {
      w_->PutVec(v);
    } else if constexpr (M == Mode::kRead) {
      v = r_->template GetVec<T>();
    } else {
      size_ += sizeof(u64) + v.size() * sizeof(T);
    }
  }

  // U32Counted: u32 count, then each element visited in turn. A map's
  // elements are key then value.
  template <class C>
  void Field(U32Counted<C>& seq) {
    C& items = seq.items;
    u32 n = static_cast<u32>(items.size());
    Field(n);
    if constexpr (M == Mode::kRead) {
      items.clear();
      for (u32 i = 0; i < n; ++i) {
        if constexpr (requires { typename C::mapped_type; }) {
          typename C::key_type key{};
          typename C::mapped_type value{};
          Field(key);
          Field(value);
          items.emplace(key, std::move(value));
        } else {
          Field(items.emplace_back());
        }
      }
    } else {
      for (auto& item : items) {
        Field(item);
      }
    }
  }

  template <class A, class B>
  void Field(std::pair<A, B>& p) {
    Field(p.first);
    Field(p.second);
  }

  // std::string: u64 length, then the characters.
  void Field(std::string& s) {
    if constexpr (M == Mode::kWrite) {
      w_->PutString(s);
    } else if constexpr (M == Mode::kRead) {
      s = r_->GetString();
    } else {
      size_ += sizeof(u64) + s.size();
    }
  }

  // CellStore keeps its own format: the delta log writes it too.
  void Field(CellStore& c) {
    if constexpr (M == Mode::kWrite) {
      c.Serialize(w_);
    } else if constexpr (M == Mode::kRead) {
      c = CellStore::Deserialize(r_);
    } else {
      size_ += c.SerializedBytes();
    }
  }

  // A nested wire type: its own field list, inline.
  template <HasFields T>
  void Field(T& x) {
    x.Fields(*this);
  }

  ByteWriter* w_ = nullptr;
  ByteReader* r_ = nullptr;
  size_t size_ = 0;
};

}  // namespace wire

// Exact number of bytes Encode(x) produces.
template <wire::HasFields T>
size_t WireSize(const T& x) {
  wire::Codec<wire::Mode::kSize> size;
  const_cast<T&>(x).Fields(size);
  return size.size();
}

template <wire::HasFields T>
std::vector<u8> Encode(const T& x) {
  ByteWriter w(WireSize(x));
  wire::Codec<wire::Mode::kWrite> write(&w);
  const_cast<T&>(x).Fields(write);
  return w.Take();
}

template <wire::HasFields T>
T Decode(const std::vector<u8>& bytes) {
  ByteReader r(bytes);
  T x;
  wire::Codec<wire::Mode::kRead> read(&r);
  x.Fields(read);
  return x;
}

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

  template <class V>
  void Fields(V& v) {
    ControlOp op = ControlOp::kStartPass;
    v(op, loop_id, pass, spec_depth);
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

  template <class V>
  void Fields(V& v) {
    ControlOp op = ControlOp::kPassDone;
    v(op, loop_id, pass, metrics, accumulators, U32Counted{spans});
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

  template <class V>
  void Fields(V& v) {
    ControlOp op = ControlOp::kHeartbeat;
    v(op, is_reply, seq, last_started_pass, last_completed_pass);
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

  template <class V>
  void Fields(V& v) { v(op, phase, is_ack, logical_rank, ring); }
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

  template <class V>
  void Fields(V& v) {
    u8 mask = static_cast<u8>((has_dirty ? 1 : 0) | (spans.empty() ? 0 : 2));
    v(pass, release, mask);
    if constexpr (V::kReading) {
      has_dirty = (mask & 1) != 0;
    }
    if ((mask & 1) != 0) {
      v(dirty);
    }
    if ((mask & 2) != 0) {
      v(span_seq, U32Counted{spans});
    }
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

  template <class V>
  void Fields(V& v) { v(array, part, mode, cells); }
};

// Tags for rotated-partition messages double as the time-partition index
// (plus one so tag 0 stays "untagged").
inline u32 PartTag(int tau) { return static_cast<u32>(tau + 1); }

// Zero-copy carrier for a wire type (a PartData in kPartitionData,
// kParamReply and kParamUpdate, a ParamRequest in kParamRequest): the struct
// travels by shared pointer, skipping Encode/Decode, while the fabric still
// charges the exact encoded size.
template <wire::HasFields T>
struct ZeroCopy final : ZeroCopyPayload {
  T value;
  // Set by broadcast senders that hand one carrier to several receivers.
  // Receivers of a multi-reader part must always copy: deciding move-vs-copy
  // from use_count() would race, because another receiver's copy-then-release
  // is not synchronized-with a relaxed refcount load observing count == 1.
  bool multi_reader = false;
  size_t EncodedSize() const override { return WireSize(value); }
};

// Packs `value` into `m`: by reference when the fabric's zero-copy fast path
// is on, serialized otherwise. A broadcast sender that copies `m` to several
// receivers marks the carrier `multi_reader`.
template <wire::HasFields T>
void Attach(Message* m, T value, bool zero_copy, bool multi_reader = false) {
  if (zero_copy) {
    auto z = std::make_shared<ZeroCopy<T>>();
    z->value = std::move(value);
    z->multi_reader = multi_reader;
    m->zc = std::move(z);
  } else {
    m->payload = Encode(value);
  }
}

// Unpacks a T from either representation. A multi-reader payload (replica
// broadcast) is always copied — concurrent receivers may be reading it. A
// single-reader one is moved out when uniquely owned; the use_count() check
// only guards same-queue duplicates, which the one receiver thread consumes
// sequentially, so no concurrent access is possible there.
template <wire::HasFields T>
T Take(Message& m) {
  if (m.zc != nullptr) {
    auto* z = static_cast<ZeroCopy<T>*>(m.zc.get());
    T out = (!z->multi_reader && m.zc.use_count() == 1) ? std::move(z->value) : T(z->value);
    m.zc.reset();
    return out;
  }
  return Decode<T>(m.payload);
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

  template <class V>
  void Fields(V& v) { v(array, step, per_key, keys, speculative); }
};

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
  const size_t per_msg = Message::kHeaderBytes + WireSize(shell);
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
  const size_t per_msg = Message::kHeaderBytes + WireSize(shell);
  m->meter_messages = static_cast<u32>(num_keys);
  m->meter_extra_bytes = (num_keys - 1) * per_msg;
}

// kGather / kDropArray control message.
struct ArrayOp {
  ControlOp op = ControlOp::kGather;
  DistArrayId array = kInvalidDistArrayId;

  template <class V>
  void Fields(V& v) { v(op, array); }
};

inline ControlOp PeekControlOp(const std::vector<u8>& payload) {
  ByteReader r(payload);
  return static_cast<ControlOp>(r.Get<u16>());
}

}  // namespace orion

#endif  // ORION_SRC_RUNTIME_PROTOCOL_H_
