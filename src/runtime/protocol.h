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
//
// Key lists are compact: a ParamRequest's keys and the keys of a hashed
// CellStore travel as a KeyList (a u32 count, then zigzag-varint deltas), so
// a sorted list costs about one byte per key. A kParamReply carries no keys
// at all: its values are positional against the request's key list.
#ifndef ORION_SRC_RUNTIME_PROTOCOL_H_
#define ORION_SRC_RUNTIME_PROTOCOL_H_

#include <bit>
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

// Field-list marker for a list of keys in any order: a u32 count, the first
// key as a zigzag varint, then each key's zigzag-varint difference from the
// one before it (wrapping, so any i64 pair has a difference). Ascending
// unique keys with gaps under 64 take one byte each.
struct KeyList {
  std::vector<i64>& keys;
};

inline u64 ZigZag(i64 v) { return (static_cast<u64>(v) << 1) ^ static_cast<u64>(v >> 63); }
inline i64 UnZigZag(u64 z) { return static_cast<i64>((z >> 1) ^ (~(z & 1) + 1)); }

// Zigzag varint of `key`'s difference from `prev`, in u64 arithmetic.
inline u64 KeyDelta(i64 key, i64 prev) {
  return ZigZag(static_cast<i64>(static_cast<u64>(key) - static_cast<u64>(prev)));
}

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

  void Field(KeyList& list) {
    std::vector<i64>& keys = list.keys;
    u32 n = static_cast<u32>(keys.size());
    Field(n);
    i64 prev = 0;
    if constexpr (M == Mode::kWrite) {
      // Staged in blocks: one append per block instead of one per key.
      u8 block[512];
      size_t used = 0;
      for (const i64 key : keys) {
        if (used > sizeof(block) - ByteWriter::kMaxVarintBytes) {
          w_->PutBytes(block, used);
          used = 0;
        }
        used += ByteWriter::EncodeVarint(KeyDelta(key, prev), block + used);
        prev = key;
      }
      w_->PutBytes(block, used);
    } else if constexpr (M == Mode::kRead) {
      // Every key takes at least one byte: check before allocating.
      ORION_CHECK(n <= r_->remaining()) << "ByteReader overrun";
      keys.resize(n);
      for (i64& key : keys) {
        prev = static_cast<i64>(static_cast<u64>(prev) + static_cast<u64>(UnZigZag(r_->GetVarint())));
        key = prev;
      }
    } else {
      size_t bytes = 0;  // a local sum: size_ could alias the keys
      for (const i64 key : keys) {
        bytes += ByteWriter::VarintSize(KeyDelta(key, prev));
        prev = key;
      }
      size_ += bytes;
    }
  }

  // CellStore on the wire: value_dim and layout, then a dense store's range
  // and values (the bytes CellStore::Serialize writes too) or a hashed
  // store's KeyList and values. The durable format (CellStore::Serialize,
  // which the delta log writes) keeps hashed keys at 8 B each.
  void Field(CellStore& c) {
    i32 value_dim = c.value_dim();
    CellStore::Layout layout = c.layout();
    Field(value_dim);
    Field(layout);
    if constexpr (M == Mode::kRead) {
      std::vector<f32> values;
      if (layout == CellStore::Layout::kHashed) {
        std::vector<i64> keys;
        KeyList list{keys};
        Field(list);
        Field(values);
        c = CellStore::Hashed(value_dim, std::move(keys), std::move(values));
      } else {
        i64 lo = 0;
        i64 hi = 0;
        Field(lo);
        Field(hi);
        Field(values);
        c = CellStore::Dense(value_dim, layout, lo, hi, std::move(values));
      }
    } else {
      if (layout == CellStore::Layout::kHashed) {
        KeyList list{const_cast<std::vector<i64>&>(c.keys())};
        Field(list);
      } else {
        i64 lo = c.range_lo();
        i64 hi = c.range_hi();
        Field(lo);
        Field(hi);
      }
      Field(const_cast<std::vector<f32>&>(c.raw_values()));
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

// Zero-copy carrier for a wire type (a PartData in kPartitionData and
// kParamUpdate, a ParamRequest in kParamRequest, a ParamReply in
// kParamReply): the struct travels by shared pointer, skipping Encode/Decode,
// while the fabric still charges the exact encoded size.
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

// Bulk-prefetch request: the synthesized access-pattern pass's key list,
// sorted ascending (CollectPrefetchKeys), so its KeyList costs about a byte
// per key.
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
  void Fields(V& v) { v(array, step, per_key, wire::KeyList{keys}, speculative); }
};

// Reply to a ParamRequest, positional against its key list: `values` holds
// the value spans of the keys the master has, in request-key order, and
// `hits` marks them (bit i: key i hit), left empty when every key hit. The
// requester installs it by walking the key list it sent.
struct ParamReply {
  DistArrayId array = kInvalidDistArrayId;
  i32 step = 0;
  std::vector<u64> hits;
  std::vector<f32> values;

  bool Hit(size_t i) const { return hits.empty() || ((hits[i >> 6] >> (i & 63)) & 1) != 0; }
  size_t NumHits(size_t num_keys) const {
    size_t n = hits.empty() ? num_keys : 0;
    for (const u64 word : hits) {
      n += static_cast<size_t>(std::popcount(word));
    }
    return n;
  }

  template <class V>
  void Fields(V& v) { v(array, step, hits, values); }
};

// kPerKey cost modeling for a coalesced request: had the storm really been
// sent, each key would have been its own message — one transport header plus
// one single-key ParamRequest. Meter the batched message as that many
// latencies and bill the bytes the storm would have sent beyond it: the
// framing of the (n - 1) messages it absorbed, and the difference between
// each key on its own (a varint of the key) and its delta in the coalesced
// list.
inline void MeterAsPerKeyRequests(Message* m, const ParamRequest& req) {
  const size_t n = req.keys.size();
  if (!req.per_key || n <= 1) {
    return;
  }
  ParamRequest shell;
  shell.per_key = true;
  size_t storm = n * (Message::kHeaderBytes + WireSize(shell));
  for (const i64 key : req.keys) {
    storm += ByteWriter::VarintSize(wire::ZigZag(key));
  }
  m->meter_messages = static_cast<u32>(n);
  m->meter_extra_bytes = storm - (Message::kHeaderBytes + WireSize(req));
}

// Same for the reply: a single-key reply is an empty ParamReply shell plus
// the key's value span when it hit, or a one-word hit bitmap when it missed.
inline void MeterAsPerKeyReplies(Message* m, size_t num_keys, const ParamReply& reply) {
  if (num_keys <= 1) {
    return;
  }
  const size_t misses = num_keys - reply.NumHits(num_keys);
  const size_t storm = num_keys * (Message::kHeaderBytes + WireSize(ParamReply{})) +
                       reply.values.size() * sizeof(f32) + misses * sizeof(u64);
  m->meter_messages = static_cast<u32>(num_keys);
  m->meter_extra_bytes = storm - (Message::kHeaderBytes + WireSize(reply));
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
