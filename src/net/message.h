// Message types exchanged over the simulated fabric.
#ifndef ORION_SRC_NET_MESSAGE_H_
#define ORION_SRC_NET_MESSAGE_H_

#include <memory>
#include <utility>
#include <vector>

#include "src/common/types.h"

namespace orion {

// Optional zero-copy payload: a shared-ownership structured value carried
// in place of serialized bytes for large in-process data-plane messages
// (kPartitionData / kParamReply / kParamUpdate). The fabric stays
// layout-agnostic; it only needs the exact encoded size so the NetCostModel
// charges the same wire bytes the serialized path would have.
struct ZeroCopyPayload {
  virtual ~ZeroCopyPayload() = default;
  // Exact number of bytes Encode() would have produced for this value.
  virtual size_t EncodedSize() const = 0;
};

// Message kinds cover both the Orion runtime protocol and the baseline
// parameter-server protocol; the fabric itself is kind-agnostic.
enum class MsgKind : u16 {
  kControl = 0,        // master <-> worker control plane
  kPartitionData = 1,  // DistArray partition rotation (2D schedules)
  kTimeStepToken = 2,  // predecessor -> successor "you may start" signal
  kParamRequest = 3,   // server mode: read request (bulk prefetch list)
  kParamReply = 4,     // server mode: values
  kParamUpdate = 5,    // server mode: buffered writes flush
  kAccumulator = 6,    // accumulator aggregation
  kBarrier = 7,        // distributed barrier protocol
  kShutdown = 8,
};

struct Message {
  // Approximate header cost of a real transport, charged per wire message.
  static constexpr size_t kHeaderBytes = 32;

  WorkerId from = 0;
  WorkerId to = 0;
  MsgKind kind = MsgKind::kControl;
  u32 tag = 0;  // schedule-defined disambiguator (e.g. time step number)
  std::vector<u8> payload;
  // When set, the structured payload travels by reference and `payload`
  // stays empty; receivers take it via protocol-level helpers.
  std::shared_ptr<ZeroCopyPayload> zc;

  // Logical-message metering: a coalesced message standing in for
  // `meter_messages` separate wire messages (the batched kPerKey prefetch
  // storm) is charged that many per-message latencies, counted as that many
  // messages in the stats, and billed `meter_extra_bytes` extra framing
  // bytes — so modeled cost is identical to the uncoalesced exchange.
  u32 meter_messages = 1;
  u64 meter_extra_bytes = 0;

  size_t WireSize() const {
    return kHeaderBytes + (zc != nullptr ? zc->EncodedSize() : payload.size());
  }
};

// A message with a serialized (or empty) payload; senders set `tag` or `zc`
// on it when they need them.
inline Message MakeMessage(WorkerId from, WorkerId to, MsgKind kind,
                           std::vector<u8> payload = {}) {
  Message m;
  m.from = from;
  m.to = to;
  m.kind = kind;
  m.payload = std::move(payload);
  return m;
}

}  // namespace orion

#endif  // ORION_SRC_NET_MESSAGE_H_
