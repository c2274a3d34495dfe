// In-process message fabric simulating a distributed cluster interconnect.
//
// Each logical process (master rank -1 plus workers 0..N-1) owns an inbox.
// Links are in-order and reliable. All payloads are serialized bytes, so
// nothing structured is shared between endpoints: the worker model is
// share-nothing even though workers are threads.
#ifndef ORION_SRC_NET_FABRIC_H_
#define ORION_SRC_NET_FABRIC_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "src/common/blocking_queue.h"
#include "src/common/types.h"
#include "src/net/cost_model.h"
#include "src/net/fault_injector.h"
#include "src/net/message.h"

namespace orion {

struct FabricStats {
  u64 messages_sent = 0;
  u64 bytes_sent = 0;
  u64 zero_copy_bytes = 0;  // subset of bytes_sent that skipped Encode/Decode
  double virtual_net_seconds = 0.0;  // accumulated modeled cost
};

class Fabric {
 public:
  // num_workers worker endpoints plus one master endpoint (kMasterRank).
  explicit Fabric(int num_workers, NetCostModel cost_model = NetCostModel::Unlimited());

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  int num_workers() const { return num_workers_; }
  const NetCostModel& cost_model() const { return cost_model_; }

  // Enables the zero-copy in-process fast path: senders may attach structured
  // payloads (Message::zc) instead of serialized bytes. Set before any
  // traffic flows; senders consult it to decide how to pack messages.
  void SetZeroCopy(bool enabled) { zero_copy_ = enabled; }
  bool zero_copy() const { return zero_copy_; }

  // Sends msg to msg.to (may be kMasterRank). Thread-safe. Subject to the
  // installed fault injector, if any.
  void Send(Message msg);

  // Like Send, but bypasses the fault injector. Used for supervision traffic
  // whose volume is timing-dependent (heartbeats, retransmits) and for the
  // recovery protocol itself — keeping those out of the injector makes the
  // injected-fault sequence a pure function of the plan seed.
  void SendReliable(Message msg);

  // Blocking receive on the given endpoint. Returns nullopt after Shutdown().
  std::optional<Message> Recv(WorkerId rank);

  // Blocking receive with a timeout; nullopt on timeout or after Shutdown().
  std::optional<Message> RecvWithTimeout(WorkerId rank, double seconds);

  // Non-blocking receive.
  std::optional<Message> TryRecv(WorkerId rank);

  // True once Shutdown() has closed the endpoint's inbox (lets receivers
  // using RecvWithTimeout tell "timed out" from "shut down").
  bool Closed(WorkerId rank) { return InboxFor(rank).closed(); }

  // Installs a fault injector consulted by every Send. Call before any
  // traffic flows; pass nullptr to remove.
  void SetInjector(std::shared_ptr<FaultInjector> injector) {
    injector_ = std::move(injector);
  }
  FaultInjector* injector() const { return injector_.get(); }

  // Closes all inboxes; receivers drain then observe nullopt.
  void Shutdown();

  FabricStats Stats() const;
  // Resets counters (used between benchmark phases).
  void ResetStats();

  // Current inbox depth for `rank` (monitor probe; takes the inbox lock
  // briefly, reads nothing else).
  size_t InboxDepth(WorkerId rank) { return InboxFor(rank).Size(); }

 private:
  BlockingQueue<Message>& InboxFor(WorkerId rank);
  // Meters the message (stats + modeled cost, optionally charged as real
  // sender-side time) and returns the modeled cost in seconds. Shared by the
  // plain and fault-injected send paths so the original is charged exactly
  // once either way.
  double Meter(const Message& msg);
  void MeterAndDeliver(Message msg);

  std::shared_ptr<FaultInjector> injector_;
  int num_workers_;
  NetCostModel cost_model_;
  bool zero_copy_ = false;

  std::vector<std::unique_ptr<BlockingQueue<Message>>> inboxes_;  // [0]=master, [1+i]=worker i

  mutable std::mutex stats_mutex_;
  u64 messages_sent_ = 0;
  u64 bytes_sent_ = 0;
  u64 zero_copy_bytes_ = 0;
  double virtual_net_seconds_ = 0.0;
};

}  // namespace orion

#endif  // ORION_SRC_NET_FABRIC_H_
