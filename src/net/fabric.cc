#include "src/net/fabric.h"

#include <chrono>
#include <thread>

#include "src/common/status.h"
#include "src/common/trace.h"

namespace orion {

namespace {

// Static span-name tables keyed by message kind: the tracer stores the
// pointer, so names must be string literals.
const char* SendSpanName(MsgKind k) {
  switch (k) {
    case MsgKind::kControl:
      return "send:control";
    case MsgKind::kPartitionData:
      return "send:partition_data";
    case MsgKind::kTimeStepToken:
      return "send:time_step_token";
    case MsgKind::kParamRequest:
      return "send:param_request";
    case MsgKind::kParamReply:
      return "send:param_reply";
    case MsgKind::kParamUpdate:
      return "send:param_update";
    case MsgKind::kAccumulator:
      return "send:accumulator";
    case MsgKind::kBarrier:
      return "send:barrier";
    case MsgKind::kShutdown:
      return "send:shutdown";
  }
  return "send:unknown";
}

const char* RecvSpanName(MsgKind k) {
  switch (k) {
    case MsgKind::kControl:
      return "recv:control";
    case MsgKind::kPartitionData:
      return "recv:partition_data";
    case MsgKind::kTimeStepToken:
      return "recv:time_step_token";
    case MsgKind::kParamRequest:
      return "recv:param_request";
    case MsgKind::kParamReply:
      return "recv:param_reply";
    case MsgKind::kParamUpdate:
      return "recv:param_update";
    case MsgKind::kAccumulator:
      return "recv:accumulator";
    case MsgKind::kBarrier:
      return "recv:barrier";
    case MsgKind::kShutdown:
      return "recv:shutdown";
  }
  return "recv:unknown";
}

}  // namespace

Fabric::Fabric(int num_workers, NetCostModel cost_model)
    : num_workers_(num_workers), cost_model_(cost_model) {
  ORION_CHECK(num_workers > 0);
  inboxes_.reserve(static_cast<size_t>(num_workers) + 1);
  for (int i = 0; i < num_workers + 1; ++i) {
    inboxes_.push_back(std::make_unique<BlockingQueue<Message>>());
  }
}

BlockingQueue<Message>& Fabric::InboxFor(WorkerId rank) {
  ORION_CHECK(rank >= kMasterRank && rank < num_workers_) << "bad rank" << rank;
  return *inboxes_[static_cast<size_t>(rank + 1)];
}

double Fabric::Meter(const Message& msg) {
  const size_t wire = msg.WireSize() + msg.meter_extra_bytes;
  const u32 logical = msg.meter_messages > 0 ? msg.meter_messages : 1;
  // One bandwidth charge over the total bytes plus one fixed latency per
  // logical message the coalesced send stands in for.
  const double cost =
      cost_model_.CostSeconds(wire) + (logical - 1) * cost_model_.latency_us * 1e-6;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    messages_sent_ += logical;
    bytes_sent_ += wire;
    if (msg.zc != nullptr) {
      zero_copy_bytes_ += wire;
    }
    virtual_net_seconds_ += cost;
  }
  if (cost_model_.charge_real_time && cost > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(cost));
  }
  return cost;
}

void Fabric::MeterAndDeliver(Message msg) {
  Meter(msg);
  InboxFor(msg.to).Push(std::move(msg));
}

void Fabric::Send(Message msg) {
  ORION_TRACE_SPAN(kFabric, SendSpanName(msg.kind));
  if (injector_ != nullptr && injector_->plan().HasMessageFaults()) {
    // Metering happens at the sender (the cost was paid even if the message
    // is then lost in transit), so the original is charged exactly once and
    // injector-produced duplicates/releases are delivered for free.
    Meter(msg);
    for (Message& m : injector_->Process(std::move(msg))) {
      InboxFor(m.to).Push(std::move(m));
    }
    return;
  }
  MeterAndDeliver(std::move(msg));
}

void Fabric::SendReliable(Message msg) {
  ORION_TRACE_SPAN(kFabric, SendSpanName(msg.kind));
  MeterAndDeliver(std::move(msg));
}

std::optional<Message> Fabric::Recv(WorkerId rank) {
  if (!trace::Enabled()) {
    return InboxFor(rank).Pop();
  }
  const i64 start_ns = trace::NowNs();
  auto msg = InboxFor(rank).Pop();
  if (msg.has_value()) {
    // The span covers the blocking wait; poll misses emit nothing.
    trace::Emit(trace::Category::kFabric, RecvSpanName(msg->kind), start_ns, trace::NowNs());
  }
  return msg;
}

std::optional<Message> Fabric::RecvWithTimeout(WorkerId rank, double seconds) {
  if (!trace::Enabled()) {
    return InboxFor(rank).PopWithTimeout(std::chrono::duration<double>(seconds));
  }
  const i64 start_ns = trace::NowNs();
  auto msg = InboxFor(rank).PopWithTimeout(std::chrono::duration<double>(seconds));
  if (msg.has_value()) {
    trace::Emit(trace::Category::kFabric, RecvSpanName(msg->kind), start_ns, trace::NowNs());
  }
  return msg;
}

std::optional<Message> Fabric::TryRecv(WorkerId rank) { return InboxFor(rank).TryPop(); }

void Fabric::Shutdown() {
  for (auto& inbox : inboxes_) {
    inbox->Close();
  }
}

FabricStats Fabric::Stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  FabricStats s;
  s.messages_sent = messages_sent_;
  s.bytes_sent = bytes_sent_;
  s.zero_copy_bytes = zero_copy_bytes_;
  s.virtual_net_seconds = virtual_net_seconds_;
  return s;
}

void Fabric::ResetStats() {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  messages_sent_ = 0;
  bytes_sent_ = 0;
  zero_copy_bytes_ = 0;
  virtual_net_seconds_ = 0.0;
}

}  // namespace orion
