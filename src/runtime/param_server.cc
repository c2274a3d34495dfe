#include "src/runtime/param_server.h"

#include <algorithm>
#include <memory>

#include "src/common/status.h"
#include "src/common/timer.h"
#include "src/common/trace.h"

namespace orion {

ParamServer::ParamServer(Fabric* fabric, int num_workers)
    : fabric_(fabric), sender_(fabric, std::max(1, num_workers)), pool_(std::max(1, num_workers)) {}

ParamServer::~ParamServer() { Quiesce(); }

void ParamServer::HandleRequestSnapshot(ParamRequest req, WorkerId from,
                                        VersionedCellStore::Snapshot snap,
                                        i32 value_dim) {
  ORION_CHECK(snap.valid());
  if (req.speculative) {
    speculative_served_.fetch_add(1, std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++in_flight_;
    max_queue_depth_ = std::max(max_queue_depth_, in_flight_);
  }
  // Shared so the pool's copyable std::function can carry the move-only pin.
  auto r = std::make_shared<Request>(Request{std::move(req), from, std::move(snap), value_dim});
  pool_.Submit([this, r] { Serve(*r); });
}

void ParamServer::Serve(Request& r) {
  CpuStopwatch sw;
  {
    ORION_TRACE_SPAN(kParamServer, "gather");
    // The pinned version is immutable, so no lock is held across the copy.
    Message reply = BuildParamReply(r.req, r.snap, r.value_dim, fabric_->zero_copy());
    // Retire this request's pin before it counts as done: once Quiesce()
    // returns, the caller may collapse or mutate the store, so the pin must
    // not linger until the pool thread drops its Request reference.
    r.snap.Release();
    reply.to = r.from;
    sender_.Enqueue(std::move(reply));
  }
  const double elapsed = sw.ElapsedSeconds();
  std::lock_guard<std::mutex> lock(mu_);
  serve_seconds_ += elapsed;
  --in_flight_;
  if (in_flight_ == 0) {
    idle_cv_.notify_all();
  }
}

void ParamServer::Quiesce() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
  }
  sender_.Flush();
}

void ParamServer::ResetPassStats() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    serve_seconds_ = 0.0;
    max_queue_depth_ = 0;
  }
  speculative_served_.store(0, std::memory_order_relaxed);
}

double ParamServer::serve_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return serve_seconds_;
}

int ParamServer::max_queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_queue_depth_;
}

}  // namespace orion
