// Asynchronous serving of kParamRequests on the master.
//
// The master's service loop used to gather and send every reply inline, so
// under a real-time-charged link the reply fan-out serialized across workers
// (~N x latency) and bounded what deep prefetch could hide. ParamServer moves
// that work off the loop:
//
//   HandleRequestSnapshot — the service loop pins a VersionedCellStore
//       snapshot at dequeue time (a refcount bump) and hands it over; one
//       pool task gathers the whole request from the immutable snapshot with
//       BuildParamReply, no lock held. Writers never block readers: they
//       clone-on-write the next version.
//   The finished reply goes to a per-destination reply lane (AsyncSender),
//       so sends to different workers overlap.
//   Quiesce — barrier: every in-flight request gathered, its reply
//       delivered, and its snapshot pin released. Called at pass end, on
//       pass abort, and before recovery mutates master state.
//
// Determinism: reply contents depend only on (request keys, master state at
// dequeue time) — exactly what the inline path saw. The pin happens on the
// single-threaded service loop at the same point the inline path would have
// served, and copy-on-write guarantees the pinned version is immutable, so
// the gathered bytes are identical no matter when the pool thread runs. Both
// paths assemble with the same BuildParamReply, and per-destination lanes
// keep each worker's replies in FIFO order. kParamReply is not a faultable
// message kind, so moving replies onto lane threads cannot perturb the
// injected-fault sequence.
#ifndef ORION_SRC_RUNTIME_PARAM_SERVER_H_
#define ORION_SRC_RUNTIME_PARAM_SERVER_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <utility>

#include "src/common/simd.h"
#include "src/common/thread_pool.h"
#include "src/dsm/cell_store.h"
#include "src/dsm/versioned_store.h"
#include "src/net/async_sender.h"
#include "src/net/fabric.h"
#include "src/runtime/protocol.h"

namespace orion {

// Assembles the kParamReply for `req` against `master` (a CellStore, or a
// pinned VersionedCellStore::Snapshot): the values of the keys the master
// has, copied in request-key order into one flat array, with a hit bitmap
// only once some key misses. The one reply builder of both the inline and
// the async serving path.
template <typename Store>
Message BuildParamReply(const ParamRequest& req, const Store& master, i32 value_dim,
                        bool zero_copy) {
  ParamReply pr;
  pr.array = req.array;
  pr.step = req.step;
  const size_t n = req.keys.size();
  const size_t dim = static_cast<size_t>(value_dim);
  pr.values.resize(n * dim);
  f32* out = pr.values.data();
  for (size_t i = 0; i < n; ++i) {
    const f32* v = master.Get(req.keys[i]);
    if (v != nullptr) {
      simd::CopyF32(out, v, dim);
      out += dim;
      if (!pr.hits.empty()) {
        pr.hits[i >> 6] |= u64{1} << (i & 63);
      }
    } else if (pr.hits.empty()) {
      // First miss: every key before it hit.
      pr.hits.assign((n + 63) / 64, 0);
      std::fill(pr.hits.begin(), pr.hits.begin() + static_cast<std::ptrdiff_t>(i >> 6), ~u64{0});
      if ((i & 63) != 0) {
        pr.hits[i >> 6] = (u64{1} << (i & 63)) - 1;
      }
    }
  }
  pr.values.resize(static_cast<size_t>(out - pr.values.data()));
  Message reply;
  reply.from = kMasterRank;
  reply.kind = MsgKind::kParamReply;
  reply.tag = static_cast<u32>(req.step);
  if (req.per_key) {
    MeterAsPerKeyReplies(&reply, n, pr);
  }
  Attach(&reply, std::move(pr), zero_copy);
  return reply;
}

class ParamServer {
 public:
  // One pool thread and one reply lane per worker.
  ParamServer(Fabric* fabric, int num_workers);
  ~ParamServer();

  ParamServer(const ParamServer&) = delete;
  ParamServer& operator=(const ParamServer&) = delete;

  // Non-blocking: enqueues the gather and returns. The caller pins the
  // version to serve; the gather reads it lock-free and the pin is released
  // once the reply has been assembled.
  void HandleRequestSnapshot(ParamRequest req, WorkerId from,
                             VersionedCellStore::Snapshot snap, i32 value_dim);

  // Blocks until every in-flight request has been gathered, its reply
  // pushed into the destination inbox, and its snapshot pin released.
  // Cheap when idle.
  void Quiesce();

  // Pass-scoped stats (reset at pass start by the driver).
  void ResetPassStats();
  double serve_seconds() const;    // CPU time across gather tasks
  int max_queue_depth() const;     // peak requests concurrently in flight
  // Requests flagged speculative this pass (served identically; the flag is
  // observational for the spec.requests_served metric).
  u64 speculative_served() const { return speculative_served_.load(std::memory_order_relaxed); }

  // Monitor probe: requests currently in flight.
  int in_flight() const {
    std::lock_guard<std::mutex> lock(mu_);
    return in_flight_;
  }
  // Reply-lane backlog (messages queued or mid-send toward workers).
  size_t reply_queue_depth() const { return sender_.QueueDepth(); }

 private:
  struct Request {
    ParamRequest req;
    WorkerId from = 0;
    VersionedCellStore::Snapshot snap;
    i32 value_dim = 0;
  };

  void Serve(Request& r);

  Fabric* fabric_;

  mutable std::mutex mu_;
  std::condition_variable idle_cv_;
  int in_flight_ = 0;
  double serve_seconds_ = 0.0;
  int max_queue_depth_ = 0;
  std::atomic<u64> speculative_served_{0};

  // sender_ before pool_: members destroy in reverse order, and pool tasks
  // enqueue replies, so the pool must drain before the lanes go away.
  AsyncSender sender_;
  ThreadPool pool_;
};

}  // namespace orion

#endif  // ORION_SRC_RUNTIME_PARAM_SERVER_H_
