// Sharded, asynchronous serving of kParamRequests on the master.
//
// The master's service loop used to gather and send every reply inline, so
// under a real-time-charged link the reply fan-out serialized across workers
// (~N x latency) and bounded what deep prefetch could hide. ParamServer moves
// that work off the loop:
//
//   HandleRequestSnapshot — the service loop pins a VersionedCellStore
//       snapshot at dequeue time (a refcount bump) and hands it over; gather
//       tasks copy hits out of the immutable snapshot with no lock held.
//       Writers never block readers: they clone-on-write the next version.
//   The key list is split into stripes by a hash mix of the key, so strided
//       key lists spread across the pool. Stripes only load-balance the
//       lock-free gathers; no writer ever waits on one.
//   The last stripe to finish assembles the reply *in request-key order* and
//       hands it to a per-destination reply lane (AsyncSender), so sends to
//       different workers overlap.
//   Quiesce — barrier: every in-flight request assembled, its reply
//       delivered, and its snapshot pin released. Called at pass end, on
//       pass abort, and before recovery mutates master state.
//
// Determinism: reply contents depend only on (request keys, master state at
// dequeue time) — exactly what the inline path saw. The pin happens on the
// single-threaded service loop at the same point the inline path would have
// served, and copy-on-write guarantees the pinned version is immutable, so
// the gathered bytes are identical no matter when the pool thread runs.
// Key-order assembly makes the reply bytes identical to the inline gather's
// whatever the stripe split, and per-destination lanes keep each worker's
// replies in FIFO order. kParamReply is not a faultable message kind, so
// moving replies onto lane threads cannot perturb the injected-fault
// sequence.
#ifndef ORION_SRC_RUNTIME_PARAM_SERVER_H_
#define ORION_SRC_RUNTIME_PARAM_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/dsm/cell_store.h"
#include "src/dsm/versioned_store.h"
#include "src/net/async_sender.h"
#include "src/net/fabric.h"
#include "src/runtime/metrics.h"
#include "src/runtime/protocol.h"

namespace orion {

// Assembles the kParamReply for `req` against `master`: hits are copied in
// request-key order (the order the reply store's insertion-ordered layout
// makes observable) into a store pre-sized for the key list. Shared by the
// inline serving path and tests; the sharded path assembles from its
// per-stripe gathers instead.
Message BuildParamReply(const ParamRequest& req, const CellStore& master, i32 value_dim,
                        bool zero_copy);

class ParamServer {
 public:
  // `num_shards` gather stripes and pool threads; one reply lane per worker.
  ParamServer(Fabric* fabric, int num_shards, int num_workers);
  ~ParamServer();

  ParamServer(const ParamServer&) = delete;
  ParamServer& operator=(const ParamServer&) = delete;

  int num_shards() const { return num_shards_; }

  // Non-blocking: enqueues the gather work and returns. The caller pins the
  // version to serve; gathers read it lock-free and the pin is released when
  // the reply has been assembled.
  void HandleRequestSnapshot(ParamRequest req, WorkerId from,
                             VersionedCellStore::Snapshot snap, i32 value_dim);

  // Blocks until every in-flight request has been assembled, its reply
  // pushed into the destination inbox, and its snapshot pin released.
  // Cheap when idle.
  void Quiesce();

  // Pass-scoped stats (reset at pass start by the driver).
  void ResetPassStats();
  double serve_seconds() const;    // CPU time across gather + assembly tasks
  int max_queue_depth() const;     // peak requests concurrently in flight
  // Requests flagged speculative this pass (served identically; the flag is
  // observational for the spec.requests_served metric).
  u64 speculative_served() const { return speculative_served_.load(std::memory_order_relaxed); }
  std::vector<StripeMetrics> StripeStatsSnapshot() const;

  // Monitor probes: requests currently in flight, and the deepest current
  // per-stripe gather backlog (atomics / a short mutex).
  int in_flight() const {
    std::lock_guard<std::mutex> lock(mu_);
    return in_flight_;
  }
  int stripe_inflight_max() const {
    int deepest = 0;
    for (int s = 0; s < num_shards_; ++s) {
      const int d = stripes_[s].inflight.load(std::memory_order_relaxed);
      if (d > deepest) deepest = d;
    }
    return deepest;
  }
  // Reply-lane backlog (messages queued or mid-send toward workers).
  size_t reply_queue_depth() const { return sender_.QueueDepth(); }

 private:
  struct Request {
    ParamRequest req;
    WorkerId from = 0;
    VersionedCellStore::Snapshot snap;
    i32 value_dim = 0;
    std::vector<std::vector<i64>> shard_keys;
    // Per-stripe gather results as flat slices in shard-key order: no hashed
    // intermediate store, just value_dim floats and a hit flag per key.
    // Finish() walks the request keys with one running cursor per stripe, so
    // assembly reproduces the inline path's reply bytes exactly (same hits,
    // same insertion order, duplicates included).
    std::vector<std::vector<f32>> shard_vals;
    std::vector<std::vector<u8>> shard_hits;
    std::atomic<int> remaining{0};
  };

  struct StripeState {
    std::atomic<u64> gather_ns{0};
    std::atomic<u64> tasks{0};
    std::atomic<int> inflight{0};
    std::atomic<int> queue_depth_max{0};
  };

  // Stripe of `key`: a cheap hash mix, so strided key lists spread out.
  int StripeOf(i64 key) const;
  void Start(const std::shared_ptr<Request>& r);
  void Gather(const std::shared_ptr<Request>& r, int shard);
  void Finish(const std::shared_ptr<Request>& r);

  Fabric* fabric_;
  int num_shards_;
  std::unique_ptr<StripeState[]> stripes_;

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
