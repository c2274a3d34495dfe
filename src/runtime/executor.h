// Executor: one logical worker of the distributed runtime.
//
// An executor owns the partitions assigned to it and exchanges all data with
// the master and with ring neighbors through the fabric. One pass of a
// compiled loop executes the schedule chosen by the planner:
//
//   1D        — per step (sync round, ParallelForOptions::server_sync_rounds):
//               prefetch server reads, run one slice of the local
//               iterations, flush buffered writes, including server-hosted
//               ones, so the next round observes them.
//   rotation  — per step: (drain inbox) wait for the rotated partitions of
//               this step's time index, prefetch server reads, run the
//               block, apply/flush buffered writes, forward rotated
//               partitions to the predecessor (paper Fig. 8).
//   wavefront — like rotation but along the successor ring with a global
//               barrier per step (ordered / unimodular loops); server-hosted
//               writes are flushed each step so the next wavefront sees them.
#ifndef ORION_SRC_RUNTIME_EXECUTOR_H_
#define ORION_SRC_RUNTIME_EXECUTOR_H_

#include <atomic>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <tuple>
#include <vector>

#include "src/common/timer.h"
#include "src/dsm/bucket.h"
#include "src/dsm/dist_array_buffer.h"
#include "src/net/async_sender.h"
#include "src/net/fabric.h"
#include "src/runtime/compiled_loop.h"
#include "src/runtime/metrics.h"
#include "src/runtime/protocol.h"
#include "src/runtime/shared_directory.h"

namespace orion {

// Thrown to unwind out of an in-flight pass when the master reconfigures the
// cluster after a worker loss. Caught in Run(); the abandoned pass sends no
// PassDone.
struct RetireSignal {};

// Thrown when this worker must exit: injected crash, kShutdown, or fabric
// shutdown. Caught at the top of Run(); the thread returns.
struct HaltSignal {};

class Executor {
 public:
  Executor(WorkerId rank, Fabric* fabric, const SharedDirectory* dir);

  // Thread body; returns when the master sends kShutdown (or the fabric
  // shuts down), or when an injected crash fires.
  void Run();

  // Wires the prefetch-ring occupancy gauge: every ring push/pop stores
  // prefetch_ring_.size() into `gauge` (relaxed). The driver owns the atomic
  // at a stable address, so monitor probes stay valid even when a rejoin
  // replaces this Executor object. Call before the executor thread starts.
  void set_ring_fill_gauge(std::atomic<int>* gauge) { ring_fill_gauge_ = gauge; }

 private:
  friend class WorkerLoopContext;
  friend class RecordingLoopContext;
  friend class KeyRecorder;

  struct ArrayState {
    DistArrayMeta meta;
    CellStore range_store;             // kRange cells owned by this worker
    std::map<int, CellStore> parts;    // rotated / iteration-space partitions
    CellStore replica;                 // kReplicated full copy
    // kServer prefetched reads: the landing pad of the step's prefetch slot,
    // dense over the key list's range when that costs no more memory than
    // hashed. Look up with Find: an unfetched key is absent, also outside
    // the dense range.
    CellStore prefetch_cache;
    CellStore server_dirty;            // kServer unbuffered writes (overwrite)
    std::vector<f32> zeros;            // absent-cell read span
    // kServer dense arrays: the keys the recording pass read, marked during
    // the pass and cleared as its key list is taken. Kept across rounds.
    KeyBitmap read_marks;

    explicit ArrayState(const DistArrayMeta& m)
        : meta(m),
          range_store(m.value_dim, CellStore::Layout::kHashed, 0),
          replica(m.value_dim, CellStore::Layout::kHashed, 0),
          prefetch_cache(m.value_dim, CellStore::Layout::kHashed, 0),
          server_dirty(m.value_dim, CellStore::Layout::kHashed, 0),
          zeros(static_cast<size_t>(m.value_dim), 0.0f) {}
  };

  ArrayState& GetArray(DistArrayId id);
  DistArrayBuffer& GetBuffer(DistArrayId target);

  // spec_depth > 0 lets ordered (wavefront/lockstep) passes fetch up to that
  // many steps ahead speculatively; 0 keeps the synchronous issue-await
  // pairing.
  void RunPass(i32 loop_id, i32 pass, int spec_depth = 0);
  void ExecuteCells(const CompiledLoop& cl, int tau, int chunk, int num_chunks);

  // ---- Prefetch pipeline (paper Sec. 4.4 + comm/compute overlap) ----
  //
  // A prefetch is split into issue (collect keys, send ParamRequests, replies
  // land in a ring slot's buffers) and await (drain the front slot's
  // remaining replies, move its buffers into `prefetch_cache`). Synchronous
  // execution issues and awaits back to back; the pipelined path keeps up to
  // `prefetch_depth` steps in flight, so the await collapses to a buffer move
  // when replies already arrived.
  //
  // CollectPrefetchKeys returns, per server-hosted array, the keys the block
  // reads, sorted ascending and unique (a KeyBitmap scan for a dense array's
  // keys, SortUniqueKeys otherwise; linear time), recorded by the loop's
  // compiled prefetch slice or, for a loop without one, by kernel replay. The
  // order is load-bearing: a speculative slot's lists go to
  // ArrayDirtyRanges::ConflictKeys, whose merge walk needs them strictly
  // increasing; the kCached key cache stores and replays them as they are,
  // so it inherits that contract; the request's KeyList costs about a byte
  // per key only when sorted; and the ParamServer gather copies cells in
  // request-key order, so neighbouring keys share snapshot pages.
  std::map<DistArrayId, std::vector<i64>> CollectPrefetchKeys(const CompiledLoop& cl, int tau,
                                                              int step, int chunk,
                                                              int num_chunks);
  // speculative = true marks the slot as fetched against a possibly-stale
  // master snapshot while step `issued_during` was still executing; the slot
  // then records its key lists so AwaitPrefetch can validate them against
  // the dirty-range summaries of the steps that completed in between.
  void IssuePrefetch(const CompiledLoop& cl, int tau, int step, int chunk, int num_chunks,
                     bool speculative = false, int issued_during = -1);
  // Sends one ParamRequest to the master, metered per key when req.per_key.
  void SendParamRequest(ParamRequest req);
  void AwaitPrefetch(const CompiledLoop& cl, int step);
  // True when step `step`'s key lists are computable without this worker
  // having executed the preceding steps (synthesized program, or a warm
  // kCached key cache) — the condition for issuing before compute.
  bool CanIssueEarly(const CompiledLoop& cl, int step) const;

  // Validates a speculative slot that AwaitPrefetch just moved into the
  // prefetch caches: keys overlapping any dirty range flushed between issue
  // and now are re-fetched synchronously and overwrite-installed (partial
  // repair). After repair the cache is bit-for-bit what a synchronous fetch
  // at this point would have returned.
  struct PrefetchSlot;
  void RepairSpeculative(const CompiledLoop& cl, const PrefetchSlot& slot);

  void FlushServerBuffers(const CompiledLoop& cl);
  void ApplyLocalBuffers(const CompiledLoop& cl, int tau);
  void StepFlush(const CompiledLoop& cl, int tau, int step);
  void SendRotatedParts(const CompiledLoop& cl, int tau);
  void WaitForPart(DistArrayId array, int tau);
  void Barrier(i32 pass, int step);
  void DrainReturningParts(const CompiledLoop& cl);

  void HandleGather(DistArrayId array);
  void DropArray(DistArrayId array);

  // Exits the thread (via HaltSignal) if the fault plan schedules a crash of
  // this worker at (pass, step).
  void MaybeCrash(i32 pass, i32 step);

  // Sleeps out the fault plan's straggle clause for this rank at a step
  // boundary (no-op without one) — wall-clock skew only, used to exercise
  // the master's straggler detector.
  void MaybeStraggle(i32 pass);

  // Routes a data-plane message through the comm thread when the pass runs
  // overlapped, synchronously otherwise.
  void SendData(Message m);

  // Processes one message that is not what the caller is waiting for:
  // installs async data, answers heartbeat pings, dedupes retransmitted
  // kStartPass, discards stale barrier traffic, and throws RetireSignal /
  // HaltSignal on kRetire / kShutdown. Non-const: zero-copy payloads are
  // moved out of the message.
  void Dispatch(Message& msg);
  void ProcessRetire(const Message& msg);
  // Non-blocking drain of queued asynchronous messages.
  void DrainInbox();
  static constexpr double kForever = std::numeric_limits<double>::infinity();
  // Blocking receive that dispatches messages until `pred` matches, giving
  // up after `seconds` (nullopt on timeout). Throws HaltSignal if the fabric
  // shuts down. The time spent inside counts as report_.wait_seconds.
  std::optional<Message> WaitFor(const std::function<bool(const Message&)>& pred,
                                 double seconds = kForever);
  // Blocks, dispatching every message, until `done` holds; only messages of
  // `kind` can make it hold.
  void WaitUntil(MsgKind kind, const std::function<bool()>& done);
  // This rank's recorded trace spans, including the sender lane's spans
  // under the physical rank after a recovery renumbered this worker.
  std::vector<trace::Span> DrainOwnSpans();

  void InstallPartData(PartData pd);
  // Lands a kParamReply in the ring slot of its step: positionally, against
  // the key list that slot requested.
  void InstallParamReply(const ParamReply& reply);

  // Maps a schedule-space (logical) worker id to the physical rank holding
  // that slot in the current configuration.
  WorkerId Physical(WorkerId logical) const {
    return logical == kMasterRank ? kMasterRank
                                  : static_cast<WorkerId>(ring_[static_cast<size_t>(logical)]);
  }

  WorkerId rank_;           // physical rank: fabric endpoint, never changes
  Fabric* fabric_;
  const SharedDirectory* dir_;
  SupervisorConfig sup_;

  // Post-failure configuration (kRetire phase 0). Initially logical == rank_
  // and ring_ == {0..N-1}; after a loss, surviving workers get compacted
  // logical ranks and schedule math runs in logical space while messages are
  // addressed to physical ranks.
  WorkerId logical_rank_;
  std::vector<i32> ring_;   // physical rank by logical index

  i32 current_pass_ = -1;        // pass being executed, -1 when idle
  i32 last_completed_pass_ = -1;
  std::optional<Message> cached_pass_done_;  // resent when kStartPass is retransmitted

  std::map<DistArrayId, std::unique_ptr<ArrayState>> arrays_;
  std::map<DistArrayId, std::unique_ptr<DistArrayBuffer>> buffers_;
  std::vector<f64> accum_;
  std::vector<AccumOp> accum_ops_;
  std::vector<f32> mutate_scratch_;
  // SortUniqueKeys' second buffer, reused by every key list this worker sorts.
  std::vector<i64> key_scratch_;
  // The compiled prefetch slice's frame, and each of its targets' KeyBitmap
  // (nullptr unless a dense server-hosted array), reused across passes.
  std::vector<f64> slice_frame_;
  std::vector<KeyBitmap*> target_marks_;

  // Cached prefetch key lists: (loop, step, array) -> keys. The block a
  // worker runs at a step is the same every pass (see CanIssueEarly).
  std::map<std::tuple<i32, int, DistArrayId>, std::vector<i64>> prefetch_key_cache_;

  // Comm thread for eager sends; Flush()ed at every ordering point (barrier
  // arrival, PassDone, retire ack) so per-link delivery order matches the
  // synchronous sender.
  AsyncSender sender_;
  bool overlap_ = false;  // current pass runs with the overlap engine on

  // Ring of in-flight prefetch issues, FIFO by step: front is the next step
  // this worker will execute, back is the deepest issued. Replies are routed
  // by their step id (ParamReply::step) into the matching slot's buffers;
  // anything that matches no slot is stale traffic from an abandoned pass and
  // is dropped. Depth is bounded by ParallelForOptions::prefetch_depth for
  // pipelined rotation, and by the speculation depth the master ships in
  // StartPass for ordered loops.
  struct PrefetchSlot {
    int step = -1;
    int expected = 0;     // requests sent for this step
    int outstanding = 0;  // reply messages not yet installed
    Stopwatch issued_at;
    std::map<DistArrayId, CellStore> buffers;  // per-array landing pads
    // Per array, the keys requested (sorted, unique): a reply's values are
    // positional against them. A speculative slot's await also validates
    // them against the dirty summaries of steps [issued_during, step).
    std::map<DistArrayId, std::vector<i64>> keys;
    u64 reply_bytes = 0;  // WireSize of the replies installed so far
    // Speculative slots: issued against a possibly-stale snapshot while step
    // `issued_during` ran.
    bool speculative = false;
    int issued_during = -1;
  };
  void PublishRingFill() {
    if (ring_fill_gauge_ != nullptr) {
      ring_fill_gauge_->store(static_cast<int>(prefetch_ring_.size()),
                              std::memory_order_relaxed);
    }
  }

  std::deque<PrefetchSlot> prefetch_ring_;
  std::atomic<int>* ring_fill_gauge_ = nullptr;  // prefetch_ring_.size() mirror

  // This pass's report to the master (reset at pass start, shipped in
  // PassDone), and the comm thread's busy time when the pass started.
  WorkerPassMetrics report_;
  double sender_busy_at_pass_start_ = 0.0;

  // ---- Speculation state (reset per pass) ----
  // Dirty-range summaries decoded from barrier releases, keyed by step: what
  // the cluster's kOverwrite flushes touched during that step. Consumed by
  // RepairSpeculative to find the conflict window of a speculative slot.
  std::map<int, StepDirtySummary> step_dirty_;
  int spec_depth_ = 0;  // from StartPass; 0 = synchronous
  // Monotonic id of barrier-piggybacked span batches (NOT reset per pass:
  // the master dedupes resends by comparing against the last seq it saw).
  u32 span_batch_seq_ = 0;
};

}  // namespace orion

#endif  // ORION_SRC_RUNTIME_EXECUTOR_H_
