// Per-pass metrics reported by Driver::Execute.
#ifndef ORION_SRC_RUNTIME_METRICS_H_
#define ORION_SRC_RUNTIME_METRICS_H_

#include <vector>

// WaitHistogram lives in src/common/histogram.h so the common-layer
// MetricsRegistry can aggregate it; re-exported here for existing users.
#include "src/common/histogram.h"
#include "src/common/serde.h"
#include "src/common/types.h"

namespace orion {

// One ParamServer gather stripe over one pass (the stripe heatmap).
struct StripeMetrics {
  u64 gather_ns = 0;        // cell-copy time inside gather tasks
  u64 tasks = 0;            // gather tasks routed to this stripe
  int queue_depth_max = 0;  // peak concurrent gather tasks on this stripe
};

struct LoopMetrics {
  double pass_wall_seconds = 0.0;        // master-observed wall time
  double max_worker_compute_seconds = 0.0;
  double max_worker_wait_seconds = 0.0;
  u64 bytes_sent = 0;                    // fabric traffic during the pass
  u64 messages_sent = 0;
  double virtual_net_seconds = 0.0;      // modeled network cost of the pass
  // Comm/compute overlap engine (max over workers): send time moved onto the
  // comm thread, and prefetch in-flight time hidden under compute.
  double overlap_seconds = 0.0;
  double prefetch_wait_hidden_seconds = 0.0;
  u64 zero_copy_bytes = 0;               // wire bytes that skipped Encode/Decode
  // Sharded async parameter serving (master side): CPU time spent gathering
  // and assembling replies, and the peak number of requests concurrently in
  // flight through the sharded path.
  double param_serve_seconds = 0.0;
  int param_shard_queue_depth_max = 0;
  // Depth-k prefetch ring: the deepest any worker's ring actually got, and
  // the depth the adaptive controller chose for the pass (0 = static).
  int prefetch_ring_depth_used = 0;
  int prefetch_depth_effective = 0;
  // Per-worker reply-wait histograms, indexed by logical rank.
  std::vector<WaitHistogram> worker_reply_wait;
  // Speculative prefetch engine for ordered schedules. Depth 0 = the pass
  // ran synchronous fetches (speculation off or controller-disabled).
  // `spec_issued`/`spec_conflicts` count speculative slots (summed over
  // workers); conflict_rate = conflicts / issued for the pass. Hidden/wait
  // are maxima over workers, like the other per-worker time metrics.
  int spec_depth_effective = 0;
  u64 spec_issued = 0;
  u64 spec_conflicts = 0;
  u64 spec_repair_bytes = 0;
  double spec_conflict_rate = 0.0;
  double spec_hidden_seconds = 0.0;
  double spec_wait_seconds = 0.0;
  u64 spec_requests_served = 0;  // master-side: requests flagged speculative
  // Versioned copy-on-write store (master side): snapshots pinned for
  // serving, pages cloned by concurrent writers, and bytes those clones
  // copied.
  u64 versioned_snapshot_pins = 0;
  u64 versioned_pages_cloned = 0;
  u64 versioned_cow_bytes = 0;
  // Per-stripe heatmap, indexed by stripe. Empty when the pass had no
  // sharded serving.
  std::vector<StripeMetrics> stripes;
};

// Cumulative fault-tolerance counters for one Driver lifetime: what the fault
// injector did to the run and what the supervision/recovery machinery paid to
// absorb it.
struct RuntimeMetrics {
  // Mirrored from the fault injector (zero when no plan is installed).
  u64 faults_dropped = 0;
  u64 faults_duplicated = 0;
  u64 faults_delayed = 0;
  u64 crashes_triggered = 0;

  // Supervision.
  u64 heartbeats_sent = 0;
  u64 retransmits = 0;  // kStartPass retries by the master

  // Recovery.
  u64 workers_lost = 0;
  u64 recoveries = 0;
  u64 passes_replayed = 0;
  double recovery_seconds = 0.0;  // wall time inside Recover (incl. replay)

  // Checkpointing.
  u64 checkpoints_written = 0;
  double checkpoint_seconds = 0.0;

  // Log-structured durability (delta checkpoints; zero when EnableDurability
  // is not in use).
  u64 delta_checkpoints = 0;     // checkpoints appended as WAL delta records
  u64 log_bytes_appended = 0;    // bytes written to the log (base + WAL)
  u64 pages_deltad = 0;          // dirty pages shipped in delta form
  u64 compactions = 0;           // WAL folds into a fresh base image
  u64 worker_rejoins = 0;        // ranks re-entered after a retire
  double restore_seconds = 0.0;  // wall time materializing log states
};

}  // namespace orion

#endif  // ORION_SRC_RUNTIME_METRICS_H_
