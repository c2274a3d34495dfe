// Driver: the user-facing entry point of the Orion runtime (paper Sec. 3).
//
// A Driver plays the role of the paper's driver program plus the Orion
// master: it owns DistArray metadata and authoritative (driver-resident)
// cell data, compiles parallel for-loops (dependence analysis + planning +
// histogram-balanced partitioning + scatter), and orchestrates pass
// execution, servicing prefetch requests and buffered-update flushes while
// executors run.
//
// Typical usage:
//
//   Driver driver({.num_workers = 8});
//   auto ratings = driver.CreateDistArray("ratings", {m, n}, 1, Density::kSparse);
//   ...fill driver.MutableCells(ratings)...
//   LoopSpec spec = ...;                     // declares accesses
//   auto loop = driver.Compile(spec, kernel, options);   // plans + scatters
//   for (int it = 0; it < kIters; ++it) driver.Execute(*loop);
#ifndef ORION_SRC_RUNTIME_DRIVER_H_
#define ORION_SRC_RUNTIME_DRIVER_H_

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <atomic>

#include "src/common/metrics_registry.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/trace.h"
#include "src/obs/anomaly.h"
#include "src/obs/metrics_endpoint.h"
#include "src/obs/monitor.h"
#include "src/dsm/delta_log.h"
#include "src/dsm/versioned_store.h"
#include "src/net/fabric.h"
#include "src/runtime/compiled_loop.h"
#include "src/runtime/executor.h"
#include "src/runtime/metrics.h"
#include "src/runtime/param_server.h"
#include "src/runtime/recipe.h"
#include "src/runtime/shared_directory.h"
#include "src/serve/serving_tier.h"

namespace orion {

struct DriverConfig {
  int num_workers = 4;
  NetCostModel net = NetCostModel::Unlimited();
  u64 seed = 1;
  // In-process fast path: DistArray payloads travel by shared pointer
  // instead of Encode/Decode. The fabric still meters the exact encoded
  // size, so modeled network costs are unchanged.
  bool zero_copy = true;
  // Faults to inject into the fabric (inactive by default). An active plan
  // forces supervision on.
  FaultPlan fault_plan{};
  // Heartbeat / retry / death-timeout parameters. Supervision can also be
  // enabled without a fault plan to harden against real failures.
  SupervisorConfig supervisor{};
  // Asynchronous parameter serving from versioned copy-on-write snapshots:
  // the service loop pins a snapshot of the master at request-dequeue time
  // (a refcount bump), a thread pool gathers each request whole from it with
  // no lock held, and replies ship through per-worker comm lanes instead of
  // blocking the master service loop. Writers clone only the pages they
  // touch. A worker's own round-r flushes are dequeued (and applied) before
  // its round-r+1 request on the same FIFO link, so the pinned snapshot
  // preserves read-own-writes freshness exactly like the inline path:
  // bit-for-bit identical to inline serving (false), which stays as the test
  // oracle and bench baseline.
  bool async_param_serving = true;
};

class Driver {
 public:
  explicit Driver(const DriverConfig& config);
  ~Driver();

  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  int num_workers() const { return config_.num_workers; }

  // ---- DistArray lifecycle ----

  DistArrayId CreateDistArray(const std::string& name, std::vector<i64> dims, i32 value_dim,
                              Density density);

  const DistArrayMeta& Meta(DistArrayId id) const;

  // Mutable access to the driver-resident cells (gathers first if the array
  // currently lives on workers).
  CellStore& MutableCells(DistArrayId id);
  const CellStore& Cells(DistArrayId id) { return MutableCells(id); }

  // Fills a dense array with N(0, scale) values (Orion.randn).
  void FillRandomNormal(DistArrayId id, f32 scale, u64 seed);

  // Applies fn to every driver-resident cell (Orion.map with map_values).
  void MapCells(DistArrayId id, const std::function<void(i64 key, f32* value)>& fn);

  // Remaps one dimension of a (sparse) array through a deterministic random
  // permutation to smooth out skew (the DistArray `randomize` operation).
  void RandomizeDim(DistArrayId id, int dim, u64 seed);

  // Materializes a lazily-recorded recipe (text_file + fused maps, paper
  // Sec. 3.1) into a new DistArray. Records whose indices fall outside
  // `dims` make materialization fail.
  StatusOr<DistArrayId> Materialize(const std::string& name, std::vector<i64> dims,
                                    i32 value_dim, Density density, const ArrayRecipe& recipe);

  // Eager groupBy (paper Sec. 3.1): reduces the cells of `src` along one of
  // its dimensions into a new dense 1-D DistArray. `reduce` folds each
  // source cell into the group's accumulator span.
  using GroupReduceFn = std::function<void(f32* acc, const IndexVec& idx, const f32* value)>;
  DistArrayId GroupByDim(DistArrayId src, int dim, const std::string& name, i32 out_value_dim,
                         const GroupReduceFn& reduce);

  // Checkpointing (paper Sec. 4.3 fault tolerance). Restore of a missing
  // file is kIoError naming the path; of an image that does not fit the
  // array, kInvalidArgument.
  Status Checkpoint(DistArrayId id, const std::string& path);
  Status Restore(DistArrayId id, const std::string& path);

  // ---- Buffers and accumulators ----

  // Registers the DistArray Buffer for `target`, which must be dense; kernels
  // may then call LoopContext::BufferUpdate on it. Must be called before
  // Compile of any loop whose kernel updates the buffer.
  void RegisterBuffer(DistArrayId target, i32 update_dim, BufferApplyFn apply);

  // Creates an accumulator with the given reduction operator (paper
  // Sec. 3.4: worker-local instances combined with a commutative,
  // associative operator).
  int CreateAccumulator(AccumOp op = AccumOp::kSum);
  f64 AccumulatorValue(int slot) const;
  void ResetAccumulator(int slot);

  // ---- Parallel for-loops ----

  // Compiles the loop: dependence analysis, plan, grid, scatter. Fails with
  // a Status carrying the planner's explanation when the loop cannot be
  // parallelized while preserving dependences.
  StatusOr<i32> Compile(LoopSpec spec, LoopKernel kernel, ParallelForOptions options = {});

  // Compiles a loop whose body is given as a statement-level program
  // (src/ir/stmt.h): the access declarations are *extracted* from the AST
  // and the bulk-prefetch function is *synthesized* by slicing it — no
  // hand-written AddAccess calls and no kernel-replay recording pass. The
  // kernel still performs the numeric work at execution time.
  StatusOr<i32> CompileBody(DistArrayId iter_space, std::vector<i64> iter_extents,
                            bool ordered, const LoopBody& body, LoopKernel kernel,
                            ParallelForOptions options = {});

  // Runs one pass over the full iteration space.
  Status Execute(i32 loop_id);

  // Runs a loop serially on the driver against the master copies — the
  // fallback when PlanLoop reports kSerial (and the gold standard for
  // testing). Iterates the driver-resident cells of the iteration space in
  // lexicographic order when `spec.ordered`, insertion order otherwise;
  // buffered updates are applied immediately with the registered UDF.
  Status ExecuteSerial(const LoopSpec& spec, const LoopKernel& kernel);

  // ---- Checkpoint/recovery (paper Sec. 4.3) over a log-structured delta
  // log ----

  struct DurabilityOptions {
    int every_n_passes = 1;   // checkpoint cadence
    int compact_every = 8;    // fold the WAL into a fresh base after this
                              // many delta records (<= 0: never)
    // After a worker is declared dead and the survivors retire to N-1, bring
    // the rank back: restart its executor if it halted, stream the base plus
    // the delta tail, and flip the cluster back to N partitions before the
    // failed pass is retried.
    bool rejoin_crashed_workers = false;
  };

  // Integrated checkpoint/recovery: checkpoints `arrays` (every mutable
  // array must be listed — arrays not listed are assumed immutable during
  // training) plus the accumulators every `every_n_passes` passes, and once
  // before the first pass, into an append-only delta log in `directory`.
  // Each checkpoint appends only the pages dirtied since the previous one
  // (CRC-framed, fsynced), periodically compacted into a full base image.
  // When a worker is lost mid-pass, Execute() transparently retires the dead
  // rank, degrades to the surviving workers, restores the latest checkpoint
  // from the log, replays the passes since, and retries the failed pass. The
  // same log powers RestoreToPass() and ResumeFromLog().
  Status EnableDurability(std::vector<DistArrayId> arrays, std::string directory,
                          DurabilityOptions options);
  Status EnableDurability(std::vector<DistArrayId> arrays, std::string directory) {
    return EnableDurability(std::move(arrays), std::move(directory), DurabilityOptions());
  }

  // Master-restart path: a fresh Driver (same config, arrays, buffers and
  // accumulators re-created by the deterministic driver program) restores
  // array cells, accumulator values and the pass counter from the log's
  // latest checkpoint. Returns the number of completed passes; training
  // resumes from there. Requires EnableDurability on the same directory.
  StatusOr<i64> ResumeFromLog();

  // Point-in-time restore: rewinds the cluster (master masters, worker state,
  // accumulators, pass counter) to the recorded checkpoint taken after
  // `pass` completed passes — bit-for-bit the live state at that point.
  Status RestoreToPass(i64 pass);

  // Checkpoints currently restorable from the log (seq + completed passes).
  StatusOr<std::vector<RestorePoint>> DurabilityPoints() const;

  // Convenience: compile (cached by site id) + execute.
  const ParallelizationPlan& PlanOf(i32 loop_id) const;

  // ---- Metrics ----

  const LoopMetrics& last_metrics() const { return last_metrics_; }
  FabricStats NetStats() const { return fabric_->Stats(); }
  void ResetNetStats() { fabric_->ResetStats(); }

  // ---- Tracing (src/common/trace.h; enable with trace::SetEnabled) ----

  // Drains every live span ring (master threads + anything workers have not
  // yet shipped via PassDone) into the merged cluster timeline and returns
  // it. Idempotent between passes; spans accumulate until the Driver dies.
  const std::vector<trace::Span>& CollectTrace();
  // CollectTrace + Chrome trace-event JSON export (Perfetto-loadable).
  Status DumpTrace(const std::string& path);
  // CollectTrace + per-pass critical-path attribution, formatted as a table.
  std::string CriticalPathReport();

  // Flattens LoopMetrics/RuntimeMetrics (under the names their metrics.h
  // lists declare) and FabricStats behind stable registry names, with the
  // per-worker reply-wait histograms merged into one pass.reply_wait.
  MetricsRegistry ExportMetrics() const;

  // ---- Live observability (src/obs; paper-external telemetry plane) ----

  // Starts the background monitor thread: every `period_seconds` it samples
  // live gauges (fabric queue depths, prefetch-ring fill, ParamServer
  // in-flight, pinned snapshots, BufferPool occupancy, per-rank pass/step
  // watermarks) into a bounded ring. Samples surface as "live.*" series in
  // ExportMetrics and on the metrics endpoint. Probes read only atomics and
  // short mutexes and feed nothing back into scheduling, so execution is
  // bit-for-bit identical with the monitor on or off. Idempotent.
  Status EnableMonitor(double period_seconds = 0.1);
  void StopMonitor();
  obs::Monitor* monitor() { return monitor_.get(); }

  // Starts a localhost HTTP endpoint serving Prometheus text exposition on
  // GET /metrics (plus GET /healthz). port == 0 binds an ephemeral port;
  // returns the bound port. Implies EnableMonitor. The endpoint renders an
  // immutable registry snapshot published at pass boundaries — a scrape
  // never touches driver state mid-pass.
  StatusOr<int> StartMetricsEndpoint(int port = 0);
  void StopMetricsEndpoint();

  // Writes the flight recorder's black box (ring of structured runtime
  // events + last monitor samples + live-rank table) as self-contained JSON.
  // Also written automatically on fatal signals / ORION_CHECK failures once
  // fr::InstallFatalHandlers() has run.
  Status DumpBlackBox(const std::string& path);

  // True when the straggler detector currently flags `physical` rank as a
  // confirmed straggler (k·MAD rule over barrier/pass lag, m consecutive
  // rounds). Detection only — scheduling never consults this.
  bool StragglerFlagged(int physical_rank) const {
    return straggler_.Flagged(physical_rank);
  }

  // ---- Online snapshot serving (src/serve) ----

  // Starts a read-only serving tier answering Lookup(array, keys) against
  // pinned copy-on-write snapshots of the listed arrays' master copies,
  // concurrently with training. One version per array is published at every
  // pass boundary (pin-per-version; staleness bounded by one pass) plus once
  // at start, and only when the master is authoritative at that boundary —
  // otherwise the previous version keeps serving. Serving never blocks the
  // training driver and never perturbs training results (bit-for-bit
  // identical with the tier on or off). Requires async_param_serving. The
  // returned pointer stays valid until the Driver dies.
  StatusOr<serve::ServingTier*> StartServingTier(std::vector<DistArrayId> arrays,
                                                 serve::ServingTierOptions options = {});
  // Drains + stops the tier and releases its pins. The tier object survives
  // (stopped) so concurrent monitor probes and late clients stay safe; a new
  // tier may be started afterwards.
  void StopServingTier();
  serve::ServingTier* serving_tier() { return serving_tier_.get(); }
  // Re-runs the authority-gated publish immediately (driver thread only).
  // For unordered-rotation workloads whose arrays stay worker-resident
  // across passes: gather them home first (Cells()), then republish so the
  // tier serves the gathered state instead of skipping those arrays.
  void RepublishServingVersions() { PublishServingVersions(); }

  // Fault-tolerance counters, with the injector's live stats folded in.
  RuntimeMetrics runtime_metrics() const;
  // The injected-fault event log (empty without a fault plan) — the
  // determinism witness for chaos tests.
  std::vector<FaultEvent> fault_events() const;
  // Physical ranks still part of the configuration.
  const std::vector<int>& live_ranks() const { return live_ranks_; }

 private:
  struct ArrayHost {
    DistArrayMeta meta;
    // The authoritative driver-resident cells. Flat (a plain CellStore)
    // between passes; paginated into the copy-on-write page store while a
    // pass serves parameters from it (async_param_serving).
    VersionedCellStore master;
    bool on_workers = false;
    // Valid when on_workers: how and under which grid it was scattered.
    ArrayPlacement placement;
    SpaceTimeGrid grid;
    bool iter_ordered = false;  // iteration-space cells shipped sorted
  };

  ArrayHost& Host(DistArrayId id);
  const ArrayHost& Host(DistArrayId id) const;

  int ActiveWorkers() const { return static_cast<int>(live_ranks_.size()); }
  WorkerId PhysicalOf(int logical) const {
    return static_cast<WorkerId>(live_ranks_[static_cast<size_t>(logical)]);
  }
  int LogicalOf(int physical) const {
    return static_cast<int>(std::find(live_ranks_.begin(), live_ranks_.end(), physical) -
                            live_ranks_.begin());
  }
  bool IsLive(WorkerId physical) const { return LogicalOf(physical) < ActiveWorkers(); }

  // Master-side service loop: one handler per MsgKind, each reading and
  // writing the pass attempt's PassState (defined in driver.cc).
  struct PassOutcome {
    bool completed = true;
    int lost_rank = -1;  // physical rank declared dead when !completed
  };
  struct PassState;
  PassOutcome ServicePassMessages(const CompiledLoop& cl, i32 pass);
  PassOutcome RunPassOnce(i32 loop_id);  // one supervised pass attempt
  // Death deadlines, kStartPass retransmits and heartbeats; returns the
  // physical rank to declare dead, or -1.
  int SuperviseTick(PassState& ps);
  void OnParamRequest(PassState& ps, Message& msg);
  void OnParamUpdate(PassState& ps, Message& msg);
  void OnPartitionData(PassState& ps, Message& msg);
  void OnBarrier(PassState& ps, Message& msg);
  void OnControl(PassState& ps, Message& msg);
  void ObserveStragglerRound(const std::vector<std::pair<int, double>>& round, i32 pass);

  // Recovery machinery.
  Status WriteRecoveryCheckpoint();
  Status Recover(int lost_physical_rank);
  Status RecompileLoops();
  MasterRecord BuildMasterRecord() const;
  std::vector<ArrayCheckpointRef> DurableArrayRefs();
  // Installs a materialized log state into the master (arrays, accumulators,
  // completed-pass count; `restore_pass_counter` additionally rewinds
  // pass_counter_ to it).
  Status InstallLogState(DeltaLogReader::State state, bool restore_pass_counter);
  // Two-phase reconfigure of the current live_ranks_ ring, with reliable
  // acks: every member adopts the ring (kRetire shrinks it after a failure,
  // kRejoin re-expands or resets it) and drops local array state for the
  // re-scatter. `also_retire` (when >= 0) is a rank outside the ring that
  // gets a best-effort phase-0 retire; returns whether it acked.
  StatusOr<bool> Reconfigure(ControlOp op, int also_retire = -1);
  // Brings `rank` back after the N-1 retire: restarts its executor thread if
  // it halted, re-inserts it into live_ranks_, and reconfigures.
  Status RejoinWorker(int rank, bool saw_phase0_ack);
  void ApplyParamUpdate(const CompiledLoop& cl, PartData pd, u32 tag);
  void BroadcastReplicaSnapshot(const CompiledLoop& cl, DistArrayId array);

  // Placement management.
  void GatherToDriver(DistArrayId id);
  void DropFromWorkers(DistArrayId id);
  void EnsureScattered(const CompiledLoop& cl);
  void ScatterIterSpace(const CompiledLoop& cl);
  void ScatterArray(const CompiledLoop& cl, DistArrayId id, const ArrayPlacement& placement);
  // Sends every present part; part p is (worker, tau) = (p / time_parts,
  // p % time_parts), or (p, -1) when time_parts is 0.
  void SendParts(DistArrayId array, std::vector<std::optional<CellStore>>* parts,
                 int time_parts, PartDataMode mode);

  static bool GridEquals(const SpaceTimeGrid& a, const SpaceTimeGrid& b);

  // Rebuilds `cl`'s plan, grid, and schedules for the current active worker
  // count (shared by Compile and post-failure recompilation).
  Status BuildLoop(CompiledLoop* cl);

  DriverConfig config_;
  std::shared_ptr<FaultInjector> injector_;  // null without a fault plan
  std::unique_ptr<Fabric> fabric_;
  SharedDirectory dir_;
  std::vector<std::unique_ptr<Executor>> executors_;
  std::vector<std::thread> threads_;
  // Declared after fabric_ so it quiesces and destroys first; null when
  // async_param_serving is off.
  std::unique_ptr<ParamServer> param_server_;

  std::map<DistArrayId, std::unique_ptr<ArrayHost>> arrays_;
  DistArrayId next_array_id_ = 0;
  i32 next_loop_id_ = 0;
  std::map<i32, std::shared_ptr<const CompiledLoop>> loops_;
  std::vector<f64> accumulators_;
  std::vector<AccumOp> accumulator_ops_;

  // Cluster membership: live_ranks_[logical] == physical rank.
  std::vector<int> live_ranks_;

  // Integrated recovery state (EnableDurability). Recovery is on exactly
  // when delta_writer_ is set: WriteRecoveryCheckpoint appends to its log
  // and Recover restores from it.
  std::vector<DistArrayId> recover_arrays_;
  bool baseline_ckpt_done_ = false;
  std::vector<std::pair<i32, i32>> pass_log_;  // (loop_id, pass) since last checkpoint
  std::unique_ptr<DeltaLogWriter> delta_writer_;
  DurabilityOptions durability_options_;

  // Physical ranks that were just sent bulk state (scatter / replica
  // snapshot / rejoin stream) and have not spoken since; their death
  // deadline is extended by supervisor.state_transfer_grace_seconds.
  std::set<int> state_transfer_pending_;

  // Merged cluster timeline: spans shipped in PassDone plus everything
  // drained locally by CollectTrace. Only grows while tracing is enabled.
  std::vector<trace::Span> cluster_trace_;

  LoopMetrics last_metrics_;
  RuntimeMetrics runtime_metrics_;
  std::map<DistArrayId, u32> last_replica_bcast_tag_;
  int pass_counter_ = 0;  // pass numbers issued, aborted attempts included
  // Passes completed on the current history: what checkpoints record as
  // next_pass, so RestoreToPass and ResumeFromLog count passes the way the
  // driver program does even after a crash burned a pass number.
  int completed_passes_ = 0;

  // Speculation controller (per loop, ordered schedules): how many steps
  // ahead executors may fetch against a possibly-stale snapshot. Deepens
  // while conflicts are rare and blocked waits remain, shrinks as the
  // conflict rate climbs, and disables speculation for the rest of the loop
  // (sticky: re-enabling would re-pay the repair cost that proved it
  // unprofitable) when repair cost exceeds the wait it hides.
  // pass_spec_depth_ is the depth shipped for the pass in flight (0 =
  // synchronous), reused verbatim by supervision retransmits.
  struct SpecState {
    bool enabled = true;
    int depth = 1;
  };
  std::map<i32, SpecState> spec_state_;
  int pass_spec_depth_ = 0;

  // Highest barrier-piggybacked span-batch id appended per physical rank:
  // supervision resends carry the same batch, which must merge exactly once.
  std::map<int, u32> worker_span_seq_;

  // Per-pass metric series (flattened into ExportMetrics' "series" section).
  std::map<std::string, std::vector<double>> metrics_series_;

  // ---- Serving tier (StartServingTier) ----

  // Publishes one pinned version per served array; called at pass
  // boundaries (and once at start) on the driver thread.
  void PublishServingVersions();
  // Drain + unpin handshakes before any Flat() collapse or wholesale
  // replacement of a possibly-served master.
  void QuiesceServingFor(DistArrayId id);
  void QuiesceServingAll();

  std::vector<DistArrayId> serve_arrays_;
  std::unique_ptr<serve::ServingTier> serving_tier_;
  // Stopped tiers retire here (not freed) so monitor probes and straggling
  // clients holding the pointer never race a destruction.
  std::vector<std::unique_ptr<serve::ServingTier>> retired_tiers_;
  // What monitor probes read: set after construction, cleared before Stop.
  std::atomic<serve::ServingTier*> serving_tier_live_{nullptr};
  u64 serve_publish_round_ = 0;
  // Interval-QPS bookkeeping between publishes, plus the per-array
  // dirty-page gauges from the last publish (ExportMetrics reads these).
  u64 serve_last_keys_ = 0;
  std::chrono::steady_clock::time_point serve_qps_mark_{};
  double serve_last_qps_ = 0.0;
  std::map<std::string, double> serve_dirty_pages_;

  // ---- Observability plane ----

  // Per-physical-rank live watermarks, written by the service loop as
  // evidence arrives (PassDone, heartbeat pongs, barrier arrivals) and read
  // lock-free by monitor probes.
  struct RankLive {
    std::atomic<i64> started{-1};    // highest pass known started
    std::atomic<i64> completed{-1};  // highest pass known completed
    std::atomic<i64> step{-1};       // highest barrier step arrived at
  };
  std::vector<std::unique_ptr<RankLive>> rank_live_;  // by physical rank

  // Stable-address prefetch-ring occupancy gauges, one per physical rank.
  // Executors (including rejoin replacements) publish into these; monitor
  // probes read them without ever touching an Executor object that a rejoin
  // might be replacing.
  std::vector<std::unique_ptr<std::atomic<int>>> ring_fill_gauges_;

  // Straggler detector: fed on the driver thread only (barrier releases and
  // pass completion), never consulted by scheduling.
  obs::StragglerDetector straggler_;

  void RegisterMonitorProbes();
  // Publishes an immutable ExportMetrics() snapshot to the monitor (and
  // therefore the endpoint). Called at pass boundaries on the driver thread.
  void PublishObsSnapshot();

  // Declared last: the monitor thread and endpoint hold probe closures over
  // fabric_/param_server_/executors_, so they must stop (destroy) first.
  std::unique_ptr<obs::Monitor> monitor_;
  std::unique_ptr<obs::MetricsEndpoint> endpoint_;
};

}  // namespace orion

#endif  // ORION_SRC_RUNTIME_DRIVER_H_
