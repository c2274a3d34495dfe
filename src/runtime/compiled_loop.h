// CompiledLoop: everything the runtime derives from one @parallel_for site.
//
// Compilation happens once per loop (paper Sec. 4.1: macro expansion and JIT
// compilation execute once even when the loop runs many times): the
// dependence analysis, the parallelization plan, the iteration-space grid
// (histogram-balanced splits), and the concrete schedule. Executors hold a
// shared read-only pointer to this structure.
#ifndef ORION_SRC_RUNTIME_COMPILED_LOOP_H_
#define ORION_SRC_RUNTIME_COMPILED_LOOP_H_

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "src/analysis/plan.h"
#include "src/dsm/dist_array_buffer.h"
#include "src/dsm/partition.h"
#include "src/ir/loop_context.h"
#include "src/ir/analyze_body.h"
#include "src/ir/loop_spec.h"
#include "src/sched/schedule.h"

namespace orion {

// How server-hosted reads are fetched (paper Sec. 4.4 and the SLR
// prefetching experiment in Sec. 6.3).
enum class PrefetchMode {
  kPerKey,   // one request per key: models naive remote random access
  kBulk,     // synthesized recording pass per execution, batched request
  kCached,   // recording pass once; key list reused across passes
};

struct ParallelForOptions {
  bool ordered = false;
  PlannerOptions planner;
  int pipeline_depth = 2;  // time partitions per worker (unordered 2D)
  PrefetchMode prefetch = PrefetchMode::kBulk;
  // 1D loops only: bound how long buffered writes to server-hosted arrays
  // may be delayed (paper Sec. 3.3) by splitting each pass into this many
  // sync rounds — each round prefetches fresh values, computes a slice of
  // the local iterations, and flushes its buffered updates.
  int server_sync_rounds = 1;
  // Ablation knob: use equal-width iteration-space splits instead of the
  // histogram-balanced ones (paper Sec. 4.3 skew handling).
  bool equal_width_partitions = false;
  // Bound (in loop iterations) on how long buffered writes to *locally
  // owned* arrays (range/rotated placements) may stay buffered within one
  // block (paper Sec. 3.3: "the application program may optionally bound
  // how long the writes can be buffered"). 0 = apply once per step.
  i64 buffer_flush_every = 0;
  // Comm/compute overlap engine: ship step flushes and rotated partitions
  // through the per-worker comm thread, and (rotation schedules) issue the
  // next step's prefetch before computing the current step. Bit-for-bit
  // identical to synchronous execution; off = fully serialized steps.
  bool overlap = true;
  // Depth of the prefetch ring for pipelined rotation+server loops: how many
  // steps ahead ParamRequests may be issued. 1 = the classic double buffer
  // (issue t+1 during t). Any depth is legal because 2D kServer buffered
  // applies are deferred to pass end, making server state pass-constant.
  // For ordered loops it caps the speculation controller's depth instead.
  int prefetch_depth = 2;
  // Speculative parameter prefetch for ordered (wavefront/lockstep)
  // schedules: while step t computes, fetch step t+1's server-hosted reads
  // from a snapshot of the master, then validate the payload at the step
  // barrier against the dirty-range summary of the kOverwrite writes steps
  // actually flushed, re-fetching only conflicting keys. Bit-for-bit
  // identical to the synchronous fetch; the driver's speculation controller
  // disables it per loop when the measured conflict rate makes repair cost
  // exceed the hidden wait. Only engages when step t+1's key lists are
  // computable early (synthesized prefetch program, or a warm kCached
  // cache), so kBulk kernel-replay loops are unaffected.
  bool speculate = true;
};

struct CompiledLoop {
  i32 loop_id = 0;
  LoopSpec spec;
  LoopKernel kernel;
  ParallelForOptions options;

  // When the loop was compiled from a statement-level LoopBody, the
  // synthesized prefetch function (paper Sec. 4.4), compiled and bound to
  // its targets' key spaces: executors run it instead of replaying the
  // kernel in recording mode (see RecordsWithSlice).
  std::shared_ptr<const PrefetchProgram> prefetch_program;

  ParallelizationPlan plan;
  // The plan's kServer arrays in ascending id order; set with `plan`.
  std::vector<DistArrayId> server_arrays;

  // Iteration-space partitioning. For 1D only `space_splits` is meaningful.
  SpaceTimeGrid grid;

  // Concrete schedule (which one is valid depends on plan.form/ordered).
  OneDSchedule sched_1d;
  WavefrontSchedule sched_wave;
  RotationSchedule sched_rot;

  int num_workers = 1;

  bool Is2D() const {
    return plan.form == ParallelForm::k2D || plan.form == ParallelForm::k2DUnimodular;
  }
  // Transformed loops run in lockstep: every worker executes the *same*
  // transformed-outer value each step (dependences are carried by that
  // dimension with arbitrary distances, so staggering workers would let
  // dependent blocks run concurrently).
  bool UsesLockstep() const { return plan.form == ParallelForm::k2DUnimodular; }
  bool UsesWavefront() const {
    return Is2D() && plan.ordered && !UsesLockstep();
  }
  bool UsesRotation() const { return Is2D() && !UsesWavefront() && !UsesLockstep(); }
  bool NeedsStepBarrier() const { return UsesWavefront() || UsesLockstep(); }

  // True when the compiled prefetch slice, not kernel replay, records the
  // block's server-hosted reads: the loop has a body with prefetchable
  // reads, and reads no server-hosted array through a subscript the slice
  // had to drop (one computed from DistArray values), whose keys only
  // replay can find.
  bool RecordsWithSlice() const {
    if (prefetch_program == nullptr || !prefetch_program->HasTargets()) {
      return false;
    }
    const std::vector<DistArrayId>& dropped = prefetch_program->unprefetchable();
    return std::none_of(server_arrays.begin(), server_arrays.end(), [&](DistArrayId a) {
      return std::binary_search(dropped.begin(), dropped.end(), a);
    });
  }

  // Steps of one pass. A 1D loop's steps are its sync rounds.
  int NumSteps() const {
    if (!Is2D()) {
      return std::max(1, options.server_sync_rounds);
    }
    if (UsesLockstep()) {
      return sched_wave.num_time_parts;
    }
    return UsesWavefront() ? sched_wave.num_steps() : sched_rot.num_steps();
  }

  // Time partition worker executes at a step (-1 = idle this step).
  int TimePartAt(int worker, int step) const {
    if (!Is2D()) {
      return -1;
    }
    if (UsesLockstep()) {
      return step;
    }
    return UsesWavefront() ? sched_wave.TimePartAt(worker, step)
                           : sched_rot.TimePartAt(worker, step);
  }

  // (space, time) schedule coordinates of an iteration index: the plan's
  // space and time dimensions, after its unimodular transform for
  // transformed loops (only 2D index spaces are transformed). Time is 0 for
  // 1D loops.
  std::pair<i64, i64> ScheduleCoordsOf(IdxSpan idx) const {
    if (plan.form == ParallelForm::k2DUnimodular) {
      const auto [q0, q1] = plan.transform.Apply(idx[0], idx[1]);
      return {plan.space_dim == 0 ? q0 : q1, plan.time_dim == 0 ? q0 : q1};
    }
    return {idx[static_cast<size_t>(plan.space_dim)],
            plan.time_dim >= 0 ? idx[static_cast<size_t>(plan.time_dim)] : 0};
  }

  const ArrayPlacement& PlacementOf(DistArrayId array) const {
    auto it = plan.placements.find(array);
    ORION_CHECK(it != plan.placements.end()) << "no placement for array" << array;
    return it->second;
  }
};

}  // namespace orion

#endif  // ORION_SRC_RUNTIME_COMPILED_LOOP_H_
