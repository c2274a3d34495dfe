// SharedDirectory: read-mostly metadata shared between the master and the
// executor threads.
//
// Only *metadata* crosses this boundary — array shapes, buffer definitions
// (apply UDFs), compiled loops (kernels + plans). All *data* (cells) moves
// through the fabric as serialized bytes, preserving the share-nothing
// worker model. The directory is written by the master before it signals
// workers, and read under a mutex by executors.
#ifndef ORION_SRC_RUNTIME_SHARED_DIRECTORY_H_
#define ORION_SRC_RUNTIME_SHARED_DIRECTORY_H_

#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "src/dsm/dist_array_buffer.h"
#include "src/dsm/dist_array_meta.h"
#include "src/runtime/compiled_loop.h"

namespace orion {

// Reduction operator of an accumulator (paper Sec. 3.4: a user-chosen
// commutative and associative operator aggregates worker-local instances).
enum class AccumOp : u8 { kSum, kMin, kMax };

inline f64 AccumIdentity(AccumOp op) {
  switch (op) {
    case AccumOp::kSum:
      return 0.0;
    case AccumOp::kMin:
      return std::numeric_limits<f64>::infinity();
    case AccumOp::kMax:
      return -std::numeric_limits<f64>::infinity();
  }
  return 0.0;
}

inline f64 AccumCombine(AccumOp op, f64 a, f64 b) {
  switch (op) {
    case AccumOp::kSum:
      return a + b;
    case AccumOp::kMin:
      return a < b ? a : b;
    case AccumOp::kMax:
      return a > b ? a : b;
  }
  return a + b;
}

// Growth of the retransmit backoff after each unanswered send: the master's
// kStartPass retries and the executors' barrier-arrival resends.
inline constexpr double kRetryBackoffFactor = 2.0;

// Supervision parameters, shared master -> executors before the worker
// threads start. Timeouts are wall-clock; pick generous values under
// sanitizers. death_timeout must exceed the longest uninterrupted compute
// block a worker performs, since workers only answer pings between blocks.
struct SupervisorConfig {
  bool enabled = false;
  double heartbeat_interval_seconds = 0.05;  // master ping cadence per worker
  double death_timeout_seconds = 2.0;        // silence before a worker is declared dead
  double retry_initial_seconds = 0.05;       // first retransmit backoff
  // Extra silence tolerated for a worker that was just sent bulk state
  // (scatter parts, replica snapshots, rejoin streams) and has not spoken
  // since: installing a large transfer can exceed death_timeout_seconds, and
  // declaring the rank dead mid-install would turn every big restore into a
  // false-positive retirement.
  double state_transfer_grace_seconds = 10.0;
};

// A DistArray Buffer definition: how updates routed through the buffer for
// `target` are applied (pending updates to one cell coalesce by addition).
struct BufferDef {
  DistArrayId target = kInvalidDistArrayId;
  i32 update_dim = 1;
  BufferApplyFn apply;
};

class SharedDirectory {
 public:
  void PutMeta(const DistArrayMeta& meta) {
    std::lock_guard<std::mutex> lock(mutex_);
    metas_[meta.id] = meta;
  }

  DistArrayMeta GetMeta(DistArrayId id) const {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = metas_.find(id);
    ORION_CHECK(it != metas_.end()) << "unknown DistArray" << id;
    return it->second;
  }

  void PutBufferDef(std::shared_ptr<const BufferDef> def) {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_[def->target] = std::move(def);
  }

  std::shared_ptr<const BufferDef> GetBufferDef(DistArrayId target) const {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = buffers_.find(target);
    return it == buffers_.end() ? nullptr : it->second;
  }

  void PutLoop(std::shared_ptr<const CompiledLoop> loop) {
    std::lock_guard<std::mutex> lock(mutex_);
    loops_[loop->loop_id] = std::move(loop);
  }

  std::shared_ptr<const CompiledLoop> GetLoop(i32 loop_id) const {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = loops_.find(loop_id);
    ORION_CHECK(it != loops_.end()) << "unknown loop" << loop_id;
    return it->second;
  }

  void SetSupervisor(const SupervisorConfig& sup) {
    std::lock_guard<std::mutex> lock(mutex_);
    supervisor_ = sup;
  }
  SupervisorConfig supervisor() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return supervisor_;
  }

  void SetAccumulatorOps(std::vector<AccumOp> ops) {
    std::lock_guard<std::mutex> lock(mutex_);
    accum_ops_ = std::move(ops);
  }
  std::vector<AccumOp> accumulator_ops() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return accum_ops_;
  }
  int num_accumulators() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<int>(accum_ops_.size());
  }

 private:
  mutable std::mutex mutex_;
  std::map<DistArrayId, DistArrayMeta> metas_;
  std::map<DistArrayId, std::shared_ptr<const BufferDef>> buffers_;
  std::map<i32, std::shared_ptr<const CompiledLoop>> loops_;
  std::vector<AccumOp> accum_ops_;
  SupervisorConfig supervisor_;
};

}  // namespace orion

#endif  // ORION_SRC_RUNTIME_SHARED_DIRECTORY_H_
