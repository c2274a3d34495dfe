// Sparse Logistic Regression with SGD (paper Table 2: "1D (data
// parallelism)", Sec. 6.3 bulk prefetching).
//
// Each sample reads and updates the weights of its nonzero features —
// data-dependent subscripts that static analysis cannot capture, so reads
// go to server-hosted weights via synthesized bulk prefetching and writes
// go through a DistArray Buffer (pure data parallelism). The loop is
// compiled from its statement body, whose compiled prefetch slice records
// the weight subscripts. With AdaRev, the buffer's apply UDF performs the
// delay-compensated adaptive step.
//
// Sample encoding (value span of the 1-D samples array):
//   [label, n, id_0, val_0, id_1, val_1, ...]  padded to 2 + 2*max_nnz.
#ifndef ORION_SRC_APPS_SLR_H_
#define ORION_SRC_APPS_SLR_H_

#include <atomic>
#include <memory>
#include <vector>

#include "src/apps/datagen.h"
#include "src/ir/stmt.h"
#include "src/runtime/driver.h"

namespace orion {

struct SlrConfig {
  f32 step_size = 0.05f;
  f32 step_decay = 0.98f;
  bool adarev = false;
  f32 adarev_alpha = 0.1f;
  int max_nnz = 64;
  ParallelForOptions loop_options;  // prefetch mode lives here

  SlrConfig() {
    // Bound buffered-write delay: data-parallel SGD with once-per-pass
    // synchronization diverges at reasonable step sizes (the effective
    // batch is the whole dataset), so SLR syncs several times per pass.
    loop_options.server_sync_rounds = 8;
  }
};

// SLR's training loop as a statement-level program over the weights array
// `weights`; SlrApp derives the loop's accesses and its compiled
// bulk-prefetch slice from it.
//   n = value[1]
//   for f in 0..n-1:
//     id = value[2 + 2f]
//     w  = weights[id][0]           (the prefetchable read)
//     buffer(weights)[id] <- w
LoopBody SlrLoopBody(DistArrayId weights);

class SlrApp {
 public:
  SlrApp(Driver* driver, const SlrConfig& config);

  Status Init(const std::vector<SparseSample>& samples, i64 num_features);

  // One SGD pass; also accumulates the training log-loss of the pass.
  Status RunPass();

  // Log-loss accumulated during the last RunPass (pre-update predictions).
  f64 LastPassLogLoss() const { return last_logloss_; }

  const ParallelizationPlan& train_plan() const { return driver_->PlanOf(train_loop_); }
  DistArrayId weights() const { return weights_; }
  const LoopMetrics& last_metrics() const { return driver_->last_metrics(); }

 private:
  Driver* driver_;
  SlrConfig config_;
  i64 num_features_ = 0;
  i64 num_samples_ = 0;

  DistArrayId samples_ = kInvalidDistArrayId;
  DistArrayId weights_ = kInvalidDistArrayId;
  i32 train_loop_ = -1;
  int loss_acc_ = -1;
  f64 last_logloss_ = 0.0;
  std::shared_ptr<std::atomic<f32>> step_;
};

// Serial SGD reference.
class SerialSlr {
 public:
  SerialSlr(const std::vector<SparseSample>& samples, i64 num_features,
            const SlrConfig& config);

  // Returns the pass's mean log-loss (pre-update predictions).
  f64 RunPass();

 private:
  std::vector<SparseSample> samples_;
  SlrConfig config_;
  f32 step_;
  std::vector<f32> w_;
};

}  // namespace orion

#endif  // ORION_SRC_APPS_SLR_H_
