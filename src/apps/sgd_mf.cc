#include "src/apps/sgd_mf.h"

#include <cmath>

namespace orion {

namespace {

// Initializes factor cells with small uniform-positive values (common MF
// initialization so first predictions are near the rating mean).
void InitFactors(Driver* driver, DistArrayId id, int rank, int stride, u64 seed) {
  Rng rng(seed);
  driver->MapCells(id, [&](i64 key, f32* value) {
    for (int k = 0; k < rank; ++k) {
      value[k] = 0.5f * static_cast<f32>(rng.NextDouble());
    }
    for (int k = rank; k < stride; ++k) {
      value[k] = 0.0f;  // optimizer state starts at zero
    }
  });
}

}  // namespace

BufferApplyFn MakeAdaRevApplyFn(f32 alpha) {
  return [alpha](f32* cell, const f32* update, i32 value_dim) {
    const i32 r = value_dim / 3;
    f32* w = cell;
    f32* z = cell + r;
    f32* gsum = cell + 2 * r;
    const f32* g = update;
    const f32* gsum_seen = update + r;
    for (i32 k = 0; k < r; ++k) {
      // Gradients applied since this worker read the cell ("missed"
      // updates); colliding same-direction updates inflate z so the
      // effective step shrinks — the adaptive revision.
      const f32 g_bwd = gsum[k] - gsum_seen[k];
      const f32 extra = g[k] * g_bwd;
      const f32 z_new = z[k] + g[k] * g[k] + 2.0f * (extra > 0.0f ? extra : 0.0f);
      const f32 eta = alpha / std::sqrt(1.0f + z_new);
      w[k] -= eta * g[k];
      z[k] = z_new;
      gsum[k] += g[k];
    }
  };
}

SgdMfApp::SgdMfApp(Driver* driver, const SgdMfConfig& config)
    : driver_(driver),
      config_(config),
      step_(std::make_shared<std::atomic<f32>>(config.step_size)) {}

Status SgdMfApp::Init(const std::vector<RatingEntry>& entries, i64 rows, i64 cols) {
  rows_ = rows;
  cols_ = cols;
  const int r = config_.rank;
  const int stride = config_.adarev ? 3 * r : r;

  ratings_ = driver_->CreateDistArray("ratings", {rows, cols}, 1, Density::kSparse);
  w_ = driver_->CreateDistArray("W", {rows}, stride, Density::kDense);
  h_ = driver_->CreateDistArray("H", {cols}, stride, Density::kDense);

  {
    CellStore& cells = driver_->MutableCells(ratings_);
    cells.Reserve(static_cast<i64>(entries.size()));
    for (const auto& e : entries) {
      *cells.GetOrCreate(e.row * cols + e.col) = e.value;
    }
  }
  InitFactors(driver_, w_, r, stride, 101);
  InitFactors(driver_, h_, r, stride, 202);

  loss_acc_ = driver_->CreateAccumulator();

  // ---- Training loop ----
  LoopSpec train;
  train.iter_space = ratings_;
  train.iter_extents = {rows, cols};
  train.ordered = config_.loop_options.ordered;
  const bool adarev = config_.adarev;
  train.AddAccess(w_, "W", {Expr::LoopIndex(0)}, /*is_write=*/false);
  train.AddAccess(h_, "H", {Expr::LoopIndex(1)}, /*is_write=*/false);
  train.AddAccess(w_, "W", {Expr::LoopIndex(0)}, /*is_write=*/true, /*buffered=*/adarev);
  train.AddAccess(h_, "H", {Expr::LoopIndex(1)}, /*is_write=*/true, /*buffered=*/adarev);

  LoopKernel kernel;
  if (!adarev) {
    kernel = [this, r](LoopContext& ctx, IdxSpan idx, const f32* value) {
      const i64 key_i[1] = {idx[0]};
      const i64 key_j[1] = {idx[1]};
      f32* w = ctx.Mutate(w_, key_i);
      f32* h = ctx.Mutate(h_, key_j);
      f32 pred = 0.0f;
      for (int k = 0; k < r; ++k) {
        pred += w[k] * h[k];
      }
      const f32 diff = value[0] - pred;
      const f32 eps = step_->load(std::memory_order_relaxed);
      for (int k = 0; k < r; ++k) {
        const f32 wk = w[k];
        const f32 hk = h[k];
        w[k] = wk + eps * 2.0f * diff * hk;
        h[k] = hk + eps * 2.0f * diff * wk;
      }
    };
  } else {
    // Bound the buffering delay so adaptive-revision updates become visible
    // within a block (once per whole block behaves like a huge mini-batch).
    if (config_.loop_options.buffer_flush_every == 0) {
      config_.loop_options.buffer_flush_every = 32;
    }
    driver_->RegisterBuffer(w_, 2 * r, MakeAdaRevApplyFn(config_.adarev_alpha));
    driver_->RegisterBuffer(h_, 2 * r, MakeAdaRevApplyFn(config_.adarev_alpha));
    kernel = [this, r](LoopContext& ctx, IdxSpan idx, const f32* value) {
      const i64 key_i[1] = {idx[0]};
      const i64 key_j[1] = {idx[1]};
      const f32* wc = ctx.Read(w_, key_i);  // [w, z, gsum]
      const f32* hc = ctx.Read(h_, key_j);
      f32 pred = 0.0f;
      for (int k = 0; k < r; ++k) {
        pred += wc[k] * hc[k];
      }
      const f32 diff = value[0] - pred;
      // Update = [gradient, gsum at read time].
      thread_local std::vector<f32> uw;
      thread_local std::vector<f32> uh;
      uw.resize(static_cast<size_t>(2 * r));
      uh.resize(static_cast<size_t>(2 * r));
      for (int k = 0; k < r; ++k) {
        uw[static_cast<size_t>(k)] = -2.0f * diff * hc[k];
        uh[static_cast<size_t>(k)] = -2.0f * diff * wc[k];
        uw[static_cast<size_t>(r + k)] = wc[2 * r + k];
        uh[static_cast<size_t>(r + k)] = hc[2 * r + k];
      }
      ctx.BufferUpdate(w_, key_i, uw.data());
      ctx.BufferUpdate(h_, key_j, uh.data());
    };
  }

  auto train_loop = driver_->Compile(train, kernel, config_.loop_options);
  ORION_RETURN_IF_ERROR(train_loop.status());
  train_loop_ = *train_loop;

  // ---- Eval loop (reads only) ----
  LoopSpec eval;
  eval.iter_space = ratings_;
  eval.iter_extents = {rows, cols};
  // Share the training loop's schedule shape (and thus its data layout).
  eval.ordered = config_.loop_options.ordered;
  eval.AddAccess(w_, "W", {Expr::LoopIndex(0)}, /*is_write=*/false);
  eval.AddAccess(h_, "H", {Expr::LoopIndex(1)}, /*is_write=*/false);

  LoopKernel eval_kernel = [this, r](LoopContext& ctx, IdxSpan idx, const f32* value) {
    const i64 key_i[1] = {idx[0]};
    const i64 key_j[1] = {idx[1]};
    const f32* w = ctx.Read(w_, key_i);
    const f32* h = ctx.Read(h_, key_j);
    f32 pred = 0.0f;
    for (int k = 0; k < r; ++k) {
      pred += w[k] * h[k];
    }
    const f64 diff = static_cast<f64>(value[0]) - static_cast<f64>(pred);
    ctx.AccumulatorAdd(loss_acc_, diff * diff);
  };

  // Match the training loop's layout so no repartitioning happens between
  // training and evaluation passes.
  ParallelForOptions eval_options = config_.loop_options;
  const auto& tp = driver_->PlanOf(train_loop_);
  eval_options.planner.force_space_dim = tp.space_dim;
  eval_options.planner.force_time_dim = tp.time_dim;
  eval_options.planner.prefer_2d = tp.form != ParallelForm::k1D;
  auto eval_loop = driver_->Compile(eval, eval_kernel, eval_options);
  ORION_RETURN_IF_ERROR(eval_loop.status());
  eval_loop_ = *eval_loop;
  return Status::Ok();
}

Status SgdMfApp::RunPass() {
  ORION_RETURN_IF_ERROR(driver_->Execute(train_loop_));
  step_->store(step_->load() * config_.step_decay);
  return Status::Ok();
}

StatusOr<f64> SgdMfApp::EvalLoss() {
  driver_->ResetAccumulator(loss_acc_);
  ORION_RETURN_IF_ERROR(driver_->Execute(eval_loop_));
  return driver_->AccumulatorValue(loss_acc_);
}

// ---------------------------------------------------------------------------
// Serial reference

SerialSgdMf::SerialSgdMf(const std::vector<RatingEntry>& entries, i64 rows, i64 cols,
                         const SgdMfConfig& config)
    : entries_(entries), config_(config), rows_(rows), cols_(cols), step_(config.step_size) {
  const int r = config.rank;
  w_.resize(static_cast<size_t>(rows * r));
  h_.resize(static_cast<size_t>(cols * r));
  Rng wrng(101);
  for (i64 i = 0; i < rows; ++i) {
    for (int k = 0; k < r; ++k) {
      w_[static_cast<size_t>(i * r + k)] = 0.5f * static_cast<f32>(wrng.NextDouble());
    }
  }
  Rng hrng(202);
  for (i64 j = 0; j < cols; ++j) {
    for (int k = 0; k < r; ++k) {
      h_[static_cast<size_t>(j * r + k)] = 0.5f * static_cast<f32>(hrng.NextDouble());
    }
  }
}

void SerialSgdMf::RunPass() {
  const int r = config_.rank;
  for (const auto& e : entries_) {
    f32* w = &w_[static_cast<size_t>(e.row * r)];
    f32* h = &h_[static_cast<size_t>(e.col * r)];
    f32 pred = 0.0f;
    for (int k = 0; k < r; ++k) {
      pred += w[k] * h[k];
    }
    const f32 diff = e.value - pred;
    for (int k = 0; k < r; ++k) {
      const f32 wk = w[k];
      const f32 hk = h[k];
      w[k] = wk + step_ * 2.0f * diff * hk;
      h[k] = hk + step_ * 2.0f * diff * wk;
    }
  }
  step_ *= config_.step_decay;
}

f64 SerialSgdMf::EvalLoss() const {
  const int r = config_.rank;
  f64 loss = 0.0;
  for (const auto& e : entries_) {
    const f32* w = &w_[static_cast<size_t>(e.row * r)];
    const f32* h = &h_[static_cast<size_t>(e.col * r)];
    f32 pred = 0.0f;
    for (int k = 0; k < r; ++k) {
      pred += w[k] * h[k];
    }
    const f64 diff = static_cast<f64>(e.value) - static_cast<f64>(pred);
    loss += diff * diff;
  }
  return loss;
}

}  // namespace orion
