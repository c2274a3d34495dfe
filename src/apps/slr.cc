#include "src/apps/slr.h"

#include "src/ir/analyze_body.h"

#include <cmath>

namespace orion {

namespace {

f64 Sigmoid(f64 x) { return 1.0 / (1.0 + std::exp(-x)); }

f64 LogLoss(f64 p, f32 label) {
  constexpr f64 kEps = 1e-12;
  return label > 0.5f ? -std::log(p + kEps) : -std::log(1.0 - p + kEps);
}

}  // namespace

SlrApp::SlrApp(Driver* driver, const SlrConfig& config)
    : driver_(driver),
      config_(config),
      step_(std::make_shared<std::atomic<f32>>(config.step_size)) {}

Status SlrApp::Init(const std::vector<SparseSample>& samples, i64 num_features) {
  // SLR models the parameter-server deployment the paper evaluates: the
  // weight vector is shared and too large to replicate per worker, so the
  // planner must place it on the server (bulk-prefetched reads).
  config_.loop_options.planner.replicate_threshold_floats = 0;
  num_features_ = num_features;
  num_samples_ = static_cast<i64>(samples.size());
  const int stride = 2 + 2 * config_.max_nnz;
  const int wdim = config_.adarev ? 3 : 1;  // [w] or [w, z, gsum]

  samples_ = driver_->CreateDistArray("samples", {num_samples_}, stride, Density::kSparse);
  weights_ = driver_->CreateDistArray("weights", {num_features}, wdim, Density::kDense);

  {
    CellStore& cells = driver_->MutableCells(samples_);
    for (i64 s = 0; s < num_samples_; ++s) {
      const auto& sample = samples[static_cast<size_t>(s)];
      f32* cell = cells.GetOrCreate(s);
      const int n = std::min<int>(static_cast<int>(sample.features.size()), config_.max_nnz);
      cell[0] = sample.label;
      cell[1] = static_cast<f32>(n);
      for (int f = 0; f < n; ++f) {
        cell[2 + 2 * f] = static_cast<f32>(sample.features[static_cast<size_t>(f)].first);
        cell[3 + 2 * f] = sample.features[static_cast<size_t>(f)].second;
      }
    }
  }

  if (config_.adarev) {
    // Update = [gradient, gsum_seen]; cell = [w, z, gsum].
    const f32 alpha = config_.adarev_alpha;
    driver_->RegisterBuffer(weights_, 2, [alpha](f32* cell, const f32* update, i32) {
      const f32 g = update[0];
      const f32 g_bwd = cell[2] - update[1];
      const f32 extra = g * g_bwd;
      const f32 z_new = cell[1] + g * g + 2.0f * (extra > 0.0f ? extra : 0.0f);
      cell[0] -= alpha / std::sqrt(1.0f + z_new) * g;
      cell[1] = z_new;
      cell[2] += g;
    });
  } else {
    driver_->RegisterBuffer(weights_, 1, MakeAddApplyFn());
  }

  loss_acc_ = driver_->CreateAccumulator();

  LoopSpec spec;
  spec.iter_space = samples_;
  spec.iter_extents = {num_samples_};
  spec.AddAccess(weights_, "weights", {Expr::Runtime("feature_id")}, /*is_write=*/false);
  spec.AddAccess(weights_, "weights", {Expr::Runtime("feature_id")}, /*is_write=*/true,
                 /*buffered=*/true);

  const bool adarev = config_.adarev;
  const size_t max_nnz = static_cast<size_t>(config_.max_nnz);
  const int acc = loss_acc_;
  auto step = step_;
  DistArrayId weights = weights_;
  LoopKernel kernel = [=](LoopContext& ctx, IdxSpan idx, const f32* value) {
    const f32 label = value[0];
    const int n = static_cast<int>(value[1]);
    // First sweep: margin (this is also what the synthesized prefetch pass
    // replays to record the weight subscripts). AdaRev keeps each weight's
    // gradient sum as read here, for the update's delay compensation.
    thread_local std::vector<f32> gseen;
    if (adarev && gseen.size() < max_nnz) {
      gseen.resize(max_nnz);
    }
    f64 margin = 0.0;
    for (int f = 0; f < n; ++f) {
      const i64 id[1] = {static_cast<i64>(value[2 + 2 * f])};
      const f32* w = ctx.Read(weights, id);
      if (adarev) {
        gseen[static_cast<size_t>(f)] = w[2];
      }
      margin += static_cast<f64>(w[0]) * static_cast<f64>(value[3 + 2 * f]);
    }
    const f64 p = Sigmoid(margin);
    ctx.AccumulatorAdd(acc, LogLoss(p, label));
    const f32 err = static_cast<f32>(p) - label;  // dL/dmargin
    const f32 eps = step->load(std::memory_order_relaxed);
    for (int f = 0; f < n; ++f) {
      const i64 id[1] = {static_cast<i64>(value[2 + 2 * f])};
      const f32 g = err * value[3 + 2 * f];
      if (adarev) {
        const f32 update[2] = {g, gseen[static_cast<size_t>(f)]};
        ctx.BufferUpdate(weights, id, update);
      } else {
        const f32 update = -eps * g;
        ctx.BufferUpdate(weights, id, &update);
      }
    }
  };

  StatusOr<i32> loop = Status::Internal("unset");
  if (!config_.use_body_ir) {
    loop = driver_->Compile(spec, kernel, config_.loop_options);
  } else {
    // The same loop written as a statement-level program: accesses and the
    // bulk-prefetch function are derived from this AST.
    //   n = value[1]
    //   for f in 0..n-1:
    //     id = value[2 + 2f]
    //     w  = weights[id][0]           (the prefetchable read)
    //     buffer(weights)[id] <- update
    LoopBody body;
    body.num_index_dims = 1;
    body.num_vars = 4;  // 0=n, 1=f, 2=id, 3=w
    auto two_f = SExpr::Mul(SExpr::Const(2), SExpr::Var(1));
    std::vector<StmtPtr> inner;
    inner.push_back(
        Stmt::Assign(2, SExpr::IterValueAt(SExpr::Add(SExpr::Const(2), two_f))));
    inner.push_back(
        Stmt::Assign(3, SExpr::ArrayElem(weights_, {SExpr::Var(2)}, SExpr::Const(0))));
    inner.push_back(
        Stmt::BufferUpdate(weights_, "weights", {SExpr::Var(2)}, {SExpr::Var(3)}));
    body.stmts.push_back(Stmt::Assign(0, SExpr::IterValueAt(SExpr::Const(1))));
    body.stmts.push_back(Stmt::For(1, SExpr::Var(0), std::move(inner)));
    loop = driver_->CompileBody(samples_, {num_samples_}, /*ordered=*/false, body, kernel,
                                config_.loop_options);
  }
  ORION_RETURN_IF_ERROR(loop.status());
  train_loop_ = *loop;
  return Status::Ok();
}

Status SlrApp::RunPass() {
  driver_->ResetAccumulator(loss_acc_);
  ORION_RETURN_IF_ERROR(driver_->Execute(train_loop_));
  last_logloss_ = driver_->AccumulatorValue(loss_acc_) / static_cast<f64>(num_samples_);
  step_->store(step_->load() * config_.step_decay);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Serial reference

SerialSlr::SerialSlr(const std::vector<SparseSample>& samples, i64 num_features,
                     const SlrConfig& config)
    : samples_(samples), config_(config), step_(config.step_size) {
  w_.assign(static_cast<size_t>(num_features), 0.0f);
}

f64 SerialSlr::RunPass() {
  f64 loss = 0.0;
  for (const auto& s : samples_) {
    f64 margin = 0.0;
    for (const auto& [id, v] : s.features) {
      margin += static_cast<f64>(w_[static_cast<size_t>(id)]) * static_cast<f64>(v);
    }
    const f64 p = Sigmoid(margin);
    loss += LogLoss(p, s.label);
    const f32 err = static_cast<f32>(p) - s.label;
    for (const auto& [id, v] : s.features) {
      w_[static_cast<size_t>(id)] -= step_ * err * v;
    }
  }
  step_ *= config_.step_decay;
  return loss / static_cast<f64>(samples_.size());
}

}  // namespace orion
