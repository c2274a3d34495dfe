#include "src/apps/gbt.h"

#include <algorithm>
#include <cmath>

namespace orion {

GbtApp::GbtApp(Driver* driver, const GbtConfig& config) : driver_(driver), config_(config) {
  max_active_nodes_ = 1 << config.max_depth;
}

Status GbtApp::Init(const std::vector<RegressionSample>& samples) {
  ORION_CHECK(!samples.empty());
  data_ = samples;
  num_samples_ = static_cast<i64>(samples.size());
  num_features_ = static_cast<int>(samples[0].features.size());

  // Quantize each feature into equal-frequency bins (driver-side, once).
  bins_.assign(static_cast<size_t>(num_features_), {});
  bin_edges_.assign(static_cast<size_t>(num_features_), {});
  for (int f = 0; f < num_features_; ++f) {
    std::vector<f32> values(static_cast<size_t>(num_samples_));
    for (i64 s = 0; s < num_samples_; ++s) {
      values[static_cast<size_t>(s)] = data_[static_cast<size_t>(s)].features[static_cast<size_t>(f)];
    }
    std::vector<f32> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    auto& edges = bin_edges_[static_cast<size_t>(f)];
    edges.resize(static_cast<size_t>(config_.num_bins));
    for (int b = 0; b < config_.num_bins; ++b) {
      const size_t q = std::min<size_t>(sorted.size() - 1,
                                        sorted.size() * static_cast<size_t>(b + 1) /
                                            static_cast<size_t>(config_.num_bins));
      edges[static_cast<size_t>(b)] = sorted[q];
    }
    auto& col = bins_[static_cast<size_t>(f)];
    col.resize(static_cast<size_t>(num_samples_));
    for (i64 s = 0; s < num_samples_; ++s) {
      const f32 v = values[static_cast<size_t>(s)];
      const auto it = std::lower_bound(edges.begin(), edges.end(), v);
      col[static_cast<size_t>(s)] =
          static_cast<u8>(std::min<size_t>(static_cast<size_t>(it - edges.begin()),
                                           edges.size() - 1));
    }
  }

  predictions_.assign(static_cast<size_t>(num_samples_), 0.0f);
  gradients_.assign(static_cast<size_t>(num_samples_), 0.0f);
  node_of_sample_.assign(static_cast<size_t>(num_samples_), 0);

  // DistArrays.
  features_ = driver_->CreateDistArray("features", {num_features_}, 1, Density::kSparse);
  columns_ = driver_->CreateDistArray("columns", {num_features_, num_samples_}, 1,
                                      Density::kDense);
  node_sample_ = driver_->CreateDistArray("node_sample", {num_samples_}, 2, Density::kDense);
  best_splits_ = driver_->CreateDistArray("best_splits", {num_features_},
                                          4 * max_active_nodes_, Density::kDense);
  {
    CellStore& fcells = driver_->MutableCells(features_);
    fcells.Reserve(num_features_);
    for (int f = 0; f < num_features_; ++f) {
      *fcells.GetOrCreate(f) = static_cast<f32>(f);
    }
    CellStore& cols = driver_->MutableCells(columns_);
    for (int f = 0; f < num_features_; ++f) {
      for (i64 s = 0; s < num_samples_; ++s) {
        *cols.GetOrCreate(static_cast<i64>(f) * num_samples_ + s) =
            static_cast<f32>(bins_[static_cast<size_t>(f)][static_cast<size_t>(s)]);
      }
    }
  }

  LoopSpec spec;
  spec.iter_space = features_;
  spec.iter_extents = {num_features_};
  spec.AddAccess(columns_, "columns", {Expr::LoopIndex(0), Expr::Runtime("sample")},
                 /*is_write=*/false);
  spec.AddAccess(node_sample_, "node_sample", {Expr::Runtime("sample")}, /*is_write=*/false);
  spec.AddAccess(best_splits_, "best_splits", {Expr::LoopIndex(0)}, /*is_write=*/true);

  const i64 n = num_samples_;
  const int bins = config_.num_bins;
  const int max_nodes = max_active_nodes_;
  DistArrayId columns = columns_;
  DistArrayId node_sample = node_sample_;
  DistArrayId best_splits = best_splits_;

  LoopKernel kernel = [=](LoopContext& ctx, IdxSpan idx, const f32* value) {
    const i64 f = idx[0];
    // Per-(node, bin) gradient histogram.
    thread_local std::vector<f64> grad_sum;
    thread_local std::vector<f64> cnt;
    grad_sum.assign(static_cast<size_t>(max_nodes * bins), 0.0);
    cnt.assign(static_cast<size_t>(max_nodes * bins), 0.0);

    for (i64 s = 0; s < n; ++s) {
      const i64 key_s[1] = {s};
      const f32* ns = ctx.Read(node_sample, key_s);
      const int slot = static_cast<int>(ns[0]);
      if (slot < 0) {
        continue;  // sample sits in a finished leaf
      }
      const i64 key_fs[2] = {f, s};
      const int bin = static_cast<int>(ctx.Read(columns, key_fs)[0]);
      grad_sum[static_cast<size_t>(slot * bins + bin)] += static_cast<f64>(ns[1]);
      cnt[static_cast<size_t>(slot * bins + bin)] += 1.0;
    }

    const i64 key_f[1] = {f};
    f32* out = ctx.Mutate(best_splits, key_f);
    for (int slot = 0; slot < max_nodes; ++slot) {
      f64 total_g = 0.0;
      f64 total_n = 0.0;
      for (int b = 0; b < bins; ++b) {
        total_g += grad_sum[static_cast<size_t>(slot * bins + b)];
        total_n += cnt[static_cast<size_t>(slot * bins + b)];
      }
      f32* cell = out + 4 * slot;
      cell[0] = -1.0f;  // gain
      cell[1] = -1.0f;  // bin
      cell[2] = 0.0f;   // left gradient sum
      cell[3] = 0.0f;   // left count
      if (total_n < 2.0) {
        continue;
      }
      const f64 parent = total_g * total_g / total_n;
      f64 lg = 0.0;
      f64 ln = 0.0;
      for (int b = 0; b < bins - 1; ++b) {
        lg += grad_sum[static_cast<size_t>(slot * bins + b)];
        ln += cnt[static_cast<size_t>(slot * bins + b)];
        const f64 rn = total_n - ln;
        if (ln < 1.0 || rn < 1.0) {
          continue;
        }
        const f64 rg = total_g - lg;
        const f64 gain = lg * lg / ln + rg * rg / rn - parent;
        if (gain > static_cast<f64>(cell[0])) {
          cell[0] = static_cast<f32>(gain);
          cell[1] = static_cast<f32>(b);
          cell[2] = static_cast<f32>(lg);
          cell[3] = static_cast<f32>(ln);
        }
      }
    }
  };

  auto loop = driver_->Compile(spec, kernel, config_.loop_options);
  ORION_RETURN_IF_ERROR(loop.status());
  split_loop_ = *loop;
  return Status::Ok();
}

void GbtApp::ComputeGradients() {
  for (i64 s = 0; s < num_samples_; ++s) {
    gradients_[static_cast<size_t>(s)] =
        predictions_[static_cast<size_t>(s)] - data_[static_cast<size_t>(s)].target;
  }
}

StatusOr<f64> GbtApp::FitOneTree() {
  ComputeGradients();
  Tree tree;
  tree.nodes.push_back(TreeNode{});

  // frontier[i] = node index; samples carry the *slot* (position in the
  // frontier) so the kernel indexes histograms densely.
  std::vector<int> frontier = {0};
  std::vector<int> node_slot(static_cast<size_t>(num_samples_), 0);
  node_of_sample_.assign(static_cast<size_t>(num_samples_), 0);

  for (int depth = 0; depth < config_.max_depth && !frontier.empty(); ++depth) {
    // Publish slot ids + gradients.
    for (i64 s = 0; s < num_samples_; ++s) {
      const int node = node_of_sample_[static_cast<size_t>(s)];
      int slot = -1;
      for (size_t i = 0; i < frontier.size(); ++i) {
        if (frontier[i] == node) {
          slot = static_cast<int>(i);
          break;
        }
      }
      node_slot[static_cast<size_t>(s)] = slot;
    }
    {
      CellStore& cells = driver_->MutableCells(node_sample_);
      for (i64 s = 0; s < num_samples_; ++s) {
        f32* cell = cells.GetOrCreate(s);
        cell[0] = static_cast<f32>(node_slot[static_cast<size_t>(s)]);
        cell[1] = gradients_[static_cast<size_t>(s)];
      }
    }

    ORION_RETURN_IF_ERROR(driver_->Execute(split_loop_));

    // Aggregate the per-feature candidates into the global best per slot.
    const CellStore& splits = driver_->Cells(best_splits_);
    struct Best {
      f64 gain = 0.0;
      int feature = -1;
      int bin = -1;
    };
    std::vector<Best> best(frontier.size());
    for (int f = 0; f < num_features_; ++f) {
      const f32* cell = splits.Get(f);
      for (size_t slot = 0; slot < frontier.size(); ++slot) {
        const f32* c = cell + 4 * slot;
        if (c[0] > static_cast<f32>(config_.min_gain) &&
            static_cast<f64>(c[0]) > best[slot].gain) {
          best[slot] = {static_cast<f64>(c[0]), f, static_cast<int>(c[1])};
        }
      }
    }

    // Grow the tree and reassign samples.
    std::vector<int> next_frontier;
    std::vector<int> split_feature(frontier.size(), -1);
    std::vector<int> split_bin(frontier.size(), -1);
    for (size_t slot = 0; slot < frontier.size(); ++slot) {
      if (best[slot].feature < 0) {
        continue;
      }
      const int node = frontier[slot];
      tree.nodes[static_cast<size_t>(node)].feature = best[slot].feature;
      tree.nodes[static_cast<size_t>(node)].bin = best[slot].bin;
      tree.nodes[static_cast<size_t>(node)].left = static_cast<int>(tree.nodes.size());
      tree.nodes.push_back(TreeNode{});
      tree.nodes[static_cast<size_t>(node)].right = static_cast<int>(tree.nodes.size());
      tree.nodes.push_back(TreeNode{});
      next_frontier.push_back(tree.nodes[static_cast<size_t>(node)].left);
      next_frontier.push_back(tree.nodes[static_cast<size_t>(node)].right);
      split_feature[slot] = best[slot].feature;
      split_bin[slot] = best[slot].bin;
    }
    for (i64 s = 0; s < num_samples_; ++s) {
      const int slot = node_slot[static_cast<size_t>(s)];
      if (slot < 0 || split_feature[static_cast<size_t>(slot)] < 0) {
        continue;
      }
      const int node = frontier[static_cast<size_t>(slot)];
      const int f = split_feature[static_cast<size_t>(slot)];
      const int b = bins_[static_cast<size_t>(f)][static_cast<size_t>(s)];
      node_of_sample_[static_cast<size_t>(s)] =
          b <= split_bin[static_cast<size_t>(slot)]
              ? tree.nodes[static_cast<size_t>(node)].left
              : tree.nodes[static_cast<size_t>(node)].right;
    }
    frontier = std::move(next_frontier);
  }

  // Leaf values: the gradient-descent step on each leaf's mean residual.
  std::vector<f64> leaf_grad(tree.nodes.size(), 0.0);
  std::vector<f64> leaf_cnt(tree.nodes.size(), 0.0);
  for (i64 s = 0; s < num_samples_; ++s) {
    const int node = node_of_sample_[static_cast<size_t>(s)];
    leaf_grad[static_cast<size_t>(node)] += static_cast<f64>(gradients_[static_cast<size_t>(s)]);
    leaf_cnt[static_cast<size_t>(node)] += 1.0;
  }
  for (size_t node = 0; node < tree.nodes.size(); ++node) {
    if (tree.nodes[node].feature < 0 && leaf_cnt[node] > 0.0) {
      tree.nodes[node].value =
          -config_.learning_rate * static_cast<f32>(leaf_grad[node] / leaf_cnt[node]);
    }
  }
  for (i64 s = 0; s < num_samples_; ++s) {
    predictions_[static_cast<size_t>(s)] +=
        tree.nodes[static_cast<size_t>(node_of_sample_[static_cast<size_t>(s)])].value;
  }
  trees_.push_back(std::move(tree));
  return TrainMse();
}

f64 GbtApp::TrainMse() const {
  f64 mse = 0.0;
  for (i64 s = 0; s < num_samples_; ++s) {
    const f64 d = static_cast<f64>(predictions_[static_cast<size_t>(s)]) -
                  static_cast<f64>(data_[static_cast<size_t>(s)].target);
    mse += d * d;
  }
  return mse / static_cast<f64>(num_samples_);
}

}  // namespace orion
