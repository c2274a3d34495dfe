#include "src/apps/lda.h"

#include <cmath>

namespace orion {

namespace {

// Deterministic per-(cell, pass) RNG so Gibbs sweeps are reproducible
// regardless of worker scheduling.
Rng CellRng(i64 key, i32 pass) {
  return Rng(static_cast<u64>(key) * 0x9e3779b97f4a7c15ULL + static_cast<u64>(pass) + 1);
}

// Samples a topic from unnormalized weights.
int SampleTopic(const std::vector<f64>& weights, f64 total, Rng* rng) {
  f64 u = rng->NextDouble() * total;
  for (size_t k = 0; k < weights.size(); ++k) {
    u -= weights[k];
    if (u <= 0.0) {
      return static_cast<int>(k);
    }
  }
  return static_cast<int>(weights.size()) - 1;
}

}  // namespace

LdaApp::LdaApp(Driver* driver, const LdaConfig& config)
    : driver_(driver), config_(config), pass_(std::make_shared<std::atomic<i32>>(0)) {}

Status LdaApp::Init(const std::vector<TokenEntry>& tokens, i64 num_docs, i64 vocab) {
  num_docs_ = num_docs;
  vocab_ = vocab;
  const int k = config_.num_topics;
  const int maxo = config_.max_occurrences;

  tokens_ = driver_->CreateDistArray("tokens", {num_docs, vocab}, 1 + maxo, Density::kSparse);
  doc_topic_ = driver_->CreateDistArray("doc_topic", {num_docs}, k, Density::kDense);
  word_topic_ = driver_->CreateDistArray("word_topic", {vocab}, k, Density::kDense);
  topic_sum_ = driver_->CreateDistArray("topic_sum", {1}, k, Density::kDense);
  driver_->RegisterBuffer(topic_sum_, k, MakeAddApplyFn());

  // Initialize assignments uniformly at random and the count matrices
  // consistently.
  {
    CellStore& cells = driver_->MutableCells(tokens_);
    CellStore& dt = driver_->MutableCells(doc_topic_);
    CellStore& wt = driver_->MutableCells(word_topic_);
    CellStore& ts = driver_->MutableCells(topic_sum_);
    cells.Reserve(static_cast<i64>(tokens.size()));
    Rng rng(4242);
    for (const auto& t : tokens) {
      const i64 key = t.doc * vocab + t.word;
      f32* cell = cells.GetOrCreate(key);
      const int count = std::min<int>(t.count, maxo);
      cell[0] = static_cast<f32>(count);
      for (int o = 0; o < count; ++o) {
        const int topic = static_cast<int>(rng.NextBounded(static_cast<u64>(k)));
        cell[1 + o] = static_cast<f32>(topic);
        dt.GetOrCreate(t.doc)[topic] += 1.0f;
        wt.GetOrCreate(t.word)[topic] += 1.0f;
        ts.GetOrCreate(0)[topic] += 1.0f;
        ++total_tokens_;
      }
    }
  }

  loglik_acc_ = driver_->CreateAccumulator();

  LoopSpec train;
  train.iter_space = tokens_;
  train.iter_extents = {num_docs, vocab};
  train.ordered = config_.loop_options.ordered;
  train.AddAccess(doc_topic_, "doc_topic", {Expr::LoopIndex(0)}, /*is_write=*/false);
  train.AddAccess(doc_topic_, "doc_topic", {Expr::LoopIndex(0)}, /*is_write=*/true);
  train.AddAccess(word_topic_, "word_topic", {Expr::LoopIndex(1)}, /*is_write=*/false);
  train.AddAccess(word_topic_, "word_topic", {Expr::LoopIndex(1)}, /*is_write=*/true);
  train.AddAccess(topic_sum_, "topic_sum", {Expr::Const(0)}, /*is_write=*/false);
  train.AddAccess(topic_sum_, "topic_sum", {Expr::Const(0)}, /*is_write=*/true,
                  /*buffered=*/true);

  const f32 alpha = config_.alpha;
  const f32 beta = config_.beta;
  const f64 vbeta = static_cast<f64>(vocab) * beta;
  auto pass = pass_;
  DistArrayId doc_topic = doc_topic_;
  DistArrayId word_topic = word_topic_;
  DistArrayId topic_sum = topic_sum_;

  LoopKernel kernel = [=](LoopContext& ctx, IdxSpan idx, const f32* value) {
    // `value` is this cell's span in the local iteration partition; Gibbs
    // mutates the stored assignments in place.
    f32* cell = const_cast<f32*>(value);
    const int count = static_cast<int>(cell[0]);
    if (count == 0) {
      return;
    }
    const i64 d = idx[0];
    const i64 w = idx[1];
    const i64 key_d[1] = {d};
    const i64 key_w[1] = {w};
    const i64 key_0[1] = {0};
    Rng rng = CellRng(d * 1000003 + w, pass->load(std::memory_order_relaxed));

    thread_local std::vector<f64> weights;
    thread_local std::vector<f32> delta;
    weights.assign(static_cast<size_t>(k), 0.0);
    delta.assign(static_cast<size_t>(k), 0.0f);

    f32* dt = ctx.Mutate(doc_topic, key_d);
    f32* wt = ctx.Mutate(word_topic, key_w);
    for (int o = 0; o < count; ++o) {
      const int old = static_cast<int>(cell[1 + o]);
      dt[old] -= 1.0f;
      wt[old] -= 1.0f;
      const f32* ts = ctx.Read(topic_sum, key_0);
      f64 total = 0.0;
      for (int t = 0; t < k; ++t) {
        const f64 nk = static_cast<f64>(ts[t]) - (t == old ? 1.0 : 0.0);
        const f64 p = (static_cast<f64>(dt[t]) + alpha) * (static_cast<f64>(wt[t]) + beta) /
                      (nk + vbeta);
        weights[static_cast<size_t>(t)] = p > 0.0 ? p : 0.0;
        total += weights[static_cast<size_t>(t)];
      }
      const int fresh = total > 0.0 ? SampleTopic(weights, total, &rng) : old;
      dt[fresh] += 1.0f;
      wt[fresh] += 1.0f;
      delta[static_cast<size_t>(old)] -= 1.0f;
      delta[static_cast<size_t>(fresh)] += 1.0f;
      cell[1 + o] = static_cast<f32>(fresh);
    }
    ctx.BufferUpdate(topic_sum, key_0, delta.data());
  };

  auto train_loop = driver_->Compile(train, kernel, config_.loop_options);
  ORION_RETURN_IF_ERROR(train_loop.status());
  train_loop_ = *train_loop;

  // ---- Evaluation: per-token predictive log-likelihood ----
  LoopSpec eval;
  eval.iter_space = tokens_;
  eval.iter_extents = {num_docs, vocab};
  eval.ordered = config_.loop_options.ordered;
  eval.AddAccess(doc_topic_, "doc_topic", {Expr::LoopIndex(0)}, /*is_write=*/false);
  eval.AddAccess(word_topic_, "word_topic", {Expr::LoopIndex(1)}, /*is_write=*/false);
  eval.AddAccess(topic_sum_, "topic_sum", {Expr::Const(0)}, /*is_write=*/false);

  const int acc = loglik_acc_;
  const f64 kalpha = static_cast<f64>(k) * alpha;
  LoopKernel eval_kernel = [=](LoopContext& ctx, IdxSpan idx, const f32* value) {
    const int count = static_cast<int>(value[0]);
    if (count == 0) {
      return;
    }
    const i64 key_d[1] = {idx[0]};
    const i64 key_w[1] = {idx[1]};
    const i64 key_0[1] = {0};
    const f32* dt = ctx.Read(doc_topic, key_d);
    const f32* wt = ctx.Read(word_topic, key_w);
    const f32* ts = ctx.Read(topic_sum, key_0);
    f64 nd = 0.0;
    for (int t = 0; t < k; ++t) {
      nd += static_cast<f64>(dt[t]);
    }
    f64 p = 0.0;
    for (int t = 0; t < k; ++t) {
      const f64 theta = (static_cast<f64>(dt[t]) + alpha) / (nd + kalpha);
      const f64 phi = (static_cast<f64>(wt[t]) + beta) / (static_cast<f64>(ts[t]) + vbeta);
      p += theta * phi;
    }
    if (p > 0.0) {
      ctx.AccumulatorAdd(acc, static_cast<f64>(count) * std::log(p));
    }
  };

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

Status LdaApp::RunPass() {
  pass_->fetch_add(1);
  return driver_->Execute(train_loop_);
}

StatusOr<f64> LdaApp::EvalLogLikelihood() {
  driver_->ResetAccumulator(loglik_acc_);
  ORION_RETURN_IF_ERROR(driver_->Execute(eval_loop_));
  return driver_->AccumulatorValue(loglik_acc_) / static_cast<f64>(total_tokens_);
}

// ---------------------------------------------------------------------------
// Serial reference

SerialLda::SerialLda(const std::vector<TokenEntry>& tokens, i64 num_docs, i64 vocab,
                     const LdaConfig& config)
    : config_(config), num_docs_(num_docs), vocab_(vocab) {
  const int k = config.num_topics;
  doc_topic_.assign(static_cast<size_t>(num_docs * k), 0);
  word_topic_.assign(static_cast<size_t>(vocab * k), 0);
  topic_sum_.assign(static_cast<size_t>(k), 0);
  Rng rng(4242);
  for (const auto& t : tokens) {
    const int count = std::min<int>(t.count, config.max_occurrences);
    for (int o = 0; o < count; ++o) {
      const int topic = static_cast<int>(rng.NextBounded(static_cast<u64>(k)));
      tokens_.push_back({t.doc, t.word, topic});
      doc_topic_[static_cast<size_t>(t.doc * k + topic)] += 1;
      word_topic_[static_cast<size_t>(t.word * k + topic)] += 1;
      topic_sum_[static_cast<size_t>(topic)] += 1;
    }
  }
}

void SerialLda::RunPass() {
  const int k = config_.num_topics;
  const f64 alpha = config_.alpha;
  const f64 beta = config_.beta;
  const f64 vbeta = static_cast<f64>(vocab_) * beta;
  ++pass_;
  Rng rng(static_cast<u64>(pass_) * 777 + 5);
  std::vector<f64> weights(static_cast<size_t>(k));
  for (auto& t : tokens_) {
    i32* dt = &doc_topic_[static_cast<size_t>(t.doc * k)];
    i32* wt = &word_topic_[static_cast<size_t>(t.word * k)];
    dt[t.topic] -= 1;
    wt[t.topic] -= 1;
    topic_sum_[static_cast<size_t>(t.topic)] -= 1;
    f64 total = 0.0;
    for (int x = 0; x < k; ++x) {
      const f64 p = (static_cast<f64>(dt[x]) + alpha) * (static_cast<f64>(wt[x]) + beta) /
                    (static_cast<f64>(topic_sum_[static_cast<size_t>(x)]) + vbeta);
      weights[static_cast<size_t>(x)] = p > 0.0 ? p : 0.0;
      total += weights[static_cast<size_t>(x)];
    }
    const int fresh = total > 0.0 ? SampleTopic(weights, total, &rng) : t.topic;
    dt[fresh] += 1;
    wt[fresh] += 1;
    topic_sum_[static_cast<size_t>(fresh)] += 1;
    t.topic = fresh;
  }
}

f64 SerialLda::EvalLogLikelihood() const {
  const int k = config_.num_topics;
  const f64 alpha = config_.alpha;
  const f64 beta = config_.beta;
  const f64 vbeta = static_cast<f64>(vocab_) * beta;
  const f64 kalpha = static_cast<f64>(k) * alpha;
  std::vector<f64> doc_len(static_cast<size_t>(num_docs_), 0.0);
  for (i64 d = 0; d < num_docs_; ++d) {
    for (int x = 0; x < k; ++x) {
      doc_len[static_cast<size_t>(d)] +=
          static_cast<f64>(doc_topic_[static_cast<size_t>(d * k + x)]);
    }
  }
  f64 ll = 0.0;
  for (const auto& t : tokens_) {
    f64 p = 0.0;
    for (int x = 0; x < k; ++x) {
      const f64 theta = (static_cast<f64>(doc_topic_[static_cast<size_t>(t.doc * k + x)]) +
                         alpha) /
                        (doc_len[static_cast<size_t>(t.doc)] + kalpha);
      const f64 phi = (static_cast<f64>(word_topic_[static_cast<size_t>(t.word * k + x)]) +
                       beta) /
                      (static_cast<f64>(topic_sum_[static_cast<size_t>(x)]) + vbeta);
      p += theta * phi;
    }
    if (p > 0.0) {
      ll += std::log(p);
    }
  }
  return ll / static_cast<f64>(tokens_.size());
}

}  // namespace orion
