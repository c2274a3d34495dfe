// Statement-level loop-body IR: subscript classification, access
// extraction, prefetch-slice synthesis (paper Sec. 4.4), the compiled
// slice (against a tree-walking reference evaluator over generated bodies),
// and an end-to-end CompileBody run whose synthesized prefetch must match
// the kernel's actual accesses.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "src/apps/slr.h"
#include "src/common/rng.h"

#include "src/ir/analyze_body.h"
#include "src/runtime/driver.h"

namespace orion {
namespace {

// ---- Subscript classification over SExpr ----

TEST(StmtIr, ClassifyAffine) {
  auto s = ClassifySubscriptExpr(SExpr::Add(SExpr::IndexVar(1), SExpr::Const(3)));
  EXPECT_EQ(s.kind, SubscriptKind::kLoopIndex);
  EXPECT_EQ(s.loop_dim, 1);
  EXPECT_EQ(s.constant, 3);
}

TEST(StmtIr, ClassifyConstantFolding) {
  auto s = ClassifySubscriptExpr(SExpr::Mul(SExpr::Const(3), SExpr::Const(4)));
  EXPECT_EQ(s.kind, SubscriptKind::kConstant);
  EXPECT_EQ(s.constant, 12);
}

TEST(StmtIr, ClassifyVarIsRuntime) {
  auto s = ClassifySubscriptExpr(SExpr::Var(0));
  EXPECT_EQ(s.kind, SubscriptKind::kRuntime);
}

TEST(StmtIr, ClassifyIterValueIsRuntime) {
  auto s = ClassifySubscriptExpr(SExpr::IterValueAt(SExpr::Const(2)));
  EXPECT_EQ(s.kind, SubscriptKind::kRuntime);
}

TEST(StmtIr, ClassifyScaledIndexIsRange) {
  auto s = ClassifySubscriptExpr(SExpr::Mul(SExpr::Const(2), SExpr::IndexVar(0)));
  EXPECT_EQ(s.kind, SubscriptKind::kRange);
}

// ---- Access extraction ----

// The MF body: read W[i], H[j]; write W[i], H[j] (via accumulate stores).
LoopBody MfBody() {
  LoopBody body;
  body.num_index_dims = 2;
  body.num_vars = 1;
  // v0 = W[i][0] * H[j][0]; W[i][0] += v0; H[j][0] += v0
  auto w_read = SExpr::ArrayElem(1, {SExpr::IndexVar(0)}, SExpr::Const(0));
  auto h_read = SExpr::ArrayElem(2, {SExpr::IndexVar(1)}, SExpr::Const(0));
  body.stmts.push_back(Stmt::Assign(0, SExpr::Mul(w_read, h_read)));
  body.stmts.push_back(Stmt::Store(1, "W", {SExpr::IndexVar(0)}, SExpr::Const(0),
                                   SExpr::Var(0), /*accumulate=*/true));
  body.stmts.push_back(Stmt::Store(2, "H", {SExpr::IndexVar(1)}, SExpr::Const(0),
                                   SExpr::Var(0), /*accumulate=*/true));
  return body;
}

TEST(StmtIr, ExtractMfAccesses) {
  const auto accesses = ExtractAccesses(MfBody());
  // W read, H read, W write, W read (from +=, deduped with the first),
  // H write: 4 distinct entries.
  int w_reads = 0;
  int w_writes = 0;
  int h_reads = 0;
  int h_writes = 0;
  for (const auto& a : accesses) {
    ASSERT_EQ(a.subscripts.size(), 1u);
    EXPECT_EQ(a.subscripts[0].kind, SubscriptKind::kLoopIndex);
    if (a.array == 1) {
      (a.is_write ? w_writes : w_reads) += 1;
      EXPECT_EQ(a.subscripts[0].loop_dim, 0);
    } else {
      (a.is_write ? h_writes : h_reads) += 1;
      EXPECT_EQ(a.subscripts[0].loop_dim, 1);
    }
  }
  EXPECT_EQ(w_reads, 1);
  EXPECT_EQ(w_writes, 1);
  EXPECT_EQ(h_reads, 1);
  EXPECT_EQ(h_writes, 1);
}

TEST(StmtIr, ExtractBufferedUpdate) {
  LoopBody body;
  body.num_index_dims = 1;
  body.num_vars = 1;
  body.stmts.push_back(Stmt::Assign(0, SExpr::IterValueAt(SExpr::Const(0))));
  body.stmts.push_back(Stmt::BufferUpdate(3, "weights", {SExpr::Var(0)}, {SExpr::Const(1)}));
  const auto accesses = ExtractAccesses(body);
  ASSERT_EQ(accesses.size(), 1u);
  EXPECT_TRUE(accesses[0].is_write);
  EXPECT_TRUE(accesses[0].buffered);
  EXPECT_EQ(accesses[0].subscripts[0].kind, SubscriptKind::kRuntime);
}

// ---- Prefetch synthesis ----

// A sink that appends each recorded key to its target array's list.
auto AppendTo(const PrefetchProgram& program, std::map<DistArrayId, std::vector<i64>>* keys) {
  return [&program, keys](int target, i64 key) {
    (*keys)[program.target_arrays()[static_cast<size_t>(target)]].push_back(key);
  };
}

TEST(StmtIr, SlrSliceRecordsExactlyTheTouchedWeights) {
  auto program = SynthesizePrefetch(SlrLoopBody(7));
  ASSERT_TRUE(program.HasTargets());
  ASSERT_EQ(program.target_arrays().size(), 1u);
  EXPECT_EQ(program.target_arrays()[0], 7);
  EXPECT_TRUE(program.unprefetchable().empty());

  // Interpret over a sample: label, n=3, (id,val) = (5,.5)(11,.25)(2,1).
  const f32 value[8] = {1.0f, 3.0f, 5.0f, 0.5f, 11.0f, 0.25f, 2.0f, 1.0f};
  program.BindKeySpace(7, KeySpace({100}));
  std::vector<f64> frame(program.frame_size());
  std::map<DistArrayId, std::vector<i64>> keys;
  const i64 idx[1] = {0};
  program.Run(idx, value, 8, frame, AppendTo(program, &keys));
  EXPECT_EQ(keys[7], (std::vector<i64>{5, 11, 2}));
}

TEST(StmtIr, SliceDropsPureComputeStatements) {
  // SLR's weight value w (var 3) feeds no subscript, only the buffered
  // write: the sliced program must not keep its assignment, nor the write.
  // We detect this by checking the slice's step count: the For survives
  // with only the id assignment + record inside.
  const auto program = SynthesizePrefetch(SlrLoopBody(7));
  // Top level: n assignment + For, whose body follows it.
  ASSERT_EQ(program.steps().size(), 4u);
  const auto& loop = program.steps()[1];
  ASSERT_EQ(loop.kind, PrefetchProgram::StepKind::kFor);
  // Inside: id assignment + record (w's assignment and the update gone).
  EXPECT_EQ(loop.extent, 2u);
  EXPECT_EQ(program.steps()[2].kind, PrefetchProgram::StepKind::kAssign);
  EXPECT_EQ(program.steps()[3].kind, PrefetchProgram::StepKind::kRecord);
}

TEST(StmtIr, SlrSubscriptFoldsIntoOneAffineOpAndALoad) {
  // id = value[2 + 2f]: the offset is affine in the counter with integer
  // constants, so it compiles to one affine op followed by the load.
  const auto program = SynthesizePrefetch(SlrLoopBody(7));
  using OpCode = PrefetchProgram::OpCode;
  const auto id_ops = program.ExprOps(program.steps()[2].expr);
  ASSERT_EQ(id_ops.size(), 2u);
  EXPECT_EQ(id_ops[0].code, OpCode::kAffine);
  EXPECT_EQ(id_ops[1].code, OpCode::kIterValue);
  // The record's subscript is the variable's slot; n = value[1] is a
  // constant and a load.
  const auto sub_ops = program.ExprOps(program.Subscripts(program.steps()[3])[0]);
  ASSERT_EQ(sub_ops.size(), 1u);
  EXPECT_EQ(sub_ops[0].code, OpCode::kSlot);
  const auto n_ops = program.ExprOps(program.steps()[0].expr);
  ASSERT_EQ(n_ops.size(), 2u);
  EXPECT_EQ(n_ops[0].code, OpCode::kConst);
  EXPECT_EQ(n_ops[1].code, OpCode::kIterValue);
}

TEST(StmtIr, ArrayDependentSubscriptIsUnprefetchable) {
  // B[A[i]]: the outer read's subscript needs A's value -> cannot prefetch
  // B; A itself (subscript = i) is prefetchable.
  LoopBody body;
  body.num_index_dims = 1;
  body.num_vars = 1;
  body.stmts.push_back(
      Stmt::Assign(0, SExpr::ArrayElem(2, {SExpr::ArrayElem(1, {SExpr::IndexVar(0)},
                                                            SExpr::Const(0))},
                                       SExpr::Const(0))));
  const auto program = SynthesizePrefetch(body);
  ASSERT_EQ(program.target_arrays().size(), 1u);
  EXPECT_EQ(program.target_arrays()[0], 1);
  ASSERT_EQ(program.unprefetchable().size(), 1u);
  EXPECT_EQ(program.unprefetchable()[0], 2);
}

TEST(StmtIr, TaintedVariableBlocksPrefetch) {
  // v = A[i]; read B[v]: v is tainted by an array read.
  LoopBody body;
  body.num_index_dims = 1;
  body.num_vars = 2;
  body.stmts.push_back(
      Stmt::Assign(0, SExpr::ArrayElem(1, {SExpr::IndexVar(0)}, SExpr::Const(0))));
  body.stmts.push_back(
      Stmt::Assign(1, SExpr::ArrayElem(2, {SExpr::Var(0)}, SExpr::Const(0))));
  const auto program = SynthesizePrefetch(body);
  EXPECT_EQ(program.target_arrays(), std::vector<DistArrayId>{1});
  EXPECT_EQ(program.unprefetchable(), std::vector<DistArrayId>{2});
}

TEST(StmtIr, ConditionalReadsRespectControlFlow) {
  // if (value[0]) { read A[i] }: the record must stay under the If.
  LoopBody body;
  body.num_index_dims = 1;
  body.num_vars = 1;
  std::vector<StmtPtr> then_body;
  then_body.push_back(
      Stmt::Assign(0, SExpr::ArrayElem(1, {SExpr::IndexVar(0)}, SExpr::Const(0))));
  body.stmts.push_back(Stmt::If(SExpr::IterValueAt(SExpr::Const(0)), std::move(then_body)));
  auto program = SynthesizePrefetch(body);
  ASSERT_TRUE(program.HasTargets());

  program.BindKeySpace(1, KeySpace({10}));
  std::vector<f64> frame(program.frame_size());
  std::map<DistArrayId, std::vector<i64>> keys;
  const i64 idx[1] = {4};
  const f32 off[1] = {0.0f};
  program.Run(idx, off, 1, frame, AppendTo(program, &keys));
  EXPECT_TRUE(keys[1].empty());
  const f32 on[1] = {1.0f};
  program.Run(idx, on, 1, frame, AppendTo(program, &keys));
  EXPECT_EQ(keys[1], std::vector<i64>{4});
}

// ---- The compiled slice against a tree-walking reference ----

// The reference: walks a body statement by statement in f64, operands left
// to right, with every variable zero at the start of an iteration, and
// records each DistArray read's key in visit order. Generated bodies read
// DistArrays only as `sink = A[subs][0]` (the sink never read) and define
// each variable once, before any use in its scope, so the slice keeps
// exactly what decides these keys. Run returns false instead of failing a
// CHECK (an offset or subscript out of range).
class ReferenceSlice {
 public:
  ReferenceSlice(const LoopBody& body, const std::map<DistArrayId, KeySpace>& spaces)
      : body_(body), spaces_(spaces) {}

  bool Run(IdxSpan idx, const f32* value, i32 value_dim,
           std::vector<std::pair<DistArrayId, i64>>* keys) {
    idx_ = idx;
    value_ = value;
    value_dim_ = value_dim;
    keys_ = keys;
    ok_ = true;
    vars_.assign(static_cast<size_t>(body_.num_vars), 0.0);
    Block(body_.stmts);
    return ok_;
  }

 private:
  f64 Eval(const SExpr& e) {
    switch (e.op()) {
      case SOp::kConst:
        return e.constant();
      case SOp::kIndexVar:
        return static_cast<f64>(idx_[static_cast<size_t>(e.loop_dim())]);
      case SOp::kVar:
        return vars_[static_cast<size_t>(e.var())];
      case SOp::kIterValueAt: {
        const f64 at = Eval(*e.children()[0]);
        if (!(at > -1.0 && at < value_dim_)) {
          ok_ = false;
          return 0.0;
        }
        return static_cast<f64>(value_[static_cast<i64>(at)]);
      }
      case SOp::kArrayElem:
        ok_ = false;  // only as a sink assignment's whole value
        return 0.0;
      case SOp::kAdd: {
        const f64 a = Eval(*e.children()[0]);
        return a + Eval(*e.children()[1]);
      }
      case SOp::kSub: {
        const f64 a = Eval(*e.children()[0]);
        return a - Eval(*e.children()[1]);
      }
      case SOp::kMul: {
        const f64 a = Eval(*e.children()[0]);
        return a * Eval(*e.children()[1]);
      }
      case SOp::kDiv: {
        const f64 a = Eval(*e.children()[0]);
        return a / Eval(*e.children()[1]);
      }
      case SOp::kFloor:
        return std::floor(Eval(*e.children()[0]));
    }
    return 0.0;
  }

  void Block(const std::vector<StmtPtr>& stmts) {
    for (const auto& s : stmts) {
      if (!ok_) {
        return;
      }
      switch (s->kind) {
        case StmtKind::kAssign:
          if (s->value->op() == SOp::kArrayElem) {
            Record(*s->value);
            vars_[static_cast<size_t>(s->var)] = 0.0;
          } else {
            vars_[static_cast<size_t>(s->var)] = Eval(*s->value);
          }
          break;
        case StmtKind::kFor: {
          const f64 count = Eval(*s->count_or_cond);
          for (i64 i = 0; ok_ && i < static_cast<i64>(count); ++i) {
            vars_[static_cast<size_t>(s->var)] = static_cast<f64>(i);
            Block(s->body);
          }
          break;
        }
        case StmtKind::kIf:
          if (Eval(*s->count_or_cond) != 0.0) {
            Block(s->body);
          }
          break;
        default:
          break;
      }
    }
  }

  void Record(const SExpr& read) {
    const KeySpace& ks = spaces_.at(read.array());
    IndexVec coords;
    for (int d = 0; d < read.num_subscripts(); ++d) {
      const f64 c = Eval(*read.children()[static_cast<size_t>(d)]);
      if (!(c > -1.0 && c < 1e15)) {
        ok_ = false;
        return;
      }
      coords.push_back(static_cast<i64>(c));
    }
    if (!ks.Contains(coords)) {
      ok_ = false;
      return;
    }
    keys_->push_back({read.array(), ks.EncodeUnchecked(coords)});
  }

  const LoopBody& body_;
  const std::map<DistArrayId, KeySpace>& spaces_;
  IdxSpan idx_;
  const f32* value_ = nullptr;
  i32 value_dim_ = 0;
  std::vector<std::pair<DistArrayId, i64>>* keys_ = nullptr;
  std::vector<f64> vars_;
  bool ok_ = true;
};

// A seeded generator of slice-shaped bodies: nested For, If and Assign over
// every SOp (Div, Floor and non-integer constants included), with reads of
// 1-, 2- and 3-D targets. It tracks each expression's value interval, so
// every iteration-value offset and subscript it builds stays in range: one
// that might not is rescaled as floor((e - lo + 0.5) / scale).
class SliceGenerator {
 public:
  static constexpr i32 kValueDim = 16;
  static constexpr f64 kValueHi = 15.75;  // values lie in [0, kValueHi]

  explicit SliceGenerator(u64 seed) : rng_(seed) {
    const int rank = 1 + static_cast<int>(rng_.NextIndex(3));
    for (int d = 0; d < rank; ++d) {
      extents_.push_back(2 + rng_.NextIndex(6));
    }
    body_.num_index_dims = rank;
    body_.stmts = Block(0);
    body_.num_vars = next_var_;
  }

  const LoopBody& body() const { return body_; }
  const std::vector<i64>& extents() const { return extents_; }
  static std::map<DistArrayId, KeySpace> Spaces() {
    return {{1, KeySpace({40})}, {2, KeySpace({7, 9})}, {3, KeySpace({3, 4, 5})}};
  }

 private:
  struct Gen {
    SExprPtr e;
    f64 lo = 0.0;
    f64 hi = 0.0;
  };
  struct Var {
    int id = 0;
    f64 lo = 0.0;
    f64 hi = 0.0;
    bool counter = false;
  };

  Gen Leaf(int depth) {
    switch (rng_.NextIndex(5)) {
      case 0: {
        static constexpr f64 kFractions[] = {0.5, 2.25, 1.0 / 3.0, 7.75, -1.5};
        const f64 c = rng_.NextIndex(2) == 0
                          ? static_cast<f64>(rng_.NextIndex(12)) - 3.0
                          : kFractions[rng_.NextIndex(5)];
        return {SExpr::Const(c), c, c};
      }
      case 1: {
        const int d = static_cast<int>(rng_.NextIndex(static_cast<i64>(extents_.size())));
        return {SExpr::IndexVar(d), 0.0, static_cast<f64>(extents_[static_cast<size_t>(d)] - 1)};
      }
      case 2:
        if (!scope_.empty()) {
          const Var& v = scope_[static_cast<size_t>(rng_.NextIndex(static_cast<i64>(scope_.size())))];
          return {SExpr::Var(v.id), v.lo, v.hi};
        }
        [[fallthrough]];
      default:
        return {SExpr::IterValueAt(IntoRange(kValueDim, depth).e), 0.0, kValueHi};
    }
  }

  Gen Expr(int depth) {
    if (depth <= 0 || rng_.NextIndex(10) < 3) {
      return Leaf(depth - 1);
    }
    Gen a = Expr(depth - 1);
    Gen out;
    switch (rng_.NextIndex(5)) {
      case 0: {
        const Gen b = Expr(depth - 1);
        out = {SExpr::Add(a.e, b.e), a.lo + b.lo, a.hi + b.hi};
        break;
      }
      case 1: {
        const Gen b = Expr(depth - 1);
        out = {SExpr::Sub(a.e, b.e), a.lo - b.hi, a.hi - b.lo};
        break;
      }
      case 2: {
        const Gen b = Expr(depth - 1);
        const f64 p[] = {a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi};
        out = {SExpr::Mul(a.e, b.e), *std::min_element(p, p + 4), *std::max_element(p, p + 4)};
        break;
      }
      case 3: {
        static constexpr f64 kDivisors[] = {2.0, 3.0, 0.5, 2.5, -4.0, 7.0};
        const f64 k = kDivisors[rng_.NextIndex(6)];
        out = {SExpr::Div(a.e, SExpr::Const(k)), std::min(a.lo / k, a.hi / k),
               std::max(a.lo / k, a.hi / k)};
        break;
      }
      default:
        out = {SExpr::Floor(a.e), std::floor(a.lo), std::floor(a.hi)};
        break;
    }
    return std::max(std::abs(out.lo), std::abs(out.hi)) > 1e6 ? a : out;
  }

  // An expression whose i64 cast lies in [0, n).
  Gen IntoRange(i64 n, int depth) {
    std::vector<const Var*> counters;
    for (const Var& v : scope_) {
      if (v.counter) {
        counters.push_back(&v);
      }
    }
    if (!counters.empty() && rng_.NextIndex(2) == 0) {
      // c + k * counter, or its shape with a cancelling term.
      const Var& v = *counters[static_cast<size_t>(rng_.NextIndex(static_cast<i64>(counters.size())))];
      const i64 k = 1 + rng_.NextIndex(3);
      const i64 top = static_cast<i64>(v.hi) * k;
      if (top < n) {
        const i64 c = rng_.NextIndex(n - top);
        SExprPtr e = SExpr::Add(SExpr::Const(static_cast<f64>(c)),
                                SExpr::Mul(SExpr::Const(static_cast<f64>(k)), SExpr::Var(v.id)));
        if (rng_.NextIndex(3) == 0) {
          e = SExpr::Sub(SExpr::Add(e, SExpr::Mul(SExpr::Const(3), SExpr::Var(v.id))),
                         SExpr::Mul(SExpr::Var(v.id), SExpr::Const(3)));
        }
        return {e, static_cast<f64>(c), static_cast<f64>(c + top)};
      }
    }
    Gen raw = Expr(depth);
    if (raw.lo > -1.0 && raw.hi < static_cast<f64>(n)) {
      return raw;
    }
    const f64 scale = (raw.hi - raw.lo + 1.5) / static_cast<f64>(n);
    return {SExpr::Floor(SExpr::Div(SExpr::Sub(raw.e, SExpr::Const(raw.lo - 0.5)),
                                    SExpr::Const(scale))),
            0.0, static_cast<f64>(n - 1)};
  }

  StmtPtr Read(int depth) {
    const auto spaces = Spaces();
    const DistArrayId target = 1 + static_cast<DistArrayId>(rng_.NextIndex(3));
    const KeySpace& ks = spaces.at(target);
    std::vector<SExprPtr> subs;
    for (int d = 0; d < ks.num_dims(); ++d) {
      subs.push_back(IntoRange(ks.dim(d), depth).e);
    }
    return Stmt::Assign(next_var_++, SExpr::ArrayElem(target, std::move(subs), SExpr::Const(0)));
  }

  std::vector<StmtPtr> Block(int depth) {
    std::vector<StmtPtr> out;
    const size_t scope_size = scope_.size();
    const int n = 1 + static_cast<int>(rng_.NextIndex(4));
    for (int i = 0; i < n; ++i) {
      const i64 kind = rng_.NextIndex(depth < 3 ? 5 : 2);
      if (kind == 0) {
        const Gen g = Expr(2);
        out.push_back(Stmt::Assign(next_var_, g.e));
        scope_.push_back({.id = next_var_++, .lo = g.lo, .hi = g.hi, .counter = false});
      } else if (kind == 1) {
        out.push_back(Read(2));
      } else if (kind == 2) {
        const Gen count = IntoRange(5, 1);
        const int counter = next_var_++;
        scope_.push_back({.id = counter, .lo = 0.0, .hi = 3.0, .counter = true});
        out.push_back(Stmt::For(counter, count.e, Block(depth + 1)));
        scope_.pop_back();
      } else if (kind == 3) {
        const Gen cond = Expr(2);
        out.push_back(Stmt::If(cond.e, Block(depth + 1)));
      } else {
        // A gather loop: for c: v = value[c0 + k c]; read A[v].
        const Gen count = IntoRange(5, 0);
        const int counter = next_var_++;
        scope_.push_back({.id = counter, .lo = 0.0, .hi = 3.0, .counter = true});
        std::vector<StmtPtr> inner;
        const int v = next_var_++;
        inner.push_back(Stmt::Assign(v, SExpr::IterValueAt(IntoRange(kValueDim, 1).e)));
        scope_.push_back({.id = v, .lo = 0.0, .hi = kValueHi, .counter = false});
        inner.push_back(Read(1));
        out.push_back(Stmt::For(counter, count.e, std::move(inner)));
        scope_.resize(scope_.size() - 2);
      }
    }
    scope_.resize(scope_size);
    return out;
  }

  Rng rng_;
  LoopBody body_;
  std::vector<i64> extents_;
  std::vector<Var> scope_;
  int next_var_ = 0;
};

TEST(StmtIr, CompiledSliceMatchesReferenceOnGeneratedBodies) {
  const auto spaces = SliceGenerator::Spaces();
  int programs = 0;
  int vector_loops = 0;
  int folds = 0;
  int records = 0;
  for (u64 seed = 1; seed <= 400; ++seed) {
    SliceGenerator gen(seed);
    PrefetchProgram program = SynthesizePrefetch(gen.body());
    if (!program.HasTargets()) {
      continue;
    }
    ++programs;
    for (const auto& [id, ks] : spaces) {
      program.BindKeySpace(id, ks);
    }
    auto count_fold = [&](const PrefetchProgram::Expr& e) {
      folds += e.shape == PrefetchProgram::Shape::kLinear ||
                       e.shape == PrefetchProgram::Shape::kLoadLinear
                   ? 1
                   : 0;
    };
    for (const auto& step : program.steps()) {
      vector_loops += step.vector ? 1 : 0;
      if (step.kind == PrefetchProgram::StepKind::kRecord) {
        for (const auto& sub : program.Subscripts(step)) {
          count_fold(sub);
        }
      } else {
        count_fold(step.expr);
      }
    }
    ReferenceSlice reference(gen.body(), spaces);
    std::vector<f64> frame(program.frame_size());  // reused across iterations
    Rng data(seed * 7919);
    for (int it = 0; it < 24; ++it) {
      IndexVec idx;
      for (const i64 extent : gen.extents()) {
        idx.push_back(data.NextIndex(extent));
      }
      f32 value[SliceGenerator::kValueDim];
      for (f32& v : value) {
        v = static_cast<f32>(data.NextIndex(16)) + (data.NextIndex(4) == 0 ? 0.75f : 0.0f);
      }
      std::vector<std::pair<DistArrayId, i64>> want;
      ASSERT_TRUE(reference.Run(idx, value, SliceGenerator::kValueDim, &want))
          << "seed " << seed << ": the generator built an out-of-range access";
      std::vector<std::pair<DistArrayId, i64>> got;
      program.Run(idx, value, SliceGenerator::kValueDim, frame, [&](int target, i64 key) {
        got.push_back({program.target_arrays()[static_cast<size_t>(target)], key});
      });
      ASSERT_EQ(got, want) << "seed " << seed << ", iteration " << it;
      records += static_cast<int>(got.size());
    }
  }
  // The generator reaches every path it is meant to cover.
  EXPECT_GT(programs, 200);
  EXPECT_GT(vector_loops, 50);
  EXPECT_GT(folds, 50);
  EXPECT_GT(records, 10000);
}

TEST(StmtIr, AffineFoldFallsBackWhenF64IsNotExact) {
  // A[2^20 i - (2^20 - 1) i] is i in exact arithmetic, but not in f64 once
  // 2^20 i needs more than 53 bits: the compiled slice must round as the
  // tree does, not fold.
  LoopBody body;
  body.num_index_dims = 1;
  body.num_vars = 1;
  const f64 k = 1048576.0;  // 2^20
  auto sub = SExpr::Sub(SExpr::Mul(SExpr::Const(k), SExpr::IndexVar(0)),
                        SExpr::Mul(SExpr::Const(k - 1), SExpr::IndexVar(0)));
  body.stmts.push_back(Stmt::Assign(0, SExpr::ArrayElem(1, {sub}, SExpr::Const(0))));
  auto program = SynthesizePrefetch(body);
  const KeySpace ks({i64{1} << 42});
  program.BindKeySpace(1, ks);
  const std::map<DistArrayId, KeySpace> spaces = {{1, ks}};
  ReferenceSlice reference(body, spaces);
  std::vector<f64> frame(program.frame_size());
  bool rounded = false;
  for (const i64 i : {i64{0}, i64{5}, i64{1} << 31, (i64{1} << 40) + 1, (i64{1} << 41) + 3}) {
    const i64 idx[1] = {i};
    std::vector<std::pair<DistArrayId, i64>> want;
    ASSERT_TRUE(reference.Run(idx, nullptr, 0, &want));
    std::vector<i64> got;
    program.Run(idx, nullptr, 0, frame, [&](int, i64 key) { got.push_back(key); });
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], want[0].second) << "i = " << i;
    rounded = rounded || got[0] != i;
  }
  EXPECT_TRUE(rounded);  // some i took the fallback, and it mattered
}

// The compiled slice fails the tree evaluation's CHECKs: an iteration-value
// offset out of range, and KeySpace::Encode's on a subscript outside the
// key space, both in straight-line code and inside a vector loop.
PrefetchProgram OneRead(SExprPtr subscript, i64 dim) {
  LoopBody body;
  body.num_index_dims = 1;
  body.num_vars = 1;
  body.stmts.push_back(Stmt::Assign(0, SExpr::ArrayElem(1, {std::move(subscript)}, SExpr::Const(0))));
  auto program = SynthesizePrefetch(body);
  program.BindKeySpace(1, KeySpace({dim}));
  return program;
}

// for c < 3: v = value[c + 1]; read A[v]
PrefetchProgram GatherLoop(i64 dim) {
  LoopBody body;
  body.num_index_dims = 1;
  body.num_vars = 3;  // 0=c, 1=v, 2=sink
  std::vector<StmtPtr> inner;
  inner.push_back(Stmt::Assign(1, SExpr::IterValueAt(SExpr::Add(SExpr::Var(0), SExpr::Const(1)))));
  inner.push_back(Stmt::Assign(2, SExpr::ArrayElem(1, {SExpr::Var(1)}, SExpr::Const(0))));
  body.stmts.push_back(Stmt::For(0, SExpr::Const(3), std::move(inner)));
  auto program = SynthesizePrefetch(body);
  program.BindKeySpace(1, KeySpace({dim}));
  return program;
}

void RunOnce(const PrefetchProgram& program, const f32* value, i32 value_dim) {
  std::vector<f64> frame(program.frame_size());
  const i64 idx[1] = {2};
  program.Run(idx, value, value_dim, frame, [](int, i64) {});
}

TEST(StmtIrDeathTest, SliceOffsetOutOfRangeDies) {
  const auto program = OneRead(SExpr::IterValueAt(SExpr::Const(5)), 10);
  const f32 value[3] = {1, 2, 3};
  EXPECT_DEATH(RunOnce(program, value, 3), "iteration-value offset 5 out of range");
}

TEST(StmtIrDeathTest, VectorLoopOffsetOutOfRangeDies) {
  const auto program = GatherLoop(10);
  ASSERT_TRUE(program.steps()[0].vector);
  const f32 value[3] = {1, 2, 3};  // value[3] is read at c = 2
  EXPECT_DEATH(RunOnce(program, value, 3), "iteration-value offset 3 out of range");
}

TEST(StmtIrDeathTest, SliceSubscriptOutsideKeySpaceDies) {
  const auto program = OneRead(SExpr::Add(SExpr::IndexVar(0), SExpr::Const(10)), 5);
  EXPECT_DEATH(RunOnce(program, nullptr, 0), "index outside key space");
}

TEST(StmtIrDeathTest, VectorLoopSubscriptOutsideKeySpaceDies) {
  const auto program = GatherLoop(6);
  ASSERT_TRUE(program.steps()[0].vector);
  const f32 value[4] = {0, 4, 5, 6};  // reads 4, 5, then 6: outside [0, 6)
  EXPECT_DEATH(RunOnce(program, value, 4), "index outside key space");
}

// ---- End-to-end: CompileBody drives a real loop ----

TEST(StmtIr, CompileBodyRunsSlrEndToEnd) {
  // Samples: [n, id0, id1] with n in {1, 2}; kernel adds 1 to each touched
  // weight through a buffer; the synthesized prefetch must pull exactly the
  // touched weights so reads observe server state.
  const i64 kSamples = 60;
  const i64 kFeatures = 40;
  DriverConfig cfg;
  cfg.num_workers = 3;
  Driver driver(cfg);
  auto samples = driver.CreateDistArray("samples", {kSamples}, 3, Density::kSparse);
  auto weights = driver.CreateDistArray("weights", {kFeatures}, 1, Density::kDense);
  driver.RegisterBuffer(weights, 1, MakeAddApplyFn());
  std::vector<f64> want(static_cast<size_t>(kFeatures), 0.0);
  {
    CellStore& cells = driver.MutableCells(samples);
    Rng rng(9);
    for (i64 s = 0; s < kSamples; ++s) {
      f32* cell = cells.GetOrCreate(s);
      const int n = 1 + static_cast<int>(rng.NextBounded(2));
      cell[0] = static_cast<f32>(n);
      for (int f = 0; f < n; ++f) {
        const i64 id = rng.NextIndex(kFeatures);
        cell[1 + f] = static_cast<f32>(id);
        want[static_cast<size_t>(id)] += 1.0;
      }
    }
  }

  // Body: for f in 0..n-1 { id = value[1+f]; read weights[id]; buffer += 1 }
  LoopBody body;
  body.num_index_dims = 1;
  body.num_vars = 4;  // 0=n, 1=f, 2=id, 3=w (the loaded weight)
  std::vector<StmtPtr> inner;
  inner.push_back(Stmt::Assign(2, SExpr::IterValueAt(SExpr::Add(SExpr::Const(1), SExpr::Var(1)))));
  inner.push_back(Stmt::Assign(3, SExpr::ArrayElem(weights, {SExpr::Var(2)}, SExpr::Const(0))));
  inner.push_back(Stmt::BufferUpdate(weights, "weights", {SExpr::Var(2)}, {SExpr::Const(1)}));
  body.stmts.push_back(Stmt::Assign(0, SExpr::IterValueAt(SExpr::Const(0))));
  body.stmts.push_back(Stmt::For(1, SExpr::Var(0), std::move(inner)));

  LoopKernel kernel = [&](LoopContext& ctx, IdxSpan idx, const f32* value) {
    const int n = static_cast<int>(value[0]);
    for (int f = 0; f < n; ++f) {
      const i64 id[1] = {static_cast<i64>(value[1 + f])};
      // The prefetched read must be present (zero-initialized weights).
      (void)ctx.Read(weights, id);
      const f32 one = 1.0f;
      ctx.BufferUpdate(weights, id, &one);
    }
  };

  ParallelForOptions options;
  options.planner.replicate_threshold_floats = 0;  // force server weights
  auto loop = driver.CompileBody(samples, {kSamples}, /*ordered=*/false, body, kernel, options);
  ASSERT_TRUE(loop.ok()) << loop.status();
  EXPECT_EQ(driver.PlanOf(*loop).form, ParallelForm::k1D);
  EXPECT_EQ(driver.PlanOf(*loop).placements.at(weights).scheme, PartitionScheme::kServer);
  ASSERT_TRUE(driver.Execute(*loop).ok());

  const CellStore& out = driver.Cells(weights);
  for (i64 f = 0; f < kFeatures; ++f) {
    EXPECT_FLOAT_EQ(out.Get(f)[0], static_cast<f32>(want[static_cast<size_t>(f)]))
        << "feature " << f;
  }
}

TEST(StmtIr, CompileBodyReplaysKernelForServerReadsTheSliceDrops) {
  // b[a[i]]: a is range-partitioned, b server-hosted, and b's subscript is a
  // DistArray value, so the slice cannot record b's keys. The loop must
  // record them by kernel replay, or every read of b sees zeros.
  const i64 n = 40;
  DriverConfig cfg;
  cfg.num_workers = 2;
  Driver driver(cfg);
  const auto items = driver.CreateDistArray("items", {n}, 1, Density::kSparse);
  const auto a = driver.CreateDistArray("a", {n}, 1, Density::kDense);
  const auto b = driver.CreateDistArray("b", {n}, 1, Density::kDense);
  f64 want = 0.0;
  for (i64 i = 0; i < n; ++i) {
    driver.MutableCells(items).GetOrCreate(i)[0] = 1.0f;
    driver.MutableCells(a).GetOrCreate(i)[0] = static_cast<f32>((i * 7) % n);
    driver.MutableCells(b).GetOrCreate(i)[0] = static_cast<f32>(100 + i);
    want += static_cast<f64>(100 + (i * 7) % n);
  }
  const int acc = driver.CreateAccumulator();
  LoopKernel kernel = [=](LoopContext& ctx, IdxSpan idx, const f32*) {
    const i64 j[1] = {static_cast<i64>(ctx.Read(a, idx)[0])};
    ctx.AccumulatorAdd(acc, ctx.Read(b, j)[0]);
  };
  LoopBody body;
  body.num_index_dims = 1;
  body.num_vars = 2;
  body.stmts.push_back(
      Stmt::Assign(0, SExpr::ArrayElem(a, {SExpr::IndexVar(0)}, SExpr::Const(0))));
  body.stmts.push_back(Stmt::Assign(1, SExpr::ArrayElem(b, {SExpr::Var(0)}, SExpr::Const(0))));
  ParallelForOptions options;
  options.planner.replicate_threshold_floats = 0;
  auto loop = driver.CompileBody(items, {n}, /*ordered=*/false, body, kernel, options);
  ASSERT_TRUE(loop.ok()) << loop.status();
  ASSERT_EQ(driver.PlanOf(*loop).placements.at(b).scheme, PartitionScheme::kServer);
  ASSERT_TRUE(driver.Execute(*loop).ok());
  EXPECT_EQ(driver.AccumulatorValue(acc), want);
}

}  // namespace
}  // namespace orion
