// A tour of Orion's static parallelization (paper Sec. 4): for several loop
// shapes, print the classified subscripts, the computed dependence vectors,
// and the plan the planner derives — including a case that needs a
// unimodular (skewing) transformation and a case that cannot be
// parallelized without DistArray Buffers.
//
// Run: ./loop_analysis_tour
#include <cstdio>

#include "src/analysis/dependence.h"
#include "src/analysis/plan.h"
#include "src/ir/analyze_body.h"

using namespace orion;

namespace {

void Show(const char* title, const LoopSpec& spec,
          const std::map<DistArrayId, ArrayStats>& stats) {
  std::printf("== %s ==\n", title);
  for (const auto& a : spec.accesses) {
    std::printf("   access: %s\n", a.ToString().c_str());
  }
  const auto deps = ComputeDependenceVectors(spec);
  std::printf("   dependence vectors:");
  if (deps.empty()) {
    std::printf(" (none)");
  }
  for (const auto& d : deps) {
    std::printf(" %s", d.ToString().c_str());
  }
  PlannerOptions options;
  options.num_workers = 8;
  const auto plan = PlanLoop(spec, stats, options);
  std::printf("\n   plan: %s\n\n", plan.ToString().c_str());
}

}  // namespace

int main() {
  std::printf("Orion static parallelization tour (8 workers assumed)\n\n");

  {
    // SGD matrix factorization (paper Fig. 6).
    LoopSpec spec;
    spec.iter_space = 0;
    spec.iter_extents = {100000, 20000};
    spec.AddAccess(1, "W", {Expr::LoopIndex(0)}, false);
    spec.AddAccess(2, "H", {Expr::LoopIndex(1)}, false);
    spec.AddAccess(1, "W", {Expr::LoopIndex(0)}, true);
    spec.AddAccess(2, "H", {Expr::LoopIndex(1)}, true);
    Show("SGD MF: W[i], H[j] read+write", spec,
         {{1, {100000, 32}}, {2, {20000, 32}}});
  }
  {
    // Word co-occurrence count: writes only, fully independent per (i, j).
    LoopSpec spec;
    spec.iter_space = 0;
    spec.iter_extents = {50000, 50000};
    spec.AddAccess(1, "counts",
                   {Expr::Add(Expr::LoopIndex(0), Expr::Const(0)), Expr::LoopIndex(1)}, true);
    Show("pair counts: counts[i][j] write-only (unordered)", spec, {{1, {250000, 1}}});
  }
  {
    // Sparse logistic regression: runtime subscripts, buffered writes.
    LoopSpec spec;
    spec.iter_space = 0;
    spec.iter_extents = {1000000};
    spec.AddAccess(1, "weights", {Expr::Runtime("nonzero feature id")}, false);
    spec.AddAccess(1, "weights", {Expr::Runtime("nonzero feature id")}, true,
                   /*buffered=*/true);
    Show("SLR: weights[feature(sample)] read + buffered write", spec, {{1, {2000000, 1}}});
  }
  {
    // Same loop but with an *unbuffered* data-dependent write: not
    // statically parallelizable; the planner says to use a buffer.
    LoopSpec spec;
    spec.iter_space = 0;
    spec.iter_extents = {1000000};
    spec.AddAccess(1, "weights", {Expr::Runtime("nonzero feature id")}, false);
    spec.AddAccess(1, "weights", {Expr::Runtime("nonzero feature id")}, true);
    Show("SLR without buffers (unbuffered runtime write)", spec, {{1, {2000000, 1}}});
  }
  {
    // 2-D recurrence: needs a skewing transformation (paper Sec. 4.3).
    LoopSpec spec;
    spec.iter_space = 0;
    spec.iter_extents = {4000, 4000};
    spec.AddAccess(1, "C", {Expr::LoopIndex(0), Expr::LoopIndex(1)}, true);
    spec.AddAccess(1, "C", {Expr::Sub(Expr::LoopIndex(0), Expr::Const(1)), Expr::LoopIndex(1)},
                   false);
    spec.AddAccess(1, "C", {Expr::LoopIndex(0), Expr::Sub(Expr::LoopIndex(1), Expr::Const(1))},
                   false);
    Show("2-D recurrence C[i][j] = f(C[i-1][j], C[i][j-1])", spec, {{1, {16000000, 1}}});
  }
  {
    // Prefetch synthesis (paper Sec. 4.4): write the SLR body as a small
    // program; Orion slices out exactly the statements the weight
    // subscripts depend on and compiles them into the key recorder.
    std::printf("== prefetch synthesis for SLR (sliced access-pattern function) ==\n");
    LoopBody body;
    body.num_index_dims = 1;
    body.num_vars = 5;  // n, f, id, v, margin
    auto two_f = SExpr::Mul(SExpr::Const(2), SExpr::Var(1));
    std::vector<StmtPtr> inner;
    inner.push_back(Stmt::Assign(2, SExpr::IterValueAt(SExpr::Add(SExpr::Const(2), two_f))));
    inner.push_back(Stmt::Assign(3, SExpr::IterValueAt(SExpr::Add(SExpr::Const(3), two_f))));
    inner.push_back(Stmt::Assign(
        4, SExpr::Add(SExpr::Var(4),
                      SExpr::Mul(SExpr::ArrayElem(1, {SExpr::Var(2)}, SExpr::Const(0)),
                                 SExpr::Var(3)))));
    body.stmts.push_back(Stmt::Assign(0, SExpr::IterValueAt(SExpr::Const(1))));
    body.stmts.push_back(Stmt::Assign(4, SExpr::Const(0)));
    body.stmts.push_back(Stmt::For(1, SExpr::Var(0), std::move(inner)));

    auto program = SynthesizePrefetch(body);
    std::printf("   prefetchable arrays: %zu, unprefetchable: %zu\n",
                program.target_arrays().size(), program.unprefetchable().size());
    const f32 sample[8] = {1.0f, 3.0f, 17.0f, 0.5f, 4.0f, 0.25f, 99.0f, 1.0f};
    program.BindKeySpace(1, KeySpace({1000}));
    std::vector<f64> frame(program.frame_size());
    std::vector<i64> keys;
    const i64 idx[1] = {0};
    program.Run(idx, sample, 8, frame, [&](int, i64 key) { keys.push_back(key); });
    std::printf("   sample [n=3, ids 17 4 99] -> recorded keys:");
    for (i64 k : keys) {
      std::printf(" %lld", static_cast<long long>(k));
    }
    std::printf("\n\n");
  }
  {
    // Scaled subscript: conservatively a range -> serial.
    LoopSpec spec;
    spec.iter_space = 0;
    spec.iter_extents = {10000};
    spec.AddAccess(1, "A", {Expr::Mul(Expr::Const(2), Expr::LoopIndex(0))}, true);
    spec.AddAccess(1, "A", {Expr::LoopIndex(0)}, false);
    Show("A[2*i] write, A[i] read (non-affine-analyzable subscript)", spec,
         {{1, {20000, 1}}});
  }
  return 0;
}
