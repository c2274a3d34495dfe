// Statement-level loop-body IR.
//
// The declaration API (LoopSpec::AddAccess) asks the programmer for each
// DistArray reference. This module is the next layer of the frontend: the
// loop body is written as a small *program* — scalar assignments, array
// loads/stores, buffered updates, counted loops and conditionals — from
// which Orion derives everything itself:
//
//   - the access declarations (subscript classification included), and
//   - the synthesized bulk-prefetch function (paper Sec. 4.4): a backward
//     slice of the body containing exactly the statements the server-array
//     subscripts depend on, compiled once and run per iteration to record
//     key lists
//     ("in spirit similar to dead code elimination").
//
// Scalars are f64 during evaluation; array cells are f32 spans indexed
// by (subscripts, element offset).
#ifndef ORION_SRC_IR_STMT_H_
#define ORION_SRC_IR_STMT_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/types.h"

namespace orion {

// ---------------------------------------------------------------------------
// Scalar expressions

enum class SOp : u8 {
  kConst,        // floating literal
  kIndexVar,     // the d-th loop index coordinate
  kVar,          // a scalar variable
  kIterValueAt,  // value[offset]: this iteration's value span
  kArrayElem,    // A[subs][elem]: a DistArray cell element
  kAdd,
  kSub,
  kMul,
  kDiv,
  kFloor,        // unary floor (integer subscript arithmetic)
};

class SExpr;
using SExprPtr = std::shared_ptr<const SExpr>;

class SExpr {
 public:
  static SExprPtr Const(f64 v) { return Make(SOp::kConst, v, -1, -1); }
  static SExprPtr IndexVar(int loop_dim) { return Make(SOp::kIndexVar, 0, loop_dim, -1); }
  static SExprPtr Var(int var) { return Make(SOp::kVar, 0, -1, var); }
  static SExprPtr IterValueAt(SExprPtr offset) {
    auto e = Make(SOp::kIterValueAt, 0, -1, -1);
    const_cast<SExpr*>(e.get())->children_ = {std::move(offset)};
    return e;
  }
  static SExprPtr ArrayElem(DistArrayId array, std::vector<SExprPtr> subs, SExprPtr elem) {
    auto e = Make(SOp::kArrayElem, 0, -1, -1);
    SExpr* m = const_cast<SExpr*>(e.get());
    m->array_ = array;
    m->children_ = std::move(subs);
    m->children_.push_back(std::move(elem));  // last child = element offset
    return e;
  }
  static SExprPtr Add(SExprPtr a, SExprPtr b) { return Binary(SOp::kAdd, a, b); }
  static SExprPtr Sub(SExprPtr a, SExprPtr b) { return Binary(SOp::kSub, a, b); }
  static SExprPtr Mul(SExprPtr a, SExprPtr b) { return Binary(SOp::kMul, a, b); }
  static SExprPtr Div(SExprPtr a, SExprPtr b) { return Binary(SOp::kDiv, a, b); }
  static SExprPtr Floor(SExprPtr a) {
    auto e = Make(SOp::kFloor, 0, -1, -1);
    const_cast<SExpr*>(e.get())->children_ = {std::move(a)};
    return e;
  }

  SOp op() const { return op_; }
  f64 constant() const { return constant_; }
  int loop_dim() const { return loop_dim_; }
  int var() const { return var_; }
  DistArrayId array() const { return array_; }
  const std::vector<SExprPtr>& children() const { return children_; }
  // For kArrayElem: the subscript children (all but the last).
  int num_subscripts() const { return static_cast<int>(children_.size()) - 1; }

 private:
  static SExprPtr Make(SOp op, f64 c, int dim, int var) {
    auto e = std::make_shared<SExpr>();
    e->op_ = op;
    e->constant_ = c;
    e->loop_dim_ = dim;
    e->var_ = var;
    return e;
  }
  static SExprPtr Binary(SOp op, SExprPtr a, SExprPtr b) {
    auto e = Make(op, 0, -1, -1);
    const_cast<SExpr*>(e.get())->children_ = {std::move(a), std::move(b)};
    return e;
  }

  SOp op_ = SOp::kConst;
  f64 constant_ = 0.0;
  int loop_dim_ = -1;
  int var_ = -1;
  DistArrayId array_ = kInvalidDistArrayId;
  std::vector<SExprPtr> children_;

  friend class SExprBuilderAccess;

 public:
  SExpr() = default;  // for make_shared
};

// ---------------------------------------------------------------------------
// Statements

enum class StmtKind : u8 {
  kAssign,        // var = expr
  kStore,         // A[subs][elem] = expr   (or += expr)
  kBufferUpdate,  // buffer(A)[subs] <- [expr...]
  kFor,           // for var in 0 .. count-1 { body }
  kIf,            // if (cond != 0) { body }
};

struct Stmt;
using StmtPtr = std::shared_ptr<const Stmt>;

struct Stmt {
  StmtKind kind = StmtKind::kAssign;

  // kAssign
  int var = -1;
  SExprPtr value;

  // kStore / kBufferUpdate
  DistArrayId array = kInvalidDistArrayId;
  std::string array_name;
  std::vector<SExprPtr> subscripts;
  SExprPtr elem_offset;           // kStore only
  bool accumulate = false;        // kStore: += instead of =
  std::vector<SExprPtr> update;   // kBufferUpdate: update_dim expressions

  // kFor / kIf
  SExprPtr count_or_cond;
  std::vector<StmtPtr> body;

  static StmtPtr Assign(int var, SExprPtr value) {
    auto s = std::make_shared<Stmt>();
    s->kind = StmtKind::kAssign;
    s->var = var;
    s->value = std::move(value);
    return s;
  }
  static StmtPtr Store(DistArrayId array, std::string name, std::vector<SExprPtr> subs,
                       SExprPtr elem, SExprPtr value, bool accumulate = false) {
    auto s = std::make_shared<Stmt>();
    s->kind = StmtKind::kStore;
    s->array = array;
    s->array_name = std::move(name);
    s->subscripts = std::move(subs);
    s->elem_offset = std::move(elem);
    s->value = std::move(value);
    s->accumulate = accumulate;
    return s;
  }
  static StmtPtr BufferUpdate(DistArrayId array, std::string name,
                              std::vector<SExprPtr> subs, std::vector<SExprPtr> update) {
    auto s = std::make_shared<Stmt>();
    s->kind = StmtKind::kBufferUpdate;
    s->array = array;
    s->array_name = std::move(name);
    s->subscripts = std::move(subs);
    s->update = std::move(update);
    return s;
  }
  static StmtPtr For(int counter_var, SExprPtr count, std::vector<StmtPtr> body) {
    auto s = std::make_shared<Stmt>();
    s->kind = StmtKind::kFor;
    s->var = counter_var;
    s->count_or_cond = std::move(count);
    s->body = std::move(body);
    return s;
  }
  static StmtPtr If(SExprPtr cond, std::vector<StmtPtr> body) {
    auto s = std::make_shared<Stmt>();
    s->kind = StmtKind::kIf;
    s->count_or_cond = std::move(cond);
    s->body = std::move(body);
    return s;
  }
};

// A loop body: the statement list plus bookkeeping the analyses need.
struct LoopBody {
  int num_index_dims = 0;  // iteration-space dimensionality
  int num_vars = 0;        // scalar variable count (ids 0..num_vars-1)
  std::vector<StmtPtr> stmts;
};

}  // namespace orion

#endif  // ORION_SRC_IR_STMT_H_
