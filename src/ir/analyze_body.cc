#include "src/ir/analyze_body.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <tuple>

namespace orion {

namespace {

// ---------------------------------------------------------------------------
// Subscript classification over scalar expressions

// Linear form coeff * index_dim + constant, or taint flags.
struct SLinear {
  bool has_runtime = false;   // variables / iteration values
  bool has_array_read = false;
  bool nonlinear = false;
  f64 constant = 0.0;
  std::vector<std::pair<int, f64>> coeffs;  // (loop_dim, coeff)

  void AddCoeff(int dim, f64 c) {
    for (auto& [d, existing] : coeffs) {
      if (d == dim) {
        existing += c;
        return;
      }
    }
    coeffs.push_back({dim, c});
  }
  void PruneZeros() {
    std::erase_if(coeffs, [](const auto& p) { return p.second == 0.0; });
  }
};

SLinear AnalyzeLinear(const SExpr& e) {
  SLinear f;
  switch (e.op()) {
    case SOp::kConst:
      f.constant = e.constant();
      return f;
    case SOp::kIndexVar:
      f.AddCoeff(e.loop_dim(), 1.0);
      return f;
    case SOp::kVar:
    case SOp::kIterValueAt:
      f.has_runtime = true;
      // IterValueAt's offset may itself read arrays; propagate.
      for (const auto& c : e.children()) {
        const SLinear sub = AnalyzeLinear(*c);
        f.has_array_read |= sub.has_array_read;
      }
      return f;
    case SOp::kArrayElem:
      f.has_runtime = true;
      f.has_array_read = true;
      return f;
    case SOp::kFloor: {
      SLinear a = AnalyzeLinear(*e.children()[0]);
      // floor() of a pure-integer linear form is the form itself; treat any
      // other shape conservatively.
      return a;
    }
    case SOp::kAdd:
    case SOp::kSub: {
      SLinear a = AnalyzeLinear(*e.children()[0]);
      SLinear b = AnalyzeLinear(*e.children()[1]);
      f.has_runtime = a.has_runtime || b.has_runtime;
      f.has_array_read = a.has_array_read || b.has_array_read;
      f.nonlinear = a.nonlinear || b.nonlinear;
      const f64 sign = e.op() == SOp::kAdd ? 1.0 : -1.0;
      f.constant = a.constant + sign * b.constant;
      f.coeffs = a.coeffs;
      for (const auto& [d, c] : b.coeffs) {
        f.AddCoeff(d, sign * c);
      }
      f.PruneZeros();
      return f;
    }
    case SOp::kMul:
    case SOp::kDiv: {
      SLinear a = AnalyzeLinear(*e.children()[0]);
      SLinear b = AnalyzeLinear(*e.children()[1]);
      f.has_runtime = a.has_runtime || b.has_runtime;
      f.has_array_read = a.has_array_read || b.has_array_read;
      if (a.coeffs.empty() && b.coeffs.empty()) {
        f.constant = e.op() == SOp::kMul ? a.constant * b.constant
                                         : a.constant / b.constant;
        f.nonlinear = a.nonlinear || b.nonlinear;
        return f;
      }
      if (e.op() == SOp::kMul && (a.coeffs.empty() || b.coeffs.empty())) {
        const SLinear& lin = a.coeffs.empty() ? b : a;
        const f64 k = a.coeffs.empty() ? a.constant : b.constant;
        f.constant = lin.constant * k;
        for (const auto& [d, c] : lin.coeffs) {
          f.AddCoeff(d, c * k);
        }
        f.PruneZeros();
        f.nonlinear = a.nonlinear || b.nonlinear;
        return f;
      }
      f.nonlinear = true;
      return f;
    }
  }
  f.nonlinear = true;
  return f;
}

// Collects every kArrayElem read in an expression tree (including nested
// reads inside subscripts).
void CollectReads(const SExprPtr& e, std::vector<const SExpr*>* out) {
  if (e == nullptr) {
    return;
  }
  if (e->op() == SOp::kArrayElem) {
    out->push_back(e.get());
  }
  for (const auto& c : e->children()) {
    CollectReads(c, out);
  }
}

// Collects scalar variable ids referenced by an expression.
void CollectVars(const SExprPtr& e, std::set<int>* out) {
  if (e == nullptr) {
    return;
  }
  if (e->op() == SOp::kVar) {
    out->insert(e->var());
  }
  for (const auto& c : e->children()) {
    CollectVars(c, out);
  }
}

bool ContainsArrayRead(const SExprPtr& e) {
  if (e == nullptr) {
    return false;
  }
  if (e->op() == SOp::kArrayElem) {
    return true;
  }
  for (const auto& c : e->children()) {
    if (ContainsArrayRead(c)) {
      return true;
    }
  }
  return false;
}

}  // namespace

Subscript ClassifySubscriptExpr(const SExprPtr& e) {
  const SLinear f = AnalyzeLinear(*e);
  if (f.has_runtime) {
    return Subscript::MakeRuntime();
  }
  if (f.nonlinear) {
    return Subscript::MakeRange();
  }
  if (f.coeffs.empty()) {
    return Subscript::MakeConstant(static_cast<i64>(f.constant));
  }
  if (f.coeffs.size() == 1 && f.coeffs[0].second == 1.0) {
    return Subscript::MakeLoopIndex(f.coeffs[0].first, static_cast<i64>(f.constant));
  }
  return Subscript::MakeRange();
}

// ---------------------------------------------------------------------------
// Access extraction

namespace {

void AddAccessIfNew(std::vector<ArrayAccess>* out, ArrayAccess access) {
  for (const auto& existing : *out) {
    if (existing.array == access.array && existing.is_write == access.is_write &&
        existing.buffered == access.buffered && existing.subscripts == access.subscripts) {
      return;
    }
  }
  out->push_back(std::move(access));
}

ArrayAccess MakeAccess(DistArrayId array, std::string name,
                       const std::vector<SExprPtr>& subs, bool is_write, bool buffered) {
  ArrayAccess a;
  a.array = array;
  a.array_name = std::move(name);
  a.subscripts.reserve(subs.size());
  for (const auto& s : subs) {
    a.subscripts.push_back(ClassifySubscriptExpr(s));
  }
  a.is_write = is_write;
  a.buffered = buffered;
  return a;
}

void ExtractFromExpr(const SExprPtr& e, std::vector<ArrayAccess>* out) {
  std::vector<const SExpr*> reads;
  CollectReads(e, &reads);
  for (const SExpr* r : reads) {
    std::vector<SExprPtr> subs(r->children().begin(), r->children().end() - 1);
    AddAccessIfNew(out, MakeAccess(r->array(), "array" + std::to_string(r->array()), subs,
                                   /*is_write=*/false, /*buffered=*/false));
  }
}

void ExtractFromStmts(const std::vector<StmtPtr>& stmts, std::vector<ArrayAccess>* out) {
  for (const auto& s : stmts) {
    switch (s->kind) {
      case StmtKind::kAssign:
        ExtractFromExpr(s->value, out);
        break;
      case StmtKind::kStore: {
        ExtractFromExpr(s->value, out);
        ExtractFromExpr(s->elem_offset, out);
        for (const auto& sub : s->subscripts) {
          ExtractFromExpr(sub, out);
        }
        AddAccessIfNew(out, MakeAccess(s->array, s->array_name, s->subscripts,
                                       /*is_write=*/true, /*buffered=*/false));
        // A += store also reads the cell.
        if (s->accumulate) {
          AddAccessIfNew(out, MakeAccess(s->array, s->array_name, s->subscripts,
                                         /*is_write=*/false, /*buffered=*/false));
        }
        break;
      }
      case StmtKind::kBufferUpdate: {
        for (const auto& u : s->update) {
          ExtractFromExpr(u, out);
        }
        for (const auto& sub : s->subscripts) {
          ExtractFromExpr(sub, out);
        }
        AddAccessIfNew(out, MakeAccess(s->array, s->array_name, s->subscripts,
                                       /*is_write=*/true, /*buffered=*/true));
        break;
      }
      case StmtKind::kFor:
      case StmtKind::kIf:
        ExtractFromExpr(s->count_or_cond, out);
        ExtractFromStmts(s->body, out);
        break;
    }
  }
}

}  // namespace

std::vector<ArrayAccess> ExtractAccesses(const LoopBody& body) {
  std::vector<ArrayAccess> out;
  ExtractFromStmts(body.stmts, &out);
  return out;
}

// ---------------------------------------------------------------------------
// Prefetch synthesis (backward slice)

namespace {

// The sliced tree, lowered into a PrefetchProgram once slicing is done.
struct Node {
  enum class Kind : u8 { kAssign, kFor, kIf, kRecord };
  Kind kind = Kind::kAssign;
  // kAssign / kFor: variable or counter.
  int var = -1;
  // kAssign: value; kFor: count; kIf: condition.
  SExprPtr expr;
  // kRecord: the target read.
  DistArrayId array = kInvalidDistArrayId;
  std::vector<SExprPtr> subscripts;
  // kFor / kIf children.
  std::vector<Node> body;
};

// Taint: variables whose values (transitively) derive from DistArray reads.
// Subscripts built from tainted variables cannot be prefetched.
void ComputeTaint(const std::vector<StmtPtr>& stmts, std::vector<bool>* tainted) {
  for (const auto& s : stmts) {
    switch (s->kind) {
      case StmtKind::kAssign: {
        bool t = ContainsArrayRead(s->value);
        std::set<int> vars;
        CollectVars(s->value, &vars);
        for (int v : vars) {
          t = t || (*tainted)[static_cast<size_t>(v)];
        }
        if (t) {
          (*tainted)[static_cast<size_t>(s->var)] = true;
        }
        break;
      }
      case StmtKind::kFor:
      case StmtKind::kIf:
        ComputeTaint(s->body, tainted);
        break;
      default:
        break;
    }
  }
}

bool SubscriptsPrefetchable(const std::vector<SExprPtr>& subs,
                            const std::vector<bool>& tainted) {
  for (const auto& sub : subs) {
    if (ContainsArrayRead(sub)) {
      return false;
    }
    std::set<int> vars;
    CollectVars(sub, &vars);
    for (int v : vars) {
      if (tainted[static_cast<size_t>(v)]) {
        return false;
      }
    }
  }
  return true;
}

struct SliceBuilder {
  const std::vector<bool>& tainted;
  std::vector<DistArrayId>* target_arrays;
  std::vector<DistArrayId>* unprefetchable;

  // Builds the mirror tree with Record nodes for each prefetchable read.
  std::vector<Node> Mirror(const std::vector<StmtPtr>& stmts) {
    std::vector<Node> out;
    for (const auto& s : stmts) {
      // Record nodes for reads appearing in this statement's expressions.
      std::vector<const SExpr*> reads;
      switch (s->kind) {
        case StmtKind::kAssign:
          CollectReads(s->value, &reads);
          break;
        case StmtKind::kStore:
          CollectReads(s->value, &reads);
          CollectReads(s->elem_offset, &reads);
          for (const auto& sub : s->subscripts) {
            CollectReads(sub, &reads);
          }
          if (s->accumulate) {
            // The += read of the stored cell itself.
            // (Represented by the store's own subscripts.)
          }
          break;
        case StmtKind::kBufferUpdate:
          for (const auto& u : s->update) {
            CollectReads(u, &reads);
          }
          for (const auto& sub : s->subscripts) {
            CollectReads(sub, &reads);
          }
          break;
        case StmtKind::kFor:
        case StmtKind::kIf:
          CollectReads(s->count_or_cond, &reads);
          break;
      }
      for (const SExpr* r : reads) {
        std::vector<SExprPtr> subs(r->children().begin(), r->children().end() - 1);
        if (SubscriptsPrefetchable(subs, tainted)) {
          Node rec;
          rec.kind = Node::Kind::kRecord;
          rec.array = r->array();
          rec.subscripts = std::move(subs);
          target_arrays->push_back(r->array());
          out.push_back(std::move(rec));
        } else {
          unprefetchable->push_back(r->array());
        }
      }
      // The statement itself.
      switch (s->kind) {
        case StmtKind::kAssign: {
          Node n;
          n.kind = Node::Kind::kAssign;
          n.var = s->var;
          n.expr = s->value;
          out.push_back(std::move(n));
          break;
        }
        case StmtKind::kFor: {
          Node n;
          n.kind = Node::Kind::kFor;
          n.var = s->var;
          n.expr = s->count_or_cond;
          n.body = Mirror(s->body);
          out.push_back(std::move(n));
          break;
        }
        case StmtKind::kIf: {
          Node n;
          n.kind = Node::Kind::kIf;
          n.expr = s->count_or_cond;
          n.body = Mirror(s->body);
          out.push_back(std::move(n));
          break;
        }
        case StmtKind::kStore:
        case StmtKind::kBufferUpdate:
          break;  // writes never join the prefetch slice
      }
    }
    return out;
  }
};

// Backward pass: keep Records; keep Assigns whose variable is needed; keep
// For/If blocks containing kept children (their condition vars become
// needed). Returns the sliced block and whether anything was kept.
bool SliceBlock(std::vector<Node>* block, std::set<int>* needed) {
  std::vector<Node> kept;
  bool any = false;
  for (auto it = block->rbegin(); it != block->rend(); ++it) {
    Node& n = *it;
    switch (n.kind) {
      case Node::Kind::kRecord: {
        for (const auto& sub : n.subscripts) {
          CollectVars(sub, needed);
        }
        kept.push_back(std::move(n));
        any = true;
        break;
      }
      case Node::Kind::kAssign: {
        // An assignment inside an expression that *drops* array values never
        // reaches a subscript (taint analysis guaranteed that), so keeping
        // it is only necessary when its variable is needed.
        if (needed->count(n.var) > 0) {
          CollectVars(n.expr, needed);
          kept.push_back(std::move(n));
          any = true;
        }
        break;
      }
      case Node::Kind::kFor: {
        if (SliceBlock(&n.body, needed)) {
          CollectVars(n.expr, needed);
          // Loop counter is defined by the For itself; it stops being an
          // external need.
          needed->erase(n.var);
          kept.push_back(std::move(n));
          any = true;
        }
        break;
      }
      case Node::Kind::kIf: {
        if (SliceBlock(&n.body, needed)) {
          CollectVars(n.expr, needed);
          kept.push_back(std::move(n));
          any = true;
        }
        break;
      }
    }
  }
  std::reverse(kept.begin(), kept.end());
  *block = std::move(kept);
  return any;
}

}  // namespace

// ---------------------------------------------------------------------------
// Lowering the slice

namespace {

// Inputs and intermediates of a folded affine op stay below this, so every
// one is an integer that f64 holds exactly. (2^52, not 2^53: the margin
// absorbs rounding in the f64 bound arithmetic below.)
constexpr f64 kFoldBound = 4503599627370496.0;

bool IsConstantTree(const SExpr& e) {
  switch (e.op()) {
    case SOp::kConst:
      return true;
    case SOp::kIndexVar:
    case SOp::kVar:
    case SOp::kIterValueAt:
    case SOp::kArrayElem:
      return false;
    default:
      break;
  }
  for (const auto& c : e.children()) {
    if (!IsConstantTree(*c)) {
      return false;
    }
  }
  return true;
}

// A constant tree's value, computed as node-by-node f64 evaluation does.
f64 EvalConstantTree(const SExpr& e) {
  switch (e.op()) {
    case SOp::kAdd:
      return EvalConstantTree(*e.children()[0]) + EvalConstantTree(*e.children()[1]);
    case SOp::kSub:
      return EvalConstantTree(*e.children()[0]) - EvalConstantTree(*e.children()[1]);
    case SOp::kMul:
      return EvalConstantTree(*e.children()[0]) * EvalConstantTree(*e.children()[1]);
    case SOp::kDiv:
      return EvalConstantTree(*e.children()[0]) / EvalConstantTree(*e.children()[1]);
    case SOp::kFloor:
      return std::floor(EvalConstantTree(*e.children()[0]));
    default:
      return e.constant();
  }
}

// Stack slots that evaluating `e` needs.
u32 StackNeed(const SExpr& e) {
  if (IsConstantTree(e)) {
    return 1;
  }
  switch (e.op()) {
    case SOp::kIterValueAt:
    case SOp::kFloor:
      return StackNeed(*e.children()[0]);
    case SOp::kAdd:
    case SOp::kSub:
    case SOp::kMul:
    case SOp::kDiv:
      return std::max(StackNeed(*e.children()[0]), 1 + StackNeed(*e.children()[1]));
    default:
      return 1;
  }
}

void CollectAssigned(const std::vector<Node>& block, std::set<int>* out) {
  for (const Node& n : block) {
    if (n.kind == Node::Kind::kAssign) {
      out->insert(n.var);
    }
    CollectAssigned(n.body, out);
  }
}

}  // namespace

struct ProgramLowering {
  using Op = PrefetchProgram::Op;
  using OpCode = PrefetchProgram::OpCode;
  using Term = PrefetchProgram::Term;

  // c + sum(terms), where |value| <= abs_c + abs_x * X whenever every
  // input's magnitude is at most X; peak_c and peak_x bound every subtree
  // the same way.
  struct Form {
    i64 constant = 0;
    std::vector<Term> terms;
    f64 abs_c = 0.0;
    f64 abs_x = 0.0;
    f64 peak_c = 0.0;
    f64 peak_x = 0.0;

    bool Bounded() const { return peak_c < kFoldBound && peak_x < kFoldBound; }
    void Settle() {
      peak_c = std::max(peak_c, abs_c);
      peak_x = std::max(peak_x, abs_x);
    }
  };

  PrefetchProgram* p;
  std::set<int> assigned;         // variables some kept assignment writes
  std::map<int, i32> slot_of;     // variable -> frame slot
  u32 stack_need = 1;
  u32 num_columns = 0;

  i32 Slot(int var) {
    return slot_of.emplace(var, static_cast<i32>(slot_of.size())).first->second;
  }

  // The affine form of `e` over index dimensions and loop counters (any
  // variable no kept assignment writes: it only ever holds a counter's
  // integer, or zero), with integer constants; nullopt for any other shape.
  std::optional<Form> AffineOf(const SExpr& e) {
    Form f;
    if (IsConstantTree(e)) {
      const f64 v = EvalConstantTree(e);
      if (!(std::abs(v) < kFoldBound) || v != std::floor(v)) {
        return std::nullopt;
      }
      f.constant = static_cast<i64>(v);
      f.abs_c = std::abs(v);
      f.Settle();
      return f;
    }
    switch (e.op()) {
      case SOp::kIndexVar:
        f.terms.push_back({.index = true, .arg = e.loop_dim(), .coeff = 1});
        f.abs_x = 1.0;
        f.Settle();
        return f;
      case SOp::kVar:
        if (assigned.count(e.var()) > 0) {
          return std::nullopt;
        }
        f.terms.push_back({.index = false, .arg = Slot(e.var()), .coeff = 1});
        f.abs_x = 1.0;
        f.Settle();
        return f;
      case SOp::kFloor:
        return AffineOf(*e.children()[0]);
      case SOp::kAdd:
      case SOp::kSub: {
        auto a = AffineOf(*e.children()[0]);
        auto b = AffineOf(*e.children()[1]);
        if (!a || !b) {
          return std::nullopt;
        }
        const i64 sign = e.op() == SOp::kAdd ? 1 : -1;
        f = std::move(*a);
        f.constant += sign * b->constant;
        for (const Term& t : b->terms) {
          auto same = std::find_if(f.terms.begin(), f.terms.end(), [&](const Term& u) {
            return u.index == t.index && u.arg == t.arg;
          });
          // A term whose coefficient cancels stays: its input is still
          // bounds-checked, since the unfolded code computes with it.
          if (same != f.terms.end()) {
            same->coeff += sign * t.coeff;
          } else {
            f.terms.push_back({.index = t.index, .arg = t.arg, .coeff = sign * t.coeff});
          }
        }
        f.abs_c += b->abs_c;
        f.abs_x += b->abs_x;
        f.peak_c = std::max(f.peak_c, b->peak_c);
        f.peak_x = std::max(f.peak_x, b->peak_x);
        f.Settle();
        return f.Bounded() ? std::optional<Form>(std::move(f)) : std::nullopt;
      }
      case SOp::kMul: {
        const SExpr& l = *e.children()[0];
        const SExpr& r = *e.children()[1];
        const bool l_const = IsConstantTree(l);
        if (!l_const && !IsConstantTree(r)) {
          return std::nullopt;
        }
        auto k = AffineOf(l_const ? l : r);
        auto x = AffineOf(l_const ? r : l);
        if (!k || !x) {
          return std::nullopt;
        }
        f = std::move(*x);
        const f64 scale = std::abs(static_cast<f64>(k->constant));
        f.abs_c *= scale;
        f.abs_x *= scale;
        f.Settle();
        if (!f.Bounded()) {
          return std::nullopt;
        }
        f.constant *= k->constant;
        for (Term& t : f.terms) {
          t.coeff *= k->constant;
        }
        return f;
      }
      default:
        return std::nullopt;
    }
  }

  // Appends the code of `e` to *code, folding affine subtrees unless
  // `plain` (a fold's own fallback code).
  void Emit(const SExpr& e, std::vector<Op>* code, bool plain) {
    if (IsConstantTree(e)) {
      code->push_back({.code = OpCode::kConst, .arg = 0, .constant = EvalConstantTree(e)});
      return;
    }
    const SOp op = e.op();
    if (!plain && op != SOp::kIndexVar && op != SOp::kVar) {
      if (auto form = AffineOf(e); form && form->Bounded()) {
        PrefetchProgram::Affine a;
        a.constant = form->constant;
        a.limit = std::floor((kFoldBound - form->peak_c) / form->peak_x);
        a.terms_begin = static_cast<u32>(p->terms_.size());
        p->terms_.insert(p->terms_.end(), form->terms.begin(), form->terms.end());
        a.terms_end = static_cast<u32>(p->terms_.size());
        std::vector<Op> fallback;
        Emit(e, &fallback, /*plain=*/true);
        std::tie(a.fallback_begin, a.fallback_end) = Append(fallback);
        code->push_back({.code = OpCode::kAffine,
                         .arg = static_cast<i32>(p->affines_.size()),
                         .constant = 0.0});
        p->affines_.push_back(a);
        return;
      }
    }
    switch (op) {
      case SOp::kIndexVar:
        code->push_back({.code = OpCode::kIndex, .arg = e.loop_dim(), .constant = 0.0});
        return;
      case SOp::kVar:
        code->push_back({.code = OpCode::kSlot, .arg = Slot(e.var()), .constant = 0.0});
        return;
      case SOp::kIterValueAt:
        Emit(*e.children()[0], code, plain);
        code->push_back({.code = OpCode::kIterValue, .arg = 0, .constant = 0.0});
        return;
      case SOp::kArrayElem:
        code->push_back({.code = OpCode::kArrayElem, .arg = 0, .constant = 0.0});
        return;
      case SOp::kFloor:
        Emit(*e.children()[0], code, plain);
        code->push_back({.code = OpCode::kFloor, .arg = 0, .constant = 0.0});
        return;
      default:
        break;
    }
    Emit(*e.children()[0], code, plain);
    Emit(*e.children()[1], code, plain);
    OpCode binary = OpCode::kAdd;
    switch (op) {
      case SOp::kSub:
        binary = OpCode::kSub;
        break;
      case SOp::kMul:
        binary = OpCode::kMul;
        break;
      case SOp::kDiv:
        binary = OpCode::kDiv;
        break;
      default:
        break;
    }
    code->push_back({.code = binary, .arg = 0, .constant = 0.0});
  }

  std::pair<u32, u32> Append(const std::vector<Op>& code) {
    const u32 begin = static_cast<u32>(p->ops_.size());
    p->ops_.insert(p->ops_.end(), code.begin(), code.end());
    return {begin, static_cast<u32>(p->ops_.size())};
  }

  PrefetchProgram::Expr LowerExpr(const SExprPtr& e) {
    using Shape = PrefetchProgram::Shape;
    std::vector<Op> code;
    Emit(*e, &code, /*plain=*/false);
    stack_need = std::max(stack_need, StackNeed(*e));
    PrefetchProgram::Expr expr;
    std::tie(expr.begin, expr.end) = Append(code);
    const Op& first = code[0];
    const bool load = code.size() == 2 && code[1].code == OpCode::kIterValue;
    if (code.size() == 1 && first.code == OpCode::kSlot) {
      expr.shape = Shape::kSlot;
      expr.arg = first.arg;
    } else if (code.size() == 1 && first.code == OpCode::kConst) {
      expr.shape = Shape::kConst;
      expr.constant = first.constant;
    } else if (load && first.code == OpCode::kConst) {
      expr.shape = Shape::kLoadConst;
      expr.constant = first.constant;
    } else if ((code.size() == 1 || load) && first.code == OpCode::kAffine) {
      // A fold of one input runs inline.
      const PrefetchProgram::Affine& a = p->affines_[static_cast<size_t>(first.arg)];
      if (a.terms_end - a.terms_begin == 1) {
        const PrefetchProgram::Term& t = p->terms_[a.terms_begin];
        expr.shape = load ? Shape::kLoadLinear : Shape::kLinear;
        expr.index = t.index;
        expr.arg = t.arg;
        expr.offset = a.constant;
        expr.coeff = t.coeff;
        expr.limit = a.limit;
        expr.affine = static_cast<u32>(first.arg);
      }
    }
    return expr;
  }

  // Marks each For whose body can run as columns as a vector loop, and
  // gives its body steps their columns. The body must be assignments and
  // records whose expressions all have a direct shape, must not assign the
  // counter, and must read each variable it assigns only after assigning it
  // in the same iteration.
  void Vectorize() {
    using Shape = PrefetchProgram::Shape;
    using StepKind = PrefetchProgram::StepKind;
    auto& steps = p->steps_;
    for (size_t at = 0; at < steps.size(); ++at) {
      PrefetchProgram::Step& loop = steps[at];
      if (loop.kind != StepKind::kFor) {
        continue;
      }
      const size_t body = at + 1;
      const size_t end = body + loop.extent;
      std::set<i32> assigned_here;
      bool straight = true;
      for (size_t b = body; b < end; ++b) {
        if (steps[b].kind == StepKind::kAssign) {
          assigned_here.insert(steps[b].slot);
        } else {
          straight = straight && steps[b].kind == StepKind::kRecord;
        }
      }
      if (!straight) {
        continue;
      }
      std::map<i32, i32> column_of;  // slot -> column of its latest assignment
      auto direct = [&](PrefetchProgram::Expr* e) {
        if (e->shape == Shape::kOps) {
          return false;
        }
        if (e->shape == Shape::kSlot && assigned_here.count(e->arg) > 0) {
          const auto it = column_of.find(e->arg);
          if (it == column_of.end()) {
            return false;  // the value of the previous iteration
          }
          e->column = it->second;
        }
        return true;
      };
      bool ok = assigned_here.count(loop.slot) == 0;
      i32 columns = 0;
      i32 records = 0;
      for (size_t b = body; b < end && ok; ++b) {
        PrefetchProgram::Step& step = steps[b];
        if (step.kind == StepKind::kAssign) {
          ok = direct(&step.expr);
          column_of[step.slot] = columns;
        } else {
          for (u32 k = 0; k < step.extent && ok; ++k) {
            ok = direct(&p->exprs_[step.subs + k]);
          }
          loop.record = records++ == 0 ? static_cast<i32>(b) : -1;
        }
        step.column = columns++;
      }
      loop.vector = ok;
      if (ok) {
        num_columns = std::max(num_columns, static_cast<u32>(columns) + 1);  // + scratch
      }
    }
  }

  void Lower(const std::vector<Node>& block) {
    using Step = PrefetchProgram::Step;
    using StepKind = PrefetchProgram::StepKind;
    for (const Node& n : block) {
      Step step;
      switch (n.kind) {
        case Node::Kind::kAssign:
          step.kind = StepKind::kAssign;
          step.slot = Slot(n.var);
          step.expr = LowerExpr(n.expr);
          p->steps_.push_back(step);
          break;
        case Node::Kind::kRecord: {
          const auto& targets = p->target_arrays_;
          step.kind = StepKind::kRecord;
          step.slot = static_cast<i32>(
              std::lower_bound(targets.begin(), targets.end(), n.array) - targets.begin());
          step.extent = static_cast<u32>(n.subscripts.size());
          step.subs = static_cast<u32>(p->exprs_.size());
          for (const auto& sub : n.subscripts) {
            p->exprs_.push_back(LowerExpr(sub));
          }
          p->steps_.push_back(step);
          break;
        }
        case Node::Kind::kFor:
        case Node::Kind::kIf: {
          const bool is_for = n.kind == Node::Kind::kFor;
          step.kind = is_for ? StepKind::kFor : StepKind::kIf;
          step.slot = is_for ? Slot(n.var) : -1;
          step.expr = LowerExpr(n.expr);
          const size_t at = p->steps_.size();
          p->steps_.push_back(step);
          Lower(n.body);
          p->steps_[at].extent = static_cast<u32>(p->steps_.size() - at - 1);
          break;
        }
      }
    }
  }
};

PrefetchProgram SynthesizePrefetch(const LoopBody& body) {
  PrefetchProgram program;

  std::vector<bool> tainted(static_cast<size_t>(body.num_vars), false);
  ComputeTaint(body.stmts, &tainted);

  SliceBuilder builder{tainted, &program.target_arrays_, &program.unprefetchable_};
  std::vector<Node> slice = builder.Mirror(body.stmts);
  std::set<int> needed;
  program.has_targets_ = SliceBlock(&slice, &needed);

  std::sort(program.target_arrays_.begin(), program.target_arrays_.end());
  program.target_arrays_.erase(
      std::unique(program.target_arrays_.begin(), program.target_arrays_.end()),
      program.target_arrays_.end());
  std::sort(program.unprefetchable_.begin(), program.unprefetchable_.end());
  program.unprefetchable_.erase(
      std::unique(program.unprefetchable_.begin(), program.unprefetchable_.end()),
      program.unprefetchable_.end());

  ProgramLowering lowering{.p = &program, .assigned = {}, .slot_of = {}};
  CollectAssigned(slice, &lowering.assigned);
  lowering.Lower(slice);
  lowering.Vectorize();
  program.num_slots_ = static_cast<u32>(lowering.slot_of.size());
  program.num_columns_ = lowering.num_columns;
  program.frame_size_ = program.num_slots_ +
                        static_cast<size_t>(program.num_columns_) * PrefetchProgram::kLanes +
                        lowering.stack_need;
  return program;
}

// ---------------------------------------------------------------------------
// Evaluation: the out-of-line paths

f64 PrefetchProgram::EvalAffine(const Affine& a, f64* stack, const Inputs& in) const {
  i64 acc = a.constant;
  for (u32 t = a.terms_begin; t < a.terms_end; ++t) {
    const Term& term = terms_[t];
    const f64 x = term.index ? static_cast<f64>(in.idx[static_cast<size_t>(term.arg)])
                             : in.frame[term.arg];
    if (!(std::abs(x) <= a.limit)) [[unlikely]] {
      return EvalOps(a.fallback_begin, a.fallback_end, stack, in);
    }
    acc += term.coeff * static_cast<i64>(x);
  }
  if (acc == 0) [[unlikely]] {
    return EvalOps(a.fallback_begin, a.fallback_end, stack, in);
  }
  return static_cast<f64>(acc);
}

f64 PrefetchProgram::EvalOps(u32 begin, u32 end, f64* stack, const Inputs& in) const {
  f64* sp = stack;  // one past the top
  for (u32 i = begin; i < end; ++i) {
    const Op& op = ops_[i];
    switch (op.code) {
      case OpCode::kConst:
        *sp++ = op.constant;
        break;
      case OpCode::kIndex:
        *sp++ = static_cast<f64>(in.idx[static_cast<size_t>(op.arg)]);
        break;
      case OpCode::kSlot:
        *sp++ = in.frame[op.arg];
        break;
      case OpCode::kAffine:
        *sp = EvalAffine(affines_[static_cast<size_t>(op.arg)], sp, in);
        ++sp;
        break;
      case OpCode::kIterValue:
        sp[-1] = Load(sp[-1], in);
        break;
      case OpCode::kArrayElem:
        FailArrayRead();
      case OpCode::kAdd:
        --sp;
        sp[-1] = sp[-1] + sp[0];
        break;
      case OpCode::kSub:
        --sp;
        sp[-1] = sp[-1] - sp[0];
        break;
      case OpCode::kMul:
        --sp;
        sp[-1] = sp[-1] * sp[0];
        break;
      case OpCode::kDiv:
        --sp;
        sp[-1] = sp[-1] / sp[0];
        break;
      case OpCode::kFloor:
        sp[-1] = std::floor(sp[-1]);
        break;
    }
  }
  return sp[-1];
}

bool PrefetchProgram::EvalColumn(const Expr& e, i32 counter, i64 first, u32 lanes, f64* out,
                                 const Inputs& in) const {
  switch (e.shape) {
    case Shape::kConst:
      std::fill_n(out, lanes, e.constant);
      return true;
    case Shape::kSlot:
      if (e.column >= 0) {
        std::copy_n(in.columns + static_cast<size_t>(e.column) * kLanes, lanes, out);
      } else if (e.arg == counter) {
        for (u32 j = 0; j < lanes; ++j) {
          out[j] = static_cast<f64>(first + j);
        }
      } else {
        std::fill_n(out, lanes, in.frame[e.arg]);
      }
      return true;
    case Shape::kLoadConst: {
      const i64 at = static_cast<i64>(e.constant);
      if (at < 0 || at >= in.value_dim) {
        return false;
      }
      std::fill_n(out, lanes, static_cast<f64>(in.value[at]));
      return true;
    }
    case Shape::kLinear:
    case Shape::kLoadLinear: {
      const bool load = e.shape == Shape::kLoadLinear;
      if (!e.index && e.arg == counter && static_cast<f64>(first + lanes - 1) <= e.limit) {
        // The counter's lanes are exact integers inside the fold's limit, so
        // the fold runs linearly between its values at the chunk's ends.
        // Without a zero among them (whose sign the unfolded code decides)
        // and, for a load, inside the value span, no lane needs a check.
        const i64 at_first = e.offset + e.coeff * first;
        const i64 at_last = e.offset + e.coeff * (first + lanes - 1);
        const i64 lo = std::min(at_first, at_last);
        const i64 hi = std::max(at_first, at_last);
        if ((lo > 0 || hi < 0) && (!load || (lo >= 0 && hi < in.value_dim))) {
          for (u32 j = 0; j < lanes; ++j) {
            const i64 acc = at_first + e.coeff * j;
            out[j] = load ? static_cast<f64>(in.value[acc]) : static_cast<f64>(acc);
          }
          return true;
        }
      }
      for (u32 j = 0; j < lanes; ++j) {
        in.frame[counter] = static_cast<f64>(first + j);
        f64 r = EvalAffine(affines_[e.affine], in.stack, in);
        if (load) {
          const i64 at = static_cast<i64>(r);
          if (at < 0 || at >= in.value_dim) {
            return false;
          }
          r = static_cast<f64>(in.value[at]);
        }
        out[j] = r;
      }
      return true;
    }
    case Shape::kOps:
      break;
  }
  return false;
}

bool PrefetchProgram::RecordColumn(const Step& step, i32 counter, i64 first, u32 lanes,
                                   f64* keys, const Inputs& in) const {
  if (step.rank != static_cast<i32>(step.extent)) {
    return false;
  }
  const KeySpace& ks = spaces_[static_cast<size_t>(step.slot)];
  f64* const scratch = in.columns + static_cast<size_t>(num_columns_ - 1) * kLanes;
  if (step.extent == 0) {
    std::fill_n(keys, lanes, std::bit_cast<f64>(i64{0}));
  }
  for (u32 s = 0; s < step.extent; ++s) {
    const Expr& e = exprs_[step.subs + s];
    const f64* coords = scratch;
    if (e.shape == Shape::kSlot && e.column >= 0) {
      coords = in.columns + static_cast<size_t>(e.column) * kLanes;
    } else if (!EvalColumn(e, counter, first, lanes, scratch, in)) {
      return false;
    }
    // Unsigned: a lane outside the key space fails the chunk, and its key,
    // never used, wraps instead of overflowing.
    const u64 dim = static_cast<u64>(ks.dim(static_cast<int>(s)));
    const u64 stride = static_cast<u64>(ks.strides()[s]);
    bool inside = true;
    for (u32 j = 0; j < lanes; ++j) {
      const u64 c = static_cast<u64>(static_cast<i64>(coords[j]));
      inside = inside && c < dim;
      keys[j] = std::bit_cast<f64>((s == 0 ? 0 : std::bit_cast<u64>(keys[j])) + c * stride);
    }
    if (!inside) {
      return false;
    }
  }
  return true;
}

void PrefetchProgram::FailOffset(i64 offset, i32 value_dim) {
  ORION_CHECK(offset >= 0 && offset < value_dim)
      << "iteration-value offset" << offset << "out of range";
  std::abort();
}

void PrefetchProgram::FailArrayRead() {
  ORION_CHECK(false) << "sliced prefetch programs cannot read DistArrays";
  std::abort();
}

void PrefetchProgram::FailUnbound(i32 target) const {
  ORION_CHECK(false) << "no key space for array" << target_arrays_[static_cast<size_t>(target)];
  std::abort();
}

void PrefetchProgram::FailOutsideKeySpace(const Step& step, const Inputs& in) const {
  IndexVec coords;
  for (u32 s = 0; s < step.extent; ++s) {
    coords.push_back(static_cast<i64>(Eval(exprs_[step.subs + s], in)));
  }
  spaces_[static_cast<size_t>(step.slot)].Encode(coords);
  std::abort();  // Encode accepted what the bounds refused
}

void PrefetchProgram::FailFrame(size_t size) const {
  ORION_CHECK(false) << "prefetch frame of" << size << "slots, need" << frame_size_;
  std::abort();
}

void PrefetchProgram::BindKeySpace(DistArrayId array, const KeySpace& ks) {
  const auto it = std::lower_bound(target_arrays_.begin(), target_arrays_.end(), array);
  if (it == target_arrays_.end() || *it != array) {
    return;
  }
  const i32 target = static_cast<i32>(it - target_arrays_.begin());
  spaces_.resize(target_arrays_.size());
  spaces_[static_cast<size_t>(target)] = ks;
  for (Step& step : steps_) {
    if (step.kind == StepKind::kRecord && step.slot == target) {
      step.rank = ks.num_dims();
    }
  }
}

}  // namespace orion
