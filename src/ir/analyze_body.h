// Analyses over the statement-level loop body (src/ir/stmt.h):
//
//  1. ExtractAccesses — derives the LoopSpec access declarations from the
//     body: every array load/store/buffered-update becomes an ArrayAccess
//     with classified subscripts (loop_index ± const precise, anything
//     data-dependent conservative), replacing hand-written AddAccess calls.
//
//  2. SynthesizePrefetch — the paper's Sec. 4.4 access-pattern function:
//     computes the backward slice of the body that the array-read
//     subscripts depend on (assignments feeding subscript variables,
//     enclosing loop/conditional structure), drops reads whose subscripts
//     themselves depend on DistArray values (those are not prefetchable),
//     and lowers the slice into a compiled PrefetchProgram that reports the
//     keys one iteration reads. The construction mirrors dead code
//     elimination run in reverse, exactly as the paper describes.
//
// Programs are assumed structured with definitions textually preceding
// uses (which the builder API naturally produces).
#ifndef ORION_SRC_IR_ANALYZE_BODY_H_
#define ORION_SRC_IR_ANALYZE_BODY_H_

#include <algorithm>
#include <bit>
#include <span>
#include <vector>

#include "src/common/status.h"
#include "src/dsm/key_space.h"
#include "src/ir/loop_context.h"
#include "src/ir/loop_spec.h"
#include "src/ir/stmt.h"

namespace orion {

// Derives the access declarations (reads, writes, buffered writes) from the
// body. Duplicate accesses with identical classified subscripts collapse.
std::vector<ArrayAccess> ExtractAccesses(const LoopBody& body);

// Classifies one scalar-expression subscript (exposed for tests).
Subscript ClassifySubscriptExpr(const SExprPtr& e);

// The synthesized prefetch function, compiled. SynthesizePrefetch slices the
// body and lowers the slice once into a flat program of steps. Each
// expression is a postfix op sequence over a fixed f64 frame (the
// variables' slots, then an evaluation stack); a variable, a constant and a
// load of the iteration's value at a constant are evaluated directly. Each
// For is a native loop over the steps of its body (a vector loop,
// RunVectorLoop, when its body allows), and each If a forward branch. Run
// walks the steps for one iteration: no allocation and no lookup by name. A
// record step carries its target's index, and its target's key space once
// bound (BindKeySpace).
//
// Every value is bit-identical to evaluating the sliced tree node by node
// in f64, operands left to right. An expression subtree that is affine in
// loop counters and index dimensions with integer constants folds into one
// op, which computes in i64 and is used only when that is exact: while every
// intermediate of the tree stays an integer below 2^52 and the result is not
// zero (whose sign the tree's operation order decides). Otherwise the op
// evaluates the subtree's own code. A constant subtree is evaluated once, at
// lowering, in the same order.
class PrefetchProgram {
 public:
  enum class OpCode : u8 {
    kConst,      // push constant
    kIndex,      // push idx[arg]
    kSlot,       // push frame[arg]
    kAffine,     // push affines_[arg]
    kIterValue,  // top = value[top]
    kArrayElem,  // unreachable: slices never read DistArrays
    kAdd,
    kSub,
    kMul,
    kDiv,
    kFloor,
  };
  struct Op {
    OpCode code = OpCode::kConst;
    i32 arg = 0;
    f64 constant = 0.0;
  };

  // How an expression is computed: its ops [begin, end) in general, or
  // directly for the common shapes. A vector loop also computes the folds
  // of one input directly, a column at a time (EvalColumn); elsewhere they
  // run their ops.
  enum class Shape : u8 {
    kOps,
    kSlot,        // frame[arg]
    kConst,       // constant
    kLinear,      // offset + coeff * input, folded
    kLoadConst,   // value[constant]
    kLoadLinear,  // value[offset + coeff * input], folded
  };
  struct Expr {
    Shape shape = Shape::kOps;
    // kLinear / kLoadLinear: the input is idx[arg], else frame[arg].
    bool index = false;
    i32 arg = 0;
    // kLinear / kLoadLinear: the fold of affines_[affine], exact while
    // |input| <= limit.
    i64 offset = 0;
    i64 coeff = 0;
    f64 limit = 0.0;
    u32 affine = 0;
    f64 constant = 0.0;  // kConst / kLoadConst
    u32 begin = 0;
    u32 end = 0;
    // kSlot in a vector loop's body: the column of the body step that
    // assigned the variable, -1 when the loop does not assign it.
    i32 column = -1;
  };

  // One statement. A kFor or kIf step's body is the `extent` steps that
  // follow it.
  enum class StepKind : u8 { kAssign, kFor, kIf, kRecord };
  struct Step {
    StepKind kind = StepKind::kAssign;
    // kFor: a vector loop (see RunVectorLoop).
    bool vector = false;
    // kFor, a vector loop: the step index of its body's record when it has
    // exactly one, else -1.
    i32 record = -1;
    // kAssign / kRecord in a vector loop's body: the column of its values
    // (an assignment's) or keys (a record's).
    i32 column = -1;
    // kAssign / kFor: the variable's frame slot. kRecord: the target, an
    // index into target_arrays().
    i32 slot = -1;
    // kFor / kIf: steps in the body. kRecord: subscripts.
    u32 extent = 0;
    // kAssign: value; kFor: count; kIf: condition.
    Expr expr;
    // kRecord: the first subscript's index in exprs_ (see Subscripts).
    u32 subs = 0;
    // kRecord: the target's rank, -1 until its key space is bound.
    i32 rank = -1;
  };

  // True if at least one array read survived slicing.
  bool HasTargets() const { return has_targets_; }

  // Array ids with at least one prefetchable read, ascending.
  const std::vector<DistArrayId>& target_arrays() const { return target_arrays_; }

  // Array reads that could NOT be included because their subscripts depend
  // on other DistArray values (paper: such reads are not prefetched).
  const std::vector<DistArrayId>& unprefetchable() const { return unprefetchable_; }

  const std::vector<Step>& steps() const { return steps_; }
  // A record step's subscripts.
  std::span<const Expr> Subscripts(const Step& record) const {
    return {exprs_.data() + record.subs, record.extent};
  }
  // The ops of an expression, in evaluation order.
  std::span<const Op> ExprOps(const Expr& e) const {
    return {ops_.data() + e.begin, e.end - e.begin};
  }

  // Size of the frame Run needs.
  size_t frame_size() const { return frame_size_; }

  // Resolves a target's dims and strides: a record step encodes its
  // subscripts against `ks`. Arrays that are not targets are ignored.
  void BindKeySpace(DistArrayId array, const KeySpace& ks);

  // Iterations a vector loop computes per chunk.
  static constexpr u32 kLanes = 64;

  // Runs the program for one iteration, calling sink(target, key) for each
  // target read in visit order, `target` indexing target_arrays(). `frame`
  // (at least frame_size() long) is scratch owned by the caller. CHECK-fails
  // on an iteration-value offset outside [0, value_dim) and on a subscript
  // outside its target's key space (or an unbound target).
  template <typename Sink>
  void Run(IdxSpan idx, const f32* value, i32 value_dim, std::span<f64> frame,
           Sink&& sink) const;

 private:
  friend PrefetchProgram SynthesizePrefetch(const LoopBody& body);
  friend struct ProgramLowering;

  // c + sum(coeff * input), valid while every input's magnitude is at most
  // `limit`; ops [fallback_begin, fallback_end) are the subtree's unfolded
  // code.
  struct Affine {
    i64 constant = 0;
    f64 limit = 0.0;
    u32 terms_begin = 0;
    u32 terms_end = 0;
    u32 fallback_begin = 0;
    u32 fallback_end = 0;
  };
  struct Term {
    bool index = false;  // idx[arg], else frame[arg]
    i32 arg = 0;
    i64 coeff = 0;
  };
  struct Inputs {
    IdxSpan idx;
    const f32* value;
    i32 value_dim;
    f64* frame;
    f64* columns;
    f64* stack;
  };

  template <typename Sink>
  void RunBlock(u32 begin, u32 end, const Inputs& in, Sink& sink) const;
  template <typename Sink>
  u32 RunStraight(const Step& step, const Inputs& in, Sink& sink) const;
  template <typename Sink>
  void RunVectorLoop(const Step& loop, u32 body, u32 end, i64 count, const Inputs& in,
                     Sink& sink) const;
  // A vector loop's body step for the iterations [first, first + lanes):
  // out[j] is an expression's value, or a record's key (as i64 bits), at
  // iteration first + j. False where a CHECK would fail (the loop then runs
  // the chunk again one iteration at a time, failing where the tree would).
  bool EvalColumn(const Expr& e, i32 counter, i64 first, u32 lanes, f64* out,
                  const Inputs& in) const;
  bool RecordColumn(const Step& step, i32 counter, i64 first, u32 lanes, f64* keys,
                    const Inputs& in) const;
  f64 Eval(const Expr& e, const Inputs& in) const;
  // The general paths, out of line: an expression's ops on a stack, and a
  // fold with its fallback.
  f64 EvalOps(u32 begin, u32 end, f64* stack, const Inputs& in) const;
  f64 EvalAffine(const Affine& a, f64* stack, const Inputs& in) const;
  static f64 Load(f64 offset, const Inputs& in);
  i64 RecordKey(const Step& step, const Inputs& in) const;
  // The CHECK failures, out of line.
  [[noreturn]] static void FailOffset(i64 offset, i32 value_dim);
  [[noreturn]] static void FailArrayRead();
  [[noreturn]] void FailUnbound(i32 target) const;
  // Encodes the record's subscripts with KeySpace::Encode, whose CHECK
  // then fails.
  [[noreturn]] void FailOutsideKeySpace(const Step& step, const Inputs& in) const;
  [[noreturn]] void FailFrame(size_t size) const;

  bool has_targets_ = false;
  std::vector<DistArrayId> target_arrays_;
  std::vector<DistArrayId> unprefetchable_;

  std::vector<Step> steps_;
  std::vector<Expr> exprs_;  // record subscripts
  std::vector<Op> ops_;
  std::vector<Affine> affines_;
  std::vector<Term> terms_;
  std::vector<KeySpace> spaces_;  // parallel to target_arrays_, once bound
  // frame[0, num_slots_): variables; then num_columns_ columns of kLanes
  // values each (the last is scratch); then the evaluation stack.
  u32 num_slots_ = 0;
  u32 num_columns_ = 0;
  size_t frame_size_ = 0;
};

PrefetchProgram SynthesizePrefetch(const LoopBody& body);

// ---------------------------------------------------------------------------
// Evaluation (inline: Run is instantiated per sink)

inline f64 PrefetchProgram::Load(f64 offset, const Inputs& in) {
  const i64 at = static_cast<i64>(offset);
  if (at < 0 || at >= in.value_dim) [[unlikely]] {
    FailOffset(at, in.value_dim);
  }
  return static_cast<f64>(in.value[at]);
}

[[gnu::always_inline]] inline f64 PrefetchProgram::Eval(const Expr& e, const Inputs& in) const {
  switch (e.shape) {
    case Shape::kSlot:
      return in.frame[e.arg];
    case Shape::kConst:
      return e.constant;
    case Shape::kLoadConst:
      return Load(e.constant, in);
    case Shape::kLinear:
    case Shape::kLoadLinear:
    case Shape::kOps:
      break;
  }
  return EvalOps(e.begin, e.end, in.stack, in);
}

[[gnu::always_inline]] inline i64 PrefetchProgram::RecordKey(const Step& step,
                                                             const Inputs& in) const {
  if (step.rank < 0) [[unlikely]] {
    FailUnbound(step.slot);
  }
  // Every subscript is evaluated before the key-space check, as Encode's
  // callers did; a rank mismatch is outside the key space too.
  const KeySpace& ks = spaces_[static_cast<size_t>(step.slot)];
  bool inside = step.rank == static_cast<i32>(step.extent);
  i64 key = 0;
  for (u32 s = 0; s < step.extent; ++s) {
    const i64 c = static_cast<i64>(Eval(exprs_[step.subs + s], in));
    if (inside) {
      inside = c >= 0 && c < ks.dim(static_cast<int>(s));
      key += inside ? c * ks.strides()[s] : 0;
    }
  }
  if (!inside) [[unlikely]] {
    FailOutsideKeySpace(step, in);
  }
  return key;
}

// Runs a step that is not a For. Returns how many steps to advance: an If
// whose condition is zero skips its body.
template <typename Sink>
[[gnu::always_inline]] inline u32 PrefetchProgram::RunStraight(const Step& step,
                                                               const Inputs& in,
                                                               Sink& sink) const {
  switch (step.kind) {
    case StepKind::kAssign:
      in.frame[step.slot] = Eval(step.expr, in);
      return 1;
    case StepKind::kRecord:
      sink(step.slot, RecordKey(step, in));
      return 1;
    case StepKind::kIf:
      return Eval(step.expr, in) != 0.0 ? 1 : 1 + step.extent;
    case StepKind::kFor:
      break;
  }
  return 1;
}

// A For whose body is straight-line assignments and records of the common
// shapes, and carries no variable from one iteration to the next, runs a
// chunk of kLanes iterations at a time: each body step computes its column
// for the whole chunk, then the chunk's keys go to the sink in visit order.
// A chunk in which a CHECK would fail runs again one iteration at a time,
// so it fails where the tree would. The frame ends as the last iteration
// leaves it.
template <typename Sink>
void PrefetchProgram::RunVectorLoop(const Step& loop, u32 body, u32 end, i64 count,
                                    const Inputs& in, Sink& sink) const {
  u32 last = 0;         // lanes of the last chunk
  bool computed = true;  // the last chunk ran as columns
  for (i64 first = 0; first < count; first += kLanes) {
    last = static_cast<u32>(std::min<i64>(kLanes, count - first));
    bool ok = true;
    for (u32 b = body; b < end && ok; ++b) {
      const Step& step = steps_[b];
      f64* const column = in.columns + static_cast<size_t>(step.column) * kLanes;
      ok = step.kind == StepKind::kAssign
               ? EvalColumn(step.expr, loop.slot, first, last, column, in)
               : RecordColumn(step, loop.slot, first, last, column, in);
    }
    computed = ok;
    if (!ok) [[unlikely]] {
      for (i64 i = first; i < first + last; ++i) {
        in.frame[loop.slot] = static_cast<f64>(i);
        for (u32 b = body; b < end;) {
          b += RunStraight(steps_[b], in, sink);
        }
      }
      continue;
    }
    if (loop.record >= 0) {
      // One record: its keys are the chunk's keys, in order. (Walking the
      // body for every key instead costs BM_PrefetchSlice about a fifth.)
      const Step& record = steps_[static_cast<u32>(loop.record)];
      const f64* keys = in.columns + static_cast<size_t>(record.column) * kLanes;
      for (u32 j = 0; j < last; ++j) {
        sink(record.slot, std::bit_cast<i64>(keys[j]));
      }
      continue;
    }
    for (u32 j = 0; j < last; ++j) {
      for (u32 b = body; b < end; ++b) {
        const Step& step = steps_[b];
        if (step.kind == StepKind::kRecord) {
          sink(step.slot,
               std::bit_cast<i64>(in.columns[static_cast<size_t>(step.column) * kLanes + j]));
        }
      }
    }
  }
  if (count > 0 && computed) {
    in.frame[loop.slot] = static_cast<f64>(count - 1);
    for (u32 b = body; b < end; ++b) {
      const Step& step = steps_[b];
      if (step.kind == StepKind::kAssign) {
        in.frame[step.slot] =
            in.columns[static_cast<size_t>(step.column) * kLanes + last - 1];
      }
    }
  }
}

template <typename Sink>
void PrefetchProgram::RunBlock(u32 begin, u32 end, const Inputs& in, Sink& sink) const {
  for (u32 s = begin; s < end;) {
    const Step& step = steps_[s];
    if (step.kind != StepKind::kFor) {
      s += RunStraight(step, in, sink);
      continue;
    }
    const i64 count = static_cast<i64>(Eval(step.expr, in));
    const u32 body = s + 1;
    s = body + step.extent;
    if (step.vector) {
      RunVectorLoop(step, body, s, count, in, sink);
      continue;
    }
    for (i64 i = 0; i < count; ++i) {
      in.frame[step.slot] = static_cast<f64>(i);
      RunBlock(body, s, in, sink);
    }
  }
}

template <typename Sink>
void PrefetchProgram::Run(IdxSpan idx, const f32* value, i32 value_dim, std::span<f64> frame,
                          Sink&& sink) const {
  if (frame.size() < frame_size_) [[unlikely]] {
    FailFrame(frame.size());
  }
  std::fill_n(frame.data(), num_slots_, 0.0);
  f64* const columns = frame.data() + num_slots_;
  const Inputs in{idx, value, value_dim, frame.data(), columns,
                  columns + static_cast<size_t>(num_columns_) * kLanes};
  RunBlock(0, static_cast<u32>(steps_.size()), in, sink);
}

}  // namespace orion

#endif  // ORION_SRC_IR_ANALYZE_BODY_H_
