// The runtime interface a loop-body kernel programs against.
//
// A kernel is the compiled loop body: it receives the current iteration's
// index vector and value, and touches DistArrays only through this context.
// The same kernel serves three execution modes:
//   - normal execution on an Executor (reads/writes local partitions),
//   - server mode (reads come from prefetched caches, writes go to buffers),
//   - access-recording mode (the synthesized bulk-prefetch pass, paper
//     Sec. 4.4): reads of server-hosted arrays record their subscript and
//     return a zero span; writes are discarded.
//
// Read, Mutate and BufferUpdate are inline and non-virtual. Read and Mutate
// first consult a per-context table of direct views, indexed by array id: a
// view maps a subscript straight to a cell of one dense store (base pointer,
// key range, value_dim, strides), so a kernel's hot accesses cost an encode,
// one range compare and an offset. An executor installs views at the start
// of each block for the dense stores the block touches: its owned range
// partition and resident rotated partitions (read and write), and the dense
// prefetch caches of server-hosted arrays (read only; a Mutate of such an
// array drops its view, so later reads see the dirty copy). Everything else
// takes the virtual ReadIndirect/MutateIndirect path: hashed stores and
// replicas, the iteration space, keys outside a view's range (which die or
// read zeros there, as the store's own lookup decides), and every access of
// the recording pass and of the driver's serial oracle. Those two install no
// views: the recording pass's writes must land in scratch, and the oracle
// stays an independent reference for the executor's fast path.
//
// BufferUpdate likewise consults a table of buffer views: an array's
// DistArrayBuffer and its key space's strides, so a buffered write costs an
// encode and an inline DistArrayBuffer::Accumulate (whose bounds CHECK
// stays). An executor installs a buffer view on a block's first buffered
// write to an array, unless the array is replicated: a replicated write must
// also apply to the local replica at once, so it keeps the virtual
// BufferUpdateIndirect path, as do the recording pass (whose writes are
// inert) and the serial oracle.
#ifndef ORION_SRC_IR_LOOP_CONTEXT_H_
#define ORION_SRC_IR_LOOP_CONTEXT_H_

#include <functional>
#include <span>
#include <vector>

#include "src/common/types.h"
#include "src/dsm/cell_store.h"
#include "src/dsm/dist_array_buffer.h"
#include "src/dsm/key_space.h"

namespace orion {

using IdxSpan = std::span<const i64>;

class LoopContext {
 public:
  virtual ~LoopContext() = default;

  // Reads a cell of `array`. Never returns nullptr: absent sparse cells and
  // recording-mode reads yield a zero-filled span of the array's value_dim.
  const f32* Read(DistArrayId array, IdxSpan idx) {
    const f32* cell = ViewCell(array, idx, /*write=*/false);
    return cell != nullptr ? cell : ReadIndirect(array, idx);
  }

  // Returns a mutable span for a cell this worker owns (dependence-preserving
  // in-place write). Aborts if the cell is not locally owned — the planner
  // guarantees owned access for analyzable writes.
  f32* Mutate(DistArrayId array, IdxSpan idx) {
    f32* cell = ViewCell(array, idx, /*write=*/true);
    return cell != nullptr ? cell : MutateIndirect(array, idx);
  }

  // Routes an update through the DistArray Buffer registered for `array`
  // (dependence-exempt write; applied later with the buffer's apply UDF).
  void BufferUpdate(DistArrayId array, IdxSpan idx, const f32* update) {
    if (static_cast<size_t>(array) < buffer_views_.size()) {
      const BufferView& b = buffer_views_[static_cast<size_t>(array)];
      if (b.buf != nullptr) {
        b.buf->Accumulate(EncodeKey(b.strides, b.num_dims, idx), update);
        return;
      }
    }
    BufferUpdateIndirect(array, idx, update);
  }

  // Adds to the worker-local instance of accumulator `slot`.
  virtual void AccumulatorAdd(int slot, f64 delta) = 0;

  // True during the synthesized access-recording (prefetch) pass; kernels
  // never need to check this, but exotic bodies may skip pure compute.
  virtual bool recording() const { return false; }

 protected:
  // Every access that no view serves: other layouts and placements, keys
  // outside a view's range, and Mutate of a read-only view.
  virtual const f32* ReadIndirect(DistArrayId array, IdxSpan idx) = 0;
  virtual f32* MutateIndirect(DistArrayId array, IdxSpan idx) = 0;
  // Every buffered write that no buffer view serves.
  virtual void BufferUpdateIndirect(DistArrayId array, IdxSpan idx, const f32* update) = 0;

  // Serves `array`'s accesses from the dense `store` directly, read only
  // unless `writable`, until DropView. `store` and `ks` (the array's key
  // space) must outlive the view, and the store's cells must not move.
  void InstallView(DistArrayId array, CellStore* store, const KeySpace& ks, bool writable) {
    ORION_CHECK(array >= 0 && store->IsDense());
    if (static_cast<size_t>(array) >= views_.size()) {
      views_.resize(static_cast<size_t>(array) + 1);
    }
    views_[static_cast<size_t>(array)] = DirectView{
        .base = store->raw_values_data(),
        .lo = store->range_lo(),
        .num_cells = static_cast<u64>(store->NumCells()),
        .value_dim = store->value_dim(),
        .strides = ks.strides().data(),
        .num_dims = ks.strides().size(),
        .writable = writable,
    };
  }
  void DropView(DistArrayId array) {
    if (static_cast<size_t>(array) < views_.size()) {
      views_[static_cast<size_t>(array)] = DirectView{};
    }
  }

  // Serves `array`'s buffered writes by accumulating into `buf` directly.
  // `buf` and `ks` (the array's key space) must outlive the context.
  void InstallBufferView(DistArrayId array, DistArrayBuffer* buf, const KeySpace& ks) {
    ORION_CHECK(array >= 0);
    if (static_cast<size_t>(array) >= buffer_views_.size()) {
      buffer_views_.resize(static_cast<size_t>(array) + 1);
    }
    buffer_views_[static_cast<size_t>(array)] =
        BufferView{.buf = buf, .strides = ks.strides().data(), .num_dims = ks.strides().size()};
  }

 private:
  // The cell `idx` names through `array`'s view, or nullptr when no view
  // serves it (no view, a read-only view asked to write, or a key outside
  // the view's range).
  f32* ViewCell(DistArrayId array, IdxSpan idx, bool write) const {
    // A negative id converts to a huge size_t and misses the table.
    if (static_cast<size_t>(array) >= views_.size()) {
      return nullptr;
    }
    const DirectView& v = views_[static_cast<size_t>(array)];
    if (v.base == nullptr || (write && !v.writable)) {
      return nullptr;
    }
    const i64 key = EncodeKey(v.strides, v.num_dims, idx);
    // One unsigned compare tests lo <= key < lo + num_cells.
    if (static_cast<u64>(key - v.lo) >= v.num_cells) {
      return nullptr;
    }
    return v.base + (key - v.lo) * v.value_dim;
  }

  // Row-major key of `idx` (KeySpace::EncodeUnchecked).
  static i64 EncodeKey(const i64* strides, size_t num_dims, IdxSpan idx) {
    i64 key = 0;
    for (size_t d = 0; d < num_dims; ++d) {
      key += idx[d] * strides[d];
    }
    return key;
  }

  // A dense store's cells [lo, lo + num_cells) at base + (key - lo) *
  // value_dim, keyed row-major by the array's strides.
  struct DirectView {
    f32* base = nullptr;  // nullptr: no view
    i64 lo = 0;
    u64 num_cells = 0;
    i64 value_dim = 0;
    const i64* strides = nullptr;
    size_t num_dims = 0;
    bool writable = false;
  };

  // An array's buffer and key-space strides.
  struct BufferView {
    DistArrayBuffer* buf = nullptr;  // nullptr: no view
    const i64* strides = nullptr;
    size_t num_dims = 0;
  };

  std::vector<DirectView> views_;
  std::vector<BufferView> buffer_views_;
};

// The compiled loop body. `idx` is the iteration index vector (the element's
// N-tuple in the iteration-space DistArray); `value` is that element's value
// span (e.g. the rating Z_ij).
using LoopKernel = std::function<void(LoopContext& ctx, IdxSpan idx, const f32* value)>;

}  // namespace orion

#endif  // ORION_SRC_IR_LOOP_CONTEXT_H_
