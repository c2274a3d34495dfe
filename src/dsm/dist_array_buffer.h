// DistArray Buffers (paper Sec. 3.3): per-worker write-back buffers whose
// writes are exempt from dependence analysis.
//
// A buffer accumulates updates locally; on flush the updates are shipped to
// the owning shard and applied cell-by-cell with a user-defined apply
// function executed atomically per cell. The apply UDF enables adaptive
// gradient algorithms (AdaGrad / Adaptive Revision) because the owner can
// keep auxiliary state in the cell's value span.
//
// Every buffer target is a dense array (Driver::RegisterBuffer checks), so
// pending updates accumulate in place: a flat num_cells x update_dim array
// indexed by key, a bitmap of touched cells, and the touched keys in
// first-touch order. Accumulate adds into the key's slot with one IEEE add
// per lane, so pending updates coalesce by addition without a hash or an
// allocation. Drain emits the touched cells in first-touch order (the
// insertion order a hashed store would give them) and re-zeroes only those.
#ifndef ORION_SRC_DSM_DIST_ARRAY_BUFFER_H_
#define ORION_SRC_DSM_DIST_ARRAY_BUFFER_H_

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "src/dsm/cell_store.h"

namespace orion {

// Applies one buffered update to one cell. `cell` is the authoritative value
// span (value_dim floats); `update` is the buffered update span
// (update_dim floats, which may differ from value_dim when the update
// carries extra info such as the old parameter value for AdaRevision).
using BufferApplyFn = std::function<void(f32* cell, const f32* update, i32 value_dim)>;

// The default apply: cell += update (update_dim == value_dim).
BufferApplyFn MakeAddApplyFn();

class DistArrayBuffer {
 public:
  // `num_cells` is the dense target's cell count: keys lie in [0, num_cells).
  DistArrayBuffer(DistArrayId target, i32 update_dim, i64 num_cells, BufferApplyFn apply)
      : target_(target),
        update_dim_(update_dim),
        num_cells_(num_cells),
        apply_(std::move(apply)) {
    ORION_CHECK(update_dim > 0);
    ORION_CHECK(num_cells >= 0) << "DistArray Buffer target must be dense";
    pending_.assign(static_cast<size_t>(num_cells) * static_cast<size_t>(update_dim), 0.0f);
    touched_.assign((static_cast<size_t>(num_cells) + 63) / 64, 0);
  }

  DistArrayId target() const { return target_; }
  i32 update_dim() const { return update_dim_; }
  const BufferApplyFn& apply_fn() const { return apply_; }

  // Buffers an update for `key`, adding it to any pending update lane-wise.
  void Accumulate(i64 key, const f32* update) {
    ORION_CHECK(key >= 0 && key < num_cells_)
        << "buffered key" << key << "outside [0," << num_cells_ << ")";
    const size_t k = static_cast<size_t>(key);
    const u64 bit = u64{1} << (k & 63);
    if ((touched_[k >> 6] & bit) == 0) {
      touched_[k >> 6] |= bit;
      order_.push_back(key);
    }
    f32* slot = pending_.data() + k * static_cast<size_t>(update_dim_);
    for (i32 j = 0; j < update_dim_; ++j) {
      slot[j] += update[j];
    }
  }

  i64 NumPending() const { return static_cast<i64>(order_.size()); }

  // Drains the pending updates into a hashed store, in first-touch order
  // (leaves the buffer empty).
  CellStore Drain() {
    const size_t dim = static_cast<size_t>(update_dim_);
    std::vector<f32> values(order_.size() * dim);
    f32* out = values.data();
    for (const i64 key : order_) {
      const size_t k = static_cast<size_t>(key);
      f32* slot = pending_.data() + k * dim;
      out = std::copy(slot, slot + dim, out);
      std::fill(slot, slot + dim, 0.0f);
      touched_[k >> 6] = 0;  // every bit set in the word is a key being drained
    }
    return CellStore::Hashed(update_dim_, std::exchange(order_, {}), std::move(values));
  }

  // Applies a drained update store onto authoritative cells. Templated so
  // the master's versioned (copy-on-write) store can stand in for a plain
  // CellStore.
  template <typename Store>
  static void ApplyTo(Store* cells, const CellStore& updates, const BufferApplyFn& apply) {
    cells->Reserve(updates.NumCells());
    const i32 value_dim = cells->value_dim();
    updates.ForEachConstFast([&](i64 key, const f32* update) {
      apply(cells->GetOrCreate(key), update, value_dim);
    });
  }

 private:
  DistArrayId target_;
  i32 update_dim_;
  i64 num_cells_;
  BufferApplyFn apply_;
  std::vector<f32> pending_;  // num_cells x update_dim, zero where untouched
  std::vector<u64> touched_;  // bit k: key k has a pending update
  std::vector<i64> order_;    // touched keys, first-touch order
};

}  // namespace orion

#endif  // ORION_SRC_DSM_DIST_ARRAY_BUFFER_H_
