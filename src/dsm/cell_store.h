// Storage for the cells of one DistArray partition.
//
// Three layouts:
//  - kHashed: holds an arbitrary subset of cells (sparse arrays, server
//    shards, caches), found through a FlatIndex. Iteration order is
//    insertion order, so executions are deterministic. A store that is only
//    ever walked in order (a drained DistArray Buffer) is built Unindexed:
//    it skips the index, and a keyed lookup on it CHECK-fails.
//  - kDenseRange: holds the contiguous key range [lo, hi] of a dense array
//    (range partitions and rotated partitions of dense parameter arrays).
//    Constant-time, hash-free access — this is the hot path of kernels.
//  - kFullDense: holds every cell of the key space contiguously (small
//    replicated arrays, driver-resident master copies).
//
// All values are f32 spans of length value_dim.
#ifndef ORION_SRC_DSM_CELL_STORE_H_
#define ORION_SRC_DSM_CELL_STORE_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/serde.h"
#include "src/common/simd.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/dsm/flat_index.h"

namespace orion {

class CellStore {
 public:
  enum class Layout : u8 { kHashed, kFullDense, kDenseRange };

  CellStore() : CellStore(1, Layout::kHashed, 0) {}
  CellStore(i32 value_dim, Layout layout, i64 dense_total)
      : value_dim_(value_dim), layout_(layout) {
    ORION_CHECK(value_dim > 0);
    ORION_CHECK(layout != Layout::kDenseRange) << "use CellStore::DenseRange";
    if (layout_ == Layout::kFullDense) {
      ORION_CHECK(dense_total >= 0);
      range_lo_ = 0;
      range_hi_ = dense_total - 1;
      values_.assign(static_cast<size_t>(dense_total) * value_dim_, 0.0f);
    }
  }

  // A dense block over keys [lo, hi] (inclusive).
  static CellStore DenseRange(i32 value_dim, i64 lo, i64 hi) {
    ORION_CHECK(value_dim > 0);
    ORION_CHECK(hi >= lo - 1);  // hi == lo-1 encodes an empty range
    CellStore s;
    s.value_dim_ = value_dim;
    s.layout_ = Layout::kDenseRange;
    s.range_lo_ = lo;
    s.range_hi_ = hi;
    s.values_.assign(static_cast<size_t>(hi - lo + 1) * static_cast<size_t>(value_dim), 0.0f);
    return s;
  }

  // A dense store of `layout` over keys [lo, hi] holding `values` in key
  // order. CHECKs that the value count fits the range.
  static CellStore Dense(i32 value_dim, Layout layout, i64 lo, i64 hi, std::vector<f32> values) {
    ORION_CHECK(layout == Layout::kFullDense || layout == Layout::kDenseRange);
    ORION_CHECK(layout != Layout::kFullDense || lo == 0) << "a full dense store starts at key 0";
    ORION_CHECK(value_dim > 0);
    ORION_CHECK(hi >= lo - 1);
    ORION_CHECK(static_cast<i64>(values.size()) == (hi - lo + 1) * value_dim);
    CellStore s;
    s.value_dim_ = value_dim;
    s.layout_ = layout;
    s.range_lo_ = lo;
    s.range_hi_ = hi;
    s.values_ = std::move(values);
    return s;
  }

  // A hashed store holding keys[i] -> values[i*value_dim, (i+1)*value_dim),
  // with insertion order the order of `keys`. CHECKs that no key repeats.
  static CellStore Hashed(i32 value_dim, std::vector<i64> keys, std::vector<f32> values) {
    CellStore s(value_dim, Layout::kHashed, 0);
    ORION_CHECK(values.size() == keys.size() * static_cast<size_t>(value_dim));
    s.keys_ = std::move(keys);
    s.values_ = std::move(values);
    const i64 dup = s.IndexKeys();
    ORION_CHECK(dup < 0) << "cell store repeats key" << s.keys_[static_cast<size_t>(dup)];
    return s;
  }

  // Like Hashed, but builds no index: for stores whose consumers only walk
  // the cells in order (ForEach*, the wire codec, Serialize). The caller
  // guarantees that no key repeats. Get, Find, GetOrCreate and Contains
  // CHECK-fail on such a store.
  static CellStore Unindexed(i32 value_dim, std::vector<i64> keys, std::vector<f32> values) {
    CellStore s(value_dim, Layout::kHashed, 0);
    ORION_CHECK(values.size() == keys.size() * static_cast<size_t>(value_dim));
    s.keys_ = std::move(keys);
    s.values_ = std::move(values);
    s.indexed_ = false;
    return s;
  }

  i32 value_dim() const { return value_dim_; }
  Layout layout() const { return layout_; }
  bool IsDense() const { return layout_ != Layout::kHashed; }
  i64 range_lo() const { return range_lo_; }
  i64 range_hi() const { return range_hi_; }

  i64 NumCells() const {
    return IsDense() ? range_hi_ - range_lo_ + 1 : static_cast<i64>(keys_.size());
  }

  // Returns the cell value span, or nullptr if absent (hashed layout only).
  const f32* Get(i64 key) const {
    if (IsDense()) {
      ORION_CHECK(key >= range_lo_ && key <= range_hi_)
          << "key" << key << "outside dense range [" << range_lo_ << "," << range_hi_ << "]";
      return values_.data() + static_cast<size_t>(key - range_lo_) * value_dim_;
    }
    CheckIndexed();
    const i64 slot = index_.Find(key);
    return slot < 0 ? nullptr : values_.data() + static_cast<size_t>(slot) * value_dim_;
  }

  // Like Get, but a key outside a dense range is absent (nullptr) instead of
  // a CHECK failure: for caches whose dense range spans only the keys that
  // were fetched.
  const f32* Find(i64 key) const {
    if (IsDense()) {
      return key >= range_lo_ && key <= range_hi_
                 ? values_.data() + static_cast<size_t>(key - range_lo_) * value_dim_
                 : nullptr;
    }
    return Get(key);
  }

  // Returns a mutable span, inserting a zero-initialized cell if absent.
  f32* GetOrCreate(i64 key) {
    if (IsDense()) {
      ORION_CHECK(key >= range_lo_ && key <= range_hi_)
          << "key" << key << "outside dense range [" << range_lo_ << "," << range_hi_ << "]";
      return values_.data() + static_cast<size_t>(key - range_lo_) * value_dim_;
    }
    CheckIndexed();
    const i64 next = static_cast<i64>(keys_.size());
    const i64 slot = index_.FindOrInsert(key, next);
    if (slot == next) {
      values_.resize(values_.size() + static_cast<size_t>(value_dim_), 0.0f);
      keys_.push_back(key);
    }
    return values_.data() + static_cast<size_t>(slot) * value_dim_;
  }

  bool Contains(i64 key) const {
    if (IsDense()) {
      return key >= range_lo_ && key <= range_hi_;
    }
    CheckIndexed();
    return index_.Find(key) >= 0;
  }

  // Visits cells in a deterministic order (insertion order for hashed,
  // key order for dense). Templated so hot loops inline the body.
  template <typename F>
  void ForEachFast(F&& fn) {
    if (IsDense()) {
      for (i64 k = range_lo_; k <= range_hi_; ++k) {
        fn(k, values_.data() + static_cast<size_t>(k - range_lo_) * value_dim_);
      }
      return;
    }
    for (size_t i = 0; i < keys_.size(); ++i) {
      // Insertion order: cell i lives at offset i * value_dim_.
      fn(keys_[i], values_.data() + i * static_cast<size_t>(value_dim_));
    }
  }

  void ForEach(const std::function<void(i64 key, f32* value)>& fn) {
    if (IsDense()) {
      for (i64 k = range_lo_; k <= range_hi_; ++k) {
        fn(k, values_.data() + static_cast<size_t>(k - range_lo_) * value_dim_);
      }
      return;
    }
    for (size_t i = 0; i < keys_.size(); ++i) {
      fn(keys_[i], values_.data() + i * static_cast<size_t>(value_dim_));
    }
  }

  void ForEachConst(const std::function<void(i64 key, const f32* value)>& fn) const {
    const_cast<CellStore*>(this)->ForEach(
        [&fn](i64 key, f32* value) { fn(key, value); });
  }

  // Const counterpart of ForEachFast: templated so bulk merges and buffer
  // applies inline the body instead of bouncing through std::function.
  template <typename F>
  void ForEachConstFast(F&& fn) const {
    if (IsDense()) {
      for (i64 k = range_lo_; k <= range_hi_; ++k) {
        fn(k, values_.data() + static_cast<size_t>(k - range_lo_) * value_dim_);
      }
      return;
    }
    for (size_t i = 0; i < keys_.size(); ++i) {
      fn(keys_[i], values_.data() + i * static_cast<size_t>(value_dim_));
    }
  }

  // Pre-sizes the hashed containers for `additional_cells` upcoming inserts
  // (no-op for dense layouts, which are fully allocated up front).
  void Reserve(i64 additional_cells) {
    if (IsDense() || additional_cells <= 0) {
      return;
    }
    const size_t total = keys_.size() + static_cast<size_t>(additional_cells);
    index_.Reserve(total);
    keys_.reserve(total);
    values_.reserve(total * static_cast<size_t>(value_dim_));
  }

  // Visits the `chunk`-th of `num_chunks` contiguous slices of the cell
  // sequence (hashed layout; used for bounded-delay sync rounds).
  template <typename F>
  void ForEachSlice(int chunk, int num_chunks, F&& fn) {
    ORION_CHECK(layout_ == Layout::kHashed);
    ORION_CHECK(chunk >= 0 && chunk < num_chunks);
    const size_t n = keys_.size();
    const size_t begin = n * static_cast<size_t>(chunk) / static_cast<size_t>(num_chunks);
    const size_t end = n * static_cast<size_t>(chunk + 1) / static_cast<size_t>(num_chunks);
    for (size_t i = begin; i < end; ++i) {
      fn(keys_[i], values_.data() + i * static_cast<size_t>(value_dim_));
    }
  }

  const std::vector<i64>& keys() const {
    ORION_CHECK(layout_ == Layout::kHashed);
    return keys_;
  }

  void Clear() {
    if (IsDense()) {
      values_.assign(values_.size(), 0.0f);
      return;
    }
    index_.Clear();
    keys_.clear();
    values_.clear();
    indexed_ = true;  // an empty index indexes an empty store
  }

  // ---- Serialization (checkpoints and the delta log) ----
  //
  // The durable format. The fabric's wire codec (runtime/protocol.h) writes
  // the same bytes for dense stores but a compact key list for hashed ones.

  // Exact number of bytes Serialize() produces.
  size_t SerializedBytes() const {
    size_t n = sizeof(i32) + sizeof(u8);  // value_dim + layout
    if (IsDense()) {
      return n + 2 * sizeof(i64) + sizeof(u64) + values_.size() * sizeof(f32);
    }
    return n + sizeof(u64) + keys_.size() * sizeof(i64) +  // PutVec(keys_)
           sizeof(u64) + values_.size() * sizeof(f32);     // PutVec(values_)
  }

  void Serialize(ByteWriter* w) const {
    w->Reserve(SerializedBytes());
    w->Put<i32>(value_dim_);
    w->Put<u8>(static_cast<u8>(layout_));
    if (IsDense()) {
      w->Put<i64>(range_lo_);
      w->Put<i64>(range_hi_);
      w->PutVec(values_);
      return;
    }
    w->PutVec(keys_);
    w->PutVec(values_);
  }

  static CellStore Deserialize(ByteReader* r) {
    const i32 value_dim = r->Get<i32>();
    const Layout layout = static_cast<Layout>(r->Get<u8>());
    if (layout != Layout::kHashed) {
      const i64 lo = r->Get<i64>();
      const i64 hi = r->Get<i64>();
      return Dense(value_dim, layout, lo, hi, r->GetVec<f32>());
    }
    std::vector<i64> keys = r->GetVec<i64>();
    return Hashed(value_dim, std::move(keys), r->GetVec<f32>());
  }

  // Bounds-checked deserialization for untrusted bytes (checkpoint files):
  // returns a descriptive Status instead of CHECK-aborting on truncated or
  // internally inconsistent input. Deserialize CHECKs instead: its callers
  // read bytes this process wrote, so a failure is a programming error.
  static StatusOr<CellStore> TryDeserialize(ByteReader* r) {
    const auto value_dim = r->TryGet<i32>();
    const auto layout_byte = r->TryGet<u8>();
    if (!value_dim.has_value() || !layout_byte.has_value()) {
      return Status::InvalidArgument("cell store header truncated");
    }
    if (*value_dim <= 0) {
      return Status::InvalidArgument("cell store has non-positive value_dim");
    }
    if (*layout_byte > static_cast<u8>(Layout::kDenseRange)) {
      return Status::InvalidArgument("cell store has unknown layout");
    }
    const Layout layout = static_cast<Layout>(*layout_byte);
    if (layout != Layout::kHashed) {
      const auto lo = r->TryGet<i64>();
      const auto hi = r->TryGet<i64>();
      if (!lo.has_value() || !hi.has_value() || *hi < *lo - 1) {
        return Status::InvalidArgument("cell store dense range truncated or inverted");
      }
      auto values = r->TryGetVec<f32>();
      if (!values.has_value()) {
        return Status::InvalidArgument("cell store dense values truncated");
      }
      if (static_cast<i64>(values->size()) != (*hi - *lo + 1) * *value_dim) {
        return Status::InvalidArgument("cell store dense value count mismatch");
      }
      CellStore s = DenseRange(*value_dim, *lo, *hi);
      s.layout_ = layout;
      s.values_ = std::move(*values);
      return s;
    }
    auto keys = r->TryGetVec<i64>();
    auto values = keys.has_value() ? r->TryGetVec<f32>() : std::nullopt;
    if (!keys.has_value() || !values.has_value()) {
      return Status::InvalidArgument("cell store cells truncated");
    }
    if (values->size() != keys->size() * static_cast<size_t>(*value_dim)) {
      return Status::InvalidArgument("cell store key/value count mismatch");
    }
    CellStore s(*value_dim, Layout::kHashed, 0);
    s.keys_ = std::move(*keys);
    s.values_ = std::move(*values);
    const i64 dup = s.IndexKeys();
    if (dup >= 0) {
      return Status::InvalidArgument("cell store repeats key " +
                                     std::to_string(s.keys_[static_cast<size_t>(dup)]));
    }
    return s;
  }

  // Adds every cell of `other` into this store (cell-wise +=). Used to merge
  // buffered updates with the default additive apply.
  void MergeAdd(const CellStore& other) {
    ORION_CHECK(other.value_dim_ == value_dim_);
    Reserve(other.NumCells());
    other.ForEachConstFast([this](i64 key, const f32* v) {
      simd::AddF32(GetOrCreate(key), v, static_cast<size_t>(value_dim_));
    });
  }

  // Contiguous backing span, in slot order (dense layouts: key order;
  // hashed: insertion order). Lets the versioned page store paginate and
  // collapse with bulk copies instead of per-cell lookups.
  const std::vector<f32>& raw_values() const { return values_; }
  f32* raw_values_data() { return values_.data(); }

 private:
  void CheckIndexed() const {
    ORION_CHECK(indexed_) << "keyed lookup on an unindexed cell store";
  }

  // Indexes keys_[i] -> slot i for a freshly deserialized hashed store.
  // Returns the position of the first repeated key, or -1.
  i64 IndexKeys() {
    index_.Reserve(keys_.size());
    for (size_t i = 0; i < keys_.size(); ++i) {
      if (index_.FindOrInsert(keys_[i], static_cast<i64>(i)) != static_cast<i64>(i)) {
        return static_cast<i64>(i);
      }
    }
    return -1;
  }

  i32 value_dim_ = 1;
  Layout layout_ = Layout::kHashed;
  i64 range_lo_ = 0;   // dense layouts: first key
  i64 range_hi_ = -1;  // dense layouts: last key (inclusive)
  FlatIndex index_;        // hashed layout: key -> slot (position in keys_)
  bool indexed_ = true;    // hashed layout: false for an Unindexed store
  std::vector<i64> keys_;  // insertion order
  std::vector<f32> values_;
};

}  // namespace orion

#endif  // ORION_SRC_DSM_CELL_STORE_H_
