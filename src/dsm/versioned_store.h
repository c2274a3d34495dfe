// Versioned, copy-on-write page layer over CellStore.
//
// The driver's master copy of every DistArray is a VersionedCellStore. It has
// two modes:
//
//  - Flat: a plain CellStore (exactly the seed representation). All
//    between-pass machinery — scatters, gathers, serial loops — keeps
//    operating on `Flat()` with zero overhead. Checkpoints read either mode
//    through SerializeTo() and never collapse.
//  - Paged: the cells live on refcounted pages of kPageCells cells each
//    (BeginServing() paginates; Flat() collapses back). In this mode
//    `Pin()` publishes the current version as an immutable Snapshot — two
//    shared_ptr refcount bumps, no copy — and writers clone only the pages
//    they touch, so parameter-serving gather tasks copy cells out of a
//    pinned snapshot without holding any lock across the copy.
//
// Concurrency contract (what makes this TSan-clean without a lock):
//  - All mutation, Pin(), BeginServing() and Flat() happen on one writer
//    thread (the master's service loop). Pool threads only read through
//    Snapshots.
//  - The store keeps a shared atomic pin counter. Snapshot's destructor
//    drops its page-table/index references FIRST and then decrements the
//    counter with release ordering; the writer reads it with acquire. So
//    when the writer observes zero pins, every concurrent reader access
//    happens-before the writer's next in-place write, and no clone is
//    needed ("no copy when unique").
//  - When pins are live, the writer clones before the first write to any
//    page (or to the page table / hashed index) that predates the latest
//    pin, tracked with a cheap epoch scheme: Pin() bumps `pin_epoch_`; a
//    page whose `page_epoch_` lags it may be shared with a live snapshot
//    and is cloned on write ("copy when pinned"). Cloned or freshly claimed
//    pages carry the current epoch and are written in place thereafter.
//
// Version lifecycle: publish (Pin) -> pinned readers copy lock-free ->
// writer clone-on-write builds the next version in place -> retire (last
// Snapshot release drops the old pages' refcounts to zero).
#ifndef ORION_SRC_DSM_VERSIONED_STORE_H_
#define ORION_SRC_DSM_VERSIONED_STORE_H_

#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/simd.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/dsm/cell_store.h"
#include "src/dsm/flat_index.h"

namespace orion {

class VersionedCellStore {
 public:
  // Cells per page, for every array. Small enough that a wavefront overwrite
  // touching a few cells clones a few KB, large enough that pagination stays
  // cheap.
  static constexpr i64 kPageCells = 256;

  struct Page {
    std::vector<f32> v;  // kPageCells * value_dim floats
  };
  struct PageTable {
    std::vector<std::shared_ptr<Page>> pages;
  };
  struct IndexState {
    FlatIndex slot_of;  // hashed layout: key -> slot
  };

  // An immutable view of one published version. Move-only; releasing the
  // last Snapshot of a version retires its private pages. Safe to read from
  // any thread; Get() mirrors CellStore::Get() exactly (dense keys are
  // bounds-CHECKed, hashed misses return nullptr) so replies built from a
  // snapshot are byte-identical to replies built from the live store.
  class Snapshot {
   public:
    Snapshot() = default;
    Snapshot(const Snapshot&) = delete;
    Snapshot& operator=(const Snapshot&) = delete;
    Snapshot(Snapshot&& other) noexcept = default;
    Snapshot& operator=(Snapshot&& other) noexcept {
      if (this != &other) {
        Release();
        table_ = std::move(other.table_);
        index_ = std::move(other.index_);
        pins_ = std::move(other.pins_);
        dense_ = other.dense_;
        lo_ = other.lo_;
        hi_ = other.hi_;
        vdim_ = other.vdim_;
      }
      return *this;
    }
    ~Snapshot() { Release(); }

    bool valid() const { return pins_ != nullptr; }
    i32 value_dim() const { return vdim_; }
    bool dense() const { return dense_; }
    i64 range_lo() const { return lo_; }
    i64 range_hi() const { return hi_; }

    const f32* Get(i64 key) const {
      i64 slot;
      if (dense_) {
        ORION_CHECK(key >= lo_ && key <= hi_)
            << "key" << key << "outside dense range [" << lo_ << "," << hi_ << "]";
        slot = key - lo_;
      } else {
        slot = index_->slot_of.Find(key);
        if (slot < 0) {
          return nullptr;
        }
      }
      const Page& p = *table_->pages[static_cast<size_t>(slot / kPageCells)];
      return p.v.data() + static_cast<size_t>(slot % kPageCells) * vdim_;
    }

    // Drops the version references, then the pin. Order matters: the
    // release-decrement must come last so a writer that observes zero pins
    // also observes every reference already dropped.
    void Release() {
      if (pins_ == nullptr) {
        return;
      }
      table_.reset();
      index_.reset();
      pins_->fetch_sub(1, std::memory_order_release);
      pins_.reset();
    }

   private:
    friend class VersionedCellStore;
    std::shared_ptr<const PageTable> table_;
    std::shared_ptr<const IndexState> index_;
    std::shared_ptr<std::atomic<int>> pins_;
    bool dense_ = false;
    i64 lo_ = 0;
    i64 hi_ = -1;
    i32 vdim_ = 1;
  };

  // Writer-side pass stats (clone traffic and pins since the last Take).
  struct Stats {
    u64 pins = 0;
    u64 pages_cloned = 0;
    u64 cow_bytes = 0;
  };

  VersionedCellStore() = default;
  explicit VersionedCellStore(CellStore flat) : flat_(std::move(flat)) {}

  // Replaces the contents wholesale (restores, re-creates). Requires no
  // live snapshots — recovery quiesces the ParamServer first.
  VersionedCellStore& operator=(CellStore flat) {
    DropPages();
    flat_ = std::move(flat);
    return *this;
  }

  bool paged() const { return paged_; }
  i32 value_dim() const { return paged_ ? vdim_ : flat_.value_dim(); }
  i64 NumCells() const { return paged_ ? num_cells_ : flat_.NumCells(); }

  // The flat CellStore view, collapsing the pages back first if needed.
  // Collapse requires no live snapshots (call after ParamServer::Quiesce).
  CellStore& Flat() {
    if (paged_) {
      Collapse();
    }
    return flat_;
  }

  // Paginates the flat store so Pin() becomes available. Idempotent; cheap
  // relative to one pass of serving (one bulk copy of the values).
  void BeginServing() {
    if (paged_) {
      return;
    }
    vdim_ = flat_.value_dim();
    layout_ = flat_.layout();
    lo_ = flat_.range_lo();
    hi_ = flat_.range_hi();
    num_cells_ = flat_.NumCells();
    if (layout_ == CellStore::Layout::kHashed) {
      keys_ = flat_.keys();
      index_ = std::make_shared<IndexState>();
      index_->slot_of.Reserve(keys_.size());
      for (size_t i = 0; i < keys_.size(); ++i) {
        index_->slot_of.FindOrInsert(keys_[i], static_cast<i64>(i));
      }
    }
    const i64 npages = (num_cells_ + kPageCells - 1) / kPageCells;
    table_ = std::make_shared<PageTable>();
    table_->pages.reserve(static_cast<size_t>(npages));
    // Both layouts keep values in slot order (dense: key order, hashed:
    // insertion order), so pagination is a straight chop of the backing span.
    const std::vector<f32>& src = flat_.raw_values();
    const size_t page_floats = PageFloats();
    for (i64 p = 0; p < npages; ++p) {
      auto page = std::make_shared<Page>();
      page->v.assign(page_floats, 0.0f);
      const size_t off = static_cast<size_t>(p) * page_floats;
      const size_t n = std::min(page_floats, src.size() - off);
      simd::CopyF32(page->v.data(), src.data() + off, n);
      table_->pages.push_back(std::move(page));
    }
    page_epoch_.assign(static_cast<size_t>(npages), 0);
    // Flat-mode mutations were not page-tracked, so a fresh pagination can
    // not know what changed since the last checkpoint mark.
    dirty_.assign(static_cast<size_t>(npages), 1);
    // Likewise the first publish after pagination honestly reports every
    // page as new to its version.
    version_dirty_.assign(static_cast<size_t>(npages), 1);
    delta_tracking_ = false;
    pin_epoch_ = 0;
    table_epoch_ = 0;
    index_epoch_ = 0;
    flat_ = CellStore(vdim_, CellStore::Layout::kHashed, 0);  // release memory
    paged_ = true;
  }

  // Publishes the current version. Refcount bumps only — no copy.
  Snapshot Pin() {
    ORION_CHECK(paged_) << "Pin() requires BeginServing()";
    ++pin_epoch_;
    ++stats_.pins;
    pins_->fetch_add(1, std::memory_order_acq_rel);
    Snapshot s;
    s.table_ = table_;
    s.index_ = index_;
    s.pins_ = pins_;
    s.dense_ = layout_ != CellStore::Layout::kHashed;
    s.lo_ = lo_;
    s.hi_ = hi_;
    s.vdim_ = vdim_;
    return s;
  }

  // ---- Version publish (serving tier) ----
  // One publish per pass boundary: pins the current version (pin-per-version
  // — readers of that version ride shared_ptr copies, never re-pin) and
  // reports which pages were written since the previous publish: exactly the
  // delta a snapshot-shipping replica needs to catch up from version seq-1
  // to seq, and a direct measure of how many clones that pin can force.
  // Tracked by a dedicated bitmap so serving publishes and checkpoint marks
  // (MarkCheckpointed/DirtyPages) never clobber each other's accounting.

  struct Published {
    Snapshot snap;
    std::vector<u32> dirty_pages;  // pages written since the previous publish
    u64 seq = 0;                   // monotone per-store publish sequence
  };

  Published PublishVersion() {
    ORION_CHECK(paged_) << "PublishVersion() requires BeginServing()";
    Published out;
    for (size_t pi = 0; pi < version_dirty_.size(); ++pi) {
      if (version_dirty_[pi]) {
        out.dirty_pages.push_back(static_cast<u32>(pi));
        version_dirty_[pi] = 0;
      }
    }
    out.seq = ++publish_seq_;
    out.snap = Pin();
    return out;
  }

  u64 publish_seq() const { return publish_seq_; }

  // ---- CellStore-compatible access (writer thread) ----
  // In flat mode these delegate 1:1; in paged mode writes go through
  // clone-on-write so pinned snapshots never observe them.

  const f32* Get(i64 key) const {
    if (!paged_) {
      return flat_.Get(key);
    }
    const i64 slot = SlotOf(key);
    if (slot < 0) {
      return nullptr;
    }
    return SlotPtr(slot);
  }

  f32* GetOrCreate(i64 key) {
    if (!paged_) {
      return flat_.GetOrCreate(key);
    }
    i64 slot;
    if (layout_ != CellStore::Layout::kHashed) {
      ORION_CHECK(key >= lo_ && key <= hi_)
          << "key" << key << "outside dense range [" << lo_ << "," << hi_ << "]";
      slot = key - lo_;
    } else {
      slot = index_->slot_of.Find(key);
      if (slot < 0) {
        slot = InsertSlot(key);
      }
    }
    return WritableSlot(slot);
  }

  void Reserve(i64 additional_cells) {
    if (!paged_) {
      flat_.Reserve(additional_cells);
    }
  }

  void MergeAdd(const CellStore& other) {
    if (!paged_) {
      flat_.MergeAdd(other);
      return;
    }
    ORION_CHECK(other.value_dim() == vdim_);
    other.ForEachConstFast([this](i64 key, const f32* v) {
      // One IEEE add per lane of this cell — vector width never changes the
      // fold order, so results match the scalar loop bit-for-bit.
      simd::AddF32(GetOrCreate(key), v, static_cast<size_t>(vdim_));
    });
  }

  template <typename F>
  void ForEachConstFast(F&& fn) const {
    if (!paged_) {
      flat_.ForEachConstFast(std::forward<F>(fn));
      return;
    }
    if (layout_ != CellStore::Layout::kHashed) {
      for (i64 k = lo_; k <= hi_; ++k) {
        fn(k, SlotPtr(k - lo_));
      }
      return;
    }
    for (size_t i = 0; i < keys_.size(); ++i) {
      fn(keys_[i], SlotPtr(static_cast<i64>(i)));
    }
  }

  void ForEachConst(const std::function<void(i64 key, const f32* value)>& fn) const {
    ForEachConstFast([&fn](i64 key, const f32* v) { fn(key, v); });
  }

  // ---- Delta export (durability log) ----
  // The writer thread calls MarkCheckpointed() right after a checkpoint
  // record is taken; from then on `dirty_` records exactly the pages touched
  // since that mark (WritableSlot is the sole paged-write choke point, and
  // fresh InsertSlot pages are born dirty). Any transition back to flat mode
  // (Collapse / wholesale assignment) loses page granularity and invalidates
  // tracking, so the next checkpoint honestly falls back to a full record.

  // True when DirtyPages() describes every mutation since MarkCheckpointed().
  bool delta_tracking_valid() const { return paged_ && delta_tracking_; }

  // Indices of pages dirtied since the last MarkCheckpointed(). Only
  // meaningful when delta_tracking_valid().
  std::vector<u32> DirtyPages() const {
    std::vector<u32> out;
    for (size_t pi = 0; pi < dirty_.size(); ++pi) {
      if (dirty_[pi]) {
        out.push_back(static_cast<u32>(pi));
      }
    }
    return out;
  }

  // Number of cells present at the last MarkCheckpointed() (hashed stores
  // grow; the delta ships keys_[checkpoint_cells()..num_cells)).
  i64 checkpoint_cells() const { return checkpoint_cells_; }

  // Clears the dirty set and (in paged mode) arms delta tracking.
  void MarkCheckpointed() {
    if (!paged_) {
      delta_tracking_ = false;
      return;
    }
    std::fill(dirty_.begin(), dirty_.end(), 0);
    checkpoint_cells_ = num_cells_;
    delta_tracking_ = true;
  }

  // Paged-mode layout accessors for the delta writer.
  CellStore::Layout layout() const { return paged_ ? layout_ : flat_.layout(); }
  i64 range_lo() const { return paged_ ? lo_ : flat_.range_lo(); }
  i64 range_hi() const { return paged_ ? hi_ : flat_.range_hi(); }
  const std::vector<i64>& paged_keys() const { return keys_; }
  const f32* PageData(size_t pi) const { return table_->pages[pi]->v.data(); }
  size_t PageFloats() const { return static_cast<size_t>(kPageCells) * vdim_; }

  // Serializes the current contents in exactly the CellStore wire format —
  // byte-identical to Flat().Serialize(w) — without collapsing, so a base
  // image can be written while pagination and dirty tracking stay intact.
  void SerializeTo(ByteWriter* w) const {
    if (!paged_) {
      flat_.Serialize(w);
      return;
    }
    w->Put<i32>(vdim_);
    w->Put<u8>(static_cast<u8>(layout_));
    if (layout_ != CellStore::Layout::kHashed) {
      w->Put<i64>(lo_);
      w->Put<i64>(hi_);
    } else {
      w->PutVec(keys_);
    }
    const size_t total = static_cast<size_t>(num_cells_) * vdim_;
    w->Put<u64>(static_cast<u64>(total));  // PutVec(values_) size prefix
    const size_t page_floats = PageFloats();
    for (size_t pi = 0; pi < table_->pages.size(); ++pi) {
      const size_t off = pi * page_floats;
      const size_t n = std::min(page_floats, total - off);
      w->PutBytes(table_->pages[pi]->v.data(), n * sizeof(f32));
    }
  }

  // ---- Introspection (tests, metrics) ----

  Stats TakeStats() {
    Stats out = stats_;
    stats_ = Stats{};
    return out;
  }
  const Stats& stats() const { return stats_; }
  i64 num_pages() const { return paged_ ? static_cast<i64>(table_->pages.size()) : 0; }
  int live_pins() const {
    return pins_->load(std::memory_order_acquire);
  }
  // Refcount of the page holding `key` (paged mode; tests assert the
  // no-copy-when-unique / copy-when-pinned lifecycle through this).
  long PageUseCount(i64 key) const {
    ORION_CHECK(paged_);
    const i64 slot = SlotOf(key);
    ORION_CHECK(slot >= 0);
    return table_->pages[static_cast<size_t>(slot / kPageCells)].use_count();
  }

 private:
  // Slot of `key`, or -1 when absent (hashed). Mirrors CellStore::Get's
  // dense bounds CHECK.
  i64 SlotOf(i64 key) const {
    if (layout_ != CellStore::Layout::kHashed) {
      ORION_CHECK(key >= lo_ && key <= hi_)
          << "key" << key << "outside dense range [" << lo_ << "," << hi_ << "]";
      return key - lo_;
    }
    return index_->slot_of.Find(key);
  }

  const f32* SlotPtr(i64 slot) const {
    const Page& p = *table_->pages[static_cast<size_t>(slot / kPageCells)];
    return p.v.data() + static_cast<size_t>(slot % kPageCells) * vdim_;
  }

  bool NoLivePins() const { return pins_->load(std::memory_order_acquire) == 0; }

  void EnsureTableOwned() {
    if (table_epoch_ == pin_epoch_) {
      return;
    }
    table_ = std::make_shared<PageTable>(*table_);
    table_epoch_ = pin_epoch_;
  }

  // Returns a writable pointer to `slot`, cloning its page first when a live
  // snapshot might still reference it.
  f32* WritableSlot(i64 slot) {
    const size_t pi = static_cast<size_t>(slot / kPageCells);
    if (page_epoch_[pi] != pin_epoch_) {
      if (NoLivePins()) {
        // Every snapshot that ever saw this page is released; claim it.
        table_epoch_ = pin_epoch_;
        page_epoch_[pi] = pin_epoch_;
      } else {
        EnsureTableOwned();
        const Page& shared = *table_->pages[pi];
        auto clone = std::make_shared<Page>();
        clone->v.resize(shared.v.size());
        simd::CopyF32(clone->v.data(), shared.v.data(), shared.v.size());
        table_->pages[pi] = std::move(clone);
        page_epoch_[pi] = pin_epoch_;
        ++stats_.pages_cloned;
        stats_.cow_bytes += table_->pages[pi]->v.size() * sizeof(f32);
      }
    }
    dirty_[pi] = 1;
    version_dirty_[pi] = 1;
    Page& p = *table_->pages[pi];
    return p.v.data() + static_cast<size_t>(slot % kPageCells) * vdim_;
  }

  // Hashed insert while paged: clone the index (one flat array copy) and
  // possibly grow the table under the same epoch rules, then hand the fresh
  // slot to WritableSlot.
  i64 InsertSlot(i64 key) {
    if (index_epoch_ != pin_epoch_) {
      if (!NoLivePins()) {
        index_ = std::make_shared<IndexState>(*index_);
      }
      index_epoch_ = pin_epoch_;
    }
    const i64 slot = num_cells_;
    const size_t pi = static_cast<size_t>(slot / kPageCells);
    if (pi == table_->pages.size()) {
      if (!NoLivePins()) {
        EnsureTableOwned();
      } else {
        table_epoch_ = pin_epoch_;
      }
      auto page = std::make_shared<Page>();
      page->v.assign(PageFloats(), 0.0f);
      table_->pages.push_back(std::move(page));
      page_epoch_.push_back(pin_epoch_);  // fresh page: writer-owned
      dirty_.push_back(1);
      version_dirty_.push_back(1);
    }
    index_->slot_of.FindOrInsert(key, slot);
    keys_.push_back(key);
    ++num_cells_;
    return slot;
  }

  void Collapse() {
    ORION_CHECK(NoLivePins()) << "collapsing a versioned store with live snapshots";
    CellStore out = layout_ == CellStore::Layout::kFullDense
                        ? CellStore(vdim_, CellStore::Layout::kFullDense, hi_ - lo_ + 1)
                        : layout_ == CellStore::Layout::kDenseRange
                              ? CellStore::DenseRange(vdim_, lo_, hi_)
                              : CellStore(vdim_, CellStore::Layout::kHashed, 0);
    if (layout_ == CellStore::Layout::kHashed) {
      out.Reserve(num_cells_);
      for (size_t i = 0; i < keys_.size(); ++i) {
        const f32* src = SlotPtr(static_cast<i64>(i));
        simd::CopyF32(out.GetOrCreate(keys_[i]), src, static_cast<size_t>(vdim_));
      }
    } else {
      f32* dst = out.raw_values_data();
      const size_t page_floats = PageFloats();
      const size_t total = static_cast<size_t>(num_cells_) * vdim_;
      for (size_t pi = 0; pi < table_->pages.size(); ++pi) {
        const size_t off = pi * page_floats;
        const size_t n = std::min(page_floats, total - off);
        simd::CopyF32(dst + off, table_->pages[pi]->v.data(), n);
      }
    }
    flat_ = std::move(out);
    DropPages();
  }

  void DropPages() {
    if (paged_) {
      ORION_CHECK(NoLivePins()) << "dropping a versioned store with live snapshots";
    }
    table_.reset();
    index_.reset();
    keys_.clear();
    page_epoch_.clear();
    dirty_.clear();
    version_dirty_.clear();
    delta_tracking_ = false;
    checkpoint_cells_ = 0;
    num_cells_ = 0;
    paged_ = false;
  }

  CellStore flat_;
  bool paged_ = false;

  // Paged-mode state. `keys_` (hashed insertion order) is writer-private:
  // snapshots resolve keys through their pinned IndexState only.
  CellStore::Layout layout_ = CellStore::Layout::kHashed;
  i32 vdim_ = 1;
  i64 lo_ = 0;
  i64 hi_ = -1;
  i64 num_cells_ = 0;
  std::shared_ptr<PageTable> table_;
  std::shared_ptr<IndexState> index_;
  std::vector<i64> keys_;

  // COW bookkeeping. pin_epoch_ advances on every Pin(); a page/table/index
  // whose epoch lags it may be shared with a live snapshot.
  std::shared_ptr<std::atomic<int>> pins_ = std::make_shared<std::atomic<int>>(0);
  u64 pin_epoch_ = 0;
  u64 table_epoch_ = 0;
  u64 index_epoch_ = 0;
  std::vector<u64> page_epoch_;

  // Delta-checkpoint bookkeeping (see "Delta export" above). `dirty_` is a
  // per-page flag rather than an epoch compare: claim-in-place writes with
  // no live pins mutate a page without bumping its epoch, so epochs alone
  // under-report dirtiness across a checkpoint mark.
  std::vector<u8> dirty_;
  bool delta_tracking_ = false;
  i64 checkpoint_cells_ = 0;

  // Publish bookkeeping (see "Version publish" above). Separate bitmap from
  // `dirty_`: publishes and checkpoints clear on independent cadences.
  // `publish_seq_` survives collapse so versions stay monotone per store.
  std::vector<u8> version_dirty_;
  u64 publish_seq_ = 0;

  Stats stats_;
};

}  // namespace orion

#endif  // ORION_SRC_DSM_VERSIONED_STORE_H_
