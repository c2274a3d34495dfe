// Open-addressing hash index from i64 keys to i64 slots: the one index behind
// every hashed cell store (CellStore's kHashed layout and the versioned
// store's pinned IndexState).
//
// A power-of-two table of {key, slot} entries with linear probing and no
// erase (stores only grow or clear wholesale). Emptiness is marked in the
// slot field (slot < 0), so every i64 key is storable and none is reserved.
// Keys hash by Fibonacci multiplication, which spreads the dense, sequential
// key runs of row-major key spaces evenly. Copying the index is a copy of
// one plain array, which is what the versioned store does to clone it under
// live pins.
#ifndef ORION_SRC_DSM_FLAT_INDEX_H_
#define ORION_SRC_DSM_FLAT_INDEX_H_

#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"

namespace orion {

class FlatIndex {
 public:
  static constexpr i64 kAbsent = -1;

  FlatIndex() = default;
  FlatIndex(const FlatIndex&) = default;
  FlatIndex& operator=(const FlatIndex&) = default;
  // A moved-from index is empty, like a moved-from standard container, so a
  // moved-from store stays usable.
  FlatIndex(FlatIndex&& other) noexcept { *this = std::move(other); }
  FlatIndex& operator=(FlatIndex&& other) noexcept {
    if (this != &other) {
      entries_ = std::exchange(other.entries_, {});
      size_ = std::exchange(other.size_, 0);
      mask_ = std::exchange(other.mask_, 0);
      shift_ = std::exchange(other.shift_, 64);
    }
    return *this;
  }

  size_t size() const { return size_; }
  size_t capacity() const { return entries_.size(); }

  // Slot of `key`, or kAbsent.
  i64 Find(i64 key) const {
    if (size_ == 0) {
      return kAbsent;
    }
    for (size_t i = Home(key);; i = (i + 1) & mask_) {
      const Entry& e = entries_[i];
      if (e.slot < 0) {
        return kAbsent;
      }
      if (e.key == key) {
        return e.slot;
      }
    }
  }

  // Maps `key` to `slot` (slot >= 0) unless `key` is already present.
  // Returns the slot `key` maps to afterwards, so the caller sees an
  // insertion as a return value equal to `slot`.
  i64 FindOrInsert(i64 key, i64 slot) {
    ORION_CHECK(slot >= 0);
    if ((size_ + 1) * kMaxLoadDen > entries_.size() * kMaxLoadNum) {
      Rehash(entries_.empty() ? kMinCapacity : entries_.size() * 2);
    }
    size_t i = Home(key);
    for (;; i = (i + 1) & mask_) {
      Entry& e = entries_[i];
      if (e.slot < 0) {
        break;
      }
      if (e.key == key) {
        return e.slot;
      }
    }
    entries_[i] = Entry{key, slot};
    ++size_;
    return slot;
  }

  // Pre-sizes the table so `total` keys fit without a rehash.
  void Reserve(size_t total) {
    size_t cap = entries_.empty() ? kMinCapacity : entries_.size();
    while (total * kMaxLoadDen > cap * kMaxLoadNum) {
      cap *= 2;
    }
    if (total > 0 && cap != entries_.size()) {
      Rehash(cap);
    }
  }

  // Empties the index and keeps its capacity for reuse.
  void Clear() {
    if (size_ == 0) {
      return;
    }
    entries_.assign(entries_.size(), Entry{});
    size_ = 0;
  }

 private:
  struct Entry {
    i64 key = 0;
    i64 slot = kAbsent;  // < 0: empty bucket
  };
  // Grow once the table would be more than 3/4 full.
  static constexpr size_t kMaxLoadNum = 3;
  static constexpr size_t kMaxLoadDen = 4;
  static constexpr size_t kMinCapacity = 16;

  size_t Home(i64 key) const {
    return static_cast<size_t>((static_cast<u64>(key) * 0x9e3779b97f4a7c15ull) >> shift_);
  }

  void Rehash(size_t new_capacity) {
    std::vector<Entry> old = std::move(entries_);
    entries_.assign(new_capacity, Entry{});
    mask_ = new_capacity - 1;
    shift_ = 64;
    for (size_t c = new_capacity; c > 1; c >>= 1) {
      --shift_;
    }
    for (const Entry& e : old) {
      if (e.slot >= 0) {
        size_t i = Home(e.key);
        while (entries_[i].slot >= 0) {
          i = (i + 1) & mask_;
        }
        entries_[i] = e;
      }
    }
  }

  std::vector<Entry> entries_;
  size_t size_ = 0;
  size_t mask_ = 0;
  int shift_ = 64;
};

}  // namespace orion

#endif  // ORION_SRC_DSM_FLAT_INDEX_H_
