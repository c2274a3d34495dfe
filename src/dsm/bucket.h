// Counting-sort idioms: the group-by/shuffle step of a scatter, and the
// sort-unique of a recorded key list.
//
// BucketCells: one counting sort instead of a hashed insert per cell: count
// the cells of each part, presize each part once, then fill every part in one
// walk of the input. A part receives its cells in input order (a stable
// filter), so a scatter that feeds cells in execution order ships each part in
// that order.
//
// SortUniqueKeys: the same counting sort, one radix digit at a time, turns a
// key list into its sorted, duplicate-free form in time linear in its length;
// a list over a dense key range takes one bitmap pass instead.
//
// KeyBitmap: the same bitmap pass without the list: keys of a known dense
// key space are marked as they arrive and read back sorted and unique.
#ifndef ORION_SRC_DSM_BUCKET_H_
#define ORION_SRC_DSM_BUCKET_H_

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/simd.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/dsm/cell_store.h"

namespace orion {

// One cell of a store being scattered: its key and a pointer to its value.
struct CellRef {
  i64 key;
  const f32* value;
};

// Copies cells[i] into (*parts)[part_of[i]] for every i, in input order.
// A part that already holds a store (a dense block, or a part that must
// exist even when empty) is filled in place; any other part is created as a
// hashed store sized to its cell count, and only if a cell lands in it.
inline void BucketCells(const std::vector<CellRef>& cells, const std::vector<u32>& part_of,
                        i32 value_dim, std::vector<std::optional<CellStore>>* parts) {
  ORION_CHECK(part_of.size() == cells.size());
  std::vector<i64> count(parts->size(), 0);
  for (const u32 p : part_of) {
    ORION_CHECK(p < count.size()) << "part" << p << "out of" << count.size();
    ++count[p];
  }
  for (size_t p = 0; p < parts->size(); ++p) {
    std::optional<CellStore>& part = (*parts)[p];
    if (!part.has_value() && count[p] > 0) {
      part.emplace(value_dim, CellStore::Layout::kHashed, 0);
    }
    if (part.has_value()) {
      ORION_CHECK(part->value_dim() == value_dim);
      part->Reserve(count[p]);
    }
  }
  for (size_t i = 0; i < cells.size(); ++i) {
    simd::CopyF32((*parts)[part_of[i]]->GetOrCreate(cells[i].key), cells[i].value,
                  static_cast<size_t>(value_dim));
  }
}

// Sorts *keys ascending and drops duplicates: exactly what std::sort followed
// by std::unique leaves, for any keys, in time linear in their number.
// A list whose key range is dense — a bitmap over it no larger than the list
// itself — sets one bit per key and reads the set bits back in order.
// Otherwise an LSD radix sort, 8 bits a pass, over each key's unsigned offset
// from the list's minimum runs only the passes the list's key range needs:
// two for a range below 2^16, all eight only for a range of 2^56 or more.
// *scratch is the bitmap or the radix sort's second buffer; its contents are
// overwritten, and a caller that sorts many lists reuses one scratch.
inline void SortUniqueKeys(std::vector<i64>* keys, std::vector<i64>* scratch) {
  if (keys->size() < 2) {
    return;
  }
  constexpr int kDigitBits = 8;
  constexpr u64 kDigitMask = (u64{1} << kDigitBits) - 1;
  i64 min = keys->front();
  i64 max = keys->front();
  for (const i64 k : *keys) {  // branch-free, unlike std::minmax_element
    min = std::min(min, k);
    max = std::max(max, k);
  }
  // Unsigned wrap-around makes every offset exact: max - min fits in u64.
  const u64 lo = static_cast<u64>(min);
  const u64 range = static_cast<u64>(max) - lo;
  if (range / 64 < keys->size()) {
    // range / 64 + 1 bitmap words: no more than the radix pass's scratch.
    scratch->assign(static_cast<size_t>(range / 64) + 1, 0);
    for (const i64 k : *keys) {
      const u64 off = static_cast<u64>(k) - lo;
      (*scratch)[off >> 6] |= static_cast<i64>(u64{1} << (off & 63));
    }
    size_t n = 0;
    for (size_t w = 0; w < scratch->size(); ++w) {
      for (u64 bits = static_cast<u64>((*scratch)[w]); bits != 0; bits &= bits - 1) {
        const u64 off = (static_cast<u64>(w) << 6) + static_cast<u64>(std::countr_zero(bits));
        (*keys)[n++] = static_cast<i64>(lo + off);
      }
    }
    keys->resize(n);
    return;
  }
  scratch->resize(keys->size());
  std::vector<i64>* from = keys;
  std::vector<i64>* to = scratch;
  for (int shift = 0; shift < 64 && (range >> shift) != 0; shift += kDigitBits) {
    const auto digit = [&](i64 k) { return ((static_cast<u64>(k) - lo) >> shift) & kDigitMask; };
    std::array<size_t, kDigitMask + 1> next{};
    for (const i64 k : *from) {
      ++next[digit(k)];
    }
    size_t start = 0;
    for (size_t& n : next) {
      start += std::exchange(n, start);
    }
    for (const i64 k : *from) {
      (*to)[next[digit(k)]++] = k;
    }
    std::swap(from, to);
  }
  if (from == keys) {
    keys->erase(std::unique(keys->begin(), keys->end()), keys->end());
  } else {
    keys->erase(std::unique_copy(scratch->begin(), scratch->end(), keys->begin()), keys->end());
  }
}

// Collects a stream of keys in [0, num_keys) into what SortUniqueKeys leaves
// for the same stream, without materializing the stream: Mark sets one bit
// per key, and TakeSorted reads the set bits back in ascending order. It
// scans only the words between the lowest and the highest marked key and
// clears them as it goes, so one bitmap serves round after round.
class KeyBitmap {
 public:
  KeyBitmap() = default;
  explicit KeyBitmap(i64 num_keys)
      : num_keys_(static_cast<u64>(num_keys)),
        words_((static_cast<size_t>(num_keys) + 63) / 64, 0) {
    ORION_CHECK(num_keys >= 0);
  }

  i64 num_keys() const { return static_cast<i64>(num_keys_); }
  bool empty() const { return lo_ > hi_; }

  // Marks `key`. Returns false, marking nothing, for a key outside
  // [0, num_keys).
  bool Mark(i64 key) {
    const u64 k = static_cast<u64>(key);  // a negative key wraps past num_keys
    if (k >= num_keys_) {
      return false;
    }
    const size_t w = static_cast<size_t>(k >> 6);
    words_[w] |= u64{1} << (k & 63);
    lo_ = std::min(lo_, w);
    hi_ = std::max(hi_, w);
    return true;
  }

  // Appends the marked keys to *out, ascending, and clears them.
  void TakeSorted(std::vector<i64>* out) {
    if (empty()) {
      return;
    }
    size_t n = 0;
    for (size_t w = lo_; w <= hi_; ++w) {
      n += static_cast<size_t>(std::popcount(words_[w]));
    }
    out->reserve(out->size() + n);
    for (size_t w = lo_; w <= hi_; ++w) {
      for (u64 bits = std::exchange(words_[w], 0); bits != 0; bits &= bits - 1) {
        out->push_back(static_cast<i64>((w << 6) + static_cast<size_t>(std::countr_zero(bits))));
      }
    }
    lo_ = kNone;
    hi_ = 0;
  }

  // Drops every mark.
  void Clear() {
    if (!empty()) {
      std::fill(words_.begin() + static_cast<std::ptrdiff_t>(lo_),
                words_.begin() + static_cast<std::ptrdiff_t>(hi_) + 1, 0);
    }
    lo_ = kNone;
    hi_ = 0;
  }

 private:
  static constexpr size_t kNone = std::numeric_limits<size_t>::max();

  u64 num_keys_ = 0;
  std::vector<u64> words_;  // bit k: key k is marked
  size_t lo_ = kNone;       // words [lo_, hi_] hold every mark; empty when lo_ > hi_
  size_t hi_ = 0;
};

}  // namespace orion

#endif  // ORION_SRC_DSM_BUCKET_H_
