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
// key list into its sorted, duplicate-free form in time linear in its length.
#ifndef ORION_SRC_DSM_BUCKET_H_
#define ORION_SRC_DSM_BUCKET_H_

#include <algorithm>
#include <array>
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
// by std::unique leaves, for any keys, in time linear in their number. An LSD
// radix sort, 8 bits a pass, over each key's unsigned offset from the list's
// minimum, so it runs only the passes the list's key range needs: two for a
// range below 2^16, all eight only for a range of 2^56 or more.
// *scratch is the second buffer of the ping-pong; its contents are
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

}  // namespace orion

#endif  // ORION_SRC_DSM_BUCKET_H_
