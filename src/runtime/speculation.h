// Dirty-range summaries for the speculative prefetch engine.
//
// Ordered (wavefront/lockstep) schedules flush their kServer writes as
// kOverwrite updates every step, so the master knows exactly which keys step
// t overwrote. A bounded over-approximation of that set — per-array sorted
// disjoint key ranges, with an "all dirty" fallback when even the ranges
// would blow a size cap — rides on the step-t barrier release. An executor
// that fetched step s's parameters speculatively (from a snapshot pinned
// while an earlier step still ran) intersects its fetched key lists with the
// union of these summaries over the conflict window and re-fetches only the
// intersecting keys. Over-approximation is always safe: a false positive
// just repairs a key that did not change.
#ifndef ORION_SRC_RUNTIME_SPECULATION_H_
#define ORION_SRC_RUNTIME_SPECULATION_H_

#include <map>
#include <utility>
#include <vector>

#include "src/common/serde.h"
#include "src/common/types.h"

namespace orion {

// The keys one step overwrote in one server-hosted array, compressed to
// sorted disjoint inclusive [lo, hi] ranges. Bounded: at most kMaxRanges
// ranges survive (nearest neighbors merge first), and a pathological insert
// (more than kAllDirtyThreshold raw intervals) degrades to all_dirty.
struct ArrayDirtyRanges {
  static constexpr size_t kMaxRanges = 64;
  static constexpr size_t kAllDirtyThreshold = 1024;

  bool all_dirty = false;
  std::vector<std::pair<i64, i64>> ranges;  // sorted, disjoint, inclusive

  bool empty() const { return !all_dirty && ranges.empty(); }

  // Folds `keys` (any order, duplicates fine) into the range set, coalescing
  // adjacent keys and enforcing the bounds above.
  void AddKeys(std::vector<i64> keys);

  bool Contains(i64 key) const;

  // Intersection with a strictly increasing key list (SortUniqueKeys output),
  // found by one merge walk against the sorted ranges; CHECK-fails on any
  // other list, which the walk would silently under-report. all_dirty
  // returns the whole list.
  std::vector<i64> ConflictKeys(const std::vector<i64>& sorted_keys) const;

  template <class V>
  void Fields(V& v) { v(all_dirty, U32Counted{ranges}); }
};

// What one step overwrote across every server-hosted array it touched.
struct StepDirtySummary {
  std::map<DistArrayId, ArrayDirtyRanges> arrays;

  bool empty() const { return arrays.empty(); }
  void AddKeys(DistArrayId array, std::vector<i64> keys);

  template <class V>
  void Fields(V& v) { v(U32Counted{arrays}); }
};

}  // namespace orion

#endif  // ORION_SRC_RUNTIME_SPECULATION_H_
