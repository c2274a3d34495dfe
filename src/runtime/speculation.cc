#include "src/runtime/speculation.h"

#include <algorithm>
#include <functional>

#include "src/common/status.h"
#include "src/dsm/bucket.h"

namespace orion {

namespace {

// Merges a sorted interval list in place until at most `max_ranges` remain,
// always collapsing the pair with the smallest gap between them (the merge
// that over-approximates the fewest keys).
void MergeDown(std::vector<std::pair<i64, i64>>* ranges, size_t max_ranges) {
  while (ranges->size() > max_ranges) {
    // One pass: find the gap threshold that removes the surplus, then merge
    // every gap at or below it left to right.
    std::vector<i64> gaps;
    gaps.reserve(ranges->size() - 1);
    for (size_t i = 1; i < ranges->size(); ++i) {
      gaps.push_back((*ranges)[i].first - (*ranges)[i - 1].second);
    }
    const size_t surplus = ranges->size() - max_ranges;
    std::nth_element(gaps.begin(), gaps.begin() + static_cast<std::ptrdiff_t>(surplus - 1),
                     gaps.end());
    const i64 threshold = gaps[surplus - 1];
    std::vector<std::pair<i64, i64>> merged;
    merged.reserve(max_ranges);
    merged.push_back((*ranges)[0]);
    size_t merges_left = surplus;
    for (size_t i = 1; i < ranges->size(); ++i) {
      const i64 gap = (*ranges)[i].first - merged.back().second;
      if (merges_left > 0 && gap <= threshold) {
        merged.back().second = std::max(merged.back().second, (*ranges)[i].second);
        --merges_left;
      } else {
        merged.push_back((*ranges)[i]);
      }
    }
    *ranges = std::move(merged);
  }
}

}  // namespace

void ArrayDirtyRanges::AddKeys(std::vector<i64> keys) {
  if (all_dirty || keys.empty()) {
    return;
  }
  thread_local std::vector<i64> scratch;
  SortUniqueKeys(&keys, &scratch);

  // Coalesce the new keys into intervals (adjacent keys fuse), then merge
  // with the existing sorted interval list.
  std::vector<std::pair<i64, i64>> fresh;
  for (i64 k : keys) {
    if (!fresh.empty() && k <= fresh.back().second + 1) {
      fresh.back().second = k;
    } else {
      fresh.emplace_back(k, k);
    }
  }
  if (ranges.size() + fresh.size() > kAllDirtyThreshold) {
    all_dirty = true;
    ranges.clear();
    return;
  }
  std::vector<std::pair<i64, i64>> merged;
  merged.reserve(ranges.size() + fresh.size());
  std::merge(ranges.begin(), ranges.end(), fresh.begin(), fresh.end(),
             std::back_inserter(merged));
  ranges.clear();
  for (const auto& r : merged) {
    if (!ranges.empty() && r.first <= ranges.back().second + 1) {
      ranges.back().second = std::max(ranges.back().second, r.second);
    } else {
      ranges.push_back(r);
    }
  }
  MergeDown(&ranges, kMaxRanges);
}

bool ArrayDirtyRanges::Contains(i64 key) const {
  if (all_dirty) {
    return true;
  }
  auto it = std::upper_bound(ranges.begin(), ranges.end(), key,
                             [](i64 k, const std::pair<i64, i64>& r) { return k < r.first; });
  return it != ranges.begin() && key <= std::prev(it)->second;
}

std::vector<i64> ArrayDirtyRanges::ConflictKeys(const std::vector<i64>& sorted_keys) const {
  // The merge walk below only moves forward: a key smaller than its
  // predecessor would be tested against a later range and silently missed.
  ORION_CHECK(std::adjacent_find(sorted_keys.begin(), sorted_keys.end(),
                                 std::greater_equal<>()) == sorted_keys.end())
      << "ConflictKeys needs a strictly increasing key list";
  if (all_dirty) {
    return sorted_keys;
  }
  std::vector<i64> out;
  size_t r = 0;
  for (i64 k : sorted_keys) {
    while (r < ranges.size() && ranges[r].second < k) {
      ++r;
    }
    if (r == ranges.size()) {
      break;
    }
    if (k >= ranges[r].first) {
      out.push_back(k);
    }
  }
  return out;
}

void StepDirtySummary::AddKeys(DistArrayId array, std::vector<i64> keys) {
  if (keys.empty()) {
    return;
  }
  arrays[array].AddKeys(std::move(keys));
}

}  // namespace orion
