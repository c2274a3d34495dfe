// Partitioning descriptors: range splits per dimension and space/time grids.
//
// Range splits are derived from per-dimension histograms of the actual data
// so skewed iteration spaces still produce balanced partitions (paper
// Sec. 4.3). A SpaceTimeGrid describes the 2D-parallel layout: the space
// dimension is owned by a worker, the time dimension rotates.
#ifndef ORION_SRC_DSM_PARTITION_H_
#define ORION_SRC_DSM_PARTITION_H_

#include <algorithm>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/status.h"
#include "src/common/types.h"

namespace orion {

// Splits a coordinate range into contiguous parts. uppers_[p] is the largest
// coordinate belonging to part p (the last part's upper bound is implicit).
class RangeSplits {
 public:
  RangeSplits() = default;
  RangeSplits(int num_parts, std::vector<i64> uppers)
      : num_parts_(num_parts), uppers_(std::move(uppers)) {
    ORION_CHECK(static_cast<int>(uppers_.size()) == num_parts_ - 1);
    ORION_CHECK(std::is_sorted(uppers_.begin(), uppers_.end()));
  }

  // Builds equal-mass splits from a histogram of coordinate occupancy.
  static RangeSplits FromHistogram(const DimHistogram& hist, int num_parts) {
    return RangeSplits(num_parts, hist.EqualMassSplits(num_parts));
  }

  // Builds equal-width splits over [0, extent).
  static RangeSplits EqualWidth(i64 extent, int num_parts) {
    ORION_CHECK(extent > 0 && num_parts > 0);
    std::vector<i64> uppers;
    uppers.reserve(static_cast<size_t>(num_parts) - 1);
    for (int p = 1; p < num_parts; ++p) {
      uppers.push_back(extent * p / num_parts - 1);
    }
    return RangeSplits(num_parts, std::move(uppers));
  }

  int num_parts() const { return num_parts_; }

  int PartOf(i64 coord) const {
    // First part whose upper bound >= coord.
    auto it = std::lower_bound(uppers_.begin(), uppers_.end(), coord);
    return static_cast<int>(it - uppers_.begin());
  }

  const std::vector<i64>& uppers() const { return uppers_; }

 private:
  int num_parts_ = 1;
  std::vector<i64> uppers_;
};

// 2D (space x time) iteration-space grid for 2D-parallel schedules.
struct SpaceTimeGrid {
  int space_dim = -1;  // iteration-space dimension index
  int time_dim = -1;
  RangeSplits space_splits;  // num parts == num workers
  RangeSplits time_splits;   // num parts == num workers * pipeline_depth

  int SpacePartOf(i64 coord) const { return space_splits.PartOf(coord); }
  int TimePartOf(i64 coord) const { return time_splits.PartOf(coord); }
};

}  // namespace orion

#endif  // ORION_SRC_DSM_PARTITION_H_
