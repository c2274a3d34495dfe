// Approximate per-dimension histograms for skew-aware iteration-space
// partitioning (paper Sec. 4.3 "Dealing with Skewed Data Distribution").
//
// Orion computes a histogram along each candidate partitioning dimension and
// derives partition boundaries that equalize the *number of iterations* per
// partition rather than the key range.
#ifndef ORION_SRC_COMMON_HISTOGRAM_H_
#define ORION_SRC_COMMON_HISTOGRAM_H_

#include <cmath>
#include <vector>

#include "src/common/types.h"

namespace orion {

// Histogram of an executor's reply waits: the blocking portion of each
// AwaitPrefetch (0 when the prefetch was fully hidden under compute).
// Log-scale bucket upper bounds: 0.1ms, 1ms, 10ms, 100ms, 1s, +inf.
struct WaitHistogram {
  static constexpr int kNumBuckets = 6;
  u64 counts[kNumBuckets] = {0, 0, 0, 0, 0, 0};
  double total_seconds = 0.0;
  double max_seconds = 0.0;

  void Add(double seconds) {
    double bound = 1e-4;
    int b = 0;
    while (b < kNumBuckets - 1 && seconds >= bound) {
      bound *= 10.0;
      ++b;
    }
    ++counts[b];
    total_seconds += seconds;
    if (seconds > max_seconds) {
      max_seconds = seconds;
    }
  }

  // Folds another histogram into this one (buckets are aligned by
  // construction, so a merge is exact up to bucket granularity).
  void Merge(const WaitHistogram& o) {
    for (int b = 0; b < kNumBuckets; ++b) {
      counts[b] += o.counts[b];
    }
    total_seconds += o.total_seconds;
    if (o.max_seconds > max_seconds) {
      max_seconds = o.max_seconds;
    }
  }

  u64 total_count() const {
    u64 n = 0;
    for (int b = 0; b < kNumBuckets; ++b) {
      n += counts[b];
    }
    return n;
  }

  // Approximate quantile (q in [0, 1]) by log interpolation inside the
  // bucket holding the target rank. The first bucket interpolates linearly
  // from 0 and the open-ended last bucket interpolates up to max_seconds;
  // results are clamped to [0, max_seconds].
  double ApproxPercentile(double q) const {
    const u64 n = total_count();
    if (n == 0) {
      return 0.0;
    }
    if (q <= 0.0) {
      return 0.0;
    }
    if (q > 1.0) {
      q = 1.0;
    }
    const double target = q * static_cast<double>(n);
    double cum = 0.0;
    for (int b = 0; b < kNumBuckets; ++b) {
      if (counts[b] == 0) {
        continue;
      }
      const double next = cum + static_cast<double>(counts[b]);
      if (target <= next || b == kNumBuckets - 1) {
        const double frac = (target - cum) / static_cast<double>(counts[b]);
        const double lo = b == 0 ? 0.0 : 1e-4 * std::pow(10.0, b - 1);
        double hi = b == kNumBuckets - 1 ? max_seconds : 1e-4 * std::pow(10.0, b);
        if (hi < lo) {
          hi = lo;
        }
        double v;
        if (lo <= 0.0) {
          v = hi * frac;  // linear in the bucket touching zero
        } else {
          v = lo * std::pow(hi / lo, frac);  // log interpolation
        }
        if (max_seconds > 0.0 && v > max_seconds) {
          v = max_seconds;
        }
        return v;
      }
      cum = next;
    }
    return max_seconds;
  }

  template <class V>
  void Fields(V& v) {
    for (u64& c : counts) {
      v(c);
    }
    v(total_seconds, max_seconds);
  }
};

class DimHistogram {
 public:
  // Tracks counts over [lo, hi] with the given number of buckets.
  DimHistogram(i64 lo, i64 hi, int num_buckets);

  void Add(i64 key, i64 count = 1);

  // Returns `num_parts - 1` split keys such that partition p holds keys in
  // [split[p-1]+1 .. split[p]] and partitions have approximately equal mass.
  // Split keys are bucket upper bounds (approximation granularity = bucket).
  std::vector<i64> EqualMassSplits(int num_parts) const;

  i64 total() const { return total_; }
  i64 lo() const { return lo_; }
  i64 hi() const { return hi_; }
  int num_buckets() const { return static_cast<int>(buckets_.size()); }
  i64 bucket_count(int b) const { return buckets_[b]; }

  // Upper key bound (inclusive) of bucket b.
  i64 BucketHi(int b) const;

 private:
  i64 lo_;
  i64 hi_;
  i64 width_;  // keys per bucket (last bucket may be wider)
  i64 total_ = 0;
  std::vector<i64> buckets_;
};

}  // namespace orion

#endif  // ORION_SRC_COMMON_HISTOGRAM_H_
