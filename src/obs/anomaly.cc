#include "src/obs/anomaly.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace orion {
namespace obs {

namespace {

constexpr double kMad = 4.0;            // deviation threshold multiplier (k)
constexpr double kFloorSeconds = 2e-3;  // absolute deviation floor
constexpr int kConfirmRounds = 3;       // consecutive rounds over threshold to flag (m)
constexpr double kEwmaAlpha = 0.2;      // per-rank lag baseline smoothing

double MedianOf(std::vector<double> v) {
  const size_t n = v.size();
  std::nth_element(v.begin(), v.begin() + n / 2, v.end());
  const double hi = v[n / 2];
  if (n % 2 == 1) return hi;
  std::nth_element(v.begin(), v.begin() + n / 2 - 1, v.end());
  return 0.5 * (v[n / 2 - 1] + hi);
}

}  // namespace

void StragglerDetector::Reset() {
  ranks_.clear();
  newly_flagged_.clear();
  rounds_ = 0;
  total_flags_ = 0;
}

void StragglerDetector::ObserveRound(
    const std::vector<std::pair<int, double>>& rank_seconds) {
  if (rank_seconds.size() < 3) return;
  ++rounds_;
  std::vector<double> values;
  values.reserve(rank_seconds.size());
  for (const auto& [rank, s] : rank_seconds) values.push_back(s);
  const double median = MedianOf(values);
  std::vector<double> deviations;
  deviations.reserve(values.size());
  for (double v : values) deviations.push_back(std::fabs(v - median));
  const double mad = MedianOf(deviations);
  const double threshold = std::max(kMad * mad, kFloorSeconds);

  for (const auto& [rank, s] : rank_seconds) {
    RankState& st = ranks_[rank];
    const double lag = s - median;  // positive = behind the pack
    st.lag_ewma = kEwmaAlpha * std::max(lag, 0.0) + (1.0 - kEwmaAlpha) * st.lag_ewma;
    if (lag > threshold) {
      st.healthy_streak = 0;
      ++st.streak;
      if (st.streak >= kConfirmRounds && !st.flagged) {
        st.flagged = true;
        ++total_flags_;
        newly_flagged_.push_back(rank);
      }
    } else {
      st.streak = 0;
      if (st.flagged && ++st.healthy_streak >= kConfirmRounds) {
        st.flagged = false;
        st.healthy_streak = 0;
      }
    }
  }
}

bool StragglerDetector::Flagged(int rank) const {
  auto it = ranks_.find(rank);
  return it != ranks_.end() && it->second.flagged;
}

double StragglerDetector::LagEwma(int rank) const {
  auto it = ranks_.find(rank);
  return it == ranks_.end() ? 0.0 : it->second.lag_ewma;
}

std::vector<int> StragglerDetector::FlaggedRanks() const {
  std::vector<int> out;
  for (const auto& [rank, st] : ranks_) {
    if (st.flagged) out.push_back(rank);
  }
  return out;
}

std::vector<int> StragglerDetector::TakeNewlyFlagged() {
  std::vector<int> out;
  out.swap(newly_flagged_);
  return out;
}

std::string StragglerDetector::Verdict() const {
  char buf[96];
  std::string out = "stragglers:";
  bool any = false;
  for (const auto& [rank, st] : ranks_) {
    if (!st.flagged) continue;
    any = true;
    std::snprintf(buf, sizeof buf, " rank %d lag_ewma=%.1fms streak=%d", rank,
                  st.lag_ewma * 1e3, st.streak);
    out += buf;
  }
  if (!any) out += " none";
  std::snprintf(buf, sizeof buf, " (%llu rounds)",
                static_cast<unsigned long long>(rounds_));
  out += buf;
  return out;
}

}  // namespace obs
}  // namespace orion
