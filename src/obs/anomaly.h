// Straggler / anomaly detection over per-rank timing observations.
//
// The master already observes, per wavefront step, when each rank's barrier
// arrival lands, and per pass, each rank's compute seconds (PassDone). The
// detector consumes those as "rounds": one (rank, seconds) vector per step
// or pass. For each round it computes the cross-rank median and MAD, and a
// rank whose positive deviation exceeds max(k * MAD, floor_seconds) for
// m consecutive rounds is flagged a straggler. The MAD term adapts to the
// workload's natural skew; the absolute floor keeps microsecond-scale noise
// from ever flagging; the consecutive-round confirmation filters one-off
// spikes (a dropped-and-retransmitted barrier message under chaos testing
// delays one round, not m in a row on the same rank). Flags are sticky the
// same way: a confirmed straggler unflags only after m consecutive in-band
// rounds, so one healthy observation (e.g. a pass-level compute round
// between skewed step-level barrier rounds) cannot flap the verdict.
//
// Detection only: the flags feed "anomaly.straggler.<rank>" gauges, a WARN
// log line, and a verdict line in CriticalPathReport(). No scheduling or
// fault-handling decision consults them, so determinism is untouched.
//
// Not thread-safe: fed and read from the driver thread only.
#ifndef ORION_SRC_OBS_ANOMALY_H_
#define ORION_SRC_OBS_ANOMALY_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/types.h"

namespace orion {
namespace obs {

class StragglerDetector {
 public:
  void Reset();

  // One observation round: (physical rank, seconds) for every rank that
  // participated. Rounds with fewer than 3 ranks are ignored (median/MAD
  // are meaningless).
  void ObserveRound(const std::vector<std::pair<int, double>>& rank_seconds);

  bool Flagged(int rank) const;
  // Smoothed positive deviation from the round median, seconds (the EWMA
  // baseline exported as the straggler gauge's companion score).
  double LagEwma(int rank) const;
  std::vector<int> FlaggedRanks() const;
  u64 rounds() const { return rounds_; }
  u64 total_flags() const { return total_flags_; }

  // Ranks that crossed into the flagged state since the last call (for
  // WARN-once logging). Clears the pending set.
  std::vector<int> TakeNewlyFlagged();

  // One-line verdict for CriticalPathReport, e.g.
  // "stragglers: none (47 rounds)" or
  // "stragglers: rank 2 lag_ewma=8.1ms streak=5 (47 rounds)".
  std::string Verdict() const;

 private:
  struct RankState {
    int streak = 0;          // consecutive over-threshold rounds
    int healthy_streak = 0;  // consecutive in-band rounds while flagged
    bool flagged = false;
    double lag_ewma = 0.0;
  };

  std::map<int, RankState> ranks_;
  std::vector<int> newly_flagged_;
  u64 rounds_ = 0;
  u64 total_flags_ = 0;
};

}  // namespace obs
}  // namespace orion

#endif  // ORION_SRC_OBS_ANOMALY_H_
