// Per-pass metrics reported by Driver::Execute.
//
// Each metric is declared once, in the X-macro list of the struct that
// carries it (the KMP_FOREACH_COUNTER idiom). The struct fields, the
// per-pass reset, the per-worker report and its fold across workers, the
// registry export and the per-pass series are all generated from the list,
// so a new metric is one line here.
#ifndef ORION_SRC_RUNTIME_METRICS_H_
#define ORION_SRC_RUNTIME_METRICS_H_

#include <algorithm>
#include <map>
#include <string>
#include <vector>

// WaitHistogram lives in src/common/histogram.h so the common-layer
// MetricsRegistry can aggregate it; re-exported here for existing users.
#include "src/common/histogram.h"
#include "src/common/metrics_registry.h"
#include "src/common/types.h"

namespace orion {

// How a metric is exported: counters as u64, gauges as double.
enum class MetricKind { kCounter, kGauge };

template <typename T>
void ExportMetric(MetricsRegistry* reg, MetricKind kind, const char* name, T value) {
  if (kind == MetricKind::kCounter) {
    reg->SetCounter(name, static_cast<u64>(value));
  } else {
    reg->SetGauge(name, static_cast<double>(value));
  }
}

// The per-pass loop metrics. Each entry is one of
//
//   M(type, field, "registry.name", kind, flags)
//       produced on the master;
//   W(type, field, "registry.name", kind, flags, fold, wire type, report field)
//       reported by every worker as WorkerPassMetrics::<report field> and
//       folded across workers into <field>: kMax or kSum.
//
// flags: kResetPerPass — zeroed when a pass starts (otherwise assigned when
// it completes); kSeries — one point per completed pass under the same name.
#define ORION_FOREACH_LOOP_METRIC(M, W)                                                    \
  /* Master-observed totals of the pass: wall time and fabric traffic. */                  \
  M(double, pass_wall_seconds, "pass.wall_seconds", kGauge, kSeries)                       \
  M(u64, bytes_sent, "pass.bytes_sent", kCounter, 0)                                       \
  M(u64, messages_sent, "pass.messages_sent", kCounter, 0)                                 \
  M(double, virtual_net_seconds, "pass.virtual_net_seconds", kGauge, 0)                    \
  M(u64, zero_copy_bytes, "pass.zero_copy_bytes", kCounter, 0)                             \
  /* Worker time: compute and blocked waits. */                                            \
  W(double, max_worker_compute_seconds, "pass.max_worker_compute_seconds", kGauge,         \
    kResetPerPass, kMax, double, compute_seconds)                                          \
  W(double, max_worker_wait_seconds, "pass.max_worker_wait_seconds", kGauge,               \
    kResetPerPass, kMax, double, wait_seconds)                                             \
  /* Comm/compute overlap engine: send time moved onto the comm thread, and */             \
  /* prefetch in-flight time hidden under compute. */                                      \
  W(double, overlap_seconds, "pass.overlap_seconds", kGauge, kResetPerPass, kMax, double,  \
    overlap_send_seconds)                                                                  \
  W(double, prefetch_wait_hidden_seconds, "pass.prefetch_wait_hidden_seconds", kGauge,     \
    kResetPerPass, kMax, double, prefetch_hidden_seconds)                                  \
  /* Depth-k prefetch ring: the deepest any worker's ring actually got. */                 \
  W(int, prefetch_ring_depth_used, "pass.prefetch_ring_depth_used", kCounter,              \
    kResetPerPass, kMax, i32, ring_depth_used)                                             \
  /* Async parameter serving: CPU time spent gathering replies, and the */                 \
  /* peak number of requests in flight. */                                                 \
  M(double, param_serve_seconds, "pass.param_serve_seconds", kGauge,                       \
    kResetPerPass | kSeries)                                                               \
  M(int, param_shard_queue_depth_max, "pass.param_shard_queue_depth_max", kCounter,        \
    kResetPerPass)                                                                         \
  /* Speculative prefetch for ordered schedules. Depth 0 = the pass ran */                 \
  /* synchronous fetches (speculation off or controller-disabled). Workers */              \
  /* report slots issued early, slots that needed repair, bytes re-fetched */              \
  /* by repair, in-flight time hidden under compute, and blocked wait */                   \
  /* (initial await + repair round trips). conflict_rate = conflicts / */                  \
  /* issued; requests_served counts requests flagged speculative at the */                 \
  /* master. */                                                                            \
  M(int, spec_depth_effective, "spec.depth_effective", kGauge, kResetPerPass | kSeries)    \
  W(u64, spec_issued, "spec.issued", kCounter, kResetPerPass, kSum, u32, spec_issued)      \
  W(u64, spec_conflicts, "spec.conflicts", kCounter, kResetPerPass, kSum, u32,             \
    spec_conflicts)                                                                        \
  W(u64, spec_repair_bytes, "spec.repair_bytes", kCounter, kResetPerPass | kSeries, kSum,  \
    u64, spec_repair_bytes)                                                                \
  M(double, spec_conflict_rate, "spec.conflict_rate", kGauge, kResetPerPass | kSeries)     \
  W(double, spec_hidden_seconds, "spec.hidden_seconds", kGauge, kResetPerPass, kMax,       \
    double, spec_hidden_seconds)                                                           \
  W(double, spec_wait_seconds, "spec.wait_seconds", kGauge, kResetPerPass, kMax, double,   \
    spec_wait_seconds)                                                                     \
  M(u64, spec_requests_served, "spec.requests_served", kCounter, kResetPerPass)            \
  /* Versioned copy-on-write store: snapshots pinned for serving, pages */                 \
  /* cloned by concurrent writers, and bytes those clones copied. */                       \
  M(u64, versioned_snapshot_pins, "versioned.snapshot_pins", kCounter,                     \
    kResetPerPass | kSeries)                                                               \
  M(u64, versioned_pages_cloned, "versioned.pages_cloned", kCounter,                       \
    kResetPerPass | kSeries)                                                               \
  M(u64, versioned_cow_bytes, "versioned.cow_bytes", kCounter, kResetPerPass)

#define ORION_IGNORE_METRIC(...)

// One worker's report of one pass (carried in PassDone): a field per W entry
// of the loop-metric list, plus the histogram of its blocking reply waits.
struct WorkerPassMetrics {
#define ORION_REPORT_FIELD(type, field, name, kind, flags, fold, wire, report) wire report{};
  ORION_FOREACH_LOOP_METRIC(ORION_IGNORE_METRIC, ORION_REPORT_FIELD)
#undef ORION_REPORT_FIELD
  WaitHistogram reply_wait;

  // Wire field list: the W entries in list order, then the histogram.
  template <class V>
  void Fields(V& v) {
#define ORION_VISIT(type, field, name, kind, flags, fold, wire, report) v(report);
    ORION_FOREACH_LOOP_METRIC(ORION_IGNORE_METRIC, ORION_VISIT)
#undef ORION_VISIT
    v(reply_wait);
  }
};

struct LoopMetrics {
  enum Flags : unsigned { kResetPerPass = 1, kSeries = 2 };
  enum FoldRule { kMax, kSum };

#define ORION_FIELD(type, field, ...) type field{};
  ORION_FOREACH_LOOP_METRIC(ORION_FIELD, ORION_FIELD)
#undef ORION_FIELD
  // Per-worker reply-wait histograms, indexed by logical rank.
  std::vector<WaitHistogram> worker_reply_wait;

  // Zeroes the kResetPerPass entries.
  void ResetPass() {
#define ORION_RESET(type, field, name, kind, flags, ...) \
  if (((flags) & kResetPerPass) != 0) {                  \
    field = type{};                                      \
  }
    ORION_FOREACH_LOOP_METRIC(ORION_RESET, ORION_RESET)
#undef ORION_RESET
  }

  // Folds one worker's report into the W entries.
  void Fold(const WorkerPassMetrics& w) {
#define ORION_FOLD(type, field, name, kind, flags, fold, wire, report) \
  if (fold == kMax) {                                                  \
    field = std::max(field, static_cast<type>(w.report));              \
  } else {                                                             \
    field += w.report;                                                 \
  }
    ORION_FOREACH_LOOP_METRIC(ORION_IGNORE_METRIC, ORION_FOLD)
#undef ORION_FOLD
  }

  // Sets every entry under its registry name.
  void ExportTo(MetricsRegistry* reg) const {
#define ORION_EXPORT(type, field, name, kind, ...) \
  ExportMetric(reg, MetricKind::kind, name, field);
    ORION_FOREACH_LOOP_METRIC(ORION_EXPORT, ORION_EXPORT)
#undef ORION_EXPORT
  }

  // Appends this pass's point of every kSeries entry.
  void AppendSeriesTo(std::map<std::string, std::vector<double>>* series) const {
#define ORION_APPEND(type, field, name, kind, flags, ...) \
  if (((flags) & kSeries) != 0) {                         \
    (*series)[name].push_back(static_cast<double>(field)); \
  }
    ORION_FOREACH_LOOP_METRIC(ORION_APPEND, ORION_APPEND)
#undef ORION_APPEND
  }
};

// Cumulative fault-tolerance counters for one Driver lifetime: what the fault
// injector did to the run and what the supervision/recovery machinery paid to
// absorb it. Each entry is X(type, field, "registry.name", kind).
#define ORION_FOREACH_RUNTIME_METRIC(X)                                               \
  /* Mirrored from the fault injector (zero when no plan is installed). */            \
  X(u64, faults_dropped, "fault.dropped", kCounter)                                   \
  X(u64, faults_duplicated, "fault.duplicated", kCounter)                             \
  X(u64, faults_delayed, "fault.delayed", kCounter)                                   \
  X(u64, crashes_triggered, "fault.crashes_triggered", kCounter)                      \
  /* Supervision; retransmits counts kStartPass retries by the master. */             \
  X(u64, heartbeats_sent, "supervision.heartbeats_sent", kCounter)                    \
  X(u64, retransmits, "supervision.retransmits", kCounter)                            \
  /* Recovery; seconds is wall time inside Recover, replay included. */               \
  X(u64, workers_lost, "recovery.workers_lost", kCounter)                             \
  X(u64, recoveries, "recovery.recoveries", kCounter)                                 \
  X(u64, passes_replayed, "recovery.passes_replayed", kCounter)                       \
  X(double, recovery_seconds, "recovery.seconds", kGauge)                             \
  /* Checkpointing. */                                                                \
  X(u64, checkpoints_written, "checkpoint.count", kCounter)                           \
  X(double, checkpoint_seconds, "checkpoint.seconds", kGauge)                         \
  /* Log-structured durability (zero when EnableDurability is not in use): */         \
  /* checkpoints appended as WAL delta records, bytes written to the log */           \
  /* (base + WAL), dirty pages shipped in delta form, WAL folds into a fresh */       \
  /* base image, ranks re-entered after a retire, and wall time */                    \
  /* materializing log states. */                                                     \
  X(u64, delta_checkpoints, "durability.delta_checkpoints", kCounter)                 \
  X(u64, log_bytes_appended, "durability.log_bytes_appended", kCounter)               \
  X(u64, pages_deltad, "durability.pages_deltad", kCounter)                           \
  X(u64, compactions, "durability.compactions", kCounter)                             \
  X(u64, worker_rejoins, "durability.worker_rejoins", kCounter)                       \
  X(double, restore_seconds, "durability.restore_seconds", kGauge)

struct RuntimeMetrics {
#define ORION_FIELD(type, field, ...) type field{};
  ORION_FOREACH_RUNTIME_METRIC(ORION_FIELD)
#undef ORION_FIELD

  // Sets every entry under its registry name.
  void ExportTo(MetricsRegistry* reg) const {
#define ORION_EXPORT(type, field, name, kind) ExportMetric(reg, MetricKind::kind, name, field);
    ORION_FOREACH_RUNTIME_METRIC(ORION_EXPORT)
#undef ORION_EXPORT
  }
};

}  // namespace orion

#undef ORION_IGNORE_METRIC

#endif  // ORION_SRC_RUNTIME_METRICS_H_
