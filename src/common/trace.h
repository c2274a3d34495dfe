// Cluster-wide span tracer.
//
// Always compiled, runtime-toggled: `ORION_TRACE_SPAN(category, name)` costs
// a single relaxed atomic load plus one branch when tracing is disabled.
// When enabled, every thread records spans into its own overwrite-oldest
// ring buffer (registered once per thread in a process-global registry that
// outlives the thread, so spans survive until drained). Spans carry the
// thread's logical rank tag, a stable small thread id, the current pass and
// step ids, and steady-clock timestamps relative to one process epoch, so
// spans from every thread merge into a single coherent timeline.
//
// Workers drain their spans and piggyback them on PassDone; the master
// appends them to the cluster timeline and drains all remaining rings
// (its own threads, plus anything a worker had not yet shipped at halt)
// in Driver::DumpTrace. Export is Chrome trace-event JSON, loadable in
// Perfetto (ui.perfetto.dev) or chrome://tracing.
#ifndef ORION_SRC_COMMON_TRACE_H_
#define ORION_SRC_COMMON_TRACE_H_

#include <atomic>
#include <string>
#include <vector>

#include "src/common/serde.h"
#include "src/common/types.h"

namespace orion {
namespace trace {

// Span taxonomy. Categories name the subsystem that emitted the span; the
// critical-path analyzer buckets only kExecutor spans (the worker's own
// sequential phases), so concurrent sender/fabric spans never double-count.
enum class Category : u16 {
  kDriver = 0,       // master pass lifecycle
  kExecutor = 1,     // worker step phases (sequential on the worker thread)
  kParamServer = 2,  // one gather per param request (master pool threads)
  kSender = 3,       // AsyncSender lane activity
  kFabric = 4,       // individual send/recv with message kind
};
inline constexpr int kNumCategories = 5;
const char* CategoryName(Category c);

// One closed span. `name` points at a string literal while the span sits in
// a ring; drained spans own a std::string copy (safe to serialize/merge).
struct Span {
  i64 start_ns = 0;  // steady clock, relative to the process trace epoch
  i64 end_ns = 0;
  i64 pass = -1;  // -1 = unknown (thread had no pass context)
  i64 step = -1;
  i32 rank = kMasterRank;  // logical rank tag of the emitting thread
  i32 tid = 0;             // sequential tracer thread id (stable per thread)
  u16 category = 0;
  std::string name;

  // Wire field list: drained spans piggyback on PassDone and barrier
  // arrivals (runtime/protocol.h).
  template <class V>
  void Fields(V& v) { v(start_ns, end_ns, pass, step, rank, tid, category, name); }
};

// ---- Runtime toggle ----------------------------------------------------

namespace internal {
extern std::atomic<bool> g_enabled;
}  // namespace internal

inline bool Enabled() { return internal::g_enabled.load(std::memory_order_relaxed); }
void SetEnabled(bool on);

// ---- Per-thread context ------------------------------------------------

// Tags the calling thread with a logical rank. Untagged threads default to
// kMasterRank (-1): the driver thread, ParamServer pool threads and the
// master's sender lanes need no plumbing.
void SetThreadRank(i32 rank);
i32 ThreadRank();

// Optional short label for master-side helper threads (monitor, metrics
// endpoint): ORION_LOG lines tag them "M|<label>/t<id>" instead of the bare
// "M/t<id>", so interleaved logs stay attributable. The pointer must outlive
// the thread (string literals only); nullptr clears it.
void SetThreadLabel(const char* label);
const char* ThreadLabel();

// Current pass/step ids stamped onto spans recorded by this thread
// (-1 = unknown; the analyzer then attributes by timestamp containment).
void SetThreadPass(i64 pass);
void SetThreadStep(i64 step);

// Stable small id for the calling thread (registers it on first use).
i32 ThreadId();

// Nanoseconds since the process trace epoch (steady clock).
i64 NowNs();

// Records a closed span for the calling thread. No-op when disabled.
// Stamps the thread's rank/pass/step at call time. `name` must outlive the
// ring (string literals only).
void Emit(Category category, const char* name, i64 start_ns, i64 end_ns);

// ---- Draining ----------------------------------------------------------

// Removes and returns spans whose rank tag is `rank`, from every ring, in
// per-thread chronological order. Used by executors to ship their spans
// (own thread + their sender lane) in PassDone.
std::vector<Span> DrainRank(i32 rank);

// Removes and returns every buffered span. Used by the master at dump time
// to pick up its own threads plus anything workers had not yet shipped.
std::vector<Span> DrainAll();

// Discards all buffered spans (test isolation between driver instances).
void Reset();

// Total spans overwritten before they could be drained (ring wraparound).
u64 DroppedCount();

// Ring capacity (spans) applied to rings created by threads registering
// after the call. Existing rings are unaffected. Default 1 << 15.
void SetRingCapacity(size_t capacity);

// Fraction of the calling thread's ring currently occupied (0.0 when the
// thread has recorded nothing yet). Executors use it to decide when a long
// ordered pass should piggyback a partial drain on a barrier arrival
// instead of letting the ring wrap before PassDone.
double RingFillFraction();

// ---- Export ------------------------------------------------------------

// Sorts a copy of `spans` by start time and writes Chrome trace-event JSON:
// one "X" (complete) event per span, pid = rank + 1 (master-side threads are
// pid 0), tid = tracer thread id, plus process_name metadata. Loadable in
// Perfetto or chrome://tracing.
Status WriteChromeTrace(const std::string& path, const std::vector<Span>& spans);
std::string ChromeTraceJson(const std::vector<Span>& spans);

// ---- Critical-path analysis --------------------------------------------

// Per-pass attribution of the master-observed wall time. The critical
// worker is the one with the longest "pass" span; its sequential executor
// phases fill the buckets, master-side applies/checkpoints add
// master_apply_seconds, and the residual (message latency, barrier skew,
// StartPass fan-out) lands in other_seconds, so the buckets sum to
// wall_seconds by construction. param_serve_seconds overlaps worker time
// (it is served concurrently on master pool threads) and is reported
// informationally, outside the sum.
struct PassBreakdown {
  i64 pass = -1;
  i32 critical_rank = kMasterRank;
  double wall_seconds = 0.0;
  double compute_seconds = 0.0;        // compute + record_keys
  double prefetch_wait_seconds = 0.0;  // blocking AwaitPrefetch
  double spec_wait_seconds = 0.0;      // speculative-slot stalls + conflict repair
  double rotation_seconds = 0.0;       // rotation_wait/send + drain_returning
  double flush_send_seconds = 0.0;     // StepFlush + prefetch_issue
  double barrier_seconds = 0.0;        // barrier skew absorbed at Barrier()
  double master_apply_seconds = 0.0;   // deferred applies + checkpoint + recovery
  double other_seconds = 0.0;          // residual vs wall
  double param_serve_seconds = 0.0;    // informational, overlaps worker time
  // Checkpoint stall charged to this pass: driver "checkpoint" spans between
  // this pass window and the next (durability appends happen after the pass
  // commits). Informational, outside the sum — like serve — because the
  // stall is not inside the pass's wall window.
  double checkpoint_seconds = 0.0;

  double Sum() const {
    return compute_seconds + prefetch_wait_seconds + spec_wait_seconds + rotation_seconds +
           flush_send_seconds + barrier_seconds + master_apply_seconds + other_seconds;
  }
};

std::vector<PassBreakdown> AnalyzeCriticalPath(const std::vector<Span>& spans);
std::string FormatCriticalPathTable(const std::vector<PassBreakdown>& passes);

// ---- RAII macro --------------------------------------------------------

namespace internal {
class ScopedSpan {
 public:
  ScopedSpan(Category category, const char* name) {
    if (Enabled()) {
      category_ = category;
      name_ = name;
      start_ns_ = NowNs();
      active_ = true;
    }
  }
  ~ScopedSpan() {
    if (active_) {
      Emit(category_, name_, start_ns_, NowNs());
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_ = false;
  Category category_ = Category::kDriver;
  const char* name_ = nullptr;
  i64 start_ns_ = 0;
};
}  // namespace internal

#define ORION_TRACE_CONCAT_INNER(a, b) a##b
#define ORION_TRACE_CONCAT(a, b) ORION_TRACE_CONCAT_INNER(a, b)
#define ORION_TRACE_SPAN(category, name)                                 \
  ::orion::trace::internal::ScopedSpan ORION_TRACE_CONCAT(orion_span_,   \
                                                          __LINE__)(     \
      ::orion::trace::Category::category, (name))

}  // namespace trace
}  // namespace orion

#endif  // ORION_SRC_COMMON_TRACE_H_
