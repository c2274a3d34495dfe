#include "src/common/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>

#include "src/common/status.h"

namespace orion {
namespace trace {

namespace internal {
std::atomic<bool> g_enabled{false};
}  // namespace internal

namespace {

// In-ring record: `name` is a string literal owned by the program image, so
// records are trivially copyable and a ring slot overwrite never frees.
struct Record {
  i64 start_ns;
  i64 end_ns;
  i64 pass;
  i64 step;
  i32 rank;
  u16 category;
  const char* name;
};

struct ThreadBuffer {
  std::mutex mu;
  std::vector<Record> ring;  // allocated lazily on first span
  size_t capacity = 0;
  size_t next = 0;   // slot the next record goes into
  size_t count = 0;  // live records (<= capacity)
  u64 dropped = 0;
  i32 tid = 0;
};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;  // never shrinks
  i32 next_tid = 0;
  size_t ring_capacity = size_t{1} << 15;
};

// Leaked singletons: rings must outlive every thread (a worker's undrained
// spans are scooped up by the master at dump time, possibly after the
// worker thread has exited) and survive static destruction order.
Registry* GlobalRegistry() {
  static Registry* r = new Registry();
  return r;
}

std::chrono::steady_clock::time_point Epoch() {
  static const std::chrono::steady_clock::time_point e = std::chrono::steady_clock::now();
  return e;
}

struct ThreadState {
  ThreadBuffer* buffer = nullptr;
  i32 rank = kMasterRank;
  i64 pass = -1;
  i64 step = -1;
  const char* label = nullptr;
};

ThreadState& Tls() {
  thread_local ThreadState state;
  return state;
}

ThreadBuffer* BufferForThisThread() {
  ThreadState& s = Tls();
  if (s.buffer == nullptr) {
    Registry* reg = GlobalRegistry();
    std::lock_guard<std::mutex> lock(reg->mu);
    reg->buffers.push_back(std::make_unique<ThreadBuffer>());
    ThreadBuffer* b = reg->buffers.back().get();
    b->tid = reg->next_tid++;
    b->capacity = reg->ring_capacity;
    s.buffer = b;
  }
  return s.buffer;
}

void AppendDrained(ThreadBuffer* b, i32 want_rank, bool all, std::vector<Span>* out) {
  std::lock_guard<std::mutex> lock(b->mu);
  if (b->count == 0) {
    return;
  }
  std::vector<Record> kept;
  const size_t first = (b->next + b->capacity - b->count) % b->capacity;
  for (size_t i = 0; i < b->count; ++i) {
    const Record& r = b->ring[(first + i) % b->capacity];
    if (!all && r.rank != want_rank) {
      kept.push_back(r);
      continue;
    }
    Span s;
    s.start_ns = r.start_ns;
    s.end_ns = r.end_ns;
    s.pass = r.pass;
    s.step = r.step;
    s.rank = r.rank;
    s.tid = b->tid;
    s.category = r.category;
    s.name = r.name;
    out->push_back(std::move(s));
  }
  b->count = kept.size();
  b->next = kept.size() % b->capacity;
  std::copy(kept.begin(), kept.end(), b->ring.begin());
}

std::vector<ThreadBuffer*> AllBuffers() {
  Registry* reg = GlobalRegistry();
  std::lock_guard<std::mutex> lock(reg->mu);
  std::vector<ThreadBuffer*> out;
  out.reserve(reg->buffers.size());
  for (auto& b : reg->buffers) {
    out.push_back(b.get());
  }
  return out;
}

void JsonEscape(const std::string& s, std::string* out) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out->append(buf);
    } else {
      out->push_back(c);
    }
  }
}

}  // namespace

const char* CategoryName(Category c) {
  switch (c) {
    case Category::kDriver:
      return "driver";
    case Category::kExecutor:
      return "executor";
    case Category::kParamServer:
      return "param_server";
    case Category::kSender:
      return "sender";
    case Category::kFabric:
      return "fabric";
  }
  return "unknown";
}

void SetEnabled(bool on) {
  Epoch();  // pin the epoch no later than the first enable
  internal::g_enabled.store(on, std::memory_order_relaxed);
}

void SetThreadRank(i32 rank) { Tls().rank = rank; }
i32 ThreadRank() { return Tls().rank; }

void SetThreadLabel(const char* label) { Tls().label = label; }
const char* ThreadLabel() { return Tls().label; }
void SetThreadPass(i64 pass) { Tls().pass = pass; }
void SetThreadStep(i64 step) { Tls().step = step; }

i32 ThreadId() { return BufferForThisThread()->tid; }

i64 NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - Epoch())
      .count();
}

void Emit(Category category, const char* name, i64 start_ns, i64 end_ns) {
  if (!Enabled()) {
    return;
  }
  ThreadState& s = Tls();
  ThreadBuffer* b = BufferForThisThread();
  Record r;
  r.start_ns = start_ns;
  r.end_ns = end_ns;
  r.pass = s.pass;
  r.step = s.step;
  r.rank = s.rank;
  r.category = static_cast<u16>(category);
  r.name = name;
  std::lock_guard<std::mutex> lock(b->mu);
  if (b->ring.empty()) {
    b->ring.resize(b->capacity);
  }
  if (b->count == b->capacity) {
    ++b->dropped;  // overwrite the oldest record
  } else {
    ++b->count;
  }
  b->ring[b->next] = r;
  b->next = (b->next + 1) % b->capacity;
}

std::vector<Span> DrainRank(i32 rank) {
  std::vector<Span> out;
  for (ThreadBuffer* b : AllBuffers()) {
    AppendDrained(b, rank, /*all=*/false, &out);
  }
  return out;
}

std::vector<Span> DrainAll() {
  std::vector<Span> out;
  for (ThreadBuffer* b : AllBuffers()) {
    AppendDrained(b, 0, /*all=*/true, &out);
  }
  return out;
}

void Reset() {
  for (ThreadBuffer* b : AllBuffers()) {
    std::lock_guard<std::mutex> lock(b->mu);
    b->count = 0;
    b->next = 0;
    b->dropped = 0;
  }
}

u64 DroppedCount() {
  u64 n = 0;
  for (ThreadBuffer* b : AllBuffers()) {
    std::lock_guard<std::mutex> lock(b->mu);
    n += b->dropped;
  }
  return n;
}

void SetRingCapacity(size_t capacity) {
  ORION_CHECK(capacity > 0);
  Registry* reg = GlobalRegistry();
  std::lock_guard<std::mutex> lock(reg->mu);
  reg->ring_capacity = capacity;
}

double RingFillFraction() {
  ThreadBuffer* b = Tls().buffer;
  if (b == nullptr) {
    return 0.0;  // thread has recorded nothing yet
  }
  std::lock_guard<std::mutex> lock(b->mu);
  if (b->capacity == 0) {
    return 0.0;
  }
  return static_cast<double>(b->count) / static_cast<double>(b->capacity);
}

std::string ChromeTraceJson(const std::vector<Span>& spans) {
  std::vector<const Span*> sorted;
  sorted.reserve(spans.size());
  for (const Span& s : spans) {
    sorted.push_back(&s);
  }
  std::stable_sort(sorted.begin(), sorted.end(), [](const Span* a, const Span* b) {
    if (a->start_ns != b->start_ns) return a->start_ns < b->start_ns;
    return a->end_ns > b->end_ns;  // enclosing span first, so nesting renders
  });

  std::string out;
  out.reserve(spans.size() * 128 + 256);
  out += "{\"traceEvents\":[\n";
  bool first = true;

  // Process metadata: pid 0 is everything master-side, pid r+1 is worker r.
  std::vector<i32> pids;
  for (const Span& s : spans) {
    const i32 pid = s.rank + 1;
    if (std::find(pids.begin(), pids.end(), pid) == pids.end()) {
      pids.push_back(pid);
    }
  }
  std::sort(pids.begin(), pids.end());
  for (i32 pid : pids) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
           ",\"tid\":0,\"args\":{\"name\":\"";
    out += pid == 0 ? "master" : ("worker " + std::to_string(pid - 1));
    out += "\"}}";
  }

  char buf[64];
  for (const Span* s : sorted) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\":\"";
    JsonEscape(s->name, &out);
    out += "\",\"cat\":\"";
    out += CategoryName(static_cast<Category>(s->category));
    out += "\",\"ph\":\"X\"";
    std::snprintf(buf, sizeof buf, ",\"ts\":%.3f", static_cast<double>(s->start_ns) / 1e3);
    out += buf;
    std::snprintf(buf, sizeof buf, ",\"dur\":%.3f",
                  static_cast<double>(s->end_ns - s->start_ns) / 1e3);
    out += buf;
    out += ",\"pid\":" + std::to_string(s->rank + 1);
    out += ",\"tid\":" + std::to_string(s->tid);
    out += ",\"args\":{\"pass\":" + std::to_string(s->pass) +
           ",\"step\":" + std::to_string(s->step) + "}}";
  }
  out += "\n]}\n";
  return out;
}

Status WriteChromeTrace(const std::string& path, const std::vector<Span>& spans) {
  const std::string json = ChromeTraceJson(spans);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot open trace file: " + path);
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (written != json.size()) {
    return Status::IoError("short write to trace file: " + path);
  }
  return Status::Ok();
}

namespace {

double Seconds(i64 ns) { return static_cast<double>(ns) * 1e-9; }

bool MidpointInside(const Span& s, i64 lo, i64 hi) {
  const i64 mid = s.start_ns + (s.end_ns - s.start_ns) / 2;
  return mid >= lo && mid <= hi;
}

}  // namespace

std::vector<PassBreakdown> AnalyzeCriticalPath(const std::vector<Span>& spans) {
  // Master pass windows, in timeline order (a replayed pass appears twice,
  // once per attempt — matched to worker spans by time containment).
  std::vector<const Span*> windows;
  for (const Span& s : spans) {
    if (static_cast<Category>(s.category) == Category::kDriver && s.name == "pass" &&
        s.rank == kMasterRank) {
      windows.push_back(&s);
    }
  }
  std::sort(windows.begin(), windows.end(),
            [](const Span* a, const Span* b) { return a->start_ns < b->start_ns; });

  std::vector<PassBreakdown> out;
  out.reserve(windows.size());
  for (const Span* w : windows) {
    PassBreakdown pb;
    pb.pass = w->pass;
    pb.wall_seconds = Seconds(w->end_ns - w->start_ns);

    // Critical worker: longest executor "pass" span inside this window.
    const Span* crit = nullptr;
    for (const Span& s : spans) {
      if (static_cast<Category>(s.category) != Category::kExecutor || s.name != "pass") {
        continue;
      }
      if (s.pass != w->pass || !MidpointInside(s, w->start_ns, w->end_ns)) {
        continue;
      }
      if (crit == nullptr || (s.end_ns - s.start_ns) > (crit->end_ns - crit->start_ns)) {
        crit = &s;
      }
    }

    double attributed = 0.0;
    if (crit != nullptr) {
      pb.critical_rank = crit->rank;
      for (const Span& s : spans) {
        if (static_cast<Category>(s.category) != Category::kExecutor || s.rank != crit->rank ||
            s.pass != w->pass || s.name == "pass" ||
            !MidpointInside(s, w->start_ns, w->end_ns)) {
          continue;
        }
        const double d = Seconds(s.end_ns - s.start_ns);
        if (s.name == "compute" || s.name == "record_keys") {
          pb.compute_seconds += d;
        } else if (s.name == "prefetch_wait") {
          pb.prefetch_wait_seconds += d;
        } else if (s.name == "spec_wait") {
          pb.spec_wait_seconds += d;
        } else if (s.name == "rotation_wait" || s.name == "rotation_send" ||
                   s.name == "drain_returning") {
          pb.rotation_seconds += d;
        } else if (s.name == "step_flush" || s.name == "prefetch_issue") {
          pb.flush_send_seconds += d;
        } else if (s.name == "barrier") {
          pb.barrier_seconds += d;
        } else {
          continue;  // unknown phase: falls into the residual
        }
        attributed += d;
      }
    }

    for (const Span& s : spans) {
      const Category c = static_cast<Category>(s.category);
      if (c == Category::kDriver &&
          (s.name == "deferred_applies" || s.name == "checkpoint" || s.name == "recovery") &&
          MidpointInside(s, w->start_ns, w->end_ns)) {
        pb.master_apply_seconds += Seconds(s.end_ns - s.start_ns);
      } else if (c == Category::kParamServer && MidpointInside(s, w->start_ns, w->end_ns)) {
        pb.param_serve_seconds += Seconds(s.end_ns - s.start_ns);
      }
    }

    pb.other_seconds =
        std::max(0.0, pb.wall_seconds - attributed - pb.master_apply_seconds);
    out.push_back(pb);
  }

  // Checkpoint stall: durability appends run between pass windows (after the
  // pass commits), so they never land in master_apply_seconds above. Charge
  // each such span to the nearest preceding pass window, informationally.
  for (const Span& s : spans) {
    if (static_cast<Category>(s.category) != Category::kDriver || s.name != "checkpoint") {
      continue;
    }
    const i64 mid = s.start_ns + (s.end_ns - s.start_ns) / 2;
    size_t idx = windows.size();
    for (size_t i = 0; i < windows.size(); ++i) {
      if (windows[i]->start_ns <= mid) {
        idx = i;
      }
    }
    if (idx == windows.size() || MidpointInside(s, windows[idx]->start_ns, windows[idx]->end_ns)) {
      continue;  // before the first pass, or already counted into apply
    }
    out[idx].checkpoint_seconds += Seconds(s.end_ns - s.start_ns);
  }
  return out;
}

std::string FormatCriticalPathTable(const std::vector<PassBreakdown>& passes) {
  std::ostringstream os;
  char line[256];
  os << "critical path per pass (ms; serve and ckpt overlap/follow the pass, outside the sum)\n";
  std::snprintf(line, sizeof line, "%5s %5s %9s %9s %9s %9s %9s %9s %9s %9s %9s %9s %9s\n",
                "pass", "crit", "wall", "compute", "pf_wait", "spec_wait", "rotation", "flush",
                "barrier", "apply", "other", "serve", "ckpt");
  os << line;
  PassBreakdown total;
  for (const PassBreakdown& p : passes) {
    std::snprintf(line, sizeof line,
                  "%5lld %5d %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f\n",
                  static_cast<long long>(p.pass), p.critical_rank, p.wall_seconds * 1e3,
                  p.compute_seconds * 1e3, p.prefetch_wait_seconds * 1e3,
                  p.spec_wait_seconds * 1e3, p.rotation_seconds * 1e3, p.flush_send_seconds * 1e3,
                  p.barrier_seconds * 1e3, p.master_apply_seconds * 1e3, p.other_seconds * 1e3,
                  p.param_serve_seconds * 1e3, p.checkpoint_seconds * 1e3);
    os << line;
    total.wall_seconds += p.wall_seconds;
    total.compute_seconds += p.compute_seconds;
    total.prefetch_wait_seconds += p.prefetch_wait_seconds;
    total.spec_wait_seconds += p.spec_wait_seconds;
    total.rotation_seconds += p.rotation_seconds;
    total.flush_send_seconds += p.flush_send_seconds;
    total.barrier_seconds += p.barrier_seconds;
    total.master_apply_seconds += p.master_apply_seconds;
    total.other_seconds += p.other_seconds;
    total.param_serve_seconds += p.param_serve_seconds;
    total.checkpoint_seconds += p.checkpoint_seconds;
  }
  std::snprintf(line, sizeof line,
                "%5s %5s %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f\n",
                "total", "", total.wall_seconds * 1e3, total.compute_seconds * 1e3,
                total.prefetch_wait_seconds * 1e3, total.spec_wait_seconds * 1e3,
                total.rotation_seconds * 1e3, total.flush_send_seconds * 1e3,
                total.barrier_seconds * 1e3, total.master_apply_seconds * 1e3,
                total.other_seconds * 1e3, total.param_serve_seconds * 1e3,
                total.checkpoint_seconds * 1e3);
  os << line;
  return os.str();
}

}  // namespace trace
}  // namespace orion
