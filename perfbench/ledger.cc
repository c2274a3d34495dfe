// Orion ledger: runs one benchmark workload end to end through the public
// API and prints its measurements as one JSON object on the last line of
// stdout. perfbench/run.py builds this binary, runs it once per workload
// (twice under --trace 1: untraced, then traced) and turns the JSON into the
// benchmark's result line. perfbench/README.md says why each workload exists
// and which layers it exercises.
//
//   orion_ledger --workload mf_rotation|slr_server|mf_wavefront_serve
//                --seed N --seconds S --trace 0|1 --scratch DIR
//
// Everything is timed from outside the runtime: the benchmark's own clock
// around Driver construction, the apps' Init/RunPass/EvalLoss,
// ServingTier::Lookup and PlanLoop. Counters come from the public getters
// (last_metrics, runtime_metrics, ServingTier::StatsSnapshot,
// BufferPool::AggregateStats); with --trace 1 the per-pass layer split comes
// from trace::AnalyzeCriticalPath over Driver::CollectTrace.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/analysis/plan.h"
#include "src/apps/sgd_mf.h"
#include "src/apps/slr.h"
#include "src/common/buffer_pool.h"
#include "src/common/trace.h"
#include "src/runtime/driver.h"
#include "src/serve/serving_tier.h"

namespace orion {
namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile of an ascending-sorted, non-empty sample.
double Percentile(const std::vector<double>& sorted, double q) {
  const size_t n = sorted.size();
  const size_t rank = std::clamp<size_t>(
      static_cast<size_t>(std::ceil(q * static_cast<double>(n))), 1, n);
  return sorted[rank - 1];
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---- Workload parameters -------------------------------------------------

enum class Kind { kMfRotation, kSlrServer, kMfWavefrontServe };

// Quality is read at a fixed pass count, so it does not depend on how many
// passes fit in the timed window. These passes also warm the runtime up.
constexpr int kQualityPasses = 20;
// setup_s is the median of several full set-ups in one run: at least
// kMinSetups, and more while their total stays under kSetupBudgetSeconds.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 25;
constexpr double kSetupBudgetSeconds = 4.0;
constexpr int kPlannerRepeats = 201;
constexpr int kMfRank = 16;
constexpr int kServeClients = 2;
constexpr int kKeysPerLookup = 64;
// Share of --seconds spent serving the trained model after training, on the
// workloads that do not serve while they train.
constexpr double kIdleServeShare = 0.5;
constexpr double kTailCap = 0.90;
// SLR's parallel log-loss after kQualityPasses passes must lie within this
// relative band of the serial SGD reference at the same pass count.
constexpr double kSlrBand = 0.20;
// After kQualityPasses passes an MF model must have cut the NZSL of the
// untrained factors by at least this factor.
constexpr double kMfMinLossDrop = 5.0;

// What one timed pass leaves behind.
struct PassSample {
  double wall = 0.0;
  double modeled = 0.0;
  double max_worker_compute = 0.0;
  double param_serve = 0.0;
  double queue_depth_max = 0.0;
  double bytes = 0.0;
  double messages = 0.0;
  double zero_copy_bytes = 0.0;
  double pins = 0.0;
  double pages_cloned = 0.0;
  double cow_bytes = 0.0;
};

PassSample Sample(double wall, const LoopMetrics& m, int workers) {
  PassSample s;
  s.wall = wall;
  s.modeled = ModeledSeconds(m, workers);
  s.max_worker_compute = m.max_worker_compute_seconds;
  s.param_serve = m.param_serve_seconds;
  s.queue_depth_max = m.param_shard_queue_depth_max;
  s.bytes = static_cast<double>(m.bytes_sent);
  s.messages = static_cast<double>(m.messages_sent);
  s.zero_copy_bytes = static_cast<double>(m.zero_copy_bytes);
  s.pins = static_cast<double>(m.versioned_snapshot_pins);
  s.pages_cloned = static_cast<double>(m.versioned_pages_cloned);
  s.cow_bytes = static_cast<double>(m.versioned_cow_bytes);
  return s;
}

template <typename F>
std::vector<double> Column(const std::vector<PassSample>& passes, F field) {
  std::vector<double> out;
  out.reserve(passes.size());
  for (const PassSample& p : passes) {
    out.push_back(field(p));
  }
  return out;
}

// ---- Closed-loop lookup clients ----------------------------------------

// Timed windows are cut into kSlices equal slices. Rates and percentiles
// are computed per slice and the median over the slices is reported, so a
// short scheduling burst on a shared host does not decide a figure.
constexpr int kSlices = 8;
// Latency slots preallocated per client and window second: well above the
// ~40k lookups/s one client reaches, and touched up front so the peak RSS
// does not depend on how many lookups a run completes.
constexpr double kLatencySlotsPerSecond = 100e3;

struct ServeSlice {
  double lookups_per_s = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
};

// kServeClients threads each issue Lookup(array, kKeysPerLookup uniform
// keys) back to back and time every call themselves: the tier's own latency
// histogram has decade buckets, too coarse for a p50. Before the first
// publish nothing is counted; from kCounting on, every answer counts toward
// attempted/failed; inside kWindow, latencies are kept as well.
class LookupClients {
 public:
  enum Phase : int { kIdle = 0, kCounting = 1, kWindow = 2, kStop = 3 };

  struct Totals {
    u64 attempted = 0;
    u64 failed = 0;
    u64 bad_answers = 0;  // kOk with a missed dense key or a non-finite value
    u64 window_ok = 0;
    bool overflow = false;  // a client ran out of latency slots
    std::vector<ServeSlice> slices;
  };

  LookupClients(serve::ServingTier* tier, DistArrayId array, i64 num_keys, u64 seed,
                double window_seconds)
      : tier_(tier),
        array_(array),
        num_keys_(num_keys),
        slice_seconds_(window_seconds / kSlices),
        per_client_(kServeClients) {
    const size_t slots = static_cast<size_t>(kLatencySlotsPerSecond * window_seconds) + 4096;
    for (Client& c : per_client_) {
      c.latency_us.assign(slots, 0.0f);
    }
    for (int c = 0; c < kServeClients; ++c) {
      threads_.emplace_back(
          [this, c, seed] { Run(&per_client_[static_cast<size_t>(c)], seed * 7919 + c); });
    }
  }
  ~LookupClients() { Stop(); }
  LookupClients(const LookupClients&) = delete;
  LookupClients& operator=(const LookupClients&) = delete;

  void SetPhase(Phase p) {
    if (p == kWindow) {
      window_start_ = Clock::now();
    }
    phase_.store(p, std::memory_order_release);
  }

  // Closes the window and joins the clients.
  void Stop() {
    if (threads_.empty()) {
      return;
    }
    window_seconds_ = Since(window_start_);
    phase_.store(kStop, std::memory_order_release);
    for (auto& t : threads_) {
      t.join();
    }
    threads_.clear();
  }

  // Call after Stop().
  Totals Collect() const {
    Totals t;
    for (const Client& c : per_client_) {
      t.attempted += c.attempted;
      t.failed += c.failed;
      t.bad_answers += c.bad_answers;
      t.window_ok += c.recorded;
      t.overflow = t.overflow || c.overflow;
    }
    for (int b = 0; b < kSlices; ++b) {
      std::vector<double> lat;
      for (const Client& c : per_client_) {
        const size_t lo = b <= c.slice ? c.slice_begin[static_cast<size_t>(b)] : c.recorded;
        const size_t hi = b < c.slice ? c.slice_begin[static_cast<size_t>(b) + 1] : c.recorded;
        lat.insert(lat.end(), c.latency_us.begin() + static_cast<std::ptrdiff_t>(lo),
                   c.latency_us.begin() + static_cast<std::ptrdiff_t>(hi));
      }
      if (lat.empty()) {
        continue;
      }
      std::sort(lat.begin(), lat.end());
      // The window closes after the last timed pass, so the final slice
      // runs from its start to the close.
      const double seconds = b + 1 < kSlices ? slice_seconds_
                                             : window_seconds_ - (kSlices - 1) * slice_seconds_;
      ServeSlice s;
      s.lookups_per_s = Ratio(static_cast<double>(lat.size()), seconds);
      s.p50_us = Percentile(lat, 0.50);
      s.p99_us = Percentile(lat, 0.99);
      s.p999_us = Percentile(lat, 0.999);
      t.slices.push_back(s);
    }
    return t;
  }

  double window_seconds() const { return window_seconds_; }

 private:
  struct Client {
    u64 attempted = 0;
    u64 failed = 0;
    u64 bad_answers = 0;
    bool overflow = false;
    int slice = 0;  // slice of the latest recorded lookup
    std::array<size_t, kSlices> slice_begin{};
    size_t recorded = 0;
    std::vector<float> latency_us;
  };

  void Run(Client* c, u64 seed) {
    Rng rng(seed);
    std::vector<i64> keys(kKeysPerLookup);
    for (;;) {
      const int phase = phase_.load(std::memory_order_acquire);
      if (phase == kStop) {
        return;
      }
      for (auto& k : keys) {
        k = static_cast<i64>(rng.NextBounded(static_cast<u64>(num_keys_)));
      }
      const auto t0 = Clock::now();
      const serve::LookupResult r = tier_->Lookup(array_, keys);
      const auto t1 = Clock::now();
      if (phase == kIdle) {
        continue;
      }
      ++c->attempted;
      if (r.status != serve::LookupStatus::kOk) {
        ++c->failed;
        continue;
      }
      bool good = r.hits.size() == keys.size() &&
                  std::all_of(r.hits.begin(), r.hits.end(), [](u8 h) { return h != 0; });
      for (f32 v : r.values) {
        good = good && std::isfinite(v);
      }
      c->bad_answers += good ? 0 : 1;
      if (phase != kWindow) {
        continue;
      }
      if (c->recorded == c->latency_us.size()) {
        c->overflow = true;
        continue;
      }
      const double since_open = std::chrono::duration<double>(t0 - window_start_).count();
      const int slice =
          std::min(kSlices - 1, static_cast<int>(std::max(0.0, since_open) / slice_seconds_));
      while (c->slice < slice) {
        c->slice_begin[static_cast<size_t>(++c->slice)] = c->recorded;
      }
      c->latency_us[c->recorded++] =
          static_cast<float>(std::chrono::duration<double, std::micro>(t1 - t0).count());
    }
  }

  serve::ServingTier* tier_;
  DistArrayId array_;
  i64 num_keys_;
  double slice_seconds_;
  std::atomic<int> phase_{kIdle};
  // Written before phase_ turns kWindow (release) and read by clients after
  // they observe it (acquire).
  Clock::time_point window_start_ = Clock::now();
  double window_seconds_ = 0.0;
  std::vector<Client> per_client_;  // one per thread, read after join
  // Declared last: the threads use every member above.
  std::vector<std::thread> threads_;
};

// ---- Result line -----------------------------------------------------------

// Builds one flat JSON object; keys keep insertion order.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return Raw(key, std::isfinite(v) ? std::string(buf) : std::string("null"));
  }
  JsonObject& Str(const std::string& key, const std::string& v) {
    return Raw(key, "\"" + v + "\"");
  }
  JsonObject& Bool(const std::string& key, bool v) { return Raw(key, v ? "true" : "false"); }
  JsonObject& Raw(const std::string& key, const std::string& raw) {
    body_ += (body_.empty() ? "\"" : ", \"") + key + "\": " + raw;
    return *this;
  }
  std::string Done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---- One run ------------------------------------------------------------

struct Args {
  Kind kind = Kind::kMfRotation;
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch;
};

class Ledger {
 public:
  explicit Ledger(Args args) : args_(std::move(args)) {}
  // Runs the workload and prints the result line; returns the exit code.
  int Run();

 private:
  bool IsMf() const { return args_.kind != Kind::kSlrServer; }
  bool ServesWhileTraining() const { return args_.kind == Kind::kMfWavefrontServe; }
  int Workers() const { return ServesWhileTraining() ? 2 : 4; }
  double Items() const {
    return static_cast<double>(IsMf() ? ratings_.size() : samples_.size());
  }
  Status RunPass() { return IsMf() ? mf_->RunPass() : slr_->RunPass(); }

  void GenerateData();
  void SetUp();
  void TimePlanner();
  bool RunQualityPasses();
  bool RunTimedWindow();
  void ServeTrainedModel();
  void StartServing(DistArrayId array, double window_seconds);
  void NoteFirstPublish(double ms_since_start);
  void CollectBreakdowns();
  // Formats the result line; *correct is whether the run completed and
  // every output check passed.
  std::string Result(bool ran, bool* correct);

  Args args_;

  RatingsConfig ratings_cfg_;
  std::vector<RatingEntry> ratings_;
  SparseLrConfig slr_cfg_;
  std::vector<SparseSample> samples_;

  std::unique_ptr<Driver> driver_;
  std::unique_ptr<SgdMfApp> mf_;
  std::unique_ptr<SlrApp> slr_;

  std::vector<double> setup_s_, init_s_, scatter_s_;
  double plan_us_ = 0.0;
  double untrained_loss_ = 0.0;
  double serial_loss_ = 0.0;
  double final_loss_ = 0.0;
  double peak_rss_mb_ = 0.0;
  u64 passes_attempted_ = 0;
  u64 passes_failed_ = 0;

  std::vector<PassSample> window_;
  i64 last_pre_window_pass_ = -1;
  RuntimeMetrics rm_before_, rm_after_;
  BufferPool::Stats bp_before_, bp_after_;
  std::vector<trace::PassBreakdown> breakdowns_;

  serve::ServingTier* tier_ = nullptr;
  DistArrayId served_ = kInvalidDistArrayId;
  std::unique_ptr<LookupClients> clients_;
  Clock::time_point serve_start_;
  double first_publish_ms_ = -1.0;
  serve::ServingStats serve_before_, serve_after_;
  LookupClients::Totals lookups_;
};

void Ledger::GenerateData() {
  if (IsMf()) {
    ratings_cfg_ = NetflixLike();
    ratings_cfg_.seed = args_.seed;
    ratings_ = GenerateRatings(ratings_cfg_);
  } else {
    slr_cfg_ = KddLike();
    slr_cfg_.seed = args_.seed;
    samples_ = GenerateSparseLr(slr_cfg_);
  }
}

// One set-up as setup_s times it: Driver construction plus the app's Init
// (create and fill arrays, compile, scatter).
void Ledger::SetUp() {
  mf_.reset();
  slr_.reset();
  driver_.reset();
  if (args_.trace) {
    trace::Reset();
  }
  DriverConfig cfg;
  cfg.num_workers = Workers();
  cfg.seed = args_.seed;
  const auto t0 = Clock::now();
  driver_ = std::make_unique<Driver>(cfg);
  const auto t1 = Clock::now();
  if (IsMf()) {
    SgdMfConfig mf;
    mf.rank = kMfRank;
    mf.loop_options.ordered = ServesWhileTraining();
    mf_ = std::make_unique<SgdMfApp>(driver_.get(), mf);
    ORION_CHECK_OK(mf_->Init(ratings_, ratings_cfg_.rows, ratings_cfg_.cols));
  } else {
    slr_ = std::make_unique<SlrApp>(driver_.get(), SlrConfig());
    ORION_CHECK_OK(slr_->Init(samples_, slr_cfg_.num_features));
  }
  setup_s_.push_back(Since(t0));
  init_s_.push_back(Since(t1));
  if (args_.trace) {
    double scatter = 0.0;
    for (const trace::Span& span : driver_->CollectTrace()) {
      if (span.category == static_cast<u16>(trace::Category::kDriver) &&
          span.name == "scatter") {
        scatter += static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
      }
    }
    scatter_s_.push_back(scatter);
  }
}

// Times PlanLoop (dependence vectors + plan) on the training loop's access
// declarations as the app writes them, and checks it reproduces the plan
// the Driver compiled.
void Ledger::TimePlanner() {
  LoopSpec spec;
  std::map<DistArrayId, ArrayStats> stats;
  PlannerOptions options;
  options.num_workers = Workers();
  if (IsMf()) {
    spec.iter_space = mf_->ratings();
    spec.iter_extents = {ratings_cfg_.rows, ratings_cfg_.cols};
    spec.ordered = ServesWhileTraining();
    spec.AddAccess(mf_->w(), "W", {Expr::LoopIndex(0)}, false);
    spec.AddAccess(mf_->h(), "H", {Expr::LoopIndex(1)}, false);
    spec.AddAccess(mf_->w(), "W", {Expr::LoopIndex(0)}, true);
    spec.AddAccess(mf_->h(), "H", {Expr::LoopIndex(1)}, true);
    stats[mf_->w()] = {ratings_cfg_.rows, kMfRank};
    stats[mf_->h()] = {ratings_cfg_.cols, kMfRank};
  } else {
    spec.iter_extents = {static_cast<i64>(samples_.size())};
    spec.AddAccess(slr_->weights(), "weights", {Expr::Runtime("feature_id")}, false);
    spec.AddAccess(slr_->weights(), "weights", {Expr::Runtime("feature_id")}, true, true);
    stats[slr_->weights()] = {slr_cfg_.num_features, 1};
    options.replicate_threshold_floats = 0;
  }
  const ParallelizationPlan& compiled = IsMf() ? mf_->train_plan() : slr_->train_plan();
  std::vector<double> us;
  for (int rep = 0; rep < kPlannerRepeats; ++rep) {
    const auto t0 = Clock::now();
    const ParallelizationPlan plan = PlanLoop(spec, stats, options);
    us.push_back(Since(t0) * 1e6);
    ORION_CHECK(plan.form == compiled.form && plan.ordered == compiled.ordered);
  }
  plan_us_ = Median(us);
}

// Starts the tier on `array` and the clients that drive it. The clients
// count nothing until NoteFirstPublish sees a published version.
void Ledger::StartServing(DistArrayId array, double window_seconds) {
  served_ = array;
  serve_start_ = Clock::now();
  auto tier = driver_->StartServingTier({array});
  ORION_CHECK_OK(tier.status());
  tier_ = *tier;
  const double start_ms = Since(serve_start_) * 1e3;
  const i64 num_keys = driver_->Meta(array).num_cells();
  clients_ =
      std::make_unique<LookupClients>(tier_, array, num_keys, args_.seed, window_seconds);
  NoteFirstPublish(start_ms);
}

void Ledger::NoteFirstPublish(double ms_since_start) {
  if (first_publish_ms_ < 0.0 && tier_->published_version(served_) > 0) {
    first_publish_ms_ = ms_since_start;
    serve_before_ = tier_->StatsSnapshot();
    clients_->SetPhase(LookupClients::kCounting);
  }
}

// kQualityPasses untimed passes, then the quality read-out. On the serving
// workload the clients start counting at the first publish of H.
bool Ledger::RunQualityPasses() {
  for (int p = 0; p < kQualityPasses; ++p) {
    ++passes_attempted_;
    const Status st = RunPass();
    if (args_.trace) {
      (void)driver_->CollectTrace();  // drain before the master rings wrap
    }
    if (!st.ok()) {
      ++passes_failed_;
      std::fprintf(stderr, "pass failed: %s\n", st.ToString().c_str());
      return false;
    }
    if (tier_ != nullptr) {
      NoteFirstPublish(Since(serve_start_) * 1e3);
    }
  }
  if (IsMf()) {
    const StatusOr<f64> loss = mf_->EvalLoss();
    ORION_CHECK_OK(loss.status());
    final_loss_ = *loss;
  } else {
    final_loss_ = slr_->LastPassLogLoss();
  }
  return true;
}

// Passes back to back until --seconds have elapsed, each timed alone.
bool Ledger::RunTimedWindow() {
  if (args_.trace) {
    for (const trace::Span& s : driver_->CollectTrace()) {
      last_pre_window_pass_ = std::max(last_pre_window_pass_, s.pass);
    }
  }
  rm_before_ = driver_->runtime_metrics();
  bp_before_ = BufferPool::AggregateStats();
  if (clients_ != nullptr) {
    clients_->SetPhase(LookupClients::kWindow);
  }
  const auto start = Clock::now();
  bool ok = true;
  while (Since(start) < args_.seconds) {
    ++passes_attempted_;
    const auto t0 = Clock::now();
    const Status st = RunPass();
    const double wall = Since(t0);
    if (!st.ok()) {
      ++passes_failed_;
      std::fprintf(stderr, "pass failed: %s\n", st.ToString().c_str());
      ok = false;
      break;
    }
    window_.push_back(Sample(wall, driver_->last_metrics(), Workers()));
    if (args_.trace) {
      (void)driver_->CollectTrace();
    }
  }
  if (clients_ != nullptr) {
    clients_->Stop();
    serve_after_ = tier_->StatsSnapshot();
  }
  rm_after_ = driver_->runtime_metrics();
  bp_after_ = BufferPool::AggregateStats();
  return ok;
}

// The workloads that do not serve while training serve their trained model
// afterwards, so every workload reports the serving metrics: here they
// measure the tier with no training beside it.
void Ledger::ServeTrainedModel() {
  const DistArrayId array = IsMf() ? mf_->h() : slr_->weights();
  (void)driver_->Cells(array);  // rotated factors live on the workers
  StartServing(array, args_.seconds * kIdleServeShare);
  ORION_CHECK(first_publish_ms_ >= 0.0);  // the gathered array publishes at start
  clients_->SetPhase(LookupClients::kWindow);
  std::this_thread::sleep_for(std::chrono::duration<double>(args_.seconds * kIdleServeShare));
  clients_->Stop();
  serve_after_ = tier_->StatsSnapshot();
}

void Ledger::CollectBreakdowns() {
  for (const trace::PassBreakdown& b : trace::AnalyzeCriticalPath(driver_->CollectTrace())) {
    if (b.pass > last_pre_window_pass_) {
      breakdowns_.push_back(b);
    }
  }
}

int Ledger::Run() {
  GenerateData();
  if (args_.trace) {
    trace::SetEnabled(true);
  }
  // The first set-up trains. The other set-ups run only after peak_rss_mb
  // is read: freed drivers leave glibc arenas holding memory, which made the
  // high-water mark jump by ~15 MB in some runs and not in others.
  SetUp();
  if (ServesWhileTraining()) {
    ORION_CHECK_OK(driver_->EnableDurability({mf_->w(), mf_->h()}, args_.scratch));
    StartServing(mf_->h(), args_.seconds);
  }
  const bool ran = RunQualityPasses() && (tier_ == nullptr || first_publish_ms_ >= 0.0) &&
                   RunTimedWindow();
  if (ran && !ServesWhileTraining()) {
    ServeTrainedModel();
  }
  if (clients_ != nullptr) {
    clients_->Stop();
    lookups_ = clients_->Collect();
  }
  if (args_.trace) {
    CollectBreakdowns();
  }
  driver_->StopServingTier();
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  peak_rss_mb_ = static_cast<double>(ru.ru_maxrss) / 1024.0;
  TimePlanner();

  // glibc raises its mmap threshold each time a large mmapped block is
  // freed, so a repeated set-up may recycle the previous driver's memory
  // instead of faulting in fresh pages. Whether it does varies from run to
  // run, which made SLR's setup_s bimodal (about 25 vs 45 ms). Pinning the
  // threshold at its initial 128 KiB makes every repeated set-up allocate
  // like the first set-up of a fresh process.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  SetUp();
  if (IsMf()) {
    const StatusOr<f64> loss = mf_->EvalLoss();
    ORION_CHECK_OK(loss.status());
    untrained_loss_ = *loss;
  }
  auto total = [&] {
    double t = 0.0;
    for (double s : setup_s_) {
      t += s;
    }
    return t;
  };
  while (setup_s_.size() < kMinSetups ||
         (setup_s_.size() < kMaxSetups && total() < kSetupBudgetSeconds)) {
    SetUp();
  }
  if (!IsMf()) {
    SerialSlr serial(samples_, slr_cfg_.num_features, SlrConfig());
    for (int p = 0; p < kQualityPasses; ++p) {
      serial_loss_ = serial.RunPass();
    }
  }

  bool correct = false;
  const std::string line = Result(ran, &correct);
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

std::string Ledger::Result(bool ran, bool* correct) {
  JsonObject env;
  env.Str("workload", args_.workload)
      .Num("seed", static_cast<double>(args_.seed))
      .Num("seconds", args_.seconds)
      .Bool("trace", args_.trace)
      .Num("nproc", std::thread::hardware_concurrency())
      .Str("compiler", ORION_COMPILER)
      .Str("build_type", ORION_BUILD_TYPE)
      .Num("workers", Workers())
      .Num("items_per_pass", Items())
      .Num("quality_passes", kQualityPasses)
      .Num("setups", static_cast<double>(setup_s_.size()));

  // ---- Checks ----
  JsonObject checks;
  bool all = ran;
  auto check = [&](const char* name, bool pass) {
    checks.Bool(name, pass);
    all = all && pass;
  };
  check("passes_ok", passes_failed_ == 0);
  check("loss_finite", std::isfinite(final_loss_) && final_loss_ > 0.0);
  if (IsMf()) {
    check("mf_loss_dropped", final_loss_ * kMfMinLossDrop <= untrained_loss_);
  } else {
    check("slr_loss_near_serial",
          std::abs(final_loss_ - serial_loss_) <= kSlrBand * serial_loss_);
  }
  check("served_after_first_publish", first_publish_ms_ >= 0.0 && lookups_.window_ok > 0);
  check("lookups_hit_all_keys_finite", lookups_.bad_answers == 0);
  check("lookup_latencies_all_kept", !lookups_.overflow);
  check("timed_passes_at_least_11", window_.size() >= 11);
  if (args_.trace) {
    check("trace_no_dropped_spans", trace::DroppedCount() == 0);
    check("trace_covers_window", breakdowns_.size() == window_.size());
  }
  *correct = all;

  // ---- End-to-end ----
  std::vector<double> walls = Column(window_, [](const PassSample& p) { return p.wall; });
  std::sort(walls.begin(), walls.end());
  double wall_sum = 0.0;
  for (double w : walls) {
    wall_sum += w;
  }
  const double n = static_cast<double>(window_.size());
  // Throughput per slice of consecutive timed passes; the median is reported.
  std::vector<double> train_rate, modeled_rate;
  for (int b = 0; b < kSlices; ++b) {
    const size_t lo = window_.size() * static_cast<size_t>(b) / kSlices;
    const size_t hi = window_.size() * static_cast<size_t>(b + 1) / kSlices;
    double wall = 0.0;
    double modeled = 0.0;
    for (size_t i = lo; i < hi; ++i) {
      wall += window_[i].wall;
      modeled += window_[i].modeled;
    }
    train_rate.push_back(Ratio(Items() * static_cast<double>(hi - lo), wall));
    modeled_rate.push_back(Ratio(Items() * static_cast<double>(hi - lo), modeled));
  }
  const std::vector<ServeSlice>& slices = lookups_.slices;
  auto serve_median = [&](double ServeSlice::*field) {
    std::vector<double> v;
    for (const ServeSlice& s : slices) {
      v.push_back(s.*field);
    }
    return Median(v);
  };
  // The highest percentile with at least ten timed passes beyond it, capped
  // at p90: above that, on a shared VM, the figure is decided by a handful
  // of scheduling bursts and does not repeat from run to run.
  const double tail_q = std::min(kTailCap, 1.0 - 10.0 / std::max(n, 11.0));
  const double tail_ms = walls.empty() ? 0.0 : Percentile(walls, tail_q) * 1e3;
  const u64 attempted = passes_attempted_ + lookups_.attempted;
  const u64 failed = passes_failed_ + lookups_.failed;

  JsonObject e2e;
  e2e.Num("setup_s", Median(setup_s_))
      .Num("modeled_items_per_s", Median(modeled_rate))
      .Num("final_loss", final_loss_)
      .Num("peak_rss_mb", peak_rss_mb_)
      .Num("serve_p50_us", serve_median(&ServeSlice::p50_us));

  JsonObject detail;
  detail.Num("timed_passes", n)
      .Num("pass_ms_tail_percentile", tail_q * 100.0)
      .Num("window_s", wall_sum)
      .Num("serve_window_s", clients_ != nullptr ? clients_->window_seconds() : 0.0)
      .Num("serve_samples", static_cast<double>(lookups_.window_ok))
      .Num("untrained_loss", untrained_loss_)
      .Num("serial_loss", serial_loss_)
      .Num("setup_s_min", *std::min_element(setup_s_.begin(), setup_s_.end()))
      .Num("setup_s_max", *std::max_element(setup_s_.begin(), setup_s_.end()));

  // ---- Per-layer ----
  auto median_of = [&](auto field) { return Median(Column(window_, field)); };
  auto breakdown_ms = [&](double trace::PassBreakdown::*field) {
    std::vector<double> v;
    for (const trace::PassBreakdown& b : breakdowns_) {
      v.push_back(b.*field * 1e3);
    }
    return Median(v);
  };
  double bytes = 0.0;
  double zc = 0.0;
  for (const PassSample& p : window_) {
    bytes += p.bytes;
    zc += p.zero_copy_bytes;
  }
  const double ckpts =
      static_cast<double>(rm_after_.checkpoints_written - rm_before_.checkpoints_written);
  const double deltas =
      static_cast<double>(rm_after_.delta_checkpoints - rm_before_.delta_checkpoints);
  const serve::ServingStats& sa = serve_after_;
  const serve::ServingStats& sb = serve_before_;

  JsonObject layer;
  // failed_frac is reported here because an end-to-end metric must never
  // read 0; the result line's attempted/failed carry the same counts. The
  // wall-clock pass figures and the serving rate and tail percentiles are
  // here because on a shared 4-core VM they swing too far from run to run
  // to gate a change (see README.md).
  layer.Num("failed_frac", Ratio(static_cast<double>(failed), static_cast<double>(attempted)))
      .Num("train_items_per_s", Median(train_rate))
      .Num("pass_ms_p50", Median(walls) * 1e3)
      .Num("pass_ms_tail", tail_ms)
      .Num("serve_lookups_per_s", serve_median(&ServeSlice::lookups_per_s))
      .Num("serve_p99_us", serve_median(&ServeSlice::p99_us))
      .Num("serve_p999_us", serve_median(&ServeSlice::p999_us))
      .Num("analysis.plan_us", plan_us_)
      .Num("runtime.init_s", Median(init_s_))
      .Num("runtime.scatter_s", Median(scatter_s_))
      .Num("runtime.compute_ms", breakdown_ms(&trace::PassBreakdown::compute_seconds))
      .Num("runtime.max_worker_compute_ms",
           median_of([](const PassSample& p) { return p.max_worker_compute; }) * 1e3)
      .Num("runtime.rotation_ms", breakdown_ms(&trace::PassBreakdown::rotation_seconds))
      .Num("runtime.barrier_ms", breakdown_ms(&trace::PassBreakdown::barrier_seconds))
      .Num("runtime.param_serve_ms",
           median_of([](const PassSample& p) { return p.param_serve; }) * 1e3)
      .Num("runtime.prefetch_wait_ms",
           breakdown_ms(&trace::PassBreakdown::prefetch_wait_seconds))
      .Num("runtime.flush_send_ms", breakdown_ms(&trace::PassBreakdown::flush_send_seconds))
      .Num("runtime.param_queue_depth_max",
           median_of([](const PassSample& p) { return p.queue_depth_max; }))
      .Num("dsm.pages_cloned_per_pass",
           median_of([](const PassSample& p) { return p.pages_cloned; }))
      .Num("dsm.cow_bytes_per_pass", median_of([](const PassSample& p) { return p.cow_bytes; }))
      .Num("dsm.snapshot_pins_per_pass", median_of([](const PassSample& p) { return p.pins; }))
      .Num("net.bytes_per_pass", median_of([](const PassSample& p) { return p.bytes; }))
      .Num("net.messages_per_pass", median_of([](const PassSample& p) { return p.messages; }))
      .Num("net.zero_copy_frac", Ratio(zc, bytes))
      .Num("dsm.ckpt_ms",
           Ratio(rm_after_.checkpoint_seconds - rm_before_.checkpoint_seconds, ckpts) * 1e3)
      .Num("dsm.ckpt_bytes", Ratio(static_cast<double>(rm_after_.log_bytes_appended -
                                                       rm_before_.log_bytes_appended),
                                   ckpts))
      .Num("dsm.pages_deltad_per_ckpt",
           Ratio(static_cast<double>(rm_after_.pages_deltad - rm_before_.pages_deltad), deltas))
      .Num("runtime.checkpoint_ms", breakdown_ms(&trace::PassBreakdown::checkpoint_seconds))
      .Num("serve.batch_mean",
           Ratio(static_cast<double>(sa.batched_requests - sb.batched_requests),
                 static_cast<double>(sa.batches - sb.batches)))
      .Num("serve.keys_hit_frac",
           Ratio(static_cast<double>(sa.keys_hit - sb.keys_hit),
                 static_cast<double>(sa.keys_looked_up - sb.keys_looked_up)))
      .Num("serve.versions_published",
           static_cast<double>(sa.versions_published - sb.versions_published))
      .Num("serve.first_publish_ms", first_publish_ms_)
      .Num("serve.not_serving", static_cast<double>(sa.not_serving - sb.not_serving))
      .Num("serve.shed", static_cast<double>(sa.shed_queue_full + sa.shed_bytes -
                                             sb.shed_queue_full - sb.shed_bytes))
      .Num("runtime.master_apply_ms", breakdown_ms(&trace::PassBreakdown::master_apply_seconds))
      .Num("runtime.other_ms", breakdown_ms(&trace::PassBreakdown::other_seconds))
      .Num("common.bufferpool_hit_rate",
           Ratio(static_cast<double>(bp_after_.hits - bp_before_.hits),
                 static_cast<double>(bp_after_.acquires - bp_before_.acquires)));

  JsonObject out;
  out.Raw("env", env.Done())
      .Raw("checks", checks.Done())
      .Num("attempted", static_cast<double>(attempted))
      .Num("failed", static_cast<double>(failed))
      .Raw("end_to_end", e2e.Done())
      .Raw("per_layer", layer.Done())
      .Raw("detail", detail.Done());
  return out.Done();
}

bool ParseArgs(int argc, char** argv, Args* a) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) {
    kv[argv[i]] = argv[i + 1];
  }
  if ((argc - 1) % 2 != 0 || kv.size() != 5) {
    return false;
  }
  a->workload = kv["--workload"];
  if (a->workload == "mf_rotation") {
    a->kind = Kind::kMfRotation;
  } else if (a->workload == "slr_server") {
    a->kind = Kind::kSlrServer;
  } else if (a->workload == "mf_wavefront_serve") {
    a->kind = Kind::kMfWavefrontServe;
  } else {
    return false;
  }
  char* end = nullptr;
  a->seed = std::strtoull(kv["--seed"].c_str(), &end, 10);
  a->seconds = std::strtod(kv["--seconds"].c_str(), &end);
  a->trace = kv["--trace"] == "1";
  a->scratch = kv["--scratch"];
  return a->seconds > 0.0 && !a->scratch.empty();
}

}  // namespace
}  // namespace orion

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "orion_ledger: refusing to report from an unoptimised build\n");
  return 2;
#endif
  orion::Args args;
  if (!orion::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: orion_ledger --workload mf_rotation|slr_server|mf_wavefront_serve "
                 "--seed N --seconds S --trace 0|1 --scratch DIR\n");
    return 2;
  }
  return orion::Ledger(std::move(args)).Run();
}
