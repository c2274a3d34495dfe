// Driver lifecycle, compilation and pass execution: the master service loop
// (one handler per MsgKind), Execute with its recovery retries, and the
// serial fallback. Placement, recovery and observability live in
// driver_placement.cc, driver_recovery.cc and driver_obs.cc.
#include "src/runtime/driver.h"

#include <algorithm>
#include <set>

#include "src/common/buffer_pool.h"
#include "src/common/flight_recorder.h"
#include "src/common/histogram.h"
#include "src/common/logging.h"
#include "src/common/simd.h"
#include "src/common/timer.h"
#include "src/dsm/randomize.h"

#include <fstream>

namespace orion {

namespace {
// Unanswered kStartPass retransmits per worker per pass before the worker
// is declared dead, and supervised pass attempts per Execute call.
constexpr int kMaxStartPassRetries = 10;
constexpr int kMaxRecoveryAttempts = 8;

// The kStartPass control message for one worker: the pass fan-out, the
// supervision retry, and the lost-PassDone retransmit all send this.
Message StartPassMessage(int to, i32 loop_id, i32 pass, int spec_depth) {
  return MakeMessage(kMasterRank, to, MsgKind::kControl,
                     Encode(StartPass{loop_id, pass, spec_depth}));
}

// Raises a monitor watermark. Only the driver thread writes, so a plain
// load-compare-store cannot lose a raise.
void RaiseWatermark(std::atomic<i64>* mark, i64 value) {
  if (value > mark->load(std::memory_order_relaxed)) {
    mark->store(value, std::memory_order_relaxed);
  }
}

}  // namespace

Driver::Driver(const DriverConfig& config)
    : config_(config),
      fabric_(std::make_unique<Fabric>(config.num_workers, config.net)) {
  ORION_CHECK(config.num_workers > 0);
  // Fault injection requires supervision: without retransmits and heartbeats
  // a single dropped control message would hang the run.
  if (config_.fault_plan.Active()) {
    injector_ = std::make_shared<FaultInjector>(config_.fault_plan);
    fabric_->SetInjector(injector_);
    config_.supervisor.enabled = true;
  }
  fabric_->SetZeroCopy(config_.zero_copy);
  dir_.SetSupervisor(config_.supervisor);
  if (config_.async_param_serving) {
    param_server_ = std::make_unique<ParamServer>(fabric_.get(), config_.num_workers);
  }
  live_ranks_.resize(static_cast<size_t>(config.num_workers));
  for (int w = 0; w < config.num_workers; ++w) {
    live_ranks_[static_cast<size_t>(w)] = w;
  }
  rank_live_.reserve(static_cast<size_t>(config.num_workers));
  ring_fill_gauges_.reserve(static_cast<size_t>(config.num_workers));
  for (int w = 0; w < config.num_workers; ++w) {
    rank_live_.push_back(std::make_unique<RankLive>());
    ring_fill_gauges_.push_back(std::make_unique<std::atomic<int>>(0));
  }
  fr::SetLiveRanks(live_ranks_.data(), static_cast<int>(live_ranks_.size()));
  executors_.reserve(static_cast<size_t>(config.num_workers));
  threads_.reserve(static_cast<size_t>(config.num_workers));
  for (int w = 0; w < config.num_workers; ++w) {
    executors_.push_back(std::make_unique<Executor>(w, fabric_.get(), &dir_));
    executors_.back()->set_ring_fill_gauge(ring_fill_gauges_[static_cast<size_t>(w)].get());
    threads_.emplace_back([ex = executors_.back().get()] { ex->Run(); });
  }
}

Driver::~Driver() {
  // The endpoint and monitor hold probe closures over fabric_, param_server_
  // and executors_; stop them before any of that goes away. The serving tier
  // stops next: its workers may still be finishing client batches, and its
  // pins must release before the masters die.
  StopMetricsEndpoint();
  StopMonitor();
  StopServingTier();
  for (int w = 0; w < config_.num_workers; ++w) {
    fabric_->SendReliable(MakeMessage(kMasterRank, w, MsgKind::kShutdown));
  }
  for (auto& t : threads_) {
    t.join();
  }
  fabric_->Shutdown();
}

// ---------------------------------------------------------------------------
// DistArray lifecycle

DistArrayId Driver::CreateDistArray(const std::string& name, std::vector<i64> dims,
                                    i32 value_dim, Density density) {
  DistArrayMeta meta;
  meta.id = next_array_id_++;
  meta.name = name;
  meta.key_space = KeySpace(std::move(dims));
  meta.value_dim = value_dim;
  meta.density = density;

  auto host = std::make_unique<ArrayHost>();
  host->meta = meta;
  if (density == Density::kDense) {
    host->master = CellStore(value_dim, CellStore::Layout::kFullDense, meta.key_space.total());
  } else {
    host->master = CellStore(value_dim, CellStore::Layout::kHashed, 0);
  }
  dir_.PutMeta(meta);
  arrays_[meta.id] = std::move(host);
  return meta.id;
}

Driver::ArrayHost& Driver::Host(DistArrayId id) {
  auto it = arrays_.find(id);
  ORION_CHECK(it != arrays_.end()) << "unknown DistArray" << id;
  return *it->second;
}

const Driver::ArrayHost& Driver::Host(DistArrayId id) const {
  auto it = arrays_.find(id);
  ORION_CHECK(it != arrays_.end()) << "unknown DistArray" << id;
  return *it->second;
}

const DistArrayMeta& Driver::Meta(DistArrayId id) const { return Host(id).meta; }

CellStore& Driver::MutableCells(DistArrayId id) {
  GatherToDriver(id);
  // Flat() collapses the versioned pages back into a plain CellStore; legal
  // here because no pass is in flight (the ParamServer quiesced at pass end,
  // so no snapshot pins are live) and the serving tier — the one pin holder
  // that outlives passes — drains and unpins first.
  QuiesceServingFor(id);
  return Host(id).master.Flat();
}

void Driver::FillRandomNormal(DistArrayId id, f32 scale, u64 seed) {
  CellStore& cells = MutableCells(id);
  Rng rng(seed);
  cells.ForEach([&](i64 key, f32* value) {
    for (i32 d = 0; d < cells.value_dim(); ++d) {
      value[d] = scale * static_cast<f32>(rng.NextGaussian());
    }
  });
}

void Driver::MapCells(DistArrayId id, const std::function<void(i64, f32*)>& fn) {
  MutableCells(id).ForEach(fn);
}

void Driver::RandomizeDim(DistArrayId id, int dim, u64 seed) {
  ArrayHost& h = Host(id);
  CellStore& cells = MutableCells(id);
  ORION_CHECK(cells.layout() == CellStore::Layout::kHashed)
      << "RandomizeDim applies to sparse arrays";
  const KeySpace& ks = h.meta.key_space;
  RandomPermutation perm(ks.dim(dim), seed);
  CellStore remapped(cells.value_dim(), CellStore::Layout::kHashed, 0);
  std::vector<i64> idx(static_cast<size_t>(ks.num_dims()));
  cells.ForEach([&](i64 key, f32* value) {
    ks.DecodeInto(key, idx);
    idx[static_cast<size_t>(dim)] = perm.Map(idx[static_cast<size_t>(dim)]);
    f32* dst = remapped.GetOrCreate(ks.Encode(idx));
    std::copy(value, value + cells.value_dim(), dst);
  });
  cells = std::move(remapped);
}

StatusOr<DistArrayId> Driver::Materialize(const std::string& name, std::vector<i64> dims,
                                          i32 value_dim, Density density,
                                          const ArrayRecipe& recipe) {
  std::ifstream in(recipe.path());
  if (!in) {
    return Status::IoError("cannot open " + recipe.path());
  }
  const DistArrayId id = CreateDistArray(name, std::move(dims), value_dim, density);
  ArrayHost& h = Host(id);
  const KeySpace& ks = h.meta.key_space;

  // The fused pass: parse -> map_1 -> ... -> map_n -> insert. No
  // intermediate array is ever allocated.
  std::string line;
  IndexVec idx;
  std::vector<f32> value;
  i64 line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!recipe.parser()(line, &idx, &value)) {
      continue;
    }
    for (const auto& map : recipe.maps()) {
      map(&idx, &value);
    }
    if (!ks.Contains(idx)) {
      return Status::OutOfRange(recipe.path() + ":" + std::to_string(line_no) +
                                ": index outside the DistArray bounds");
    }
    if (static_cast<i32>(value.size()) != value_dim) {
      return Status::InvalidArgument(recipe.path() + ":" + std::to_string(line_no) +
                                     ": record has wrong value arity");
    }
    f32* dst = h.master.GetOrCreate(ks.Encode(idx));
    std::copy(value.begin(), value.end(), dst);
  }
  return id;
}

DistArrayId Driver::GroupByDim(DistArrayId src, int dim, const std::string& name,
                               i32 out_value_dim, const GroupReduceFn& reduce) {
  ArrayHost& h = Host(src);
  GatherToDriver(src);
  const KeySpace& ks = h.meta.key_space;
  ORION_CHECK(dim >= 0 && dim < ks.num_dims());
  const DistArrayId out = CreateDistArray(name, {ks.dim(dim)}, out_value_dim, Density::kDense);
  CellStore& out_cells = Host(out).master.Flat();
  IndexVec idx(static_cast<size_t>(ks.num_dims()));
  h.master.ForEachConst([&](i64 key, const f32* value) {
    ks.DecodeInto(key, idx);
    reduce(out_cells.GetOrCreate(idx[static_cast<size_t>(dim)]), idx, value);
  });
  return out;
}

// ---------------------------------------------------------------------------
// Buffers & accumulators

void Driver::RegisterBuffer(DistArrayId target, i32 update_dim, BufferApplyFn apply) {
  // Workers accumulate buffered updates in place, indexed by key.
  ORION_CHECK(Meta(target).density == Density::kDense)
      << "DistArray Buffer target" << Meta(target).name << "is sparse";
  auto def = std::make_shared<BufferDef>();
  def->target = target;
  def->update_dim = update_dim;
  def->apply = std::move(apply);
  dir_.PutBufferDef(std::move(def));
}

int Driver::CreateAccumulator(AccumOp op) {
  accumulators_.push_back(AccumIdentity(op));
  accumulator_ops_.push_back(op);
  dir_.SetAccumulatorOps(accumulator_ops_);
  return static_cast<int>(accumulators_.size()) - 1;
}

f64 Driver::AccumulatorValue(int slot) const {
  ORION_CHECK(slot >= 0 && slot < static_cast<int>(accumulators_.size()));
  return accumulators_[static_cast<size_t>(slot)];
}

void Driver::ResetAccumulator(int slot) {
  ORION_CHECK(slot >= 0 && slot < static_cast<int>(accumulators_.size()));
  accumulators_[static_cast<size_t>(slot)] =
      AccumIdentity(accumulator_ops_[static_cast<size_t>(slot)]);
}

// ---------------------------------------------------------------------------
// Compilation

StatusOr<i32> Driver::Compile(LoopSpec spec, LoopKernel kernel, ParallelForOptions options) {
  auto cl = std::make_shared<CompiledLoop>();
  cl->loop_id = next_loop_id_++;
  cl->spec = std::move(spec);
  cl->kernel = std::move(kernel);
  cl->options = options;
  ORION_RETURN_IF_ERROR(BuildLoop(cl.get()));
  dir_.PutLoop(cl);
  loops_[cl->loop_id] = cl;
  EnsureScattered(*cl);
  return cl->loop_id;
}

Status Driver::BuildLoop(CompiledLoop* cl) {
  const int active = ActiveWorkers();
  // The planner and the histogram pass read cell counts and the iteration
  // space's keys, never a value, so only what the master may lack is
  // gathered: data stays where it is, and EnsureScattered keeps it there
  // when the grid matches. Workers never create or drop a cell of an
  // iteration space (MutateIndirect refuses it), so its master's key set is
  // current; it is gathered only while placed as something else. A dense
  // array always holds every cell of its key space.
  if (Host(cl->spec.iter_space).placement.scheme != PartitionScheme::kIterSpace) {
    GatherToDriver(cl->spec.iter_space);
  }
  std::map<DistArrayId, ArrayStats> stats;
  for (const auto& a : cl->spec.accesses) {
    if (a.array == cl->spec.iter_space || stats.count(a.array) > 0) {
      continue;
    }
    const DistArrayMeta& meta = Host(a.array).meta;
    ArrayStats s;
    if (meta.density == Density::kDense) {
      s.cells = meta.key_space.total();
    } else {
      GatherToDriver(a.array);  // workers may have created cells
      s.cells = Host(a.array).master.NumCells();
    }
    s.value_dim = meta.value_dim;
    stats[a.array] = s;
  }

  cl->options.planner.num_workers = active;
  ParallelizationPlan plan = PlanLoop(cl->spec, stats, cl->options.planner);
  if (plan.form == ParallelForm::kSerial) {
    return Status::FailedPrecondition(plan.explanation);
  }
  const ParallelForOptions& options = cl->options;

  cl->plan = std::move(plan);
  cl->server_arrays.clear();
  for (const auto& [id, placement] : cl->plan.placements) {
    if (placement.scheme == PartitionScheme::kServer) {
      cl->server_arrays.push_back(id);
    }
  }
  cl->num_workers = active;
  cl->sched_1d = OneDSchedule{active};
  cl->sched_wave = WavefrontSchedule{active, active};
  cl->sched_rot = RotationSchedule{active, options.pipeline_depth};

  // Histogram-balanced splits over the iteration space (schedule coords).
  const ArrayHost& iter = Host(cl->spec.iter_space);
  const KeySpace& ks = iter.meta.key_space;
  const int space_dim = cl->plan.space_dim;
  const int time_dim = cl->plan.time_dim;
  const bool transformed = cl->plan.form == ParallelForm::k2DUnimodular;

  i64 space_lo = 0;
  i64 space_hi = 0;
  i64 time_lo = 0;
  i64 time_hi = 0;
  if (transformed) {
    bool first = true;
    std::vector<i64> idx(static_cast<size_t>(ks.num_dims()));
    iter.master.ForEachConst([&](i64 key, const f32*) {
      ks.DecodeInto(key, idx);
      const auto [s, t] = cl->ScheduleCoordsOf(idx);
      if (first) {
        space_lo = space_hi = s;
        time_lo = time_hi = t;
        first = false;
      } else {
        space_lo = std::min(space_lo, s);
        space_hi = std::max(space_hi, s);
        time_lo = std::min(time_lo, t);
        time_hi = std::max(time_hi, t);
      }
    });
    if (first) {
      return Status::FailedPrecondition("iteration space is empty");
    }
  } else {
    space_lo = 0;
    space_hi = ks.dim(space_dim) - 1;
    if (time_dim >= 0) {
      time_lo = 0;
      time_hi = ks.dim(time_dim) - 1;
    }
  }

  constexpr int kHistBuckets = 4096;
  DimHistogram space_hist(space_lo, space_hi, kHistBuckets);
  DimHistogram time_hist(time_lo, std::max(time_lo, time_hi), kHistBuckets);
  {
    std::vector<i64> idx(static_cast<size_t>(ks.num_dims()));
    iter.master.ForEachConst([&](i64 key, const f32*) {
      ks.DecodeInto(key, idx);
      const auto [s, t] = cl->ScheduleCoordsOf(idx);
      space_hist.Add(s);
      if (time_dim >= 0) {
        time_hist.Add(t);
      }
    });
  }

  cl->grid.space_dim = space_dim;
  cl->grid.time_dim = time_dim;
  if (options.equal_width_partitions) {
    cl->grid.space_splits = RangeSplits::EqualWidth(space_hi - space_lo + 1, active);
  } else {
    cl->grid.space_splits = RangeSplits::FromHistogram(space_hist, active);
  }
  if (transformed) {
    // Transformed loops carry dependences on the outer (time) dimension with
    // arbitrary distances, so a time *range* could contain dependent
    // iterations assigned to different space partitions. Every distinct
    // transformed outer value therefore becomes its own wavefront step.
    const i64 span = time_hi - time_lo + 1;
    std::vector<i64> uppers;
    uppers.reserve(static_cast<size_t>(span) - 1);
    for (i64 v = time_lo; v < time_hi; ++v) {
      uppers.push_back(v);
    }
    cl->grid.time_splits = RangeSplits(static_cast<int>(span), std::move(uppers));
    cl->sched_wave.num_time_parts = static_cast<int>(span);
  } else if (cl->Is2D()) {
    const int time_parts =
        cl->UsesWavefront() ? cl->sched_wave.num_time_parts : cl->sched_rot.num_time_parts();
    if (options.equal_width_partitions) {
      cl->grid.time_splits = RangeSplits::EqualWidth(time_hi - time_lo + 1, time_parts);
    } else {
      cl->grid.time_splits = RangeSplits::FromHistogram(time_hist, time_parts);
    }
  }
  return Status::Ok();
}

Status Driver::RecompileLoops() {
  for (auto& [id, cl_const] : loops_) {
    // Copy the immutable inputs (spec, kernel, options, prefetch program) and
    // rebuild everything derived from the worker count.
    auto cl = std::make_shared<CompiledLoop>(*cl_const);
    ORION_RETURN_IF_ERROR(BuildLoop(cl.get()));
    dir_.PutLoop(cl);
    loops_[id] = cl;
  }
  return Status::Ok();
}

StatusOr<i32> Driver::CompileBody(DistArrayId iter_space, std::vector<i64> iter_extents,
                                  bool ordered, const LoopBody& body, LoopKernel kernel,
                                  ParallelForOptions options) {
  LoopSpec spec;
  spec.iter_space = iter_space;
  spec.iter_extents = std::move(iter_extents);
  spec.ordered = ordered;
  spec.accesses = ExtractAccesses(body);
  for (auto& a : spec.accesses) {
    a.array_name = Host(a.array).meta.name;  // nicer diagnostics
  }

  auto program = std::make_shared<PrefetchProgram>(SynthesizePrefetch(body));
  for (DistArrayId id : program->target_arrays()) {
    program->BindKeySpace(id, Host(id).meta.key_space);
  }
  auto loop = Compile(std::move(spec), std::move(kernel), options);
  ORION_RETURN_IF_ERROR(loop.status());

  // Attach the compiled prefetch function to the compiled loop.
  auto cl = std::const_pointer_cast<CompiledLoop>(loops_[*loop]);
  cl->prefetch_program = std::move(program);
  return *loop;
}

const ParallelizationPlan& Driver::PlanOf(i32 loop_id) const {
  auto it = loops_.find(loop_id);
  ORION_CHECK(it != loops_.end());
  return it->second->plan;
}

// ---------------------------------------------------------------------------
// Pass execution (master service loop)

void Driver::ApplyParamUpdate(const CompiledLoop& cl, PartData pd, u32 tag) {
  ArrayHost& h = Host(pd.array);
  switch (pd.mode) {
    case PartDataMode::kOverwrite:
      pd.cells.ForEachConstFast([&](i64 key, const f32* v) {
        simd::CopyF32(h.master.GetOrCreate(key), v,
                      static_cast<size_t>(h.meta.value_dim));
      });
      break;
    case PartDataMode::kApplyAdd:
      h.master.MergeAdd(pd.cells);
      break;
    case PartDataMode::kApplyBufferUdf: {
      auto def = dir_.GetBufferDef(pd.array);
      ORION_CHECK(def != nullptr) << "buffered update for array without buffer def";
      DistArrayBuffer::ApplyTo(&h.master, pd.cells, def->apply);
      break;
    }
    default:
      ORION_CHECK(false) << "unexpected PartData mode on master";
  }
  auto it = cl.plan.placements.find(pd.array);
  if (it != cl.plan.placements.end() && it->second.scheme == PartitionScheme::kReplicated) {
    // Coalesce: broadcast a refreshed snapshot once per step tag rather
    // than once per worker flush (replicas tolerate bounded staleness).
    auto [tag_it, inserted] = last_replica_bcast_tag_.try_emplace(pd.array, tag);
    if (inserted || tag_it->second != tag) {
      tag_it->second = tag;
      BroadcastReplicaSnapshot(cl, pd.array);
    }
  }
}

// The service loop's state for one pass attempt.
struct Driver::PassState {
  // Per-physical-rank supervision state. `started` means we have evidence
  // the worker received this pass's kStartPass (any pass message, or a
  // heartbeat pong whose watermark covers the pass); until then the master
  // retransmits kStartPass with exponential backoff.
  struct RankSupervision {
    bool done = false;
    bool started = false;
    double last_heard = 0.0;
    double next_ping = 0.0;
    double next_retry = 0.0;
    double retry_delay = 0.0;
    int retries = 0;
  };

  PassState(const CompiledLoop& loop, i32 attempt_pass) : cl(loop), pass(attempt_pass) {}

  const CompiledLoop& cl;
  const i32 pass;
  std::vector<RankSupervision> ranks;  // by physical rank
  Stopwatch clock;
  u32 hb_seq = 0;
  int num_done = 0;

  // Buffered updates to server-hosted arrays in 2D passes are deferred and
  // applied at pass end in logical-rank order (with per-worker FIFO order
  // preserved). This keeps server state constant for the whole pass — which
  // lets executors prefetch a step's values at any point during the pass —
  // and removes arrival-interleaving from the f64-sensitive apply order.
  // 1D chunked loops are exempt: their rounds rely on prompt mid-pass
  // freshness (bounded staleness, paper Sec. 3.3).
  std::vector<std::pair<int, PartData>> deferred_server;  // (physical rank, update)
  // Accumulator contributions per physical rank, folded at pass end in
  // logical-rank order so f64 reduction order is arrival-independent.
  std::map<int, std::vector<f64>> worker_accum;

  // Barrier bookkeeping per step tag: which live ranks arrived, and whether
  // the release went out. A worker whose arrival (or release) was lost
  // resends; arrivals after the release get an individual re-release.
  std::map<u32, std::set<int>> barrier_arrived;
  std::map<u32, bool> barrier_released;
  // Straggler-detector rounds: first-arrival clock per rank per barrier tag
  // (fed at release time), and per-rank compute seconds (fed at pass end).
  std::map<u32, std::vector<std::pair<int, double>>> barrier_arrival_times;
  std::vector<std::pair<int, double>> pass_compute;

  // Per-step dirty-range summaries of the kOverwrite flushes applied this
  // pass, keyed by the flush tag (= the global step). Complete at release
  // time by construction: a worker's flushes precede its barrier arrival on
  // the same FIFO link, and the release waits for every arrival. Piggybacked
  // on the release so speculative fetches that crossed this barrier can be
  // validated; only maintained while the pass speculates.
  std::map<u32, StepDirtySummary> step_dirty;

  // Rotated arrays that returned to the master this pass.
  std::vector<DistArrayId> returned;

  RankSupervision& Of(const Message& msg) { return ranks[static_cast<size_t>(msg.from)]; }
};

void Driver::ObserveStragglerRound(const std::vector<std::pair<int, double>>& round,
                                   i32 pass) {
  straggler_.ObserveRound(round);
  for (int r : straggler_.TakeNewlyFlagged()) {
    ORION_LOG(kWarning) << "straggler detected: rank " << r << " lag_ewma="
                        << straggler_.LagEwma(r) * 1e3 << "ms (pass " << pass << ")";
    fr::Record(fr::EventKind::kStraggler, r, pass);
  }
}

int Driver::SuperviseTick(PassState& ps) {
  const SupervisorConfig& sup = config_.supervisor;
  const double now = ps.clock.ElapsedSeconds();
  for (int w : live_ranks_) {
    PassState::RankSupervision& rs = ps.ranks[static_cast<size_t>(w)];
    if (rs.done) {
      continue;
    }
    // A rank that was just sent bulk state (scatter, replica snapshot,
    // rejoin stream) gets extra grace until it first speaks: installing
    // a large transfer can silently exceed the death timeout, and
    // retiring a healthy rank mid-install would cascade restores.
    double deadline = sup.death_timeout_seconds;
    if (state_transfer_pending_.count(w) != 0) {
      deadline += sup.state_transfer_grace_seconds;
    }
    if (now - rs.last_heard > deadline) {
      return w;
    }
    if (!rs.started && now >= rs.next_retry) {
      if (rs.retries >= kMaxStartPassRetries) {
        return w;
      }
      ++rs.retries;
      ++runtime_metrics_.retransmits;
      fr::Record(fr::EventKind::kRetransmit, w, ps.pass);
      fabric_->SendReliable(StartPassMessage(w, ps.cl.loop_id, ps.pass, pass_spec_depth_));
      rs.retry_delay *= kRetryBackoffFactor;
      rs.next_retry = now + rs.retry_delay;
    }
    if (now >= rs.next_ping) {
      ++runtime_metrics_.heartbeats_sent;
      fabric_->SendReliable(MakeMessage(kMasterRank, w, MsgKind::kControl,
                                        Encode(Heartbeat{/*is_reply=*/false, ++ps.hb_seq})));
      rs.next_ping = now + sup.heartbeat_interval_seconds;
    }
  }
  return -1;
}

// Async serving from pinned snapshots. 1D chunked loops rely on prompt
// mid-pass freshness (a round's request, queued behind its flushes on the
// FIFO master link, must read the just-applied state); the snapshot is
// pinned here, at dequeue time on this single-threaded service loop, so it
// already reflects every update dequeued before the request — which makes
// the async path bit-for-bit identical to inline serving for every loop
// form.
void Driver::OnParamRequest(PassState& ps, Message& msg) {
  ps.Of(msg).started = true;
  ParamRequest req = Take<ParamRequest>(msg);
  ArrayHost& h = Host(req.array);
  if (param_server_ == nullptr) {
    // Synchronous serving: gather and reply on this thread.
    if (req.speculative) {
      ++last_metrics_.spec_requests_served;
    }
    CpuStopwatch sw;
    Message reply =
        BuildParamReply(req, h.master.Flat(), h.meta.value_dim, fabric_->zero_copy());
    reply.to = msg.from;
    last_metrics_.param_serve_seconds += sw.ElapsedSeconds();
    fabric_->Send(std::move(reply));
    return;
  }
  // Paginate lazily on the first request ever served for this array; pages
  // then persist across passes (mutations between requests go through the
  // copy-on-write writer path).
  if (!h.master.paged()) {
    h.master.BeginServing();
  }
  param_server_->HandleRequestSnapshot(std::move(req), msg.from, h.master.Pin(),
                                       h.meta.value_dim);
}

void Driver::OnParamUpdate(PassState& ps, Message& msg) {
  ps.Of(msg).started = true;
  PartData pd = Take<PartData>(msg);
  if (pass_spec_depth_ > 0 && pd.mode == PartDataMode::kOverwrite) {
    // Record what this step's flush overwrites before the update is
    // consumed; the summary rides on the step's barrier release.
    std::vector<i64> keys;
    keys.reserve(pd.cells.NumCells());
    pd.cells.ForEachConstFast([&](i64 key, const f32*) { keys.push_back(key); });
    ps.step_dirty[msg.tag].AddKeys(pd.array, std::move(keys));
  }
  auto pit = ps.cl.plan.placements.find(pd.array);
  const bool server_buffered =
      ps.cl.Is2D() && pd.mode == PartDataMode::kApplyBufferUdf &&
      pit != ps.cl.plan.placements.end() && pit->second.scheme == PartitionScheme::kServer;
  if (server_buffered) {
    ps.deferred_server.emplace_back(msg.from, std::move(pd));
  } else {
    // The writer clones only the pages it touches, so in-flight snapshot
    // gathers keep reading their pinned version.
    ApplyParamUpdate(ps.cl, std::move(pd), msg.tag);
  }
}

// Wavefront loops: the last worker in the ring returns rotated partitions to
// the master.
void Driver::OnPartitionData(PassState& ps, Message& msg) {
  ps.Of(msg).started = true;
  PartData pd = Take<PartData>(msg);
  ArrayHost& h = Host(pd.array);
  pd.cells.ForEachConstFast([&](i64 key, const f32* v) {
    simd::CopyF32(h.master.GetOrCreate(key), v, static_cast<size_t>(h.meta.value_dim));
  });
  ps.returned.push_back(pd.array);
}

void Driver::OnBarrier(PassState& ps, Message& msg) {
  BarrierMsg b = Decode<BarrierMsg>(msg.payload);
  // Piggybacked partial trace drain (rings >75% full mid-pass). Merge
  // before the staleness check — spans from an abandoned attempt are
  // still real history — deduped by the per-worker batch id so
  // supervision resends of the same arrival append exactly once.
  if (!b.release && !b.spans.empty() && b.span_seq > worker_span_seq_[msg.from]) {
    worker_span_seq_[msg.from] = b.span_seq;
    cluster_trace_.insert(cluster_trace_.end(), std::make_move_iterator(b.spans.begin()),
                          std::make_move_iterator(b.spans.end()));
  }
  if (b.pass != ps.pass || b.release) {
    return;  // stale arrival from an earlier attempt
  }
  PassState::RankSupervision& sender = ps.Of(msg);
  sender.started = true;
  auto send_release = [&](int to, bool reliable) {
    Message go = MakeMessage(kMasterRank, to, MsgKind::kBarrier);
    go.tag = msg.tag;
    BarrierMsg release;
    release.pass = ps.pass;
    release.release = true;
    if (pass_spec_depth_ > 0) {
      // Attach even when empty: "present and empty" proves nothing changed,
      // where absence would force the validator to assume everything did.
      release.has_dirty = true;
      auto it = ps.step_dirty.find(msg.tag);
      if (it != ps.step_dirty.end()) {
        release.dirty = it->second;
      }
    }
    go.payload = Encode(release);
    if (reliable) {
      fabric_->SendReliable(std::move(go));
    } else {
      fabric_->Send(std::move(go));
    }
  };
  auto& arrived = ps.barrier_arrived[msg.tag];
  bool& released = ps.barrier_released[msg.tag];
  if (arrived.insert(msg.from).second) {
    ps.barrier_arrival_times[msg.tag].emplace_back(msg.from, sender.last_heard);
    rank_live_[static_cast<size_t>(msg.from)]->step.store(static_cast<i64>(msg.tag),
                                                          std::memory_order_relaxed);
  }
  if (released) {
    // This worker's release was lost (or its arrival was duplicated);
    // re-release individually.
    send_release(msg.from, /*reliable=*/true);
  } else if (static_cast<int>(arrived.size()) == ActiveWorkers()) {
    released = true;
    // All arrivals for this step are in: one straggler-detector round.
    ObserveStragglerRound(ps.barrier_arrival_times[msg.tag], ps.pass);
    for (int w : live_ranks_) {
      send_release(w, /*reliable=*/false);
    }
  }
}

void Driver::OnControl(PassState& ps, Message& msg) {
  PassState::RankSupervision& sender = ps.Of(msg);
  const ControlOp op = PeekControlOp(msg.payload);
  if (op == ControlOp::kHeartbeat) {
    const Heartbeat hb = Decode<Heartbeat>(msg.payload);
    if (hb.is_reply) {
      // Pong watermarks feed the monitor's per-rank liveness gauges.
      RankLive& rl = *rank_live_[static_cast<size_t>(msg.from)];
      RaiseWatermark(&rl.started, hb.last_started_pass);
      RaiseWatermark(&rl.completed, hb.last_completed_pass);
    }
    if (hb.is_reply && hb.last_started_pass >= ps.pass) {
      sender.started = true;
    }
    if (hb.is_reply && hb.last_completed_pass >= ps.pass && !sender.done) {
      // The worker finished the pass but its kPassDone was lost in
      // flight; a retransmitted kStartPass makes it resend the cached
      // report.
      ++runtime_metrics_.retransmits;
      fr::Record(fr::EventKind::kRetransmit, msg.from, ps.pass);
      fabric_->SendReliable(StartPassMessage(msg.from, ps.cl.loop_id, ps.pass, pass_spec_depth_));
    }
    return;
  }
  if (op != ControlOp::kPassDone) {
    return;  // stray control traffic (e.g. a late retire ack)
  }
  PassDone report = Decode<PassDone>(msg.payload);
  if (report.pass != ps.pass || sender.done) {
    return;  // duplicate or stale PassDone
  }
  ps.worker_accum[msg.from] = std::move(report.accumulators);
  // Piggybacked tracer spans. The `done` dedupe above already ran, so
  // an injector-duplicated PassDone never appends twice.
  cluster_trace_.insert(cluster_trace_.end(), std::make_move_iterator(report.spans.begin()),
                        std::make_move_iterator(report.spans.end()));
  last_metrics_.Fold(report.metrics);
  const size_t slot = static_cast<size_t>(LogicalOf(msg.from));
  if (slot < last_metrics_.worker_reply_wait.size()) {
    last_metrics_.worker_reply_wait[slot] = report.metrics.reply_wait;
  }
  sender.started = true;
  sender.done = true;
  ++ps.num_done;
  ps.pass_compute.emplace_back(msg.from, report.metrics.compute_seconds);
  RankLive& rl = *rank_live_[static_cast<size_t>(msg.from)];
  RaiseWatermark(&rl.started, ps.pass);
  RaiseWatermark(&rl.completed, ps.pass);
}

Driver::PassOutcome Driver::ServicePassMessages(const CompiledLoop& cl, i32 pass) {
  const SupervisorConfig& sup = config_.supervisor;
  last_metrics_.worker_reply_wait.assign(static_cast<size_t>(ActiveWorkers()), WaitHistogram{});
  if (param_server_ != nullptr) {
    param_server_->ResetPassStats();
  }
  PassState ps(cl, pass);
  ps.ranks.resize(static_cast<size_t>(config_.num_workers));
  for (int w : live_ranks_) {
    ps.ranks[static_cast<size_t>(w)] = {.next_ping = sup.heartbeat_interval_seconds,
                                        .next_retry = sup.retry_initial_seconds,
                                        .retry_delay = sup.retry_initial_seconds};
  }
  const double poll = std::min(0.01, sup.heartbeat_interval_seconds / 4.0);

  while (ps.num_done < ActiveWorkers()) {
    std::optional<Message> msg;
    if (sup.enabled) {
      msg = fabric_->RecvWithTimeout(kMasterRank, poll);
      const int lost = SuperviseTick(ps);
      if (lost >= 0) {
        // Gather tasks may still hold pointers into ArrayHost state the
        // recovery path is about to overwrite; drain them before unwinding.
        if (param_server_ != nullptr) {
          param_server_->Quiesce();
        }
        return {false, lost};
      }
      if (!msg.has_value()) {
        ORION_CHECK(!fabric_->Closed(kMasterRank)) << "fabric shut down during pass";
        continue;
      }
    } else {
      msg = fabric_->Recv(kMasterRank);
      ORION_CHECK(msg.has_value()) << "fabric shut down during pass";
    }
    if (!IsLive(msg->from)) {
      continue;  // zombie traffic from a retired rank
    }
    ps.Of(*msg).last_heard = ps.clock.ElapsedSeconds();
    state_transfer_pending_.erase(msg->from);  // it spoke: installs are done

    switch (msg->kind) {
      case MsgKind::kParamRequest: OnParamRequest(ps, *msg); break;
      case MsgKind::kParamUpdate: OnParamUpdate(ps, *msg); break;
      case MsgKind::kPartitionData: OnPartitionData(ps, *msg); break;
      case MsgKind::kBarrier: OnBarrier(ps, *msg); break;
      case MsgKind::kControl: OnControl(ps, *msg); break;
      default:
        ORION_CHECK(false) << "unexpected message kind" << static_cast<int>(msg->kind);
    }
    // The payload has been fully consumed (decoded or taken); park the
    // allocation for the next encode instead of freeing it.
    BufferPool::Release(std::move(msg->payload));
  }

  // Every worker has sent kPassDone, and worker->master links are FIFO, so
  // every request of this pass has been handed to the server; drain it before
  // the deferred applies mutate master state.
  if (param_server_ != nullptr) {
    param_server_->Quiesce();
    last_metrics_.param_serve_seconds += param_server_->serve_seconds();
    last_metrics_.param_shard_queue_depth_max = param_server_->max_queue_depth();
    last_metrics_.spec_requests_served += param_server_->speculative_served();
  }

  // Pass-end application of the deferred server updates, in logical-rank
  // order. stable_sort keeps each worker's own flushes in send (FIFO) order.
  {
    ORION_TRACE_SPAN(kDriver, "deferred_applies");
    std::stable_sort(ps.deferred_server.begin(), ps.deferred_server.end(),
                     [&](const auto& a, const auto& b) {
                       return LogicalOf(a.first) < LogicalOf(b.first);
                     });
    for (auto& [from, pd] : ps.deferred_server) {
      ApplyParamUpdate(cl, std::move(pd), 0);
    }
  }

  // Fold accumulators in logical-rank order (arrival-independent f64 sums).
  for (int w : live_ranks_) {
    auto it = ps.worker_accum.find(w);
    if (it == ps.worker_accum.end()) {
      continue;
    }
    const auto& acc = it->second;
    for (size_t i = 0; i < acc.size() && i < accumulators_.size(); ++i) {
      accumulators_[i] = AccumCombine(accumulator_ops_[i], accumulators_[i], acc[i]);
    }
  }

  // Rotated arrays that returned to the master need a re-scatter next pass.
  for (DistArrayId id : ps.returned) {
    Host(id).on_workers = false;
  }

  // Copy-on-write accounting for this pass (pins taken, pages cloned by
  // mid-pass writers, bytes copied for those clones).
  if (param_server_ != nullptr) {
    for (DistArrayId id : cl.server_arrays) {
      ArrayHost& h = Host(id);
      if (!h.master.paged()) {
        continue;
      }
      const VersionedCellStore::Stats vs = h.master.TakeStats();
      last_metrics_.versioned_snapshot_pins += vs.pins;
      last_metrics_.versioned_pages_cloned += vs.pages_cloned;
      last_metrics_.versioned_cow_bytes += vs.cow_bytes;
    }
  }

  // One straggler-detector round over per-rank compute time (the only
  // per-rank timing signal 1D loops produce; 2D loops also fed per-step
  // barrier rounds above).
  ObserveStragglerRound(ps.pass_compute, pass);
  return {true, -1};
}

namespace {

// Serial fallback context: reads and writes the driver's master copies
// directly; buffered updates apply immediately through the registered UDF.
// It installs no direct or buffer views: as the oracle parallel runs are
// checked against, every access takes the plain store lookup.
class SerialLoopContext : public LoopContext {
 public:
  SerialLoopContext(Driver* driver, const SharedDirectory* dir,
                    std::map<DistArrayId, CellStore*>* stores, std::vector<f64>* accum,
                    std::vector<AccumOp>* ops)
      : driver_(driver), dir_(dir), stores_(stores), accum_(accum), ops_(ops) {}

  const f32* ReadIndirect(DistArrayId array, IdxSpan idx) override {
    CellStore* store = StoreFor(array);
    const f32* v = store->Get(driver_->Meta(array).key_space.EncodeUnchecked(idx));
    if (v != nullptr) {
      return v;
    }
    zeros_.assign(static_cast<size_t>(store->value_dim()), 0.0f);
    return zeros_.data();
  }

  f32* MutateIndirect(DistArrayId array, IdxSpan idx) override {
    CellStore* store = StoreFor(array);
    return store->GetOrCreate(driver_->Meta(array).key_space.EncodeUnchecked(idx));
  }

  void BufferUpdateIndirect(DistArrayId array, IdxSpan idx, const f32* update) override {
    auto def = dir_->GetBufferDef(array);
    ORION_CHECK(def != nullptr) << "BufferUpdate without a registered buffer";
    CellStore* store = StoreFor(array);
    def->apply(store->GetOrCreate(driver_->Meta(array).key_space.EncodeUnchecked(idx)),
               update, store->value_dim());
  }

  void AccumulatorAdd(int slot, f64 delta) override {
    ORION_CHECK(slot >= 0 && slot < static_cast<int>(accum_->size()));
    f64& acc = (*accum_)[static_cast<size_t>(slot)];
    acc = AccumCombine((*ops_)[static_cast<size_t>(slot)], acc, delta);
  }

 private:
  CellStore* StoreFor(DistArrayId array) {
    auto it = stores_->find(array);
    ORION_CHECK(it != stores_->end()) << "array" << array << "not prepared for serial run";
    return it->second;
  }

  Driver* driver_;
  const SharedDirectory* dir_;
  std::map<DistArrayId, CellStore*>* stores_;
  std::vector<f64>* accum_;
  std::vector<AccumOp>* ops_;
  std::vector<f32> zeros_;
};

}  // namespace

Status Driver::ExecuteSerial(const LoopSpec& spec, const LoopKernel& kernel) {
  // Everything must be driver-resident.
  std::map<DistArrayId, CellStore*> stores;
  GatherToDriver(spec.iter_space);
  for (const auto& a : spec.accesses) {
    if (stores.count(a.array) == 0) {
      GatherToDriver(a.array);
      QuiesceServingFor(a.array);  // Flat() below collapses a served master
      stores[a.array] = &Host(a.array).master.Flat();
    }
  }

  ArrayHost& iter = Host(spec.iter_space);
  const KeySpace& ks = iter.meta.key_space;
  std::vector<i64> keys;
  keys.reserve(static_cast<size_t>(std::max<i64>(iter.master.NumCells(), 0)));
  iter.master.ForEachConst([&](i64 key, const f32*) { keys.push_back(key); });
  if (spec.ordered) {
    std::sort(keys.begin(), keys.end());
  }

  std::vector<f64> accum(accumulators_.size());
  for (size_t i = 0; i < accum.size(); ++i) {
    accum[i] = AccumIdentity(accumulator_ops_[i]);
  }
  SerialLoopContext ctx(this, &dir_, &stores, &accum, &accumulator_ops_);
  std::vector<i64> idx(static_cast<size_t>(ks.num_dims()));
  for (i64 key : keys) {
    ks.DecodeInto(key, idx);
    kernel(ctx, idx, iter.master.Get(key));
  }
  for (size_t i = 0; i < accum.size(); ++i) {
    accumulators_[i] = AccumCombine(accumulator_ops_[i], accumulators_[i], accum[i]);
  }
  return Status::Ok();
}

Status Driver::Execute(i32 loop_id) {
  if (loops_.find(loop_id) == loops_.end()) {
    return Status::NotFound("unknown loop id");
  }
  const bool recovery_enabled = delta_writer_ != nullptr;
  if (recovery_enabled && !baseline_ckpt_done_) {
    // Baseline checkpoint: without it a pass-0 failure has nothing to
    // restore from.
    ORION_RETURN_IF_ERROR(WriteRecoveryCheckpoint());
  }
  const int max_attempts = recovery_enabled ? kMaxRecoveryAttempts : 1;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    const PassOutcome out = RunPassOnce(loop_id);
    if (out.completed) {
      // Pass boundary, driver thread, nothing in flight: the safe point to
      // pin fresh serving versions and then publish the immutable registry
      // snapshot (so the scrape sees this pass's serve stats) the endpoint
      // renders.
      PublishServingVersions();
      PublishObsSnapshot();
      const int every = durability_options_.every_n_passes;
      if (recovery_enabled && every > 0 && static_cast<int>(pass_log_.size()) >= every) {
        ORION_RETURN_IF_ERROR(WriteRecoveryCheckpoint());
      }
      return Status::Ok();
    }
    if (!recovery_enabled) {
      return Status::Internal("worker " + std::to_string(out.lost_rank) +
                              " lost and recovery is not enabled");
    }
    fr::Record(fr::EventKind::kWorkerDead, out.lost_rank, pass_counter_ - 1);
    ORION_RETURN_IF_ERROR(Recover(out.lost_rank));
  }
  return Status::Internal("recovery attempts exhausted");
}

Driver::PassOutcome Driver::RunPassOnce(i32 loop_id) {
  // Re-look the loop up each attempt: recovery recompiles it for the
  // degraded worker count.
  auto it = loops_.find(loop_id);
  ORION_CHECK(it != loops_.end());
  const CompiledLoop& cl = *it->second;
  EnsureScattered(cl);

  last_metrics_.ResetPass();

  // Speculative prefetch depth for ordered schedules. Eligibility is
  // structural (overlap engine on, step barrier, a server-hosted array to
  // fetch from); whether the loop *stays* speculative is the controller's
  // call below — a loop whose measured conflict rate made repair cost exceed
  // the hidden wait is sticky-disabled and reverts to synchronous fetches.
  pass_spec_depth_ = 0;
  if (cl.options.speculate && cl.options.overlap && cl.NeedsStepBarrier() &&
      !cl.server_arrays.empty()) {
    SpecState& ss = spec_state_[loop_id];
    pass_spec_depth_ = ss.enabled ? ss.depth : 0;
  }
  last_metrics_.spec_depth_effective = pass_spec_depth_;

  const FabricStats before = fabric_->Stats();
  Stopwatch sw;
  const i32 pass = pass_counter_++;
  fr::Record(fr::EventKind::kPassStart, -1, pass, cl.loop_id);
  trace::SetThreadPass(pass);
  const i64 trace_pass_start_ns = trace::Enabled() ? trace::NowNs() : 0;
  {
    ORION_TRACE_SPAN(kDriver, "start_pass");
    for (int w : live_ranks_) {
      fabric_->Send(StartPassMessage(w, loop_id, pass, pass_spec_depth_));
    }
  }
  const PassOutcome out = ServicePassMessages(cl, pass);
  if (!out.completed) {
    return out;
  }
  fr::Record(fr::EventKind::kPassEnd, -1, pass, cl.loop_id);

  const FabricStats after = fabric_->Stats();
  last_metrics_.pass_wall_seconds = sw.ElapsedSeconds();
  if (trace::Enabled()) {
    // Master pass span: StartPass fan-out through deferred applies — the
    // wall the critical-path analyzer attributes.
    trace::Emit(trace::Category::kDriver, "pass", trace_pass_start_ns, trace::NowNs());
  }
  last_metrics_.bytes_sent = after.bytes_sent - before.bytes_sent;
  last_metrics_.messages_sent = after.messages_sent - before.messages_sent;
  last_metrics_.virtual_net_seconds = after.virtual_net_seconds - before.virtual_net_seconds;
  last_metrics_.zero_copy_bytes = after.zero_copy_bytes - before.zero_copy_bytes;

  // Speculation controller update. Conflict rate is slots-repaired over
  // slots-issued; hidden vs wait compares what speculation bought (reply
  // latency overlapped with compute) against what it cost (repair round
  // trips + blocked awaits). Disable is *sticky*: a loop whose access
  // pattern conflicts every step will conflict every step, and re-probing
  // would pay the repair tax again each pass.
  if (pass_spec_depth_ > 0 && last_metrics_.spec_issued > 0) {
    SpecState& ss = spec_state_[loop_id];
    const double rate = static_cast<double>(last_metrics_.spec_conflicts) /
                        static_cast<double>(last_metrics_.spec_issued);
    last_metrics_.spec_conflict_rate = rate;
    const int cap = std::max(1, cl.options.prefetch_depth);
    if (rate > 0.5 || (last_metrics_.spec_conflicts > 0 &&
                       last_metrics_.spec_wait_seconds >
                           last_metrics_.spec_hidden_seconds)) {
      ss.enabled = false;
      fr::Record(fr::EventKind::kController, -1, 0, ss.depth, "spec_disable");
    } else if (rate > 0.25 && ss.depth > 1) {
      --ss.depth;
      fr::Record(fr::EventKind::kController, -1, ss.depth, ss.depth + 1, "spec_depth");
    } else if (rate < 0.05 && last_metrics_.spec_wait_seconds > 50e-6 &&
               ss.depth < cap) {
      ++ss.depth;
      fr::Record(fr::EventKind::kController, -1, ss.depth, ss.depth - 1, "spec_depth");
    }
  }

  // Per-pass metric series (flattened into MetricsRegistry by
  // ExportMetrics).
  last_metrics_.AppendSeriesTo(&metrics_series_);

  if (delta_writer_ != nullptr) {
    pass_log_.emplace_back(loop_id, pass);
  }
  ++completed_passes_;
  return out;
}

}  // namespace orion