#include "src/runtime/driver.h"

#include <algorithm>
#include <set>

#include "src/common/buffer_pool.h"
#include "src/common/flight_recorder.h"
#include "src/common/histogram.h"
#include "src/common/logging.h"
#include "src/common/simd.h"
#include "src/common/timer.h"
#include "src/dsm/bucket.h"
#include "src/dsm/randomize.h"

#include <fstream>

namespace orion {

namespace {
u32 PartTag(int tau) { return static_cast<u32>(tau + 1); }

// The kStartPass control message for one worker: the pass fan-out, the
// supervision retry, and the lost-PassDone retransmit all send this.
Message StartPassMessage(int to, i32 loop_id, i32 pass, int spec_depth) {
  Message m;
  m.from = kMasterRank;
  m.to = to;
  m.kind = MsgKind::kControl;
  m.payload = StartPass{loop_id, pass, spec_depth}.Encode();
  return m;
}

// Raises a monitor watermark. Only the driver thread writes, so a plain
// load-compare-store cannot lose a raise.
void RaiseWatermark(std::atomic<i64>* mark, i64 value) {
  if (value > mark->load(std::memory_order_relaxed)) {
    mark->store(value, std::memory_order_relaxed);
  }
}

// Whether `cells` can replace the master of `meta`: the same value_dim, and
// the layout and extent CreateDistArray gave it (a dense array covers its
// whole key space, a sparse one holds only keys inside it). A mismatch would
// otherwise surface as a CHECK on the first out-of-range access.
Status CheckCellsFit(const DistArrayMeta& meta, const CellStore& cells) {
  if (cells.value_dim() != meta.value_dim) {
    return Status::InvalidArgument("value_dim mismatch for " + meta.name);
  }
  const i64 total = meta.key_space.total();
  if (meta.density == Density::kDense) {
    if (cells.layout() != CellStore::Layout::kFullDense || cells.NumCells() != total) {
      return Status::InvalidArgument("cell extent mismatch for " + meta.name + ": expected " +
                                     std::to_string(total) + " dense cells, got " +
                                     std::to_string(cells.NumCells()));
    }
    return Status::Ok();
  }
  if (cells.layout() != CellStore::Layout::kHashed) {
    return Status::InvalidArgument("layout mismatch for " + meta.name +
                                   ": expected a sparse array, got a dense one");
  }
  for (const i64 key : cells.keys()) {
    if (key < 0 || key >= total) {
      return Status::InvalidArgument("key " + std::to_string(key) + " lies outside " +
                                     meta.name + "'s key space");
    }
  }
  return Status::Ok();
}
}  // namespace

Driver::Driver(const DriverConfig& config)
    : config_(config),
      fabric_(std::make_unique<Fabric>(config.num_workers, config.net,
                                       config.stats_bucket_seconds)) {
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
    Message m;
    m.from = kMasterRank;
    m.to = w;
    m.kind = MsgKind::kShutdown;
    fabric_->SendReliable(std::move(m));
  }
  for (auto& t : threads_) {
    t.join();
  }
  fabric_->Shutdown();
}

bool Driver::IsLive(WorkerId physical) const {
  return std::find(live_ranks_.begin(), live_ranks_.end(), physical) != live_ranks_.end();
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

Status Driver::Checkpoint(DistArrayId id, const std::string& path) {
  GatherToDriver(id);
  ArrayHost& h = Host(id);
  // A one-array base image. SerializeTo reads a paged master in place, so
  // serving pins and delta-log page tracking are left undisturbed.
  return WriteBaseImage(path, 0, MasterRecord{}, {{h.meta.name, &h.master}}).status();
}

Status Driver::Restore(DistArrayId id, const std::string& path) {
  auto image = ReadBaseImage(path);
  if (image.status().code() == StatusCode::kNotFound) {
    return Status::IoError("cannot open " + path);
  }
  ORION_RETURN_IF_ERROR(image.status());
  ArrayHost& h = Host(id);
  auto it = image->arrays.find(h.meta.name);
  if (it == image->arrays.end()) {
    return Status::InvalidArgument(path + " has no array named " + h.meta.name);
  }
  ORION_RETURN_IF_ERROR(CheckCellsFit(h.meta, it->second));
  GatherToDriver(id);
  QuiesceServingFor(id);  // wholesale replacement drops pages (needs no pins)
  h.master = std::move(it->second);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Buffers & accumulators

void Driver::RegisterBuffer(DistArrayId target, i32 update_dim, BufferApplyFn apply,
                            BufferCombineFn combine) {
  auto def = std::make_shared<BufferDef>();
  def->target = target;
  def->update_dim = update_dim;
  def->apply = std::move(apply);
  def->combine = std::move(combine);
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
  // Everything the planner and the histogram pass need must be
  // driver-resident.
  GatherToDriver(cl->spec.iter_space);
  std::map<DistArrayId, ArrayStats> stats;
  for (const auto& a : cl->spec.accesses) {
    if (a.array == cl->spec.iter_space || stats.count(a.array) > 0) {
      continue;
    }
    GatherToDriver(a.array);
    const ArrayHost& h = Host(a.array);
    ArrayStats s;
    s.cells = h.master.NumCells();
    s.value_dim = h.meta.value_dim;
    stats[a.array] = s;
  }

  cl->options.planner.num_workers = active;
  ParallelizationPlan plan = PlanLoop(cl->spec, stats, cl->options.planner);
  if (plan.form == ParallelForm::kSerial) {
    return Status::FailedPrecondition(plan.explanation);
  }
  const ParallelForOptions& options = cl->options;

  cl->plan = std::move(plan);
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
      auto [q0, q1] = cl->ToScheduleCoords(idx[0], idx[1]);
      const i64 s = space_dim == 0 ? q0 : q1;
      const i64 t = time_dim == 0 ? q0 : q1;
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
      i64 s;
      i64 t = 0;
      if (transformed) {
        auto [q0, q1] = cl->ToScheduleCoords(idx[0], idx[1]);
        s = space_dim == 0 ? q0 : q1;
        t = time_dim == 0 ? q0 : q1;
      } else {
        s = idx[static_cast<size_t>(space_dim)];
        if (time_dim >= 0) {
          t = idx[static_cast<size_t>(time_dim)];
        }
      }
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
  auto loop = Compile(std::move(spec), std::move(kernel), options);
  ORION_RETURN_IF_ERROR(loop.status());

  // Attach the synthesized prefetch function (key spaces for the arrays it
  // records) to the compiled loop.
  auto cl = std::const_pointer_cast<CompiledLoop>(loops_[*loop]);
  for (DistArrayId id : program->target_arrays()) {
    cl->prefetch_key_spaces.emplace(id, Host(id).meta.key_space);
  }
  cl->prefetch_program = std::move(program);
  return *loop;
}

const ParallelizationPlan& Driver::PlanOf(i32 loop_id) const {
  auto it = loops_.find(loop_id);
  ORION_CHECK(it != loops_.end());
  return it->second->plan;
}

// ---------------------------------------------------------------------------
// Placement management

bool Driver::GridEquals(const SpaceTimeGrid& a, const SpaceTimeGrid& b) {
  return a.space_dim == b.space_dim && a.time_dim == b.time_dim &&
         a.space_splits.num_parts() == b.space_splits.num_parts() &&
         a.space_splits.uppers() == b.space_splits.uppers() &&
         a.time_splits.num_parts() == b.time_splits.num_parts() &&
         a.time_splits.uppers() == b.time_splits.uppers();
}

void Driver::GatherToDriver(DistArrayId id) {
  ArrayHost& h = Host(id);
  if (!h.on_workers) {
    return;
  }
  if (h.placement.scheme == PartitionScheme::kReplicated ||
      h.placement.scheme == PartitionScheme::kServer) {
    // The master copy is authoritative; just drop worker-side state.
    DropFromWorkers(id);
    h.on_workers = false;
    return;
  }
  for (int w : live_ranks_) {
    Message m;
    m.from = kMasterRank;
    m.to = w;
    m.kind = MsgKind::kControl;
    m.payload = ArrayOp{ControlOp::kGather, id}.Encode();
    fabric_->SendReliable(std::move(m));
  }
  int replies = 0;
  while (replies < ActiveWorkers()) {
    auto msg = fabric_->Recv(kMasterRank);
    ORION_CHECK(msg.has_value()) << "fabric shut down during gather";
    if (msg->kind == MsgKind::kControl || msg->kind == MsgKind::kBarrier ||
        !IsLive(msg->from)) {
      // Stragglers from a faulty pass: duplicated PassDone / barrier
      // arrivals, or traffic from a retired rank. Harmless here.
      continue;
    }
    ORION_CHECK(msg->kind == MsgKind::kParamUpdate)
        << "unexpected message during gather:" << static_cast<int>(msg->kind);
    PartData pd = TakePart(*msg);
    ORION_CHECK(pd.array == id && pd.mode == PartDataMode::kOverwrite);
    pd.cells.ForEachConstFast([&](i64 key, const f32* v) {
      simd::CopyF32(h.master.GetOrCreate(key), v,
                    static_cast<size_t>(h.meta.value_dim));
    });
    ++replies;
  }
  h.on_workers = false;
}

void Driver::DropFromWorkers(DistArrayId id) {
  for (int w : live_ranks_) {
    Message m;
    m.from = kMasterRank;
    m.to = w;
    m.kind = MsgKind::kControl;
    m.payload = ArrayOp{ControlOp::kDropArray, id}.Encode();
    fabric_->SendReliable(std::move(m));
  }
}

void Driver::SendParts(DistArrayId array, std::vector<std::optional<CellStore>>* parts,
                       int time_parts, PartDataMode mode) {
  for (size_t p = 0; p < parts->size(); ++p) {
    std::optional<CellStore>& cells = (*parts)[p];
    if (!cells.has_value()) {
      continue;
    }
    // `worker` is a logical (schedule) index.
    const int worker = time_parts > 0 ? static_cast<int>(p) / time_parts : static_cast<int>(p);
    const int tau = time_parts > 0 ? static_cast<int>(p) % time_parts : -1;
    PartData pd;
    pd.array = array;
    pd.part = tau;
    pd.mode = mode;
    pd.cells = std::move(*cells);
    Message m;
    m.from = kMasterRank;
    m.to = PhysicalOf(worker);
    m.kind = MsgKind::kPartitionData;
    m.tag = PartTag(tau);
    AttachPart(&m, std::move(pd), fabric_->zero_copy());
    state_transfer_pending_.insert(m.to);
    fabric_->Send(std::move(m));
  }
}

void Driver::ScatterIterSpace(const CompiledLoop& cl) {
  ArrayHost& h = Host(cl.spec.iter_space);
  const KeySpace& ks = h.meta.key_space;

  // Collect cells in execution order: sorted for ordered loops (lexicographic
  // serial semantics), shuffled for unordered loops.
  std::vector<CellRef> cells;
  cells.reserve(static_cast<size_t>(std::max<i64>(h.master.NumCells(), 0)));
  h.master.ForEachConstFast([&](i64 key, const f32* v) { cells.push_back({key, v}); });
  if (cl.spec.ordered) {
    std::sort(cells.begin(), cells.end(),
              [](const CellRef& a, const CellRef& b) { return a.key < b.key; });
  } else {
    // Seeded per array, not from a driver-lifetime stream: a re-scatter after
    // recovery must reproduce the same execution order.
    Rng rng(config_.seed * 0x9e3779b97f4a7c15ull + static_cast<u64>(h.meta.id) + 1);
    for (size_t i = cells.size(); i-- > 1;) {
      std::swap(cells[i], cells[rng.NextBounded(i + 1)]);
    }
  }

  // Part (worker, tau) is index worker * time_parts + tau (worker for 1D),
  // so ascending indices send in (worker, tau) order.
  const int time_parts = cl.Is2D() ? cl.grid.time_splits.num_parts() : 0;
  std::vector<u32> part_of;
  part_of.reserve(cells.size());
  std::vector<i64> idx(static_cast<size_t>(ks.num_dims()));
  for (const CellRef& cell : cells) {
    ks.DecodeInto(cell.key, idx);
    i64 s;
    i64 t = 0;
    if (cl.plan.form == ParallelForm::k2DUnimodular) {
      auto [q0, q1] = cl.ToScheduleCoords(idx[0], idx[1]);
      s = cl.plan.space_dim == 0 ? q0 : q1;
      t = cl.plan.time_dim == 0 ? q0 : q1;
    } else {
      s = idx[static_cast<size_t>(cl.plan.space_dim)];
      if (cl.plan.time_dim >= 0) {
        t = idx[static_cast<size_t>(cl.plan.time_dim)];
      }
    }
    const int worker = cl.grid.space_splits.PartOf(s);
    part_of.push_back(static_cast<u32>(
        time_parts > 0 ? worker * time_parts + cl.grid.time_splits.PartOf(t) : worker));
  }
  std::vector<std::optional<CellStore>> parts(static_cast<size_t>(
      cl.grid.space_splits.num_parts() * std::max(time_parts, 1)));
  BucketCells(cells, part_of, h.meta.value_dim, &parts);
  SendParts(h.meta.id, &parts, time_parts, PartDataMode::kInstallPart);

  h.on_workers = true;
  h.placement = ArrayPlacement{PartitionScheme::kIterSpace, -1};
  h.grid = cl.grid;
  h.iter_ordered = cl.spec.ordered;
}

namespace {
// Key bounds (inclusive) of partition `part` under `splits` covering
// [0, extent).
std::pair<i64, i64> PartBounds(const RangeSplits& splits, int part, i64 extent) {
  const i64 lo = part == 0 ? 0 : splits.uppers()[static_cast<size_t>(part - 1)] + 1;
  const i64 hi = part == splits.num_parts() - 1 ? extent - 1
                                                : splits.uppers()[static_cast<size_t>(part)];
  return {lo, hi};
}
}  // namespace

void Driver::ScatterArray(const CompiledLoop& cl, DistArrayId id,
                          const ArrayPlacement& placement) {
  ArrayHost& h = Host(id);
  const KeySpace& ks = h.meta.key_space;

  // Dense 1-D arrays partitioned along their only dimension ship as dense
  // key-range blocks: kernels then access them with direct indexing.
  const bool dense_blocks = h.meta.density == Density::kDense && ks.num_dims() == 1 &&
                            placement.array_dim == 0 &&
                            (placement.scheme == PartitionScheme::kRange ||
                             placement.scheme == PartitionScheme::kSpaceTime);

  if (placement.scheme == PartitionScheme::kServer) {
    // Master-hosted; nothing to ship.
    h.on_workers = true;  // placement is active (workers hold caches only)
    h.placement = placement;
    h.grid = cl.grid;
    return;
  }
  if (placement.scheme == PartitionScheme::kReplicated) {
    BroadcastReplicaSnapshot(cl, id);
    h.on_workers = true;
    h.placement = placement;
    h.grid = cl.grid;
    return;
  }

  // Part (worker, tau) is index worker * time_parts + tau (worker for a
  // range placement), as in ScatterIterSpace.
  const int time_parts =
      placement.scheme == PartitionScheme::kSpaceTime ? cl.grid.time_splits.num_parts() : 0;
  auto owner_of = [&](int tau) {
    return cl.UsesWavefront() ? cl.sched_wave.InitialOwner(tau) : cl.sched_rot.InitialOwner(tau);
  };
  std::vector<std::optional<CellStore>> parts(static_cast<size_t>(
      cl.grid.space_splits.num_parts() * std::max(time_parts, 1)));
  if (placement.scheme == PartitionScheme::kSpaceTime) {
    // Pre-create every time partition (the residency protocol requires even
    // empty partitions to circulate).
    for (int tau = 0; tau < time_parts; ++tau) {
      std::optional<CellStore>& part = parts[static_cast<size_t>(owner_of(tau) * time_parts + tau)];
      if (dense_blocks) {
        auto [lo, hi] = PartBounds(cl.grid.time_splits, tau, ks.dim(0));
        part = CellStore::DenseRange(h.meta.value_dim, lo, hi);
      } else {
        part.emplace(h.meta.value_dim, CellStore::Layout::kHashed, 0);
      }
    }
  } else if (dense_blocks) {
    for (int w = 0; w < cl.grid.space_splits.num_parts(); ++w) {
      auto [lo, hi] = PartBounds(cl.grid.space_splits, w, ks.dim(0));
      parts[static_cast<size_t>(w)] = CellStore::DenseRange(h.meta.value_dim, lo, hi);
    }
  }
  std::vector<CellRef> cells;
  std::vector<u32> part_of;
  cells.reserve(static_cast<size_t>(std::max<i64>(h.master.NumCells(), 0)));
  part_of.reserve(cells.capacity());
  h.master.ForEachConstFast([&](i64 key, const f32* v) {
    const i64 coord = ks.Coord(key, placement.array_dim);
    int part;
    if (placement.scheme == PartitionScheme::kRange) {
      part = cl.grid.space_splits.PartOf(coord);
    } else {
      const int tau = cl.grid.time_splits.PartOf(coord);
      part = owner_of(tau) * time_parts + tau;
    }
    cells.push_back({key, v});
    part_of.push_back(static_cast<u32>(part));
  });
  BucketCells(cells, part_of, h.meta.value_dim, &parts);
  SendParts(id, &parts, time_parts,
            placement.scheme == PartitionScheme::kRange ? PartDataMode::kInstallRange
                                                         : PartDataMode::kInstallPart);

  h.on_workers = true;
  h.placement = placement;
  h.grid = cl.grid;
}

void Driver::EnsureScattered(const CompiledLoop& cl) {
  ORION_TRACE_SPAN(kDriver, "scatter");
  {
    ArrayHost& h = Host(cl.spec.iter_space);
    const bool ok = h.on_workers && h.placement.scheme == PartitionScheme::kIterSpace &&
                    GridEquals(h.grid, cl.grid) && h.iter_ordered == cl.spec.ordered;
    if (!ok) {
      GatherToDriver(cl.spec.iter_space);
      ScatterIterSpace(cl);
    }
  }
  for (const auto& [id, placement] : cl.plan.placements) {
    ArrayHost& h = Host(id);
    const bool ok = h.on_workers && h.placement.scheme == placement.scheme &&
                    h.placement.array_dim == placement.array_dim && GridEquals(h.grid, cl.grid);
    if (!ok) {
      GatherToDriver(id);
      ScatterArray(cl, id, placement);
    }
  }
}

// ---------------------------------------------------------------------------
// Pass execution (master service loop)

void Driver::ServeParamRequestInline(const ParamRequest& req, WorkerId from) {
  ArrayHost& h = Host(req.array);
  if (req.speculative) {
    ++last_metrics_.spec_requests_served;
  }
  CpuStopwatch sw;
  Message reply =
      BuildParamReply(req, h.master.Flat(), h.meta.value_dim, fabric_->zero_copy());
  reply.to = from;
  last_metrics_.param_serve_seconds += sw.ElapsedSeconds();
  fabric_->Send(std::move(reply));
}

void Driver::BroadcastReplicaSnapshot(const CompiledLoop& cl, DistArrayId array) {
  ArrayHost& h = Host(array);
  QuiesceServingFor(array);  // the Flat() below collapses a served master
  // Zero-copy: one shared payload serves every worker (receivers copy out of
  // the shared carrier), replacing per-worker copy + encode + decode.
  std::shared_ptr<ZeroCopyPart> shared;
  if (fabric_->zero_copy()) {
    shared = std::make_shared<ZeroCopyPart>();
    shared->pd.array = array;
    shared->pd.part = -1;
    shared->pd.mode = PartDataMode::kReplicaSnapshot;
    shared->pd.cells = h.master.Flat();  // one copy for the whole broadcast
    shared->multi_reader = true;  // receivers copy; concurrent moves would race
  }
  for (int w : live_ranks_) {
    Message m;
    m.from = kMasterRank;
    m.to = w;
    m.kind = MsgKind::kPartitionData;
    if (shared != nullptr) {
      m.zc = shared;
    } else {
      PartData pd;
      pd.array = array;
      pd.part = -1;
      pd.mode = PartDataMode::kReplicaSnapshot;
      pd.cells = h.master.Flat();  // copy
      m.payload = pd.Encode();
    }
    state_transfer_pending_.insert(w);
    fabric_->Send(std::move(m));
  }
}

void Driver::ApplyParamUpdate(const CompiledLoop* cl, PartData pd, u32 tag) {
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
  if (cl != nullptr) {
    auto it = cl->plan.placements.find(pd.array);
    if (it != cl->plan.placements.end() &&
        it->second.scheme == PartitionScheme::kReplicated) {
      // Coalesce: broadcast a refreshed snapshot once per step tag rather
      // than once per worker flush (replicas tolerate bounded staleness).
      auto [tag_it, inserted] = last_replica_bcast_tag_.try_emplace(pd.array, tag);
      if (inserted || tag_it->second != tag) {
        tag_it->second = tag;
        BroadcastReplicaSnapshot(*cl, pd.array);
      }
    }
  }
}

Driver::PassOutcome Driver::ServicePassMessages(const CompiledLoop& cl, i32 pass) {
  const SupervisorConfig& sup = config_.supervisor;
  const int active = ActiveWorkers();
  last_metrics_.worker_reply_wait.assign(static_cast<size_t>(active), WaitHistogram{});
  std::vector<DistArrayId> returned;

  // Async serving from pinned snapshots. 1D chunked loops rely on
  // prompt mid-pass freshness (a round's request, queued behind its flushes
  // on the FIFO master link, must read the just-applied state); the snapshot
  // is pinned here, at dequeue time on this single-threaded service loop, so
  // it already reflects every update dequeued before the request — which
  // makes the async path bit-for-bit identical to inline serving for every
  // loop form.
  const bool async_serving = param_server_ != nullptr;
  if (async_serving) {
    param_server_->ResetPassStats();
  }
  auto logical_of = [&](int physical) {
    return static_cast<int>(std::find(live_ranks_.begin(), live_ranks_.end(), physical) -
                            live_ranks_.begin());
  };
  auto abort_pass = [&](int lost) {
    // Gather tasks may still hold pointers into ArrayHost state the recovery
    // path is about to overwrite; drain them before unwinding.
    if (async_serving) {
      param_server_->Quiesce();
    }
    return PassOutcome{false, lost};
  };

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
  std::map<int, RankSupervision> ranks;
  Stopwatch clock;
  for (int w : live_ranks_) {
    ranks[w] = RankSupervision{.next_ping = sup.heartbeat_interval_seconds,
                               .next_retry = sup.retry_initial_seconds,
                               .retry_delay = sup.retry_initial_seconds};
  }
  // Barrier bookkeeping per step tag: which live ranks arrived, and whether
  // the release went out. A worker whose arrival (or release) was lost
  // resends; arrivals after the release get an individual re-release.
  std::map<u32, std::set<int>> barrier_arrived;
  std::map<u32, bool> barrier_released;
  // Straggler-detector rounds: first-arrival clock per rank per barrier tag
  // (fed at release time), and per-rank compute seconds (fed at pass end).
  std::map<u32, std::vector<std::pair<int, double>>> barrier_arrival_times;
  std::vector<std::pair<int, double>> pass_compute;
  auto observe_round = [&](const std::vector<std::pair<int, double>>& round) {
    straggler_.ObserveRound(round);
    for (int r : straggler_.TakeNewlyFlagged()) {
      ORION_LOG(kWarning) << "straggler detected: rank " << r << " lag_ewma="
                          << straggler_.LagEwma(r) * 1e3 << "ms (pass " << pass << ")";
      fr::Record(fr::EventKind::kStraggler, r, pass);
    }
  };
  u32 hb_seq = 0;
  int num_done = 0;
  const double poll = std::min(0.01, sup.heartbeat_interval_seconds / 4.0);

  // Per-step dirty-range summaries of the kOverwrite flushes applied this
  // pass, keyed by the flush tag (= the global step). Complete at release
  // time by construction: a worker's flushes precede its barrier arrival on
  // the same FIFO link, and the release waits for every arrival. Piggybacked
  // on the release so speculative fetches that crossed this barrier can be
  // validated; only maintained while the pass speculates.
  std::map<u32, StepDirtySummary> step_dirty;

  auto send_release = [&](u32 tag, int to, bool reliable) {
    Message go;
    go.from = kMasterRank;
    go.to = to;
    go.kind = MsgKind::kBarrier;
    go.tag = tag;
    BarrierMsg release;
    release.pass = pass;
    release.release = true;
    if (pass_spec_depth_ > 0) {
      // Attach even when empty: "present and empty" proves nothing changed,
      // where absence would force the validator to assume everything did.
      release.has_dirty = true;
      auto it = step_dirty.find(tag);
      if (it != step_dirty.end()) {
        release.dirty = it->second;
      }
    }
    go.payload = release.Encode();
    if (reliable) {
      fabric_->SendReliable(std::move(go));
    } else {
      fabric_->Send(std::move(go));
    }
  };

  while (num_done < active) {
    std::optional<Message> msg;
    if (sup.enabled) {
      msg = fabric_->RecvWithTimeout(kMasterRank, poll);
      const double now = clock.ElapsedSeconds();
      for (int w : live_ranks_) {
        RankSupervision& rs = ranks[w];
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
          return abort_pass(w);
        }
        if (!rs.started && now >= rs.next_retry) {
          if (rs.retries >= sup.max_retries) {
            return abort_pass(w);
          }
          ++rs.retries;
          ++runtime_metrics_.retransmits;
          fr::Record(fr::EventKind::kRetransmit, w, pass);
          fabric_->SendReliable(StartPassMessage(w, cl.loop_id, pass, pass_spec_depth_));
          rs.retry_delay *= sup.retry_backoff_factor;
          rs.next_retry = now + rs.retry_delay;
        }
        if (now >= rs.next_ping) {
          ++runtime_metrics_.heartbeats_sent;
          Message m;
          m.from = kMasterRank;
          m.to = w;
          m.kind = MsgKind::kControl;
          m.payload = Heartbeat{/*is_reply=*/false, ++hb_seq}.Encode();
          fabric_->SendReliable(std::move(m));
          rs.next_ping = now + sup.heartbeat_interval_seconds;
        }
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
    RankSupervision& sender = ranks[msg->from];
    sender.last_heard = clock.ElapsedSeconds();
    state_transfer_pending_.erase(msg->from);  // it spoke: installs are done

    switch (msg->kind) {
      case MsgKind::kParamRequest: {
        sender.started = true;
        ParamRequest req = TakeParamRequest(*msg);
        if (async_serving) {
          ArrayHost& h = Host(req.array);
          // Paginate lazily on the first request ever served for this array;
          // pages then persist across passes (mutations between requests go
          // through the copy-on-write writer path).
          if (!h.master.paged()) {
            h.master.BeginServing();
          }
          param_server_->HandleRequestSnapshot(std::move(req), msg->from, h.master.Pin(),
                                               h.meta.value_dim);
        } else {
          ServeParamRequestInline(req, msg->from);
        }
        break;
      }
      case MsgKind::kParamUpdate: {
        sender.started = true;
        PartData pd = TakePart(*msg);
        if (pass_spec_depth_ > 0 && pd.mode == PartDataMode::kOverwrite) {
          // Record what this step's flush overwrites before the update is
          // consumed; the summary rides on the step's barrier release.
          std::vector<i64> keys;
          keys.reserve(pd.cells.NumCells());
          pd.cells.ForEachConstFast([&](i64 key, const f32*) { keys.push_back(key); });
          step_dirty[msg->tag].AddKeys(pd.array, std::move(keys));
        }
        auto pit = cl.plan.placements.find(pd.array);
        const bool server_buffered =
            cl.Is2D() && pd.mode == PartDataMode::kApplyBufferUdf &&
            pit != cl.plan.placements.end() &&
            pit->second.scheme == PartitionScheme::kServer;
        if (server_buffered) {
          deferred_server.emplace_back(msg->from, std::move(pd));
        } else {
          // The writer clones only the pages it touches, so in-flight
          // snapshot gathers keep reading their pinned version.
          ApplyParamUpdate(&cl, std::move(pd), msg->tag);
        }
        break;
      }
      case MsgKind::kPartitionData: {
        // Wavefront loops: the last worker in the ring returns rotated
        // partitions to the master.
        sender.started = true;
        PartData pd = TakePart(*msg);
        ArrayHost& h = Host(pd.array);
        pd.cells.ForEachConstFast([&](i64 key, const f32* v) {
          simd::CopyF32(h.master.GetOrCreate(key), v,
                        static_cast<size_t>(h.meta.value_dim));
        });
        returned.push_back(pd.array);
        break;
      }
      case MsgKind::kBarrier: {
        BarrierMsg b = BarrierMsg::Decode(msg->payload);
        // Piggybacked partial trace drain (rings >75% full mid-pass). Merge
        // before the staleness check — spans from an abandoned attempt are
        // still real history — deduped by the per-worker batch id so
        // supervision resends of the same arrival append exactly once.
        if (!b.release && !b.spans.empty() && b.span_seq > worker_span_seq_[msg->from]) {
          worker_span_seq_[msg->from] = b.span_seq;
          cluster_trace_.insert(cluster_trace_.end(),
                                std::make_move_iterator(b.spans.begin()),
                                std::make_move_iterator(b.spans.end()));
        }
        if (b.pass != pass || b.release) {
          break;  // stale arrival from an earlier attempt
        }
        sender.started = true;
        auto& arrived = barrier_arrived[msg->tag];
        bool& released = barrier_released[msg->tag];
        if (arrived.insert(msg->from).second) {
          barrier_arrival_times[msg->tag].emplace_back(msg->from, sender.last_heard);
          rank_live_[static_cast<size_t>(msg->from)]->step.store(
              static_cast<i64>(msg->tag), std::memory_order_relaxed);
        }
        if (released) {
          // This worker's release was lost (or its arrival was duplicated);
          // re-release individually.
          send_release(msg->tag, msg->from, /*reliable=*/true);
        } else if (static_cast<int>(arrived.size()) == active) {
          released = true;
          // All arrivals for this step are in: one straggler-detector round.
          observe_round(barrier_arrival_times[msg->tag]);
          for (int w : live_ranks_) {
            send_release(msg->tag, w, /*reliable=*/false);
          }
        }
        break;
      }
      case MsgKind::kControl: {
        const ControlOp op = PeekControlOp(msg->payload);
        if (op == ControlOp::kHeartbeat) {
          const Heartbeat hb = Heartbeat::Decode(msg->payload);
          if (hb.is_reply) {
            // Pong watermarks feed the monitor's per-rank liveness gauges.
            RankLive& rl = *rank_live_[static_cast<size_t>(msg->from)];
            RaiseWatermark(&rl.started, hb.last_started_pass);
            RaiseWatermark(&rl.completed, hb.last_completed_pass);
          }
          if (hb.is_reply && hb.last_started_pass >= pass) {
            sender.started = true;
          }
          if (hb.is_reply && hb.last_completed_pass >= pass && !sender.done) {
            // The worker finished the pass but its kPassDone was lost in
            // flight; a retransmitted kStartPass makes it resend the cached
            // report.
            ++runtime_metrics_.retransmits;
            fr::Record(fr::EventKind::kRetransmit, msg->from, pass);
            fabric_->SendReliable(
                StartPassMessage(msg->from, cl.loop_id, pass, pass_spec_depth_));
          }
          break;
        }
        if (op != ControlOp::kPassDone) {
          break;  // stray control traffic (e.g. a late retire ack)
        }
        PassDone report = PassDone::Decode(msg->payload);
        if (report.pass != pass || sender.done) {
          break;  // duplicate or stale PassDone
        }
        worker_accum[msg->from] = std::move(report.accumulators);
        // Piggybacked tracer spans. The `done` dedupe above already ran, so
        // an injector-duplicated PassDone never appends twice.
        cluster_trace_.insert(cluster_trace_.end(),
                              std::make_move_iterator(report.spans.begin()),
                              std::make_move_iterator(report.spans.end()));
        last_metrics_.Fold(report.metrics);
        const size_t slot = static_cast<size_t>(logical_of(msg->from));
        if (slot < last_metrics_.worker_reply_wait.size()) {
          last_metrics_.worker_reply_wait[slot] = report.metrics.reply_wait;
        }
        sender.started = true;
        sender.done = true;
        ++num_done;
        pass_compute.emplace_back(msg->from, report.metrics.compute_seconds);
        {
          RankLive& rl = *rank_live_[static_cast<size_t>(msg->from)];
          RaiseWatermark(&rl.started, pass);
          RaiseWatermark(&rl.completed, pass);
        }
        break;
      }
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
  if (async_serving) {
    param_server_->Quiesce();
    last_metrics_.param_serve_seconds += param_server_->serve_seconds();
    last_metrics_.param_shard_queue_depth_max = param_server_->max_queue_depth();
    last_metrics_.spec_requests_served += param_server_->speculative_served();
  }

  // Pass-end application of the deferred server updates, in logical-rank
  // order. stable_sort keeps each worker's own flushes in send (FIFO) order.
  {
    ORION_TRACE_SPAN(kDriver, "deferred_applies");
    std::stable_sort(deferred_server.begin(), deferred_server.end(),
                     [&](const auto& a, const auto& b) {
                       return logical_of(a.first) < logical_of(b.first);
                     });
    for (auto& [from, pd] : deferred_server) {
      ApplyParamUpdate(&cl, std::move(pd), 0);
    }
  }

  // Fold accumulators in logical-rank order (arrival-independent f64 sums).
  for (int w : live_ranks_) {
    auto it = worker_accum.find(w);
    if (it == worker_accum.end()) {
      continue;
    }
    const auto& acc = it->second;
    for (size_t i = 0; i < acc.size() && i < accumulators_.size(); ++i) {
      accumulators_[i] = AccumCombine(accumulator_ops_[i], accumulators_[i], acc[i]);
    }
  }

  // Rotated arrays that returned to the master need a re-scatter next pass.
  for (DistArrayId id : returned) {
    Host(id).on_workers = false;
  }

  // Copy-on-write accounting for this pass (pins taken, pages cloned by
  // mid-pass writers, bytes copied for those clones).
  if (async_serving) {
    for (const auto& [id, placement] : cl.plan.placements) {
      if (placement.scheme != PartitionScheme::kServer) {
        continue;
      }
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
  observe_round(pass_compute);
  return {true, -1};
}

Status Driver::EnableDurability(std::vector<DistArrayId> arrays, std::string directory,
                                DurabilityOptions options) {
  auto writer =
      DeltaLogWriter::Open(std::move(directory), DeltaLogOptions{options.compact_every});
  if (!writer.ok()) {
    return writer.status();
  }
  recover_arrays_ = std::move(arrays);
  durability_options_ = options;
  delta_writer_ = std::move(writer).value();
  baseline_ckpt_done_ = false;
  return Status::Ok();
}

MasterRecord Driver::BuildMasterRecord() const {
  MasterRecord m;
  m.next_pass = pass_counter_;
  m.config_seed = config_.seed;
  m.fault_seed = config_.fault_plan.seed;
  m.num_workers = config_.num_workers;
  m.live_ranks.assign(live_ranks_.begin(), live_ranks_.end());
  for (const auto& [id, loop] : loops_) {
    (void)loop;
    m.loop_ids.push_back(id);
  }
  m.accumulators = accumulators_;
  return m;
}

std::vector<ArrayCheckpointRef> Driver::DurableArrayRefs() {
  std::vector<ArrayCheckpointRef> refs;
  refs.reserve(recover_arrays_.size());
  for (DistArrayId id : recover_arrays_) {
    ArrayHost& h = Host(id);
    if (h.on_workers && h.placement.scheme != PartitionScheme::kServer &&
        h.placement.scheme != PartitionScheme::kReplicated) {
      // Worker-partitioned cells must round-trip home first. Server-hosted
      // and replicated arrays keep their master authoritative between
      // passes, so they are checkpointed in place — pagination (and with it
      // the dirty-page tracking that makes deltas small) stays intact.
      GatherToDriver(id);
    }
    refs.push_back({h.meta.name, &h.master});
  }
  return refs;
}

Status Driver::WriteRecoveryCheckpoint() {
  ORION_TRACE_SPAN(kDriver, "checkpoint");
  Stopwatch sw;
  auto stats = delta_writer_->AppendCheckpoint(BuildMasterRecord(), DurableArrayRefs());
  if (!stats.ok()) {
    return stats.status();
  }
  runtime_metrics_.log_bytes_appended += stats->bytes_appended;
  runtime_metrics_.pages_deltad += stats->pages_deltad;
  if (stats->compacted) {
    ++runtime_metrics_.compactions;
  }
  if (!stats->wrote_base) {
    ++runtime_metrics_.delta_checkpoints;
  }
  pass_log_.clear();
  baseline_ckpt_done_ = true;
  ++runtime_metrics_.checkpoints_written;
  runtime_metrics_.checkpoint_seconds += sw.ElapsedSeconds();
  fr::Record(fr::EventKind::kCheckpoint, -1, pass_counter_,
             static_cast<i64>(runtime_metrics_.checkpoints_written));
  return Status::Ok();
}

Status Driver::InstallLogState(DeltaLogReader::State state, bool restore_pass_counter) {
  QuiesceServingAll();  // masters are replaced wholesale below
  for (auto& [id, host] : arrays_) {
    (void)id;
    host->on_workers = false;
  }
  last_replica_bcast_tag_.clear();
  for (DistArrayId id : recover_arrays_) {
    ArrayHost& h = Host(id);
    auto it = state.arrays.find(h.meta.name);
    if (it == state.arrays.end()) {
      return Status::InvalidArgument("log state has no array named " + h.meta.name);
    }
    ORION_RETURN_IF_ERROR(CheckCellsFit(h.meta, it->second));
    h.master = std::move(it->second);
  }
  if (state.master.accumulators.size() != accumulators_.size()) {
    return Status::InvalidArgument(
        "log state has " + std::to_string(state.master.accumulators.size()) +
        " accumulators, driver has " + std::to_string(accumulators_.size()));
  }
  accumulators_ = state.master.accumulators;
  if (restore_pass_counter) {
    pass_counter_ = static_cast<int>(state.master.next_pass);
  }
  pass_log_.clear();
  fr::Record(fr::EventKind::kRestore, -1, pass_counter_);
  return Status::Ok();
}

Status Driver::BroadcastReconfigure() {
  for (i32 phase = 0; phase < 2; ++phase) {
    for (size_t logical = 0; logical < live_ranks_.size(); ++logical) {
      Retire r;
      r.op = ControlOp::kRejoin;
      r.phase = phase;
      r.is_ack = false;
      r.logical_rank = static_cast<i32>(logical);
      r.ring.assign(live_ranks_.begin(), live_ranks_.end());
      Message m;
      m.from = kMasterRank;
      m.to = live_ranks_[logical];
      m.kind = MsgKind::kControl;
      m.payload = r.Encode();
      fabric_->SendReliable(std::move(m));
    }
    std::set<int> acked;
    while (static_cast<int>(acked.size()) < ActiveWorkers()) {
      auto msg = fabric_->Recv(kMasterRank);
      if (!msg.has_value()) {
        return Status::Internal("fabric shut down during reconfiguration");
      }
      // Drain everything else, including late retire acks — a rejoin ack
      // echoes kRejoin, so stale retire traffic can never satisfy this
      // collection.
      if (msg->kind != MsgKind::kControl || !IsLive(msg->from) ||
          PeekControlOp(msg->payload) != ControlOp::kRejoin) {
        continue;
      }
      const Retire ack = Retire::Decode(msg->payload);
      if (ack.is_ack && ack.phase == phase) {
        acked.insert(msg->from);
      }
    }
  }
  return Status::Ok();
}

Status Driver::RejoinWorker(int rank, bool saw_phase0_ack) {
  if (!saw_phase0_ack) {
    // No sign of life from the best-effort retire: the rank's executor
    // thread almost certainly halted (injected crash). Shut it down
    // definitively — if it is actually alive, the shutdown makes it exit —
    // join the old thread, flush its inbox, and start a fresh executor. A
    // fresh executor is indistinguishable from a rebooted worker process.
    Message m;
    m.from = kMasterRank;
    m.to = rank;
    m.kind = MsgKind::kShutdown;
    fabric_->SendReliable(std::move(m));
    std::thread& th = threads_[static_cast<size_t>(rank)];
    if (th.joinable()) {
      th.join();
    }
    while (fabric_->TryRecv(rank).has_value()) {
      // Stale messages from its previous life; the new executor must not
      // replay them.
    }
    executors_[static_cast<size_t>(rank)] =
        std::make_unique<Executor>(rank, fabric_.get(), &dir_);
    executors_[static_cast<size_t>(rank)]->set_ring_fill_gauge(
        ring_fill_gauges_[static_cast<size_t>(rank)].get());
    threads_[static_cast<size_t>(rank)] =
        std::thread([ex = executors_[static_cast<size_t>(rank)].get()] { ex->Run(); });
  }
  live_ranks_.push_back(rank);
  std::sort(live_ranks_.begin(), live_ranks_.end());
  fr::Record(fr::EventKind::kRejoin, rank, pass_counter_ - 1);
  fr::SetLiveRanks(live_ranks_.data(), static_cast<int>(live_ranks_.size()));
  // A fresh executor restarts its span-batch counter at 0; forget the
  // pre-crash high-water mark or the rejoined worker's piggybacked trace
  // batches would be dropped as duplicates until it caught up. (Safe when
  // the executor actually survived, too: its counter only ever grows.)
  worker_span_seq_[rank] = 0;
  ++runtime_metrics_.worker_rejoins;
  // All members — survivors and the re-entrant — adopt the full-N ring and
  // drop local state; the next pass's scatter streams the restored cells.
  return BroadcastReconfigure();
}

Status Driver::Recover(int lost_physical_rank) {
  ORION_TRACE_SPAN(kDriver, "recovery");
  Stopwatch sw;
  ++runtime_metrics_.workers_lost;
  ++runtime_metrics_.recoveries;
  if (param_server_ != nullptr) {
    // The aborted pass already quiesced, but be defensive: the restore below
    // rewrites master stores that in-flight gathers would read.
    param_server_->Quiesce();
  }
  if (injector_ != nullptr) {
    // Anything the injector still holds back predates the failure and must
    // not leak into the new configuration.
    injector_->ClearHoldbacks();
  }
  live_ranks_.erase(std::remove(live_ranks_.begin(), live_ranks_.end(), lost_physical_rank),
                    live_ranks_.end());
  fr::Record(fr::EventKind::kRetire, lost_physical_rank, pass_counter_ - 1);
  fr::SetLiveRanks(live_ranks_.data(), static_cast<int>(live_ranks_.size()));
  if (live_ranks_.empty()) {
    return Status::Internal("all workers lost; cannot recover");
  }

  // Two-phase retire. Phase 0: every survivor adopts the new logical rank /
  // ring and unwinds its in-flight pass; because links are FIFO, once a
  // survivor's ack is in, no pre-failure message from it is still queued.
  // Phase 1 (sent only after all phase-0 acks): survivors drop all DistArray
  // state and caches so the master can re-scatter from the checkpoint.
  bool lost_acked = false;
  for (i32 phase = 0; phase < 2; ++phase) {
    for (size_t logical = 0; logical < live_ranks_.size(); ++logical) {
      Retire r;
      r.phase = phase;
      r.is_ack = false;
      r.logical_rank = static_cast<i32>(logical);
      r.ring.assign(live_ranks_.begin(), live_ranks_.end());
      Message m;
      m.from = kMasterRank;
      m.to = live_ranks_[logical];
      m.kind = MsgKind::kControl;
      m.payload = r.Encode();
      fabric_->SendReliable(std::move(m));
    }
    if (phase == 0) {
      // Best-effort retire of the lost rank too: if it was a false-positive
      // death (still running), this unwinds it and stops it interfering.
      Retire r;
      r.phase = 0;
      r.is_ack = false;
      r.logical_rank = -2;  // not a ring member
      r.ring.assign(live_ranks_.begin(), live_ranks_.end());
      Message m;
      m.from = kMasterRank;
      m.to = lost_physical_rank;
      m.kind = MsgKind::kControl;
      m.payload = r.Encode();
      fabric_->SendReliable(std::move(m));
    }
    std::set<int> acked;
    while (static_cast<int>(acked.size()) < ActiveWorkers()) {
      auto msg = fabric_->Recv(kMasterRank);
      if (!msg.has_value()) {
        return Status::Internal("fabric shut down during recovery");
      }
      // An ack from the lost rank itself means it is alive (the death was a
      // false positive) — the rejoin path can skip the executor restart.
      if (msg->kind == MsgKind::kControl && msg->from == lost_physical_rank &&
          PeekControlOp(msg->payload) == ControlOp::kRetire) {
        const Retire ack = Retire::Decode(msg->payload);
        if (ack.is_ack && ack.phase == 0) {
          lost_acked = true;
        }
        continue;
      }
      // Drain everything else: in-flight pass traffic, duplicated control
      // messages, other traffic from the retired rank.
      if (msg->kind != MsgKind::kControl || !IsLive(msg->from) ||
          PeekControlOp(msg->payload) != ControlOp::kRetire) {
        continue;
      }
      const Retire ack = Retire::Decode(msg->payload);
      if (ack.is_ack && ack.phase == phase) {
        acked.insert(msg->from);
      }
    }
  }

  // Worker-resident placements are gone; the master copies (about to be
  // overwritten from the checkpoint) are authoritative again.
  for (auto& [id, host] : arrays_) {
    host->on_workers = false;
  }
  last_replica_bcast_tag_.clear();

  // Capture the replay list before the restore machinery clears it.
  auto log = std::move(pass_log_);
  pass_log_.clear();

  // Restore from the delta log: base image plus the delta tail.
  Stopwatch restore_sw;
  auto reader = DeltaLogReader::Open(delta_writer_->dir());
  if (!reader.ok()) {
    return reader.status();
  }
  auto state = reader->Latest();
  if (!state.ok()) {
    return state.status();
  }
  ORION_RETURN_IF_ERROR(InstallLogState(std::move(state).value(),
                                        /*restore_pass_counter=*/false));
  runtime_metrics_.restore_seconds += restore_sw.ElapsedSeconds();
  if (durability_options_.rejoin_crashed_workers) {
    ORION_RETURN_IF_ERROR(RejoinWorker(lost_physical_rank, lost_acked));
    // The rejoined rank receives its state with the next scatter; give it
    // grace until it first speaks.
    state_transfer_pending_.insert(lost_physical_rank);
  }

  ORION_RETURN_IF_ERROR(RecompileLoops());

  // Replay the passes committed since the restored checkpoint, in order.
  // Terminates: crashes are one-shot, so nested recoveries are bounded by
  // the number of scheduled crash points.
  runtime_metrics_.passes_replayed += log.size();
  for (const auto& [loop_id, pass] : log) {
    (void)pass;
    ORION_RETURN_IF_ERROR(Execute(loop_id));
  }
  runtime_metrics_.recovery_seconds += sw.ElapsedSeconds();
  return Status::Ok();
}

StatusOr<i64> Driver::ResumeFromLog() {
  if (delta_writer_ == nullptr) {
    return Status::FailedPrecondition("ResumeFromLog requires EnableDurability");
  }
  Stopwatch sw;
  auto reader = DeltaLogReader::Open(delta_writer_->dir());
  if (!reader.ok()) {
    return reader.status();
  }
  auto state = reader->Latest();
  if (!state.ok()) {
    return state.status();
  }
  const MasterRecord& m = state->master;
  if (m.config_seed != config_.seed ||
      m.num_workers != static_cast<i32>(config_.num_workers)) {
    return Status::InvalidArgument(
        "log was written by a different configuration (seed or worker count)");
  }
  const i64 resumed = m.next_pass;
  ORION_RETURN_IF_ERROR(InstallLogState(std::move(state).value(),
                                        /*restore_pass_counter=*/true));
  // The log already holds a restorable image of this state; don't force a
  // fresh baseline before the next delta append.
  baseline_ckpt_done_ = true;
  if (!loops_.empty()) {
    ORION_RETURN_IF_ERROR(RecompileLoops());
  }
  runtime_metrics_.restore_seconds += sw.ElapsedSeconds();
  return resumed;
}

Status Driver::RestoreToPass(i64 pass) {
  if (delta_writer_ == nullptr) {
    return Status::FailedPrecondition("RestoreToPass requires EnableDurability");
  }
  Stopwatch sw;
  auto reader = DeltaLogReader::Open(delta_writer_->dir());
  if (!reader.ok()) {
    return reader.status();
  }
  auto state = reader->StateAtPass(pass);
  if (!state.ok()) {
    return state.status();
  }
  if (param_server_ != nullptr) {
    param_server_->Quiesce();
  }
  // Rewinding the pass counter means re-issuing pass numbers the workers
  // have already seen; reconfigure resets their watermarks and drops their
  // partitions so the next scatter streams the restored cells.
  ORION_RETURN_IF_ERROR(BroadcastReconfigure());
  ORION_RETURN_IF_ERROR(InstallLogState(std::move(state).value(),
                                        /*restore_pass_counter=*/true));
  if (!loops_.empty()) {
    ORION_RETURN_IF_ERROR(RecompileLoops());
  }
  runtime_metrics_.restore_seconds += sw.ElapsedSeconds();
  return Status::Ok();
}

StatusOr<std::vector<RestorePoint>> Driver::DurabilityPoints() const {
  if (delta_writer_ == nullptr) {
    return Status::FailedPrecondition("DurabilityPoints requires EnableDurability");
  }
  auto reader = DeltaLogReader::Open(delta_writer_->dir());
  if (!reader.ok()) {
    return reader.status();
  }
  return reader->points();
}

const std::vector<trace::Span>& Driver::CollectTrace() {
  // Scoop up everything not yet shipped: the master's own threads (driver,
  // ParamServer pool, sender lanes) and any worker spans left in their rings
  // (e.g. recorded after the last PassDone or at halt). Draining removes
  // spans from the rings, so repeated collection never duplicates.
  std::vector<trace::Span> rest = trace::DrainAll();
  cluster_trace_.insert(cluster_trace_.end(), std::make_move_iterator(rest.begin()),
                        std::make_move_iterator(rest.end()));
  return cluster_trace_;
}

Status Driver::DumpTrace(const std::string& path) {
  return trace::WriteChromeTrace(path, CollectTrace());
}

std::string Driver::CriticalPathReport() {
  std::string out =
      trace::FormatCriticalPathTable(trace::AnalyzeCriticalPath(CollectTrace()));
  out += straggler_.Verdict();
  out += "\n";
  return out;
}

Status Driver::EnableMonitor(double period_seconds) {
  if (monitor_ != nullptr) {
    return monitor_->running() ? Status::Ok() : monitor_->Start();
  }
  obs::Monitor::Options opt;
  opt.period_seconds = period_seconds;
  monitor_ = std::make_unique<obs::Monitor>(opt);
  RegisterMonitorProbes();
  PublishObsSnapshot();
  return monitor_->Start();
}

void Driver::StopMonitor() {
  if (monitor_ != nullptr) {
    monitor_->Stop();
  }
}

StatusOr<int> Driver::StartMetricsEndpoint(int port) {
  ORION_RETURN_IF_ERROR(EnableMonitor());
  if (endpoint_ != nullptr && endpoint_->port() > 0) {
    return endpoint_->port();
  }
  endpoint_ = std::make_unique<obs::MetricsEndpoint>(monitor_.get());
  return endpoint_->Start(port);
}

void Driver::StopMetricsEndpoint() {
  if (endpoint_ != nullptr) {
    endpoint_->Stop();
  }
}

Status Driver::DumpBlackBox(const std::string& path) {
  return fr::DumpToFile(path, "explicit");
}

void Driver::RegisterMonitorProbes() {
  // Every closure below reads an atomic or takes a short uncontended mutex,
  // and captures only objects whose addresses outlive the monitor: fabric_,
  // param_server_, the stable gauge/watermark arrays, and ArrayHost masters
  // (arrays_ holds them by unique_ptr). Never an Executor — rejoin replaces
  // those.
  Fabric* fabric = fabric_.get();
  monitor_->RegisterProbe("fabric.inbox.master", [fabric] {
    return static_cast<double>(fabric->InboxDepth(kMasterRank));
  });
  for (int w = 0; w < config_.num_workers; ++w) {
    const std::string suffix = ".w" + std::to_string(w);
    monitor_->RegisterProbe("fabric.inbox" + suffix, [fabric, w] {
      return static_cast<double>(fabric->InboxDepth(w));
    });
    std::atomic<int>* ring = ring_fill_gauges_[static_cast<size_t>(w)].get();
    monitor_->RegisterProbe("prefetch.ring_fill" + suffix, [ring] {
      return static_cast<double>(ring->load(std::memory_order_relaxed));
    });
    RankLive* rl = rank_live_[static_cast<size_t>(w)].get();
    monitor_->RegisterProbe("rank" + suffix + ".started", [rl] {
      return static_cast<double>(rl->started.load(std::memory_order_relaxed));
    });
    monitor_->RegisterProbe("rank" + suffix + ".completed", [rl] {
      return static_cast<double>(rl->completed.load(std::memory_order_relaxed));
    });
    monitor_->RegisterProbe("rank" + suffix + ".step", [rl] {
      return static_cast<double>(rl->step.load(std::memory_order_relaxed));
    });
  }
  if (param_server_ != nullptr) {
    ParamServer* ps = param_server_.get();
    monitor_->RegisterProbe("param.in_flight",
                            [ps] { return static_cast<double>(ps->in_flight()); });
    monitor_->RegisterProbe("param.reply_queue", [ps] {
      return static_cast<double>(ps->reply_queue_depth());
    });
  }
  // Pinned-snapshot counts for arrays that exist now; arrays created after
  // EnableMonitor are not probed (probes are fixed at Start).
  for (const auto& [id, host] : arrays_) {
    (void)id;
    const VersionedCellStore* master = &host->master;
    monitor_->RegisterProbe("versioned.pins." + host->meta.name, [master] {
      return static_cast<double>(master->live_pins());
    });
  }
  monitor_->RegisterProbe("bufferpool.pooled_bytes", [] {
    return static_cast<double>(BufferPool::AggregateStats().pooled_bytes_high_water);
  });
  // Serving-tier admission gauges. The tier may start/stop after the
  // monitor, so the probes go through an atomic pointer that is null while
  // no tier serves (stopped tiers retire without freeing, so a stale load
  // still dereferences a live object).
  std::atomic<serve::ServingTier*>* tier = &serving_tier_live_;
  monitor_->RegisterProbe("serve.queue_depth", [tier] {
    serve::ServingTier* t = tier->load(std::memory_order_acquire);
    return t != nullptr ? static_cast<double>(t->queue_depth()) : 0.0;
  });
  monitor_->RegisterProbe("serve.inflight_bytes", [tier] {
    serve::ServingTier* t = tier->load(std::memory_order_acquire);
    return t != nullptr ? static_cast<double>(t->inflight_bytes()) : 0.0;
  });
}

void Driver::PublishObsSnapshot() {
  if (monitor_ == nullptr) {
    return;
  }
  monitor_->PublishRegistry(std::make_shared<const MetricsRegistry>(ExportMetrics()));
}

// ---------------------------------------------------------------------------
// Online snapshot-serving tier

StatusOr<serve::ServingTier*> Driver::StartServingTier(std::vector<DistArrayId> arrays,
                                                       serve::ServingTierOptions options) {
  if (!config_.async_param_serving) {
    return Status::FailedPrecondition(
        "serving tier requires async_param_serving (snapshot pins)");
  }
  if (serving_tier_ != nullptr) {
    return Status::FailedPrecondition("serving tier already started");
  }
  if (arrays.empty()) {
    return Status::InvalidArgument("no arrays to serve");
  }
  std::vector<serve::ServingTier::ArraySpec> specs;
  specs.reserve(arrays.size());
  for (DistArrayId id : arrays) {
    const ArrayHost& h = Host(id);  // CHECKs the id exists
    specs.push_back({id, h.meta.name, h.meta.value_dim});
  }
  serve_arrays_ = std::move(arrays);
  serving_tier_ = std::make_unique<serve::ServingTier>(std::move(specs), options);
  serve_last_keys_ = 0;
  serve_qps_mark_ = std::chrono::steady_clock::now();
  // First versions go live immediately; the one-pass staleness bound starts
  // counting from here.
  PublishServingVersions();
  serving_tier_live_.store(serving_tier_.get(), std::memory_order_release);
  return serving_tier_.get();
}

void Driver::StopServingTier() {
  if (serving_tier_ == nullptr) {
    return;
  }
  serving_tier_live_.store(nullptr, std::memory_order_release);
  serving_tier_->Stop();
  // Keep the stopped tier alive until the Driver dies: monitor probes or
  // clients may still hold the raw pointer, and a stopped tier answers them
  // harmlessly (kShutdown / zero gauges).
  retired_tiers_.push_back(std::move(serving_tier_));
  serve_arrays_.clear();
  serve_dirty_pages_.clear();
}

void Driver::PublishServingVersions() {
  if (serving_tier_ == nullptr) {
    return;
  }
  ++serve_publish_round_;
  for (DistArrayId id : serve_arrays_) {
    ArrayHost& h = Host(id);
    // Publish only when the master copy is authoritative at this boundary.
    // Server-hosted and replicated arrays always are (writes flow through
    // the master); rotated (kSpaceTime) arrays are whenever their partitions
    // came home at the boundary (wavefront loops return them every pass;
    // unordered rotation keeps them worker-resident). Space-partitioned
    // kRange arrays never rotate home, so they are skipped until something
    // else gathers them. A skipped array keeps serving its previous
    // published version (or none) — still a consistent snapshot, just
    // older. Never gather here: pulling partitions off workers at publish
    // time would change fabric traffic and break the bit-for-bit
    // serving-on/off identity.
    if (h.on_workers && h.placement.scheme != PartitionScheme::kServer &&
        h.placement.scheme != PartitionScheme::kReplicated) {
      continue;
    }
    if (!h.master.paged()) {
      h.master.BeginServing();
    }
    VersionedCellStore::Published pub = h.master.PublishVersion();
    const double dirty = static_cast<double>(pub.dirty_pages.size());
    serve_dirty_pages_[h.meta.name] = dirty;
    metrics_series_["versioned.dirty_pages." + h.meta.name].push_back(dirty);
    serving_tier_->Publish(id, std::move(pub.snap), serve_publish_round_);
  }
  // Interval QPS across the window since the previous publish, from the
  // tier's cumulative key counter.
  const auto now = std::chrono::steady_clock::now();
  const serve::ServingStats ss = serving_tier_->StatsSnapshot();
  const double dt = std::chrono::duration<double>(now - serve_qps_mark_).count();
  if (dt > 0.0) {
    serve_last_qps_ =
        static_cast<double>(ss.keys_looked_up - serve_last_keys_) / dt;
  }
  serve_last_keys_ = ss.keys_looked_up;
  serve_qps_mark_ = now;
  metrics_series_["serve.qps"].push_back(serve_last_qps_);
  const WaitHistogram lat = serving_tier_->LatencySnapshot();
  metrics_series_["serve.p99_seconds"].push_back(lat.ApproxPercentile(0.99));
}

void Driver::QuiesceServingFor(DistArrayId id) {
  if (serving_tier_ == nullptr) {
    return;
  }
  serving_tier_->QuiesceForCollapse(id);
}

void Driver::QuiesceServingAll() {
  if (serving_tier_ == nullptr) {
    return;
  }
  for (DistArrayId id : serve_arrays_) {
    serving_tier_->QuiesceForCollapse(id);
  }
}

MetricsRegistry Driver::ExportMetrics() const {
  MetricsRegistry reg;
  const LoopMetrics& lm = last_metrics_;
  lm.ExportTo(&reg);
  reg.SetGauge("spec.enabled", lm.spec_depth_effective > 0 ? 1.0 : 0.0);
  WaitHistogram& reply_wait = reg.Histogram("pass.reply_wait");
  for (const WaitHistogram& h : lm.worker_reply_wait) {
    reply_wait.Merge(h);
  }

  const FabricStats fs = fabric_->Stats();
  reg.SetCounter("net.bytes_sent", fs.bytes_sent);
  reg.SetCounter("net.messages_sent", fs.messages_sent);
  reg.SetCounter("net.zero_copy_bytes", fs.zero_copy_bytes);
  reg.SetGauge("net.virtual_seconds", fs.virtual_net_seconds);

  runtime_metrics().ExportTo(&reg);

  const BufferPool::Stats bp = BufferPool::AggregateStats();
  reg.SetCounter("bufferpool.acquires", bp.acquires);
  reg.SetCounter("bufferpool.hits", bp.hits);
  reg.SetCounter("bufferpool.releases", bp.releases);
  reg.SetCounter("bufferpool.discards", bp.discards);
  reg.SetCounter("bufferpool.pooled_bytes_high_water", bp.pooled_bytes_high_water);
  reg.SetGauge("bufferpool.hit_rate",
               bp.acquires == 0
                   ? 0.0
                   : static_cast<double>(bp.hits) / static_cast<double>(bp.acquires));

  // Serving tier: cumulative request counters, the last publish interval's
  // QPS, and p50/p99 over the merged request-latency histogram.
  if (serving_tier_ != nullptr) {
    const serve::ServingStats ss = serving_tier_->StatsSnapshot();
    reg.SetCounter("serve.requests", ss.requests);
    reg.SetCounter("serve.ok", ss.ok);
    reg.SetCounter("serve.not_serving", ss.not_serving);
    reg.SetCounter("serve.shed_queue_full", ss.shed_queue_full);
    reg.SetCounter("serve.shed_bytes", ss.shed_bytes);
    reg.SetCounter("serve.keys_looked_up", ss.keys_looked_up);
    reg.SetCounter("serve.keys_hit", ss.keys_hit);
    reg.SetCounter("serve.bytes_served", ss.bytes_served);
    reg.SetCounter("serve.batches", ss.batches);
    reg.SetCounter("serve.batched_requests", ss.batched_requests);
    reg.SetCounter("serve.versions_published", ss.versions_published);
    reg.SetGauge("serve.qps", serve_last_qps_);
    const WaitHistogram lat = serving_tier_->LatencySnapshot();
    reg.SetGauge("serve.p50_seconds", lat.ApproxPercentile(0.5));
    reg.SetGauge("serve.p99_seconds", lat.ApproxPercentile(0.99));
    reg.Histogram("serve.latency").Merge(lat);
  }
  // Pages dirtied between the last two serving publishes, per array — the
  // per-version delta a snapshot-shipping replica would fetch.
  for (const auto& [name, pages] : serve_dirty_pages_) {
    reg.SetGauge("versioned.dirty_pages." + name, pages);
  }

  for (const auto& [name, points] : metrics_series_) {
    for (double v : points) {
      reg.AppendSeries(name, v);
    }
  }

  // Straggler verdicts (detection only; 1.0 = currently flagged).
  reg.SetCounter("anomaly.rounds", straggler_.rounds());
  reg.SetCounter("anomaly.flags_total", straggler_.total_flags());
  for (int w = 0; w < config_.num_workers; ++w) {
    reg.SetGauge("anomaly.straggler." + std::to_string(w),
                 straggler_.Flagged(w) ? 1.0 : 0.0);
    reg.SetGauge("anomaly.straggler_lag_ewma." + std::to_string(w),
                 straggler_.LagEwma(w));
  }

  if (monitor_ != nullptr) {
    monitor_->MergeInto(&reg);
  }
  return reg;
}

RuntimeMetrics Driver::runtime_metrics() const {
  RuntimeMetrics m = runtime_metrics_;
  if (injector_ != nullptr) {
    const InjectorStats s = injector_->stats();
    m.faults_dropped = s.dropped;
    m.faults_duplicated = s.duplicated;
    m.faults_delayed = s.delayed;
    m.crashes_triggered = s.crashes_triggered;
  }
  return m;
}

std::vector<FaultEvent> Driver::fault_events() const {
  return injector_ != nullptr ? injector_->events() : std::vector<FaultEvent>{};
}

namespace {

// Serial fallback context: reads and writes the driver's master copies
// directly; buffered updates apply immediately through the registered UDF.
class SerialLoopContext : public LoopContext {
 public:
  SerialLoopContext(Driver* driver, const SharedDirectory* dir,
                    std::map<DistArrayId, CellStore*>* stores, std::vector<f64>* accum,
                    std::vector<AccumOp>* ops)
      : driver_(driver), dir_(dir), stores_(stores), accum_(accum), ops_(ops) {}

  const f32* Read(DistArrayId array, IdxSpan idx) override {
    CellStore* store = StoreFor(array);
    const f32* v = store->Get(driver_->Meta(array).key_space.EncodeUnchecked(idx));
    if (v != nullptr) {
      return v;
    }
    zeros_.assign(static_cast<size_t>(store->value_dim()), 0.0f);
    return zeros_.data();
  }

  f32* Mutate(DistArrayId array, IdxSpan idx) override {
    CellStore* store = StoreFor(array);
    return store->GetOrCreate(driver_->Meta(array).key_space.EncodeUnchecked(idx));
  }

  void BufferUpdate(DistArrayId array, IdxSpan idx, const f32* update) override {
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
  const int max_attempts =
      recovery_enabled ? std::max(1, config_.supervisor.max_recovery_attempts) : 1;
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
  bool spec_eligible =
      cl.options.speculate && cl.options.overlap && cl.NeedsStepBarrier();
  if (spec_eligible) {
    spec_eligible = false;
    for (const auto& [id, placement] : cl.plan.placements) {
      if (placement.scheme == PartitionScheme::kServer) {
        spec_eligible = true;
        break;
      }
    }
  }
  if (spec_eligible) {
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
  return out;
}

}  // namespace orion
