#include "src/runtime/param_server.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/common/simd.h"
#include "src/common/status.h"
#include "src/common/timer.h"
#include "src/common/trace.h"

namespace orion {

namespace {

u64 NowNs() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void AtomicMax(std::atomic<int>* target, int value) {
  int prev = target->load(std::memory_order_relaxed);
  while (value > prev &&
         !target->compare_exchange_weak(prev, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

Message BuildParamReply(const ParamRequest& req, const CellStore& master, i32 value_dim,
                        bool zero_copy) {
  PartData pd;
  pd.array = req.array;
  pd.part = req.step;
  pd.mode = PartDataMode::kInstallPart;
  pd.cells = CellStore(value_dim, CellStore::Layout::kHashed, 0);
  pd.cells.Reserve(static_cast<i64>(req.keys.size()));
  for (i64 key : req.keys) {
    const f32* v = master.Get(key);
    if (v != nullptr) {
      simd::CopyF32(pd.cells.GetOrCreate(key), v, static_cast<size_t>(value_dim));
    }
  }
  Message reply;
  reply.from = kMasterRank;
  reply.kind = MsgKind::kParamReply;
  reply.tag = static_cast<u32>(req.step);
  if (req.per_key) {
    MeterAsPerKeyReplies(&reply, req.keys.size(), value_dim);
  }
  AttachPart(&reply, std::move(pd), zero_copy);
  return reply;
}

ParamServer::ParamServer(Fabric* fabric, int num_shards, int num_workers)
    : fabric_(fabric),
      num_shards_(num_shards),
      stripes_(std::make_unique<StripeState[]>(static_cast<size_t>(num_shards))),
      sender_(fabric, std::max(1, num_workers)),
      pool_(num_shards) {
  ORION_CHECK(num_shards > 0);
}

ParamServer::~ParamServer() { Quiesce(); }

int ParamServer::StripeOf(i64 key) const {
  u64 h = static_cast<u64>(key) * 0x9E3779B97F4A7C15ull;
  return static_cast<int>((h >> 32) % static_cast<u64>(num_shards_));
}

void ParamServer::HandleRequestSnapshot(ParamRequest req, WorkerId from,
                                        VersionedCellStore::Snapshot snap,
                                        i32 value_dim) {
  ORION_CHECK(snap.valid());
  if (req.speculative) {
    speculative_served_.fetch_add(1, std::memory_order_relaxed);
  }
  auto r = std::make_shared<Request>();
  r->req = std::move(req);
  r->from = from;
  r->value_dim = value_dim;
  r->snap = std::move(snap);
  Start(r);
}

void ParamServer::Start(const std::shared_ptr<Request>& r) {
  r->shard_keys.resize(static_cast<size_t>(num_shards_));
  for (i64 key : r->req.keys) {
    r->shard_keys[static_cast<size_t>(StripeOf(key))].push_back(key);
  }
  int active_shards = 0;
  for (const auto& keys : r->shard_keys) {
    if (!keys.empty()) {
      ++active_shards;
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++in_flight_;
    max_queue_depth_ = std::max(max_queue_depth_, in_flight_);
  }
  if (active_shards == 0) {
    Finish(r);  // empty key list: assemble the (empty) reply inline
    return;
  }
  r->shard_vals.resize(static_cast<size_t>(num_shards_));
  r->shard_hits.resize(static_cast<size_t>(num_shards_));
  r->remaining.store(active_shards, std::memory_order_relaxed);
  for (int s = 0; s < num_shards_; ++s) {
    if (r->shard_keys[static_cast<size_t>(s)].empty()) {
      continue;
    }
    pool_.Submit([this, r, s] { Gather(r, s); });
  }
}

void ParamServer::Gather(const std::shared_ptr<Request>& r, int shard) {
  CpuStopwatch sw;
  StripeState& st = stripes_[static_cast<size_t>(shard)];
  {
    // Span closes before the possible tail call into Finish so gather and
    // assemble time never overlap in the trace.
    ORION_TRACE_SPAN(kParamServer, "shard_gather");
    AtomicMax(&st.queue_depth_max, st.inflight.fetch_add(1, std::memory_order_relaxed) + 1);
    const auto& keys = r->shard_keys[static_cast<size_t>(shard)];
    // Flat gather: cell i of this stripe lands at vals[i * value_dim] with a
    // hit flag — a straight SIMD copy per hit, no hashed inserts.
    const size_t vdim = static_cast<size_t>(r->value_dim);
    std::vector<f32>& vals = r->shard_vals[static_cast<size_t>(shard)];
    std::vector<u8>& hits = r->shard_hits[static_cast<size_t>(shard)];
    vals.resize(keys.size() * vdim);
    hits.assign(keys.size(), 0);
    // The pinned version is immutable, so no lock is held across the copy.
    const u64 t0 = NowNs();
    for (size_t i = 0; i < keys.size(); ++i) {
      const f32* v = r->snap.Get(keys[i]);
      if (v != nullptr) {
        simd::CopyF32(vals.data() + i * vdim, v, vdim);
        hits[i] = 1;
      }
    }
    st.gather_ns.fetch_add(NowNs() - t0, std::memory_order_relaxed);
    st.inflight.fetch_sub(1, std::memory_order_relaxed);
    st.tasks.fetch_add(1, std::memory_order_relaxed);
  }
  const double elapsed = sw.ElapsedSeconds();
  {
    std::lock_guard<std::mutex> lock(mu_);
    serve_seconds_ += elapsed;
  }
  // The release/acquire pair on `remaining` publishes every shard's result
  // to whichever task runs the assembly.
  if (r->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    Finish(r);
  }
}

void ParamServer::Finish(const std::shared_ptr<Request>& r) {
  ORION_TRACE_SPAN(kParamServer, "reply_assemble");
  CpuStopwatch sw;
  // Assemble in request-key order from the shard gathers — never from the
  // master store, which a writer may be mutating by now. This reproduces the
  // inline path's reply bytes exactly (same hits, same insertion order).
  PartData pd;
  pd.array = r->req.array;
  pd.part = r->req.step;
  pd.mode = PartDataMode::kInstallPart;
  pd.cells = CellStore(r->value_dim, CellStore::Layout::kHashed, 0);
  pd.cells.Reserve(static_cast<i64>(r->req.keys.size()));
  if (!r->shard_hits.empty()) {
    // Start() bucketed the request keys into shard_keys in request order, so
    // replaying the request keys with one running cursor per stripe visits
    // each stripe's gathered slices in exactly the order they were produced
    // (duplicate keys get their own slice each, same value every time).
    const size_t vdim = static_cast<size_t>(r->value_dim);
    std::vector<size_t> cursor(static_cast<size_t>(num_shards_), 0);
    for (i64 key : r->req.keys) {
      const size_t s = static_cast<size_t>(StripeOf(key));
      const size_t i = cursor[s]++;
      if (r->shard_hits[s][i] != 0) {
        simd::CopyF32(pd.cells.GetOrCreate(key), r->shard_vals[s].data() + i * vdim,
                      vdim);
      }
    }
  }
  // Retire this request's pin before it counts as done: once Quiesce()
  // returns, the caller may collapse or mutate the store, so the pin must
  // not linger until the pool thread drops its Request reference.
  r->snap.Release();
  Message reply;
  reply.from = kMasterRank;
  reply.to = r->from;
  reply.kind = MsgKind::kParamReply;
  reply.tag = static_cast<u32>(r->req.step);
  if (r->req.per_key) {
    MeterAsPerKeyReplies(&reply, r->req.keys.size(), r->value_dim);
  }
  AttachPart(&reply, std::move(pd), fabric_->zero_copy());
  sender_.Enqueue(std::move(reply));
  const double elapsed = sw.ElapsedSeconds();
  {
    std::lock_guard<std::mutex> lock(mu_);
    serve_seconds_ += elapsed;
    --in_flight_;
    if (in_flight_ == 0) {
      idle_cv_.notify_all();
    }
  }
}

void ParamServer::Quiesce() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
  }
  sender_.Flush();
}

void ParamServer::ResetPassStats() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    serve_seconds_ = 0.0;
    max_queue_depth_ = 0;
  }
  speculative_served_.store(0, std::memory_order_relaxed);
  for (int s = 0; s < num_shards_; ++s) {
    StripeState& st = stripes_[static_cast<size_t>(s)];
    st.gather_ns.store(0, std::memory_order_relaxed);
    st.tasks.store(0, std::memory_order_relaxed);
    st.queue_depth_max.store(0, std::memory_order_relaxed);
  }
}

std::vector<StripeMetrics> ParamServer::StripeStatsSnapshot() const {
  std::vector<StripeMetrics> out(static_cast<size_t>(num_shards_));
  for (int s = 0; s < num_shards_; ++s) {
    const StripeState& st = stripes_[static_cast<size_t>(s)];
    StripeMetrics& o = out[static_cast<size_t>(s)];
    o.gather_ns = st.gather_ns.load(std::memory_order_relaxed);
    o.tasks = st.tasks.load(std::memory_order_relaxed);
    o.queue_depth_max = st.queue_depth_max.load(std::memory_order_relaxed);
  }
  return out;
}

double ParamServer::serve_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return serve_seconds_;
}

int ParamServer::max_queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_queue_depth_;
}

}  // namespace orion
