#include "src/runtime/executor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <thread>
#include <utility>

#include "src/common/buffer_pool.h"
#include "src/common/logging.h"
#include "src/common/simd.h"
#include "src/common/trace.h"
#include "src/dsm/bucket.h"

namespace orion {

// ---------------------------------------------------------------------------
// Loop contexts

// Normal execution context: resolves each DistArray reference to the store
// that holds it at the current time step.
class WorkerLoopContext : public LoopContext {
 public:
  WorkerLoopContext(Executor* ex, const CompiledLoop* cl, int tau)
      : ex_(ex), cl_(cl), tau_(tau) {}

  // Installs a direct view of every dense store this block touches: the
  // owned range partition and the resident rotated partitions (read and
  // write), and the prefetch cache of each server-hosted array (read only,
  // and only while no dirty copy shadows it: MutateIndirect drops it).
  // Stores are looked up, never created, so a rotated part that is not
  // resident stays absent for WaitForPart.
  void InstallDenseViews() {
    for (const auto& [array, placement] : cl_->plan.placements) {
      Executor::ArrayState& st = ex_->GetArray(array);
      CellStore* store = nullptr;
      bool writable = true;
      switch (placement.scheme) {
        case PartitionScheme::kRange:
          store = &st.range_store;
          break;
        case PartitionScheme::kSpaceTime: {
          auto it = st.parts.find(tau_);
          store = it != st.parts.end() ? &it->second : nullptr;
          break;
        }
        case PartitionScheme::kServer:
          if (st.server_dirty.NumCells() == 0) {
            store = &st.prefetch_cache;
            writable = false;
          }
          break;
        default:
          break;
      }
      if (store != nullptr && store->IsDense()) {
        InstallView(array, store, st.meta.key_space, writable);
      }
    }
  }

  const f32* ReadIndirect(DistArrayId array, IdxSpan idx) override {
    Resolved& r = Resolve(array);
    const i64 key = r.st->meta.key_space.EncodeUnchecked(idx);
    const f32* v = nullptr;
    switch (r.scheme) {
      case PartitionScheme::kRange:
      case PartitionScheme::kSpaceTime:
      case PartitionScheme::kReplicated:
        v = r.store->Get(key);
        break;
      case PartitionScheme::kServer:
        v = ReadServer(r, key);
        break;
      case PartitionScheme::kIterSpace:
        v = ReadIterSpace(r, key);
        break;
      default:
        ORION_CHECK(false) << "unreadable placement for array" << array;
    }
    return v != nullptr ? v : r.st->zeros.data();
  }

  f32* MutateIndirect(DistArrayId array, IdxSpan idx) override {
    Resolved& r = Resolve(array);
    const i64 key = r.st->meta.key_space.EncodeUnchecked(idx);
    switch (r.scheme) {
      case PartitionScheme::kRange:
      case PartitionScheme::kSpaceTime:
        return r.store->GetOrCreate(key);
      case PartitionScheme::kServer: {
        // Copy-on-write from the prefetched value; flushed as an overwrite
        // at the end of the step (wavefront/unimodular loops). Later reads
        // must see the dirty copy, so the cache's read-only view goes.
        DropView(array);
        const bool existed = r.st->server_dirty.Contains(key);
        f32* dirty = r.st->server_dirty.GetOrCreate(key);
        if (!existed) {
          const f32* cur = r.st->prefetch_cache.Find(key);
          if (cur != nullptr) {
            simd::CopyF32(dirty, cur, static_cast<size_t>(r.st->meta.value_dim));
          }
        }
        return dirty;
      }
      case PartitionScheme::kIterSpace:
        // The driver compiles later loops from the master's key set without
        // gathering it, which holds only while workers add no cell.
        ORION_CHECK(false) << "Mutate on the iteration space" << array
                           << "; a kernel reads its own cell through `value`";
        break;
      default:
        ORION_CHECK(false) << "Mutate on array" << array
                           << "which is not locally owned; use BufferUpdate";
    }
    return nullptr;
  }

  // A block's first buffered write to an array. Every later one goes
  // through the buffer view installed here, unless the array is replicated.
  void BufferUpdateIndirect(DistArrayId array, IdxSpan idx, const f32* update) override {
    Resolved& r = Resolve(array);
    const i64 key = r.st->meta.key_space.EncodeUnchecked(idx);
    if (r.buf == nullptr) {
      r.buf = &ex_->GetBuffer(array);  // heap-held, stable for the pass
    }
    r.buf->Accumulate(key, update);
    if (r.scheme == PartitionScheme::kReplicated) {
      // Apply to the local replica immediately so this worker sees its own
      // updates (the flush to the master happens at step end).
      r.buf->apply_fn()(r.st->replica.GetOrCreate(key), update, r.st->meta.value_dim);
    } else {
      InstallBufferView(array, r.buf, r.st->meta.key_space);
    }
  }

  void AccumulatorAdd(int slot, f64 delta) override {
    ORION_CHECK(slot >= 0 && slot < static_cast<int>(ex_->accum_.size()))
        << "accumulator slot" << slot << "not registered before loop compilation";
    f64& acc = ex_->accum_[static_cast<size_t>(slot)];
    acc = AccumCombine(ex_->accum_ops_[static_cast<size_t>(slot)], acc, delta);
  }

 protected:
  struct Resolved {
    PartitionScheme scheme = PartitionScheme::kUnpartitioned;
    Executor::ArrayState* st = nullptr;
    CellStore* store = nullptr;
    DistArrayBuffer* buf = nullptr;  // BufferUpdateIndirect's target buffer
  };

  Resolved& Resolve(DistArrayId array) {
    if (array >= 0 && array < static_cast<DistArrayId>(res_.size()) &&
        res_[static_cast<size_t>(array)].st != nullptr) {
      return res_[static_cast<size_t>(array)];
    }
    Resolved r;
    r.st = &ex_->GetArray(array);
    if (array == cl_->spec.iter_space) {
      r.scheme = PartitionScheme::kIterSpace;
      auto it = r.st->parts.find(tau_);
      r.store = it != r.st->parts.end() ? &it->second : nullptr;
    } else {
      const ArrayPlacement& p = cl_->PlacementOf(array);
      r.scheme = p.scheme;
      switch (p.scheme) {
        case PartitionScheme::kRange:
          r.store = &r.st->range_store;
          break;
        case PartitionScheme::kSpaceTime: {
          // Never plant a placeholder: WaitForPart takes any part present
          // at tau for the one it waits on.
          auto it = r.st->parts.find(tau_);
          ORION_CHECK(it != r.st->parts.end())
              << "rotated part" << tau_ << "of array" << array << "is not resident";
          r.store = &it->second;
          break;
        }
        case PartitionScheme::kReplicated:
          r.store = &r.st->replica;
          break;
        case PartitionScheme::kServer:
          r.store = &r.st->prefetch_cache;
          break;
        default:
          ORION_CHECK(false) << "bad placement";
      }
    }
    if (array >= static_cast<DistArrayId>(res_.size())) {
      res_.resize(static_cast<size_t>(array) + 1);
    }
    res_[static_cast<size_t>(array)] = r;
    return res_[static_cast<size_t>(array)];
  }

  virtual const f32* ReadServer(Resolved& r, i64 key) {
    // Dirty (written this step) wins over the prefetched snapshot. A key the
    // prefetch did not fetch is absent, also outside a dense cache's range.
    const f32* dirty = r.st->server_dirty.Get(key);
    if (dirty != nullptr) {
      return dirty;
    }
    return r.st->prefetch_cache.Find(key);
  }

  virtual const f32* ReadIterSpace(Resolved& r, i64 key) {
    return r.store != nullptr ? r.store->Get(key) : nullptr;
  }

  Executor* ex_;
  const CompiledLoop* cl_;
  int tau_;
  std::vector<Resolved> res_;
};

// The keys one recording pass reads from each server-hosted array, for
// both recorders: the compiled prefetch slice and kernel replay. A key of a
// dense array is marked in the array's KeyBitmap (executor scratch), so its
// list comes out sorted and unique from one scan. A key of a sparse array,
// or one outside a dense array's key space, is appended to a list that is
// sorted afterwards.
class KeyRecorder {
 public:
  KeyRecorder(Executor* ex, const CompiledLoop& cl,
              std::map<DistArrayId, std::vector<i64>>* recorded)
      : recorded_(recorded) {
    for (DistArrayId array : cl.server_arrays) {
      Executor::ArrayState& st = ex->GetArray(array);
      if (static_cast<size_t>(array) >= slots_.size()) {
        slots_.resize(static_cast<size_t>(array) + 1);
      }
      Slot& slot = slots_[static_cast<size_t>(array)];
      slot.server = true;
      const i64 num_cells = st.meta.num_cells();
      if (num_cells < 0) {
        continue;  // sparse
      }
      if (st.read_marks.num_keys() != num_cells) {
        st.read_marks = KeyBitmap(num_cells);
      }
      slot.bits = &st.read_marks;
      slot.ks = &st.meta.key_space;
      slot.zeros = st.zeros.data();
    }
  }

  // A pass cut short leaves no marks for the next one.
  ~KeyRecorder() {
    for (const Slot& slot : slots_) {
      if (slot.bits != nullptr) {
        slot.bits->Clear();
      }
    }
  }

  // Records a read of `key` from `array`; reads of arrays that are not
  // server-hosted are not prefetched.
  void Record(DistArrayId array, i64 key) {
    if (static_cast<size_t>(array) >= slots_.size()) {
      return;
    }
    Slot& slot = slots_[static_cast<size_t>(array)];
    if (slot.bits != nullptr && slot.bits->Mark(key)) {
      return;
    }
    if (slot.list == nullptr) {
      if (!slot.server) {
        return;
      }
      slot.list = &(*recorded_)[array];  // map nodes never move
    }
    slot.list->push_back(key);
  }

  // A dense server-hosted array's bitmap, nullptr for any other array. A
  // key marked there directly is recorded; one Mark refuses goes to Record.
  KeyBitmap* BitsOf(DistArrayId array) const {
    return static_cast<size_t>(array) < slots_.size() ? slots_[static_cast<size_t>(array)].bits
                                                       : nullptr;
  }

  // Kernel replay's read of a dense server-hosted array inside its key
  // space: marks the key and returns the zero span. nullptr otherwise.
  const f32* MarkDense(DistArrayId array, IdxSpan idx) {
    if (static_cast<size_t>(array) < slots_.size()) {
      const Slot& slot = slots_[static_cast<size_t>(array)];
      if (slot.bits != nullptr && slot.bits->Mark(slot.ks->EncodeUnchecked(idx))) {
        return slot.zeros;
      }
    }
    return nullptr;
  }

  // Leaves every recorded key list sorted and unique.
  void FinishKeyLists(std::vector<i64>* scratch) {
    for (auto& [array, keys] : *recorded_) {
      SortUniqueKeys(&keys, scratch);
    }
    for (size_t array = 0; array < slots_.size(); ++array) {
      KeyBitmap* bits = slots_[array].bits;
      if (bits == nullptr || bits->empty()) {
        continue;
      }
      std::vector<i64>& keys = (*recorded_)[static_cast<DistArrayId>(array)];
      const bool strays = !keys.empty();  // keys outside the key space
      bits->TakeSorted(&keys);
      if (strays) {
        SortUniqueKeys(&keys, scratch);
      }
    }
  }

 private:
  struct Slot {
    bool server = false;               // a server-hosted array of the loop
    KeyBitmap* bits = nullptr;         // dense only
    const KeySpace* ks = nullptr;      // dense only
    const f32* zeros = nullptr;        // dense only
    std::vector<i64>* list = nullptr;  // set on the first appended key
  };

  std::map<DistArrayId, std::vector<i64>>* recorded_;
  std::vector<Slot> slots_;  // by array id
};

// Kernel replay: the recording pass of a loop without a compiled slice.
// Server-hosted reads record their key and return zeros; writes and
// accumulators are inert; everything else reads real local data so that
// data-dependent control flow (and data-dependent subscripts computed from
// the iteration's own record) replays faithfully.
class RecordingLoopContext : public WorkerLoopContext {
 public:
  RecordingLoopContext(Executor* ex, const CompiledLoop* cl, int tau, KeyRecorder* recorder)
      : WorkerLoopContext(ex, cl, tau), recorder_(recorder) {}

  const f32* ReadIndirect(DistArrayId array, IdxSpan idx) override {
    const f32* zeros = recorder_->MarkDense(array, idx);
    return zeros != nullptr ? zeros : WorkerLoopContext::ReadIndirect(array, idx);
  }

  f32* MutateIndirect(DistArrayId array, IdxSpan idx) override {
    Resolved& r = Resolve(array);
    if (ex_->mutate_scratch_.size() < static_cast<size_t>(r.st->meta.value_dim)) {
      ex_->mutate_scratch_.resize(static_cast<size_t>(r.st->meta.value_dim));
    }
    return ex_->mutate_scratch_.data();
  }

  void BufferUpdateIndirect(DistArrayId array, IdxSpan idx, const f32* update) override {}
  void AccumulatorAdd(int slot, f64 delta) override {}
  bool recording() const override { return true; }

 protected:
  const f32* ReadServer(Resolved& r, i64 key) override {
    recorder_->Record(r.st->meta.id, key);
    return nullptr;  // caller substitutes the zero span
  }

 private:
  KeyRecorder* recorder_;
};

// ---------------------------------------------------------------------------
// Executor

namespace {

// Calls fn(key, value) for each cell of a block, or of its `chunk`-th of
// `num_chunks` slices (a 1D loop's sync round).
template <typename F>
void ForEachBlockCell(CellStore& block, int chunk, int num_chunks, F&& fn) {
  if (num_chunks > 1) {
    block.ForEachSlice(chunk, num_chunks, fn);
  } else {
    block.ForEachFast(fn);
  }
}

// The store a prefetch slot's replies for `keys` (sorted, unique) land in:
// the dense range [front, back] when it costs no more memory than a hashed
// store of the keys, so reply install and Read are direct offsets.
CellStore PrefetchLandingPad(i32 value_dim, const std::vector<i64>& keys) {
  // Per cell, a hashed store costs its value, its key and its index slots;
  // the dense range costs only values, but also for the keys in between.
  constexpr u64 kHashedKeyBytes = 32;
  const u64 value_bytes = 4 * static_cast<u64>(value_dim);
  if (!keys.empty()) {
    const u64 span = static_cast<u64>(keys.back()) - static_cast<u64>(keys.front());
    if (span < keys.size() * (kHashedKeyBytes + value_bytes) / value_bytes) {
      return CellStore::DenseRange(value_dim, keys.front(), keys.back());
    }
  }
  return CellStore(value_dim, CellStore::Layout::kHashed, 0);
}

// Installs `reply`, the answer to a request for `keys`, into `pad`: the
// i-th value span goes to the i-th key that hit. A key that missed stays
// absent (zeros in a dense pad). A dense pad spans the sorted keys, so the
// copies land at direct offsets.
void InstallPositional(const ParamReply& reply, const std::vector<i64>& keys, CellStore* pad) {
  const size_t dim = static_cast<size_t>(pad->value_dim());
  ORION_CHECK(reply.hits.empty() || reply.hits.size() == (keys.size() + 63) / 64)
      << "kParamReply hit bitmap does not match its request of" << keys.size() << "keys";
  const size_t hits = reply.NumHits(keys.size());
  ORION_CHECK(reply.values.size() == hits * dim)
      << "kParamReply carries" << reply.values.size() << "values for" << hits << "hits";
  if (keys.empty()) {
    return;
  }
  const bool dense = pad->IsDense();
  ORION_CHECK(!dense || (keys.front() >= pad->range_lo() && keys.back() <= pad->range_hi()));
  const f32* v = reply.values.data();
  for (size_t i = 0; i < keys.size(); ++i) {
    if (reply.Hit(i)) {
      f32* cell = dense ? pad->raw_values_data() + static_cast<size_t>(keys[i] - pad->range_lo()) * dim
                        : pad->GetOrCreate(keys[i]);
      simd::CopyF32(cell, v, dim);
      v += dim;
    }
  }
}

}  // namespace

Executor::Executor(WorkerId rank, Fabric* fabric, const SharedDirectory* dir)
    : rank_(rank), fabric_(fabric), dir_(dir), logical_rank_(rank), sender_(fabric, 1, rank) {
  ring_.resize(static_cast<size_t>(fabric->num_workers()));
  for (size_t i = 0; i < ring_.size(); ++i) {
    ring_[i] = static_cast<i32>(i);
  }
}

void Executor::SendData(Message m) {
  if (overlap_) {
    sender_.Enqueue(std::move(m));
  } else {
    fabric_->Send(std::move(m));
  }
}

Executor::ArrayState& Executor::GetArray(DistArrayId id) {
  auto it = arrays_.find(id);
  if (it == arrays_.end()) {
    it = arrays_.emplace(id, std::make_unique<ArrayState>(dir_->GetMeta(id))).first;
  }
  return *it->second;
}

DistArrayBuffer& Executor::GetBuffer(DistArrayId target) {
  auto it = buffers_.find(target);
  if (it == buffers_.end()) {
    auto def = dir_->GetBufferDef(target);
    ORION_CHECK(def != nullptr) << "BufferUpdate on array" << target
                                << "without a registered DistArray Buffer";
    it = buffers_
             .emplace(target, std::make_unique<DistArrayBuffer>(
                                  target, def->update_dim, GetArray(target).meta.num_cells(),
                                  def->apply))
             .first;
  }
  return *it->second;
}

void Executor::Run() {
  trace::SetThreadRank(logical_rank_);
  sup_ = dir_->supervisor();
  try {
    while (true) {
      auto msg = fabric_->Recv(rank_);
      if (!msg.has_value()) {
        return;  // fabric shut down
      }
      try {
        if (msg->kind == MsgKind::kControl &&
            PeekControlOp(msg->payload) == ControlOp::kStartPass) {
          const StartPass start = Decode<StartPass>(msg->payload);
          if (start.pass > last_completed_pass_) {
            BufferPool::Release(std::move(msg->payload));
            RunPass(start.loop_id, start.pass, start.spec_depth);
            continue;
          }
          // Retransmit of an already-finished pass: fall through to the
          // dedupe path, which re-answers with the cached PassDone.
        }
        Dispatch(*msg);
        BufferPool::Release(std::move(msg->payload));
      } catch (const RetireSignal&) {
        // Reconfigured mid-pass; the abandoned pass reports nothing.
      }
    }
  } catch (const HaltSignal&) {
    // Injected crash, kShutdown, or fabric shutdown while mid-pass. Drain the
    // comm queue: everything enqueued precedes the crash point, so delivering
    // it keeps per-link send counts identical to a synchronous sender (the
    // fault injector's determinism witness depends on that).
    sender_.Flush();
  }
}

void Executor::MaybeCrash(i32 pass, i32 step) {
  FaultInjector* inj = fabric_->injector();
  if (inj != nullptr && inj->ShouldCrash(rank_, pass, step)) {
    throw HaltSignal{};
  }
}

void Executor::MaybeStraggle(i32 pass) {
  FaultInjector* inj = fabric_->injector();
  if (inj == nullptr) {
    return;
  }
  const double stall = inj->StraggleSeconds(rank_, pass);
  if (stall > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(stall));
  }
}

void Executor::ProcessRetire(const Message& msg) {
  const Retire t = Decode<Retire>(msg.payload);
  // Quiesce the comm thread before acking either phase: the retire protocol's
  // invariant — "after every ack, no pre-failure message from this worker can
  // still be produced" — extends to messages parked in the async queue.
  sender_.Flush();
  overlap_ = false;
  prefetch_ring_.clear();
  PublishRingFill();
  if (t.phase == 0) {
    // Adopt the post-failure configuration. Schedule math now runs in the
    // compacted logical space; physical addressing goes through ring_.
    logical_rank_ = t.logical_rank;
    ring_ = t.ring;
  } else {
    // Full reset: everything local predates the checkpoint the driver is
    // about to restore, so drop it and wait for the re-scatter.
    arrays_.clear();
    buffers_.clear();
    prefetch_key_cache_.clear();
    current_pass_ = -1;
    last_completed_pass_ = -1;
    cached_pass_done_.reset();
  }
  Retire ack;
  ack.op = t.op;  // echo, so rejoin acks are distinguishable from retire acks
  ack.phase = t.phase;
  ack.is_ack = true;
  ack.logical_rank = logical_rank_;
  Message m = MakeMessage(rank_, kMasterRank, MsgKind::kControl, Encode(ack));
  fabric_->SendReliable(std::move(m));
}

void Executor::Dispatch(Message& msg) {
  switch (msg.kind) {
    case MsgKind::kShutdown:
      throw HaltSignal{};
    case MsgKind::kPartitionData:
      // Drop data from workers outside the current configuration (a zombie
      // sender after a false-positive death declaration).
      if (msg.from != kMasterRank &&
          std::find(ring_.begin(), ring_.end(), static_cast<i32>(msg.from)) == ring_.end()) {
        return;
      }
      InstallPartData(Take<PartData>(msg));
      return;
    case MsgKind::kParamReply:
      InstallParamReply(Take<ParamReply>(msg));
      return;
    case MsgKind::kBarrier:
      return;  // stale barrier traffic from an earlier pass or step
    case MsgKind::kControl:
      break;
    default:
      ORION_CHECK(false) << "unexpected message kind" << static_cast<int>(msg.kind);
  }
  switch (PeekControlOp(msg.payload)) {
    case ControlOp::kHeartbeat: {
      const Heartbeat ping = Decode<Heartbeat>(msg.payload);
      if (ping.is_reply) {
        return;  // replies are master-bound; ignore strays
      }
      Heartbeat pong;
      pong.is_reply = true;
      pong.seq = ping.seq;
      pong.last_started_pass = current_pass_ >= 0 ? current_pass_ : last_completed_pass_;
      pong.last_completed_pass = last_completed_pass_;
      Message m = MakeMessage(rank_, kMasterRank, MsgKind::kControl, Encode(pong));
      fabric_->SendReliable(std::move(m));
      return;
    }
    case ControlOp::kStartPass: {
      // Duplicate or retransmit: if it names the pass we last completed, the
      // PassDone was lost — answer it again.
      if (Decode<StartPass>(msg.payload).pass == last_completed_pass_ &&
          cached_pass_done_.has_value()) {
        fabric_->SendReliable(*cached_pass_done_);
      }
      return;
    }
    case ControlOp::kRetire:
    case ControlOp::kRejoin:
      // Rejoin is a retire with a grown ring: same adopt-then-drop protocol,
      // so a re-entering rank and the survivors converge identically.
      ProcessRetire(msg);
      throw RetireSignal{};
    case ControlOp::kGather:
      HandleGather(Decode<ArrayOp>(msg.payload).array);
      return;
    case ControlOp::kDropArray:
      DropArray(Decode<ArrayOp>(msg.payload).array);
      return;
    default:
      ORION_CHECK(false) << "unexpected control op"
                         << static_cast<int>(PeekControlOp(msg.payload));
  }
}

void Executor::InstallParamReply(const ParamReply& reply) {
  // Replies land in their step's slot buffers until AwaitPrefetch moves them
  // into the caches. A reply that matches no ring slot is stale traffic from
  // an abandoned pass: drop it rather than corrupt a cache the current step
  // reads. Replies come only from the master, so no sender can be a zombie.
  for (PrefetchSlot& slot : prefetch_ring_) {
    if (slot.step != reply.step) {
      continue;
    }
    auto it = slot.buffers.find(reply.array);
    if (it != slot.buffers.end()) {
      InstallPositional(reply, slot.keys.at(reply.array), &it->second);
      slot.reply_bytes += WireSize(reply);
    }
    --slot.outstanding;
    ORION_CHECK(slot.outstanding >= 0)
        << "more kParamReply messages than requests for step" << slot.step;
    return;
  }
}

void Executor::InstallPartData(PartData pd) {
  ArrayState& st = GetArray(pd.array);
  switch (pd.mode) {
    case PartDataMode::kInstallPart:
      st.parts[pd.part] = std::move(pd.cells);
      break;
    case PartDataMode::kInstallRange:
      st.range_store = std::move(pd.cells);
      break;
    case PartDataMode::kReplicaSnapshot: {
      st.replica = std::move(pd.cells);
      // Re-apply this worker's unflushed buffered updates so its own recent
      // writes are not lost under the fresh snapshot.
      auto it = buffers_.find(pd.array);
      if (it != buffers_.end() && it->second->NumPending() > 0) {
        // Peek without draining: drain into a copy and put it back.
        CellStore pending = it->second->Drain();
        DistArrayBuffer::ApplyTo(&st.replica, pending, it->second->apply_fn());
        pending.ForEachConst([&](i64 key, const f32* v) { it->second->Accumulate(key, v); });
      }
      break;
    }
    default:
      ORION_CHECK(false) << "unexpected PartData mode on worker";
  }
}

void Executor::DrainInbox() {
  while (true) {
    auto msg = fabric_->TryRecv(rank_);
    if (!msg.has_value()) {
      return;
    }
    Dispatch(*msg);
    BufferPool::Release(std::move(msg->payload));
  }
}

std::optional<Message> Executor::WaitFor(const std::function<bool(const Message&)>& pred,
                                         double seconds) {
  Stopwatch sw;
  std::optional<Message> msg;
  for (double left = seconds; left > 0.0; left = seconds - sw.ElapsedSeconds()) {
    msg = std::isinf(seconds) ? fabric_->Recv(rank_) : fabric_->RecvWithTimeout(rank_, left);
    if (!msg.has_value()) {
      if (fabric_->Closed(rank_)) {
        throw HaltSignal{};  // fabric shut down
      }
      continue;  // timed out; the loop condition decides
    }
    if (pred(*msg)) {
      break;
    }
    Dispatch(*msg);
    BufferPool::Release(std::move(msg->payload));
    msg.reset();
  }
  report_.wait_seconds += sw.ElapsedSeconds();
  return msg;
}

void Executor::WaitUntil(MsgKind kind, const std::function<bool()>& done) {
  while (!done()) {
    std::optional<Message> msg = WaitFor([kind](const Message& m) { return m.kind == kind; });
    Dispatch(*msg);
  }
}

void Executor::WaitForPart(DistArrayId array, int tau) {
  ArrayState& st = GetArray(array);
  if (st.parts.count(tau) != 0) {
    return;  // already resident: no wait, no span
  }
  ORION_TRACE_SPAN(kExecutor, "rotation_wait");
  WaitUntil(MsgKind::kPartitionData, [&] { return st.parts.count(tau) != 0; });
}

std::vector<trace::Span> Executor::DrainOwnSpans() {
  std::vector<trace::Span> spans = trace::DrainRank(logical_rank_);
  if (rank_ != logical_rank_) {
    // Post-recovery the sender lane keeps its physical-rank tag.
    std::vector<trace::Span> extra = trace::DrainRank(rank_);
    spans.insert(spans.end(), extra.begin(), extra.end());
  }
  return spans;
}

void Executor::Barrier(i32 pass, int step) {
  ORION_TRACE_SPAN(kExecutor, "barrier");
  // The barrier is an ordering point: everything this step produced must be
  // on the wire before peers are released into the next step.
  sender_.Flush();
  BarrierMsg arrival;
  arrival.pass = pass;
  arrival.release = false;
  if (trace::Enabled() && trace::RingFillFraction() > 0.75) {
    // Long ordered passes wrap the span ring before PassDone can ship it;
    // piggyback a partial drain on this arrival. The batch id lets the
    // master append resent copies of the same batch exactly once. Fault
    // injection stays deterministic: injector decisions never depend on
    // payload size.
    arrival.spans = DrainOwnSpans();
    if (!arrival.spans.empty()) {
      arrival.span_seq = ++span_batch_seq_;
    }
  }
  Message m = MakeMessage(rank_, kMasterRank, MsgKind::kBarrier);
  m.tag = static_cast<u32>(step);
  m.payload = Encode(arrival);
  fabric_->Send(std::move(m));
  // The matched release is decoded once, inside the predicate, and kept for
  // the dirty capture below instead of being decoded a second time.
  BarrierMsg release;
  auto matches = [&](const Message& msg) {
    if (msg.kind != MsgKind::kBarrier || msg.tag != static_cast<u32>(step)) {
      return false;
    }
    BarrierMsg b = Decode<BarrierMsg>(msg.payload);
    if (!b.release || b.pass != pass) {
      return false;
    }
    release = std::move(b);
    return true;
  };
  // Supervised: either our arrival or the master's release can be lost, so
  // resend (reliably) with backoff until the release for this exact
  // (pass, step) arrives. The master re-releases on duplicate arrivals.
  double backoff = sup_.enabled ? sup_.retry_initial_seconds : kForever;
  while (!WaitFor(matches, backoff).has_value()) {
    Message again = MakeMessage(rank_, kMasterRank, MsgKind::kBarrier);
    again.tag = static_cast<u32>(step);
    again.payload = Encode(arrival);
    fabric_->SendReliable(std::move(again));
    if (!arrival.spans.empty()) {
      // That reliable resend bypasses the injector, so the span batch is now
      // durably at the master (which dedupes it by span_seq if the original
      // arrival also lands). Later retries only chase a lost release; keep
      // them small instead of re-shipping the batch every backoff.
      arrival.spans.clear();
    }
    backoff *= kRetryBackoffFactor;
  }
  // The release for step s carries the dirty-range summary of the kOverwrite
  // writes flushed during s — the validation input for any speculative fetch
  // that was in flight across this barrier.
  if (spec_depth_ > 0 && release.has_dirty) {
    step_dirty_[step] = std::move(release.dirty);
  }
}

void Executor::ExecuteCells(const CompiledLoop& cl, int tau, int chunk, int num_chunks) {
  ArrayState& iter = GetArray(cl.spec.iter_space);
  auto it = iter.parts.find(tau);
  if (it == iter.parts.end() || it->second.NumCells() == 0) {
    return;  // no data in this block
  }
  ORION_TRACE_SPAN(kExecutor, "compute");
  WorkerLoopContext ctx(this, &cl, tau);
  ctx.InstallDenseViews();
  const KeySpace& ks = iter.meta.key_space;
  std::vector<i64> idx(static_cast<size_t>(ks.num_dims()));
  CpuStopwatch sw;
  const i64 flush_every = cl.options.buffer_flush_every;
  i64 since_flush = 0;
  // Inlined into each of ForEachBlockCell's loops: called out of line, it
  // costs every cell one more call.
  auto body = [&](i64 key, f32* value) __attribute__((always_inline)) {
    ks.DecodeInto(key, idx);
    cl.kernel(ctx, idx, value);
    if (flush_every > 0 && ++since_flush >= flush_every) {
      since_flush = 0;
      ApplyLocalBuffers(cl, tau);
    }
  };
  ForEachBlockCell(it->second, chunk, num_chunks, body);
  report_.compute_seconds += sw.ElapsedSeconds();
}

std::map<DistArrayId, std::vector<i64>> Executor::CollectPrefetchKeys(const CompiledLoop& cl,
                                                                      int tau, int step,
                                                                      int chunk,
                                                                      int num_chunks) {
  // Collect the key lists, either from the per-loop cache or by running the
  // synthesized recording pass over this block's iterations. `step` uniquely
  // identifies the block within a pass (wavefront/rotation step, or sync
  // round for chunked 1D loops), so it keys the cache.
  std::map<DistArrayId, std::vector<i64>> recorded;
  bool have_cached = cl.options.prefetch == PrefetchMode::kCached;
  if (have_cached) {
    for (DistArrayId array : cl.server_arrays) {
      auto it = prefetch_key_cache_.find({cl.loop_id, step, array});
      if (it == prefetch_key_cache_.end()) {
        have_cached = false;
        break;
      }
      recorded[array] = it->second;
    }
  }
  if (!have_cached) {
    ORION_TRACE_SPAN(kExecutor, "record_keys");
    recorded.clear();
    CpuStopwatch record_sw;
    KeyRecorder recorder(this, cl, &recorded);
    ArrayState& iter = GetArray(cl.spec.iter_space);
    auto it = iter.parts.find(tau);
    if (it != iter.parts.end()) {
      const KeySpace& ks = iter.meta.key_space;
      std::vector<i64> idx(static_cast<size_t>(ks.num_dims()));
      if (cl.RecordsWithSlice()) {
        // The compiled access-pattern function (sliced from the loop body's
        // AST) replaces kernel replay.
        const PrefetchProgram& program = *cl.prefetch_program;
        const std::vector<DistArrayId>& targets = program.target_arrays();
        slice_frame_.resize(program.frame_size());
        // A dense target's keys go straight to its bitmap: this loop runs
        // per key, and Record's lookup by array id would double its cost.
        target_marks_.clear();
        for (DistArrayId array : targets) {
          target_marks_.push_back(recorder.BitsOf(array));
        }
        KeyBitmap* const* marks = target_marks_.data();
        auto sink = [marks, &recorder, &targets](int target, i64 key) {
          KeyBitmap* bits = marks[target];
          if (bits == nullptr || !bits->Mark(key)) [[unlikely]] {
            recorder.Record(targets[static_cast<size_t>(target)], key);
          }
        };
        ForEachBlockCell(it->second, chunk, num_chunks, [&](i64 key, f32* value) {
          ks.DecodeInto(key, idx);
          program.Run(idx, value, iter.meta.value_dim, slice_frame_, sink);
        });
      } else {
        RecordingLoopContext rctx(this, &cl, tau, &recorder);
        ForEachBlockCell(it->second, chunk, num_chunks, [&](i64 key, f32* value) {
          ks.DecodeInto(key, idx);
          cl.kernel(rctx, idx, value);
        });
      }
    }
    recorder.FinishKeyLists(&key_scratch_);
    if (cl.options.prefetch == PrefetchMode::kCached) {
      for (const auto& [array, keys] : recorded) {
        prefetch_key_cache_[{cl.loop_id, step, array}] = keys;
      }
    }
    report_.compute_seconds += record_sw.ElapsedSeconds();
  }
  return recorded;
}

bool Executor::CanIssueEarly(const CompiledLoop& cl, int step) const {
  if (cl.RecordsWithSlice()) {
    // The synthesized program reads only the iteration records of the target
    // block, which no other step mutates — safe at any point.
    return true;
  }
  if (cl.options.prefetch != PrefetchMode::kCached) {
    return false;  // kernel replay reads live local state; not safe early
  }
  // The key cache is keyed by the step index — the block a worker runs at
  // step s is the same every pass, so step names it uniquely per executor
  // (CollectPrefetchKeys records and looks up under the same key).
  for (DistArrayId array : cl.server_arrays) {
    if (prefetch_key_cache_.count({cl.loop_id, step, array}) == 0) {
      return false;  // cold cache: the first pass still records
    }
  }
  return true;
}

void Executor::IssuePrefetch(const CompiledLoop& cl, int tau, int step, int chunk,
                             int num_chunks, bool speculative, int issued_during) {
  ORION_CHECK(prefetch_ring_.empty() || prefetch_ring_.back().step < step)
      << "prefetch ring issued out of step order";
  auto recorded = CollectPrefetchKeys(cl, tau, step, chunk, num_chunks);

  // Span covers only the request fan-out; key collection traced separately
  // as "record_keys" so the critical-path buckets never double-count.
  ORION_TRACE_SPAN(kExecutor, "prefetch_issue");
  PrefetchSlot slot;
  slot.step = step;
  slot.speculative = speculative;
  slot.issued_during = issued_during;
  const bool per_key = cl.options.prefetch == PrefetchMode::kPerKey;
  for (DistArrayId array : cl.server_arrays) {
    const ArrayState& st = GetArray(array);
    // The slot keeps the list it requested: replies install positionally
    // against it, and a speculative slot's await intersects it with the
    // dirty ranges of intervening steps to repair only the overlap.
    const std::vector<i64>& keys = slot.keys[array] = std::move(recorded[array]);
    slot.buffers.emplace(array, PrefetchLandingPad(st.meta.value_dim, keys));
    // kPerKey models naive remote random access: one coalesced wire message
    // carrying the whole key list, metered in the fabric as |keys| individual
    // requests (and its reply as |keys| individual replies). That keeps the
    // cost of one message per key while sparing the service loop the message
    // storm. Zero keys means zero messages, as it would with one per key.
    if (per_key && keys.empty()) {
      continue;
    }
    ParamRequest req{array, step, keys};
    req.per_key = per_key;
    req.speculative = speculative;
    SendParamRequest(std::move(req));
    ++slot.expected;
  }
  if (speculative) {
    ++report_.spec_issued;
  }
  slot.outstanding = slot.expected;
  slot.issued_at.Reset();
  prefetch_ring_.push_back(std::move(slot));
  PublishRingFill();
  report_.ring_depth_used =
      std::max(report_.ring_depth_used, static_cast<i32>(prefetch_ring_.size()));
}

void Executor::SendParamRequest(ParamRequest req) {
  Message m = MakeMessage(rank_, kMasterRank, MsgKind::kParamRequest);
  MeterAsPerKeyRequests(&m, req);  // no-op unless req.per_key
  Attach(&m, std::move(req), fabric_->zero_copy());
  SendData(std::move(m));
}

void Executor::AwaitPrefetch(const CompiledLoop& cl, int step) {
  if (prefetch_ring_.empty()) {
    return;
  }
  ORION_CHECK(prefetch_ring_.front().step == step) << "prefetch pipeline out of order";
  DrainInbox();
  {
    const PrefetchSlot& front = prefetch_ring_.front();
    ORION_CHECK(front.outstanding >= 0 && front.outstanding <= front.expected)
        << "reply accounting out of range for step" << step;
  }
  const bool spec = prefetch_ring_.front().speculative;
  if (prefetch_ring_.front().outstanding == 0) {
    // Fully overlapped: the wait collapsed to the buffer moves below.
    const double hidden = prefetch_ring_.front().issued_at.ElapsedSeconds();
    if (spec) {
      report_.spec_hidden_seconds += hidden;
    } else {
      report_.prefetch_hidden_seconds += hidden;
    }
    report_.reply_wait.Add(0.0);
  } else {
    Stopwatch blocked;
    {
      ORION_TRACE_SPAN(kExecutor, spec ? "spec_wait" : "prefetch_wait");
      WaitUntil(MsgKind::kParamReply, [this] { return prefetch_ring_.front().outstanding == 0; });
    }
    if (spec) {
      report_.spec_wait_seconds += blocked.ElapsedSeconds();
    }
    report_.reply_wait.Add(blocked.ElapsedSeconds());
  }
  PrefetchSlot slot = std::move(prefetch_ring_.front());
  prefetch_ring_.pop_front();
  PublishRingFill();
  for (DistArrayId array : cl.server_arrays) {
    ArrayState& st = GetArray(array);
    auto it = slot.buffers.find(array);
    if (it != slot.buffers.end()) {
      st.prefetch_cache = std::move(it->second);
    } else {
      st.prefetch_cache = CellStore(st.meta.value_dim, CellStore::Layout::kHashed, 0);
    }
  }
  if (slot.speculative) {
    RepairSpeculative(cl, slot);
  }
}

void Executor::RepairSpeculative(const CompiledLoop& cl, const PrefetchSlot& slot) {
  // Conflict window: the speculative payload was served from master state
  // somewhere between "all writes of steps < issued_during applied" and "all
  // writes of step issued_during applied" (the request raced only that
  // step's flushes on the FIFO master link). Any key a step in
  // [issued_during, step) overwrote may therefore be stale in the cache.
  std::map<DistArrayId, std::vector<i64>> conflicts;
  for (const auto& [array, keys] : slot.keys) {
    if (keys.empty()) {
      continue;
    }
    std::vector<i64> bad;
    for (int t = slot.issued_during; t < slot.step; ++t) {
      auto it = step_dirty_.find(t);
      if (it == step_dirty_.end()) {
        // No summary for an intervening step: assume everything conflicts
        // rather than trust a payload we cannot validate.
        bad = keys;
        break;
      }
      auto ait = it->second.arrays.find(array);
      if (ait == it->second.arrays.end()) {
        continue;  // summary present and silent about this array: clean
      }
      std::vector<i64> hit = ait->second.ConflictKeys(keys);
      bad.insert(bad.end(), hit.begin(), hit.end());
    }
    if (bad.empty()) {
      continue;
    }
    SortUniqueKeys(&bad, &key_scratch_);
    conflicts.emplace(array, std::move(bad));
  }
  if (conflicts.empty()) {
    return;  // validated clean: the speculation was a pure win
  }
  ++report_.spec_conflicts;
  // Partial repair: re-fetch only the conflicting keys, synchronously (the
  // barrier for step-1 has passed, so the master now serves exactly what a
  // synchronous fetch would read), and overwrite-install them over the
  // speculative payload. kOverwrite never deletes cells, so every stale key
  // the master holds comes back.
  ORION_TRACE_SPAN(kExecutor, "spec_wait");
  Stopwatch sw;
  // The repair slot's landing pads are the caches themselves, so the repair
  // replies install positionally over the speculative values.
  PrefetchSlot repair;
  repair.step = slot.step;
  for (auto& [array, keys] : conflicts) {
    ArrayState& st = GetArray(array);
    repair.buffers.emplace(
        array, std::exchange(st.prefetch_cache,
                             CellStore(st.meta.value_dim, CellStore::Layout::kHashed, 0)));
    repair.keys[array] = keys;
    SendParamRequest(ParamRequest{array, slot.step, std::move(keys)});
    ++repair.expected;
  }
  repair.outstanding = repair.expected;
  prefetch_ring_.push_front(std::move(repair));
  PublishRingFill();
  WaitUntil(MsgKind::kParamReply, [this] { return prefetch_ring_.front().outstanding == 0; });
  PrefetchSlot done = std::move(prefetch_ring_.front());
  prefetch_ring_.pop_front();
  PublishRingFill();
  for (auto& [array, cells] : done.buffers) {
    GetArray(array).prefetch_cache = std::move(cells);
  }
  report_.spec_repair_bytes += done.reply_bytes;
  report_.spec_wait_seconds += sw.ElapsedSeconds();
}

// Applies pending buffered updates whose targets this worker currently
// owns (range partitions and the resident rotated partition).
void Executor::ApplyLocalBuffers(const CompiledLoop& cl, int tau) {
  for (auto& [target, buf] : buffers_) {
    if (buf->NumPending() == 0) {
      continue;
    }
    auto pit = cl.plan.placements.find(target);
    if (pit == cl.plan.placements.end()) {
      continue;
    }
    ArrayState& st = GetArray(target);
    if (pit->second.scheme == PartitionScheme::kRange) {
      CellStore updates = buf->Drain();
      DistArrayBuffer::ApplyTo(&st.range_store, updates, buf->apply_fn());
    } else if (pit->second.scheme == PartitionScheme::kSpaceTime) {
      CellStore updates = buf->Drain();
      auto it = st.parts.find(tau);
      ORION_CHECK(it != st.parts.end()) << "buffered update to a non-resident rotated part";
      DistArrayBuffer::ApplyTo(&it->second, updates, buf->apply_fn());
    }
  }
}

void Executor::StepFlush(const CompiledLoop& cl, int tau, int step) {
  ORION_TRACE_SPAN(kExecutor, "step_flush");
  // Flush unbuffered server writes (wavefront loops) as overwrites.
  for (DistArrayId array : cl.server_arrays) {
    ArrayState& st = GetArray(array);
    if (st.server_dirty.NumCells() == 0) {
      continue;
    }
    PartData pd;
    pd.array = array;
    pd.part = -1;
    pd.mode = PartDataMode::kOverwrite;
    pd.cells = std::move(st.server_dirty);
    st.server_dirty = CellStore(st.meta.value_dim, CellStore::Layout::kHashed, 0);
    Message m = MakeMessage(rank_, kMasterRank, MsgKind::kParamUpdate);
    m.tag = static_cast<u32>(step);
    Attach(&m, std::move(pd), fabric_->zero_copy());
    SendData(std::move(m));
  }

  // Apply buffered writes to locally owned targets, then ship the ones to
  // replicated targets. Server-hosted targets flush in FlushServerBuffers.
  ApplyLocalBuffers(cl, tau);
  for (auto& [target, buf] : buffers_) {
    if (buf->NumPending() == 0) {
      continue;
    }
    auto pit = cl.plan.placements.find(target);
    if (pit == cl.plan.placements.end() || pit->second.scheme == PartitionScheme::kServer) {
      continue;  // not in this loop, or server-hosted
    }
    ORION_CHECK(pit->second.scheme == PartitionScheme::kReplicated)
        << "buffered update to iteration space";
    // Already applied locally at BufferUpdate time; ship the delta.
    PartData pd;
    pd.array = target;
    pd.part = -1;
    pd.mode = PartDataMode::kApplyBufferUdf;
    pd.cells = buf->Drain();
    Message m = MakeMessage(rank_, kMasterRank, MsgKind::kParamUpdate);
    m.tag = static_cast<u32>(step);
    Attach(&m, std::move(pd), fabric_->zero_copy());
    SendData(std::move(m));
  }
}

// Ships buffered updates whose targets are server-hosted. Called once per
// step of a 1D loop, where steps are sync rounds (bounded buffering delay,
// paper Sec. 3.3), and once at the end of every pass.
void Executor::FlushServerBuffers(const CompiledLoop& cl) {
  for (DistArrayId target : cl.server_arrays) {
    auto it = buffers_.find(target);
    if (it == buffers_.end() || it->second->NumPending() == 0) {
      continue;
    }
    PartData pd;
    pd.array = target;
    pd.part = -1;
    pd.mode = PartDataMode::kApplyBufferUdf;
    pd.cells = it->second->Drain();
    Message m = MakeMessage(rank_, kMasterRank, MsgKind::kParamUpdate);
    Attach(&m, std::move(pd), fabric_->zero_copy());
    SendData(std::move(m));
  }
}

void Executor::SendRotatedParts(const CompiledLoop& cl, int tau) {
  ORION_TRACE_SPAN(kExecutor, "rotation_send");
  WorkerId dest;
  if (cl.UsesWavefront()) {
    dest = cl.sched_wave.SendTo(logical_rank_);
  } else {
    dest = cl.sched_rot.SendTo(logical_rank_);
  }
  dest = Physical(dest);
  for (const auto& [array, placement] : cl.plan.placements) {
    if (placement.scheme != PartitionScheme::kSpaceTime) {
      continue;
    }
    ArrayState& st = GetArray(array);
    auto it = st.parts.find(tau);
    ORION_CHECK(it != st.parts.end()) << "rotated part" << tau << "vanished";
    if (dest == kMasterRank && !cl.UsesWavefront()) {
      continue;  // single worker: the part simply stays resident
    }
    PartData pd;
    pd.array = array;
    pd.part = tau;
    pd.mode = PartDataMode::kInstallPart;
    pd.cells = std::move(it->second);
    st.parts.erase(it);
    Message m = MakeMessage(rank_, dest, MsgKind::kPartitionData);
    m.tag = PartTag(tau);
    Attach(&m, std::move(pd), fabric_->zero_copy());
    SendData(std::move(m));
  }
}

void Executor::DrainReturningParts(const CompiledLoop& cl) {
  // Unordered rotation: the last `pipeline_depth` partitions of each rotated
  // array are still in flight back to their initial owners; pull them in so
  // the next pass starts with the initial residency.
  if (cl.num_workers == 1) {
    return;
  }
  ORION_TRACE_SPAN(kExecutor, "drain_returning");
  for (const auto& [array, placement] : cl.plan.placements) {
    if (placement.scheme != PartitionScheme::kSpaceTime) {
      continue;
    }
    ArrayState& st = GetArray(array);
    for (int tau = 0; tau < cl.sched_rot.num_time_parts(); ++tau) {
      if (cl.sched_rot.InitialOwner(tau) == logical_rank_) {
        WaitUntil(MsgKind::kPartitionData, [&] { return st.parts.count(tau) != 0; });
      }
    }
  }
}

void Executor::RunPass(i32 loop_id, i32 pass, int spec_depth) {
  current_pass_ = pass;
  trace::SetThreadRank(logical_rank_);
  trace::SetThreadPass(pass);
  trace::SetThreadStep(-1);
  const i64 trace_pass_start_ns = trace::Enabled() ? trace::NowNs() : 0;
  MaybeCrash(pass, -1);
  auto cl = dir_->GetLoop(loop_id);
  accum_ops_ = dir_->accumulator_ops();
  accum_.resize(accum_ops_.size());
  for (size_t i = 0; i < accum_.size(); ++i) {
    accum_[i] = AccumIdentity(accum_ops_[i]);
  }
  report_ = WorkerPassMetrics{};
  prefetch_ring_.clear();
  PublishRingFill();
  step_dirty_.clear();
  spec_depth_ = spec_depth;
  overlap_ = cl->options.overlap;
  sender_busy_at_pass_start_ = sender_.busy_seconds();

  const bool has_server = !cl->server_arrays.empty();
  const int steps = cl->NumSteps();
  // A 1D loop's steps are its sync rounds: each round prefetches fresh
  // server values, executes one slice of the local iterations, and flushes
  // buffered updates so other workers' next rounds observe them (bounded
  // buffering delay). Rounds are never pipelined: round r+1's prefetch must
  // observe round r's flushes, so issue and await stay back to back (the
  // master-bound link is FIFO, so the request queued behind the flushes
  // reads fresh state). Under async serving these requests are served from
  // a snapshot pinned at dequeue time — same bytes, but the gather copies
  // run on the server pool with no lock held. Cross-round prefetch stays
  // illegal regardless: the snapshot for round r+1 must be pinned *after*
  // round r's flushes are applied.
  const int num_chunks = cl->Is2D() ? 1 : steps;
  // Pipelined prefetch is only legal for unordered rotation schedules: the
  // master's server state is pass-constant there (buffered server updates
  // apply at pass end), so fetching step t+1 before or after computing
  // step t reads identical values. Wavefront/lockstep loops flush server
  // overwrites every step that the *next* step must observe, so they keep
  // the synchronous issue-await pairing unless they speculate.
  const bool pipelined = overlap_ && has_server && cl->UsesRotation();
  // Speculative prefetch for ordered schedules: the master shipped a
  // non-zero spec depth (the loop opted in and the controller has not
  // disabled it), the loop barriers every step, and the overlap engine is
  // on so the early requests ride the comm thread.
  const bool speculating = spec_depth_ > 0 && overlap_ && has_server && cl->NeedsStepBarrier();
  // How many steps the prefetch ring may run ahead. A loop either rotates
  // or barriers, so at most one of the two is set.
  const int ahead =
      pipelined ? std::max(1, cl->options.prefetch_depth) : speculating ? spec_depth_ : 0;
  // Next step at which this worker executes a block (-1 when none): the
  // step the early issue targets.
  auto next_active = [&](int after) {
    for (int s = after + 1; s < steps; ++s) {
      if (cl->TimePartAt(logical_rank_, s) >= 0) {
        return s;
      }
    }
    return -1;
  };
  // Deepest step a prefetch has been issued for; every issue extends from
  // here so the ring stays in step order.
  int issued_through = -1;
  for (int step = 0; step < steps; ++step) {
    trace::SetThreadStep(step);
    MaybeCrash(pass, step);
    MaybeStraggle(pass);
    DrainInbox();
    const int tau = cl->TimePartAt(logical_rank_, step);
    const int chunk = cl->Is2D() ? 0 : step;
    const bool active = !cl->Is2D() || tau >= 0;
    if (active) {
      for (const auto& [array, placement] : cl->plan.placements) {
        if (placement.scheme == PartitionScheme::kSpaceTime) {
          WaitForPart(array, tau);
        }
      }
      if (has_server && prefetch_ring_.empty()) {
        IssuePrefetch(*cl, tau, step, chunk, num_chunks);
        issued_through = step;
      }
      AwaitPrefetch(*cl, step);
    }
    // Issue ahead: key lists for upcoming steps that don't depend on local
    // mutable state (synthesized program or warm cache) go out before
    // compute, hiding up to `ahead` round trips under the kernels. Rotation
    // reads pass-constant server state, so step t+k reads the same values
    // whenever it is fetched. Ordered loops do not: their steps flush
    // overwrites mid-pass, so each speculative slot records what it asked
    // for and AwaitPrefetch validates the payload against the dirty-range
    // summaries carried by the intervening barrier releases, re-fetching
    // only conflicting keys. That also runs on idle fill steps: a worker
    // that has not entered the wavefront yet still barriers every step, so
    // its first block's fetch can ride ahead under the same validation
    // window instead of gating its entry step. (Rotation workers are never
    // idle.)
    while (static_cast<int>(prefetch_ring_.size()) < ahead) {
      const int nstep = next_active(issued_through);
      if (nstep < 0 || !CanIssueEarly(*cl, nstep)) {
        break;
      }
      IssuePrefetch(*cl, cl->TimePartAt(logical_rank_, nstep), nstep, 0, 1, speculating, step);
      issued_through = nstep;
    }
    if (active) {
      ExecuteCells(*cl, tau, chunk, num_chunks);
      StepFlush(*cl, tau, step);
      if (!cl->Is2D()) {
        FlushServerBuffers(*cl);
      } else if (!cl->UsesLockstep()) {
        SendRotatedParts(*cl, tau);
      }
      if (pipelined && prefetch_ring_.empty()) {
        // Shallow issue: kernel-replay recording needs step t+1's rotated
        // partitions resident (replay reads them, and Resolve CHECKs that
        // they are rather than plant placeholders that fool WaitForPart).
        // When they already arrived, the request still overlaps the tail
        // of this step and the next step's wait.
        const int nstep = next_active(issued_through);
        if (nstep >= 0) {
          const int ntau = cl->TimePartAt(logical_rank_, nstep);
          DrainInbox();
          bool parts_ready = true;
          for (const auto& [array, placement] : cl->plan.placements) {
            if (placement.scheme == PartitionScheme::kSpaceTime &&
                GetArray(array).parts.count(ntau) == 0) {
              parts_ready = false;
              break;
            }
          }
          if (parts_ready) {
            IssuePrefetch(*cl, ntau, nstep, 0, 1);
            issued_through = nstep;
          }
        }
      }
    }
    if (cl->NeedsStepBarrier()) {
      Barrier(pass, step);
    }
  }
  if (cl->UsesRotation()) {
    DrainReturningParts(*cl);
  }
  FlushServerBuffers(*cl);  // 2D loops; a 1D loop flushed them every round

  // Quiesce the comm thread before reporting: the master treats PassDone as
  // "all of this worker's pass traffic is in", and the direct send below
  // must not overtake queued updates on the master-bound link.
  sender_.Flush();
  overlap_ = false;

  PassDone done;
  done.loop_id = loop_id;
  done.pass = pass;
  report_.overlap_send_seconds = sender_.busy_seconds() - sender_busy_at_pass_start_;
  done.metrics = report_;
  done.accumulators = accum_;
  if (trace::Enabled()) {
    // Close the pass span, then ship everything this rank recorded (the
    // sender lane is quiesced by the Flush above, so its spans are in).
    trace::SetThreadStep(-1);
    trace::Emit(trace::Category::kExecutor, "pass", trace_pass_start_ns, trace::NowNs());
    done.spans = DrainOwnSpans();
  }
  Message m = MakeMessage(rank_, kMasterRank, MsgKind::kControl, Encode(done));
  cached_pass_done_ = m;  // re-answer if the master retransmits kStartPass
  last_completed_pass_ = pass;
  current_pass_ = -1;
  fabric_->Send(std::move(m));
}

void Executor::HandleGather(DistArrayId array) {
  ArrayState& st = GetArray(array);
  CellStore merged(st.meta.value_dim, CellStore::Layout::kHashed, 0);
  merged.MergeAdd(st.range_store);
  for (const auto& [tau, cells] : st.parts) {
    merged.MergeAdd(cells);
  }
  PartData pd;
  pd.array = array;
  pd.part = -1;
  pd.mode = PartDataMode::kOverwrite;
  pd.cells = std::move(merged);
  Message m = MakeMessage(rank_, kMasterRank, MsgKind::kParamUpdate);
  Attach(&m, std::move(pd), fabric_->zero_copy());
  fabric_->Send(std::move(m));  // between passes: the comm thread is idle
  DropArray(array);
}

void Executor::DropArray(DistArrayId array) {
  arrays_.erase(array);
  // Invalidate only the cached prefetch key lists this drop can stale: those
  // naming the dropped array, and those of loops that recorded their keys
  // from it as the iteration space (a re-scattered iteration space may carry
  // different records). Lists for unrelated arrays stay warm.
  for (auto it = prefetch_key_cache_.begin(); it != prefetch_key_cache_.end();) {
    const auto& [loop_id, step, cached_array] = it->first;
    (void)step;
    if (cached_array == array || dir_->GetLoop(loop_id)->spec.iter_space == array) {
      it = prefetch_key_cache_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace orion
