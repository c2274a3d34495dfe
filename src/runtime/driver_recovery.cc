// Driver recovery (paper Sec. 4.3): one-array checkpoints, the delta-log
// durability cycle, and cluster membership after a failure — the two-phase
// reconfigure that retires a lost rank or rejoins it, crash recovery with
// replay, master restart and point-in-time restore.
#include "src/runtime/driver.h"

#include <algorithm>

#include "src/common/flight_recorder.h"
#include "src/common/logging.h"
#include "src/common/timer.h"

namespace orion {

namespace {
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

// Opens the durability log; kFailedPrecondition naming `caller` when
// EnableDurability never ran.
StatusOr<DeltaLogReader> OpenLog(const DeltaLogWriter* writer, const char* caller) {
  if (writer == nullptr) {
    return Status::FailedPrecondition(std::string(caller) + " requires EnableDurability");
  }
  return DeltaLogReader::Open(writer->dir());
}

// The log state recorded after `pass` completed passes, or the latest one.
StatusOr<DeltaLogReader::State> LoadLogState(const DeltaLogWriter* writer, const char* caller,
                                             std::optional<i64> pass) {
  auto reader = OpenLog(writer, caller);
  if (!reader.ok()) {
    return reader.status();
  }
  return pass.has_value() ? reader->StateAtPass(*pass) : reader->Latest();
}
}  // namespace

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
  m.next_pass = completed_passes_;
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
  completed_passes_ = static_cast<int>(state.master.next_pass);
  if (restore_pass_counter) {
    pass_counter_ = completed_passes_;
  }
  pass_log_.clear();
  fr::Record(fr::EventKind::kRestore, -1, pass_counter_);
  return Status::Ok();
}

// Two-phase reconfigure. Phase 0: every member adopts the new logical rank /
// ring and unwinds its in-flight pass; because links are FIFO, once a
// member's ack is in, no earlier message from it is still queued. Phase 1
// (sent only after all phase-0 acks): members drop all DistArray state and
// caches so the master can re-scatter from the checkpoint.
StatusOr<bool> Driver::Reconfigure(ControlOp op, int also_retire) {
  auto send = [&](int to, i32 logical_rank, ControlOp send_op, i32 phase) {
    Retire r;
    r.op = send_op;
    r.phase = phase;
    r.logical_rank = logical_rank;
    r.ring.assign(live_ranks_.begin(), live_ranks_.end());
    fabric_->SendReliable(MakeMessage(kMasterRank, to, MsgKind::kControl, Encode(r)));
  };
  bool also_acked = false;
  for (i32 phase = 0; phase < 2; ++phase) {
    for (size_t logical = 0; logical < live_ranks_.size(); ++logical) {
      send(live_ranks_[logical], static_cast<i32>(logical), op, phase);
    }
    if (phase == 0 && also_retire >= 0) {
      // Best-effort retire of the rank left out of the ring: if it was a
      // false-positive death (still running), this unwinds it and stops it
      // interfering.
      send(also_retire, /*logical_rank=*/-2, ControlOp::kRetire, 0);
    }
    std::set<int> acked;
    while (static_cast<int>(acked.size()) < ActiveWorkers()) {
      auto msg = fabric_->Recv(kMasterRank);
      if (!msg.has_value()) {
        return Status::Internal("fabric shut down during reconfiguration");
      }
      if (msg->kind != MsgKind::kControl) {
        continue;  // in-flight pass traffic
      }
      if (also_retire >= 0 && msg->from == also_retire) {
        // An ack from the left-out rank itself means it is alive (the death
        // was a false positive) — the rejoin path can skip the executor
        // restart.
        if (PeekControlOp(msg->payload) == ControlOp::kRetire) {
          const Retire ack = Decode<Retire>(msg->payload);
          also_acked = also_acked || (ack.is_ack && ack.phase == 0);
        }
        continue;
      }
      // Drain everything else: duplicated control messages, traffic from
      // retired ranks, and late acks of the other op — acks echo the op, so
      // stale retire traffic can never satisfy a rejoin collection.
      if (!IsLive(msg->from) || PeekControlOp(msg->payload) != op) {
        continue;
      }
      const Retire ack = Decode<Retire>(msg->payload);
      if (ack.is_ack && ack.phase == phase) {
        acked.insert(msg->from);
      }
    }
  }
  return also_acked;
}

Status Driver::RejoinWorker(int rank, bool saw_phase0_ack) {
  if (!saw_phase0_ack) {
    // No sign of life from the best-effort retire: the rank's executor
    // thread almost certainly halted (injected crash). Shut it down
    // definitively — if it is actually alive, the shutdown makes it exit —
    // join the old thread, flush its inbox, and start a fresh executor. A
    // fresh executor is indistinguishable from a rebooted worker process.
    fabric_->SendReliable(MakeMessage(kMasterRank, rank, MsgKind::kShutdown));
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
  return Reconfigure(ControlOp::kRejoin).status();
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

  // Survivors adopt the N-1 ring and drop their partitions, and the lost
  // rank gets a best-effort retire. Worker-resident placements are gone:
  // InstallLogState marks every master authoritative again.
  const StatusOr<bool> lost_acked = Reconfigure(ControlOp::kRetire, lost_physical_rank);
  ORION_RETURN_IF_ERROR(lost_acked.status());

  // Capture the replay list before the restore machinery clears it.
  auto log = std::move(pass_log_);  // leaves pass_log_ empty

  // Restore from the delta log: base image plus the delta tail.
  Stopwatch restore_sw;
  auto state = LoadLogState(delta_writer_.get(), "Recover", std::nullopt);
  if (!state.ok()) {
    return state.status();
  }
  ORION_RETURN_IF_ERROR(InstallLogState(std::move(state).value(),
                                        /*restore_pass_counter=*/false));
  runtime_metrics_.restore_seconds += restore_sw.ElapsedSeconds();
  if (durability_options_.rejoin_crashed_workers) {
    ORION_RETURN_IF_ERROR(RejoinWorker(lost_physical_rank, *lost_acked));
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
  Stopwatch sw;
  auto state = LoadLogState(delta_writer_.get(), "ResumeFromLog", std::nullopt);
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
  ORION_RETURN_IF_ERROR(RecompileLoops());
  runtime_metrics_.restore_seconds += sw.ElapsedSeconds();
  return resumed;
}

Status Driver::RestoreToPass(i64 pass) {
  Stopwatch sw;
  auto state = LoadLogState(delta_writer_.get(), "RestoreToPass", pass);
  if (!state.ok()) {
    return state.status();
  }
  if (param_server_ != nullptr) {
    param_server_->Quiesce();
  }
  // Rewinding the pass counter means re-issuing pass numbers the workers
  // have already seen; reconfigure resets their watermarks and drops their
  // partitions so the next scatter streams the restored cells.
  ORION_RETURN_IF_ERROR(Reconfigure(ControlOp::kRejoin).status());
  ORION_RETURN_IF_ERROR(InstallLogState(std::move(state).value(),
                                        /*restore_pass_counter=*/true));
  ORION_RETURN_IF_ERROR(RecompileLoops());
  runtime_metrics_.restore_seconds += sw.ElapsedSeconds();
  return Status::Ok();
}

StatusOr<std::vector<RestorePoint>> Driver::DurabilityPoints() const {
  auto reader = OpenLog(delta_writer_.get(), "DurabilityPoints");
  if (!reader.ok()) {
    return reader.status();
  }
  return reader->points();
}

}  // namespace orion
