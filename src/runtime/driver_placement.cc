// Driver placement: where each DistArray lives between passes. Scatters the
// iteration space and the accessed arrays under a loop's grid, gathers them
// back to the master, and broadcasts replica snapshots.
#include "src/runtime/driver.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/simd.h"
#include "src/dsm/bucket.h"

namespace orion {

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
    fabric_->SendReliable(MakeMessage(kMasterRank, w, MsgKind::kControl,
                                      Encode(ArrayOp{ControlOp::kGather, id})));
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
    PartData pd = Take<PartData>(*msg);
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
    fabric_->SendReliable(MakeMessage(kMasterRank, w, MsgKind::kControl,
                                      Encode(ArrayOp{ControlOp::kDropArray, id})));
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
    Message m = MakeMessage(kMasterRank, PhysicalOf(worker), MsgKind::kPartitionData);
    m.tag = PartTag(tau);
    Attach(&m, std::move(pd), fabric_->zero_copy());
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
    const auto [s, t] = cl.ScheduleCoordsOf(idx);
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
    return;  // master-hosted; nothing to ship (workers hold caches only)
  }
  if (placement.scheme == PartitionScheme::kReplicated) {
    BroadcastReplicaSnapshot(cl, id);
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
      h.on_workers = true;  // for kServer: workers hold caches only
      h.placement = placement;
      h.grid = cl.grid;
    }
  }
}

void Driver::BroadcastReplicaSnapshot(const CompiledLoop& cl, DistArrayId array) {
  ArrayHost& h = Host(array);
  QuiesceServingFor(array);  // the Flat() below collapses a served master
  // One payload for the whole broadcast: zero-copy receivers share one
  // multi-reader carrier (each copies out of it); the serialized path
  // encodes once and every receiver gets a copy of the bytes.
  PartData pd;
  pd.array = array;
  pd.part = -1;
  pd.mode = PartDataMode::kReplicaSnapshot;
  pd.cells = h.master.Flat();
  Message snapshot = MakeMessage(kMasterRank, kMasterRank, MsgKind::kPartitionData);
  Attach(&snapshot, std::move(pd), fabric_->zero_copy(), /*multi_reader=*/true);
  for (int w : live_ranks_) {
    Message m = snapshot;
    m.to = w;
    state_transfer_pending_.insert(w);
    fabric_->Send(std::move(m));
  }
}

}  // namespace orion
