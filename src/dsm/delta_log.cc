#include "src/dsm/delta_log.h"

#include <algorithm>
#include <cstring>
#include <filesystem>

#include "src/common/buffer_pool.h"
#include "src/common/durable_io.h"
#include "src/common/simd.h"

namespace orion {
namespace {

constexpr u32 kBaseMagic = 0x4f524442;  // "ORDB"
constexpr u32 kWalMagic = 0x4f52444c;   // "ORDL"
// v3: delta array records no longer carry a page size; every store pages
// at VersionedCellStore::kPageCells.
constexpr u32 kLogVersion = 3;

std::string BasePath(const std::string& dir) { return dir + "/base.orib"; }
std::string WalPath(const std::string& dir) { return dir + "/wal.oril"; }

// The checksum covers seq + size + payload, so a flipped bit in the header's
// ordering fields is caught, not just payload damage.
u64 FrameCrc(u64 seq, const u8* payload, size_t payload_size) {
  u8 hdr[2 * sizeof(u64)];
  const u64 size64 = static_cast<u64>(payload_size);
  std::memcpy(hdr, &seq, sizeof(u64));
  std::memcpy(hdr + sizeof(u64), &size64, sizeof(u64));
  return Fnv1a64(payload, payload_size, Fnv1a64(hdr, sizeof(hdr)));
}

constexpr size_t kFrameHeaderBytes = 2 * sizeof(u32) + 3 * sizeof(u64);

// Frames `payload` as {magic, version, seq, size, crc, payload}. The frame
// buffer is pool-backed and exactly reserved; callers release it after the
// durable write.
std::vector<u8> FrameRecord(u32 magic, u64 seq, const std::vector<u8>& payload) {
  ByteWriter w(kFrameHeaderBytes + payload.size());
  w.Put<u32>(magic);
  w.Put<u32>(kLogVersion);
  w.Put<u64>(seq);
  w.Put<u64>(static_cast<u64>(payload.size()));
  w.Put<u64>(FrameCrc(seq, payload.data(), payload.size()));
  w.PutBytes(payload.data(), payload.size());
  return w.Take();
}

// Validates one frame starting at `*pos` and advances past it. Returns the
// seq and the payload span, or InvalidArgument naming the failed check (short
// header or payload, magic, version, checksum) in words that follow the file
// name: base images report it, the WAL scan treats any failure as its torn
// tail.
struct Frame {
  u64 seq = 0;
  const u8* payload = nullptr;
  size_t payload_size = 0;
};
StatusOr<Frame> ReadFrame(const std::vector<u8>& bytes, size_t* pos, u32 magic) {
  if (bytes.size() - *pos < kFrameHeaderBytes) {
    return Status::InvalidArgument("is truncated");
  }
  ByteReader r(bytes.data() + *pos, bytes.size() - *pos);
  if (r.Get<u32>() != magic) {
    return Status::InvalidArgument("is not an Orion checkpoint");
  }
  const u32 version = r.Get<u32>();
  if (version != kLogVersion) {
    return Status::InvalidArgument("has an unsupported checkpoint version " +
                                   std::to_string(version));
  }
  Frame f;
  f.seq = r.Get<u64>();
  f.payload_size = static_cast<size_t>(r.Get<u64>());
  const u64 crc = r.Get<u64>();
  if (f.payload_size > r.remaining()) {
    return Status::InvalidArgument("is truncated");  // torn tail
  }
  f.payload = bytes.data() + *pos + kFrameHeaderBytes;
  if (FrameCrc(f.seq, f.payload, f.payload_size) != crc) {
    return Status::InvalidArgument("failed checksum verification");
  }
  *pos += kFrameHeaderBytes + f.payload_size;
  return f;
}

void EncodeFullArray(const ArrayCheckpointRef& a, ByteWriter* w) {
  w->PutString(a.name);
  w->Put<u8>(1);  // full
  a.store->SerializeTo(w);
}

void EncodeDeltaArray(const ArrayCheckpointRef& a, ByteWriter* w, u64* pages_out) {
  const VersionedCellStore& s = *a.store;
  w->PutString(a.name);
  w->Put<u8>(0);  // delta
  w->Put<u8>(static_cast<u8>(s.layout()));
  w->Put<i32>(s.value_dim());
  w->Put<i64>(s.range_lo());
  w->Put<i64>(s.range_hi());
  w->Put<i64>(s.NumCells());
  std::vector<i64> new_keys;
  if (s.layout() == CellStore::Layout::kHashed) {
    const auto& keys = s.paged_keys();
    new_keys.assign(keys.begin() + static_cast<size_t>(s.checkpoint_cells()), keys.end());
  }
  w->PutVec(new_keys);
  const std::vector<u32> dirty = s.DirtyPages();
  w->Put<u64>(static_cast<u64>(dirty.size()));
  const size_t page_floats = s.PageFloats();
  w->Reserve(dirty.size() * (sizeof(u32) + sizeof(u64) + page_floats * sizeof(f32)));
  for (const u32 pi : dirty) {
    w->Put<u32>(pi);
    // Full fixed-size pages (zero-padded tail), written straight from the
    // page storage — no scratch copy; the reader clamps the overlay to
    // num_cells * vdim.
    w->Put<u64>(static_cast<u64>(page_floats));  // PutVec-compatible prefix
    w->PutBytes(s.PageData(pi), page_floats * sizeof(f32));
  }
  *pages_out += dirty.size();
}

}  // namespace

void MasterRecord::Encode(ByteWriter* w) const {
  w->Put<i64>(next_pass);
  w->Put<u64>(config_seed);
  w->Put<u64>(fault_seed);
  w->Put<i32>(num_workers);
  w->PutVec(live_ranks);
  w->PutVec(loop_ids);
  w->PutVec(accumulators);
}

MasterRecord MasterRecord::Decode(ByteReader* r) {
  MasterRecord m;
  m.next_pass = r->Get<i64>();
  m.config_seed = r->Get<u64>();
  m.fault_seed = r->Get<u64>();
  m.num_workers = r->Get<i32>();
  m.live_ranks = r->GetVec<i32>();
  m.loop_ids = r->GetVec<i32>();
  m.accumulators = r->GetVec<f64>();
  return m;
}

// ---------------------------------------------------------------------------
// Base images

StatusOr<u64> WriteBaseImage(const std::string& path, u64 seq, const MasterRecord& master,
                             const std::vector<ArrayCheckpointRef>& arrays) {
  ByteWriter payload;
  master.Encode(&payload);
  payload.Put<u64>(static_cast<u64>(arrays.size()));
  for (const ArrayCheckpointRef& a : arrays) {
    payload.PutString(a.name);
    a.store->SerializeTo(&payload);
  }
  std::vector<u8> frame = FrameRecord(kBaseMagic, seq, payload.bytes());
  const u64 bytes = frame.size();
  const Status s = DurableWriteFile(path, frame.data(), frame.size());
  // Recycle both scratch buffers whether or not the write stuck; the next
  // checkpoint's encode acquires them straight back from the pool.
  BufferPool::Release(payload.Take());
  BufferPool::Release(std::move(frame));
  if (!s.ok()) {
    return s;
  }
  return bytes;
}

StatusOr<BaseImage> ReadBaseImage(const std::string& path) {
  auto bytes = ReadFileBytes(path);
  if (!bytes.ok()) {
    return bytes.status();
  }
  size_t pos = 0;
  auto frame = ReadFrame(*bytes, &pos, kBaseMagic);
  if (!frame.ok()) {
    return Status::InvalidArgument(path + " " + frame.status().message());
  }
  if (pos != bytes->size()) {
    return Status::InvalidArgument(path + " has trailing bytes after its image");
  }
  BaseImage out;
  out.seq = frame->seq;
  ByteReader r(frame->payload, frame->payload_size);
  out.master = MasterRecord::Decode(&r);
  for (u64 i = r.Get<u64>(); i > 0; --i) {
    std::string name = r.GetString();
    auto store = CellStore::TryDeserialize(&r);
    if (!store.ok()) {
      return Status::InvalidArgument(path + ": array " + name + ": " + store.status().message());
    }
    out.arrays.emplace(std::move(name), std::move(store).value());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Reader

StatusOr<DeltaLogReader> DeltaLogReader::Open(const std::string& dir) {
  DeltaLogReader out;

  // A missing base reads as kNotFound (a fresh log); a corrupt one as
  // kInvalidArgument, so the writer refuses to append over it.
  auto base = ReadBaseImage(BasePath(dir));
  if (!base.ok()) {
    return base.status();
  }
  out.base_seq_ = base->seq;
  out.base_master_ = std::move(base->master);
  out.base_arrays_ = std::move(base->arrays);
  out.points_.push_back({out.base_seq_, out.base_master_.next_pass});

  auto wal_bytes = ReadFileBytes(WalPath(dir));
  if (!wal_bytes.ok()) {
    if (wal_bytes.status().code() != StatusCode::kNotFound) {
      return wal_bytes.status();
    }
    return out;  // base only — fresh log or just-compacted
  }
  size_t pos = 0;
  while (pos < wal_bytes->size()) {
    const size_t frame_start = pos;
    auto f = ReadFrame(*wal_bytes, &pos, kWalMagic);
    if (!f.ok()) {
      out.torn_tail_ = true;
      out.valid_wal_bytes_ = frame_start;
      return out;
    }
    if (f->seq <= out.base_seq_) {
      // Survivor from the crash window between base rename and WAL
      // truncation — already folded into the base.
      out.valid_wal_bytes_ = pos;
      continue;
    }
    Record rec;
    rec.seq = f->seq;
    ByteReader r(f->payload, f->payload_size);
    rec.master = MasterRecord::Decode(&r);
    const u64 count = r.Get<u64>();
    for (u64 i = 0; i < count; ++i) {
      ArrayDelta d;
      d.name = r.GetString();
      d.full = r.Get<u8>() != 0;
      if (d.full) {
        auto store = CellStore::TryDeserialize(&r);
        if (!store.ok()) {
          return Status::InvalidArgument("delta log " + dir + " record " +
                                         std::to_string(f->seq) + ": " +
                                         store.status().message());
        }
        d.full_store = std::move(store).value();
      } else {
        d.layout = r.Get<u8>();
        d.vdim = r.Get<i32>();
        d.lo = r.Get<i64>();
        d.hi = r.Get<i64>();
        d.num_cells = r.Get<i64>();
        d.new_keys = r.GetVec<i64>();
        const u64 npages = r.Get<u64>();
        d.pages.reserve(static_cast<size_t>(npages));
        for (u64 p = 0; p < npages; ++p) {
          const u32 pi = r.Get<u32>();
          d.pages.emplace_back(pi, r.GetVec<f32>());
        }
      }
      rec.arrays.push_back(std::move(d));
    }
    out.points_.push_back({rec.seq, rec.master.next_pass});
    out.records_.push_back(std::move(rec));
    out.valid_wal_bytes_ = pos;
  }
  return out;
}

StatusOr<DeltaLogReader::State> DeltaLogReader::StateAt(u64 seq) const {
  if (seq < base_seq_) {
    return Status::NotFound("checkpoint seq " + std::to_string(seq) +
                            " predates the base image (compacted away)");
  }
  const bool known =
      seq == base_seq_ ||
      std::any_of(records_.begin(), records_.end(),
                  [seq](const Record& r) { return r.seq == seq; });
  if (!known) {
    return Status::NotFound("no checkpoint with seq " + std::to_string(seq));
  }

  State s;
  s.master = base_master_;
  s.arrays = base_arrays_;
  for (const Record& rec : records_) {
    if (rec.seq > seq) {
      break;
    }
    s.master = rec.master;
    for (const ArrayDelta& d : rec.arrays) {
      if (d.full) {
        s.arrays[d.name] = d.full_store;
        continue;
      }
      auto it = s.arrays.find(d.name);
      if (it == s.arrays.end()) {
        return Status::InvalidArgument("delta for unknown array " + d.name);
      }
      CellStore& cells = it->second;
      if (cells.value_dim() != d.vdim ||
          static_cast<u8>(cells.layout()) != d.layout) {
        return Status::InvalidArgument("delta layout mismatch for array " + d.name);
      }
      if (d.layout == static_cast<u8>(CellStore::Layout::kHashed)) {
        for (const i64 key : d.new_keys) {
          cells.GetOrCreate(key);
        }
      }
      if (cells.NumCells() != d.num_cells) {
        return Status::InvalidArgument("delta cell count mismatch for array " + d.name);
      }
      const size_t page_floats = static_cast<size_t>(VersionedCellStore::kPageCells) * d.vdim;
      const size_t total = static_cast<size_t>(d.num_cells) * d.vdim;
      f32* dst = cells.raw_values_data();
      for (const auto& [pi, page] : d.pages) {
        const size_t off = static_cast<size_t>(pi) * page_floats;
        if (off >= total || page.size() < page_floats) {
          return Status::InvalidArgument("delta page out of range for array " + d.name);
        }
        const size_t n = std::min(page_floats, total - off);
        simd::CopyF32(dst + off, page.data(), n);
      }
    }
  }
  return s;
}

StatusOr<DeltaLogReader::State> DeltaLogReader::StateAtPass(i64 pass) const {
  for (const RestorePoint& p : points_) {
    if (p.pass == pass) {
      return StateAt(p.seq);
    }
  }
  return Status::NotFound("no checkpoint at pass " + std::to_string(pass));
}

StatusOr<DeltaLogReader::State> DeltaLogReader::Latest() const {
  return StateAt(points_.back().seq);
}

// ---------------------------------------------------------------------------
// Writer

StatusOr<std::unique_ptr<DeltaLogWriter>> DeltaLogWriter::Open(
    std::string dir, DeltaLogOptions options) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create log directory " + dir + ": " + ec.message());
  }
  auto w = std::unique_ptr<DeltaLogWriter>(new DeltaLogWriter(std::move(dir), options));

  auto existing = DeltaLogReader::Open(w->dir_);
  if (existing.ok()) {
    const DeltaLogReader& log = existing.value();
    w->seq_ = log.points_.back().seq;
    w->records_since_base_ = static_cast<int>(log.records_.size());
    if (log.torn_tail()) {
      // Drop the torn tail so the next append starts at a record boundary.
      const Status s = DurableTruncateFile(WalPath(w->dir_), log.valid_wal_bytes());
      if (!s.ok()) {
        return s;
      }
    }
  } else if (existing.status().code() != StatusCode::kNotFound) {
    return existing.status();  // corrupt base: refuse to append over it
  }
  return w;
}

Status DeltaLogWriter::WriteBase(const MasterRecord& master,
                                 const std::vector<ArrayCheckpointRef>& arrays,
                                 u64* bytes) {
  auto written = WriteBaseImage(BasePath(dir_), seq_, master, arrays);
  if (!written.ok()) {
    return written.status();
  }
  *bytes += *written;
  // The WAL prefix is now folded into the base; drop it. A crash before the
  // truncate is benign — readers skip records with seq <= base seq.
  std::error_code ec;
  if (std::filesystem::exists(WalPath(dir_), ec)) {
    const Status s = DurableTruncateFile(WalPath(dir_), 0);
    if (!s.ok()) {
      return s;
    }
  }
  records_since_base_ = 0;
  return Status::Ok();
}

StatusOr<DeltaAppendStats> DeltaLogWriter::AppendCheckpoint(
    const MasterRecord& master, const std::vector<ArrayCheckpointRef>& arrays) {
  DeltaAppendStats stats;
  ++seq_;

  const bool have_base = seq_ > 1 || records_since_base_ > 0;
  const bool compact = options_.compact_every > 0 &&
                       records_since_base_ + 1 > options_.compact_every;
  if (!have_base || compact) {
    const Status s = WriteBase(master, arrays, &stats.bytes_appended);
    if (!s.ok()) {
      --seq_;
      return s;
    }
    stats.wrote_base = true;
    stats.compacted = have_base;
    stats.full_arrays = static_cast<int>(arrays.size());
  } else {
    ByteWriter payload;
    master.Encode(&payload);
    payload.Put<u64>(static_cast<u64>(arrays.size()));
    for (const ArrayCheckpointRef& a : arrays) {
      if (a.store->delta_tracking_valid()) {
        EncodeDeltaArray(a, &payload, &stats.pages_deltad);
      } else {
        EncodeFullArray(a, &payload);
        ++stats.full_arrays;
      }
    }
    std::vector<u8> frame = FrameRecord(kWalMagic, seq_, payload.bytes());
    stats.bytes_appended = frame.size();
    auto end = DurableAppendFile(WalPath(dir_), frame.data(), frame.size());
    // Steady-state appends stop allocating: payload and frame go back to the
    // pool and the next record's ByteWriters acquire them again.
    BufferPool::Release(payload.Take());
    BufferPool::Release(std::move(frame));
    if (!end.ok()) {
      --seq_;
      return end.status();
    }
    ++records_since_base_;
  }

  // Only after the record is durable: arm/reset dirty tracking so the next
  // checkpoint captures exactly the writes from this point on.
  for (const ArrayCheckpointRef& a : arrays) {
    a.store->MarkCheckpointed();
  }
  return stats;
}

}  // namespace orion
