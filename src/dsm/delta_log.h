// Log-structured durability for the driver's master state, and the one
// on-disk checkpoint format.
//
// On-disk layout inside one log directory:
//
//   base.orib   base image: master record + every array serialized whole.
//               Driver::Checkpoint writes the same format, holding one array
//               under its name and an empty master record.
//   wal.oril    append-only delta records. Each record carries the master
//               record at that checkpoint plus, per array, either the pages
//               dirtied since the previous record (delta) or a full store
//               when page tracking was not available (e.g. the array was
//               collapsed to flat or regrown since the last mark).
//
// Both files frame their payloads as {magic u32, version u32, seq u64,
// payload_size u64, fnv1a u64, payload} (the checksum covers seq, size and
// payload). `seq` totally orders checkpoints
// across base rewrites: compaction writes a new base at the current seq and
// truncates the WAL, and a reader skips any surviving WAL record with
// seq <= base_seq (the crash window between base rename and WAL truncate).
//
// Durability discipline (durable_io): appends are write+fsync on the WAL
// fd; base replacement is write-temp, fsync, rename, fsync-directory. A torn
// WAL tail — from a crash mid-append — fails its size or checksum check;
// readers stop at the last valid record and writers truncate the tail before
// appending again.
#ifndef ORION_SRC_DSM_DELTA_LOG_H_
#define ORION_SRC_DSM_DELTA_LOG_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/serde.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/dsm/cell_store.h"
#include "src/dsm/versioned_store.h"

namespace orion {

// Everything the master needs, beyond array cells, to resume training after
// a supervisor crash: the pass counter, accumulator values, cluster
// membership, and the seeds that make scatter order and fault injection
// reproducible. Loop ids are recorded for validation — the loop *programs*
// are re-registered by the (deterministic) driver program on restart.
struct MasterRecord {
  i64 next_pass = 0;  // passes completed when this record was taken
  u64 config_seed = 0;
  u64 fault_seed = 0;
  i32 num_workers = 0;
  std::vector<i32> live_ranks;
  std::vector<i32> loop_ids;
  std::vector<f64> accumulators;

  void Encode(ByteWriter* w) const;
  static MasterRecord Decode(ByteReader* r);
};

struct DeltaLogOptions {
  // Fold the log back into a full base image after this many delta records.
  // <= 0 disables compaction (the base is still written once at the start).
  int compact_every = 8;
};

// One array to include in a checkpoint. The store is mutated only by
// MarkCheckpointed() after the record is durably on disk.
struct ArrayCheckpointRef {
  std::string name;
  VersionedCellStore* store = nullptr;
};

// A base image read back: its seq, master record and whole arrays by name.
struct BaseImage {
  u64 seq = 0;
  MasterRecord master;
  std::map<std::string, CellStore> arrays;
};

// Durably writes a base image of `arrays` to `path` (write-temp, fsync,
// rename, fsync-directory) without collapsing paged stores. Returns the file
// size.
StatusOr<u64> WriteBaseImage(const std::string& path, u64 seq, const MasterRecord& master,
                             const std::vector<ArrayCheckpointRef>& arrays);

// Reads and validates a base image. A missing file is kNotFound; a short,
// foreign, future-version or corrupt one is kInvalidArgument naming the path
// and the failed check.
StatusOr<BaseImage> ReadBaseImage(const std::string& path);

struct DeltaAppendStats {
  u64 bytes_appended = 0;  // bytes written to disk for this checkpoint
  u64 pages_deltad = 0;    // dirty pages shipped in delta form
  int full_arrays = 0;     // arrays that fell back to a full image
  bool wrote_base = false; // this checkpoint wrote a full base image
  bool compacted = false;  // ... and it folded existing WAL records into it
};

class DeltaLogWriter {
 public:
  // Opens (creating the directory if needed) the log for appending. If a
  // valid base already exists — a restarted master — appending continues
  // after the last valid record; a torn WAL tail is truncated away first.
  static StatusOr<std::unique_ptr<DeltaLogWriter>> Open(std::string dir,
                                                        DeltaLogOptions options);

  // Durably appends one checkpoint covering `arrays`. The first checkpoint
  // (and every compaction point) writes a full base; otherwise each array
  // contributes only its dirty pages when tracking is valid, or a full
  // store when not. On success every store's dirty set is cleared
  // (MarkCheckpointed), so the next append captures exactly the writes from
  // here forward.
  StatusOr<DeltaAppendStats> AppendCheckpoint(
      const MasterRecord& master, const std::vector<ArrayCheckpointRef>& arrays);

  u64 last_seq() const { return seq_; }
  const std::string& dir() const { return dir_; }

 private:
  DeltaLogWriter(std::string dir, DeltaLogOptions options)
      : dir_(std::move(dir)), options_(options) {}

  Status WriteBase(const MasterRecord& master,
                   const std::vector<ArrayCheckpointRef>& arrays, u64* bytes);

  std::string dir_;
  DeltaLogOptions options_;
  u64 seq_ = 0;                // seq of the last durable checkpoint
  int records_since_base_ = 0;
};

// A restorable checkpoint: `pass` is MasterRecord::next_pass at that point.
struct RestorePoint {
  u64 seq = 0;
  i64 pass = 0;
};

class DeltaLogReader {
 public:
  // Parses the base and scans the WAL, CRC-validating every record. A torn
  // or corrupt tail is not an error: the reader stops at the last valid
  // record and reports torn_tail(). A missing/corrupt *base* is an error —
  // there is nothing to restore from.
  static StatusOr<DeltaLogReader> Open(const std::string& dir);

  // Checkpoints available for restore, in seq order (first is the base).
  const std::vector<RestorePoint>& points() const { return points_; }
  bool torn_tail() const { return torn_tail_; }
  u64 valid_wal_bytes() const { return valid_wal_bytes_; }

  struct State {
    MasterRecord master;
    std::map<std::string, CellStore> arrays;
  };

  // Materializes the state at a recorded point: the base image plus every
  // delta record with base_seq < record seq <= target, bit-for-bit equal to
  // the live master state when that checkpoint was taken.
  StatusOr<State> StateAt(u64 seq) const;
  // Same, addressed by completed-pass count (RestorePoint::pass).
  StatusOr<State> StateAtPass(i64 pass) const;
  StatusOr<State> Latest() const;

 private:
  friend class DeltaLogWriter;

  struct ArrayDelta {
    std::string name;
    bool full = false;
    CellStore full_store;
    // Delta form: layout echo for validation + dirty pages.
    u8 layout = 0;
    i32 vdim = 1;
    i64 lo = 0;
    i64 hi = -1;
    i64 num_cells = 0;
    std::vector<i64> new_keys;  // hashed growth since the previous record
    std::vector<std::pair<u32, std::vector<f32>>> pages;
  };
  struct Record {
    u64 seq = 0;
    MasterRecord master;
    std::vector<ArrayDelta> arrays;
  };

  u64 base_seq_ = 0;
  MasterRecord base_master_;
  std::map<std::string, CellStore> base_arrays_;
  std::vector<Record> records_;  // seq > base_seq_, ascending
  std::vector<RestorePoint> points_;
  bool torn_tail_ = false;
  u64 valid_wal_bytes_ = 0;
};

}  // namespace orion

#endif  // ORION_SRC_DSM_DELTA_LOG_H_
