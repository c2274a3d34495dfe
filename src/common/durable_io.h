#pragma once

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"

namespace orion {

// POSIX durability helpers shared by the delta log and the flight recorder.
//
// The contract for "this file now exists with these bytes, even across a
// crash" on POSIX is three-step: write + fsync the file itself, rename it
// into place, then fsync the containing directory so the rename (the name ->
// inode mapping) is itself on stable storage. Skipping the directory fsync is
// the classic durability hole: the data blocks survive but the name may not.

// Writes `bytes` to `path` atomically and durably: writes to `path + ".tmp"`,
// fsyncs the temp file, renames over `path`, then fsyncs the parent
// directory.
Status DurableWriteFile(const std::string& path, const u8* data, size_t size);

// Appends `bytes` to the file at `path` (creating it if absent) and fsyncs
// the file descriptor before returning. The first append to a fresh file also
// fsyncs the parent directory so the file's directory entry is durable.
// Returns the file size after the append.
StatusOr<u64> DurableAppendFile(const std::string& path, const u8* data,
                                size_t size);

// Truncates the file at `path` to `size` bytes and fsyncs it. Used by log
// compaction to drop the folded prefix, and by tests to simulate torn writes.
Status DurableTruncateFile(const std::string& path, u64 size);

// fsyncs the directory containing `path` (or `path` itself if it is a
// directory). Needed after rename/unlink/create so the namespace change is
// durable.
Status FsyncParentDir(const std::string& path);

// Reads the whole file into a byte vector. Returns kNotFound if the file does
// not exist.
StatusOr<std::vector<u8>> ReadFileBytes(const std::string& path);

// FNV-1a 64-bit hash, used as the delta log's frame checksum. Pass a
// previous result as `seed` to chain the hash over discontiguous spans (e.g.
// frame header fields + payload).
inline u64 Fnv1a64(const u8* data, size_t n, u64 seed = 14695981039346656037ull) {
  u64 h = seed;
  for (size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace orion
