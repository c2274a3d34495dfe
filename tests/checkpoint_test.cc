// Checkpoint file format (the delta log's base image, which
// Driver::Checkpoint writes for one array): round-trips for every CellStore
// layout, flat and paged, and descriptive error Statuses (never a crash) on
// missing, truncated, or corrupted files.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/durable_io.h"
#include "src/dsm/cell_store.h"
#include "src/dsm/delta_log.h"
#include "src/dsm/versioned_store.h"
#include "src/runtime/driver.h"

namespace orion {
namespace {

std::string TestPath(const std::string& name) {
  return ::testing::TempDir() + "/orion_ckpt_" + name;
}

std::vector<char> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

CellStore MakeSparse() {
  CellStore s(3, CellStore::Layout::kHashed, 0);
  for (i64 key : {5, 17, 99, 1024, 1 << 20}) {
    f32* v = s.GetOrCreate(key);
    for (i32 d = 0; d < 3; ++d) {
      v[d] = static_cast<f32>(key) * 0.25f + static_cast<f32>(d);
    }
  }
  return s;
}

CellStore MakeDense() {
  CellStore s(2, CellStore::Layout::kFullDense, 40);
  for (i64 key = 0; key < 40; ++key) {
    f32* v = s.GetOrCreate(key);
    v[0] = static_cast<f32>(key);
    v[1] = -static_cast<f32>(key);
  }
  return s;
}

// Writes `store` as the one array "a" of a checkpoint file, the way
// Driver::Checkpoint does.
Status WriteOne(const std::string& path, const CellStore& store) {
  VersionedCellStore v(store);
  return WriteBaseImage(path, 0, MasterRecord{}, {{"a", &v}}).status();
}

StatusOr<CellStore> ReadOne(const std::string& path) {
  auto image = ReadBaseImage(path);
  if (!image.ok()) {
    return image.status();
  }
  return std::move(image->arrays.at("a"));
}

void ExpectSameCells(const CellStore& a, const CellStore& b) {
  ASSERT_EQ(a.value_dim(), b.value_dim());
  ASSERT_EQ(a.layout(), b.layout());
  ASSERT_EQ(a.NumCells(), b.NumCells());
  a.ForEachConst([&](i64 key, const f32* va) {
    const f32* vb = b.Get(key);
    ASSERT_NE(vb, nullptr) << "missing key " << key;
    for (i32 d = 0; d < a.value_dim(); ++d) {
      EXPECT_EQ(va[d], vb[d]) << "key " << key << " dim " << d;
    }
  });
}

TEST(Checkpoint, SparseRoundTrip) {
  const std::string path = TestPath("sparse");
  const CellStore original = MakeSparse();
  ASSERT_TRUE(WriteOne(path, original).ok());
  auto restored = ReadOne(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectSameCells(original, *restored);
}

TEST(Checkpoint, DenseRoundTrip) {
  const std::string path = TestPath("dense");
  const CellStore original = MakeDense();
  ASSERT_TRUE(WriteOne(path, original).ok());
  auto restored = ReadOne(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectSameCells(original, *restored);
}

TEST(Checkpoint, DenseRangeRoundTrip) {
  const std::string path = TestPath("dense_range");
  CellStore original = CellStore::DenseRange(2, 10, 29);
  for (i64 key = 10; key <= 29; ++key) {
    original.GetOrCreate(key)[0] = static_cast<f32>(key) * 1.5f;
  }
  ASSERT_TRUE(WriteOne(path, original).ok());
  auto restored = ReadOne(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectSameCells(original, *restored);
}

// The whole image: seq, master record, and several arrays, one of them paged
// (written in place, without collapsing) and spanning more than one page.
TEST(Checkpoint, Roundtrip) {
  CellStore hashed(3, CellStore::Layout::kHashed, 0);
  for (i64 k = 0; k < 100; ++k) {
    hashed.GetOrCreate(k * 13)[1] = static_cast<f32>(k);
  }
  const i64 kPagedCells = 3 * VersionedCellStore::kPageCells + 7;
  CellStore dense(2, CellStore::Layout::kFullDense, kPagedCells);
  for (i64 k = 0; k < kPagedCells; ++k) {
    dense.GetOrCreate(k)[1] = static_cast<f32>(k) * 0.5f;
  }
  VersionedCellStore h(hashed);
  VersionedCellStore d(dense);
  d.BeginServing();
  d.GetOrCreate(kPagedCells - 1)[0] = 9.0f;
  dense.GetOrCreate(kPagedCells - 1)[0] = 9.0f;

  MasterRecord m;
  m.next_pass = 12;
  m.num_workers = 3;
  m.live_ranks = {0, 2};
  m.accumulators = {1.5, -2.0};
  const std::string path = TestPath("image");
  auto bytes = WriteBaseImage(path, 42, m, {{"h", &h}, {"d", &d}});
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  EXPECT_EQ(*bytes, ReadAll(path).size());
  EXPECT_TRUE(d.paged());

  auto image = ReadBaseImage(path);
  ASSERT_TRUE(image.ok()) << image.status();
  EXPECT_EQ(image->seq, 42u);
  EXPECT_EQ(image->master.next_pass, 12);
  EXPECT_EQ(image->master.num_workers, 3);
  EXPECT_EQ(image->master.live_ranks, m.live_ranks);
  EXPECT_EQ(image->master.accumulators, m.accumulators);
  ASSERT_EQ(image->arrays.size(), 2u);
  EXPECT_EQ(image->arrays.at("h").NumCells(), 100);
  EXPECT_FLOAT_EQ(image->arrays.at("h").Get(13 * 7)[1], 7.0f);
  ExpectSameCells(hashed, image->arrays.at("h"));
  ExpectSameCells(dense, image->arrays.at("d"));
  std::remove(path.c_str());
}

// A missing file, or a missing directory, is kNotFound naming the path.
TEST(Checkpoint, MissingFileFails) {
  auto result = ReadOne(TestPath("does_not_exist"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_NE(result.status().message().find("does_not_exist"), std::string::npos);

  auto no_dir = ReadOne("/nonexistent/orion.ckpt");
  EXPECT_FALSE(no_dir.ok());
  EXPECT_EQ(no_dir.status().code(), StatusCode::kNotFound);
}

// Driver::Restore from a missing checkpoint is kIoError naming the path.
TEST(Checkpoint, MissingFileIsIoError) {
  Driver driver(DriverConfig{});
  const DistArrayId v = driver.CreateDistArray("v", {8}, 1, Density::kDense);
  const Status s = driver.Restore(v, TestPath("does_not_exist"));
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_NE(s.message().find("does_not_exist"), std::string::npos);
}

TEST(Checkpoint, GarbageHeaderIsRejected) {
  const std::string path = TestPath("garbage");
  WriteAll(path, std::vector<char>(64, 'x'));
  auto result = ReadOne(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("not an Orion checkpoint"), std::string::npos);
}

// A valid image with only its magic damaged.
TEST(Checkpoint, CorruptMagicRejected) {
  const std::string path = TestPath("bad_magic");
  ASSERT_TRUE(WriteOne(path, MakeDense()).ok());
  std::vector<char> bytes = ReadAll(path);
  bytes[0] ^= 0x01;
  WriteAll(path, bytes);
  auto result = ReadOne(path);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("not an Orion checkpoint"), std::string::npos);
}

// Files too short for even a frame header: empty, and a line of text.
TEST(Checkpoint, EmptyFileIsRejected) {
  const std::string path = TestPath("empty");
  WriteAll(path, {});
  auto result = ReadOne(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);

  const std::string text = "not a checkpoint at all";
  WriteAll(path, std::vector<char>(text.begin(), text.end()));
  result = ReadOne(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(Checkpoint, TruncatedFileIsRejected) {
  const std::string path = TestPath("truncated");
  ASSERT_TRUE(WriteOne(path, MakeSparse()).ok());
  std::vector<char> bytes = ReadAll(path);
  ASSERT_GT(bytes.size(), 16u);
  bytes.resize(bytes.size() - 11);
  WriteAll(path, bytes);
  auto result = ReadOne(path);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("truncated"), std::string::npos);
}

TEST(Checkpoint, FlippedPayloadByteFailsChecksum) {
  const std::string path = TestPath("corrupt");
  ASSERT_TRUE(WriteOne(path, MakeDense()).ok());
  std::vector<char> bytes = ReadAll(path);
  ASSERT_GT(bytes.size(), 40u);
  bytes[bytes.size() - 3] ^= 0x40;  // flip a bit deep in the payload
  WriteAll(path, bytes);
  auto result = ReadOne(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("checksum"), std::string::npos);
}

TEST(Checkpoint, FutureVersionIsRejected) {
  const std::string path = TestPath("future_version");
  ASSERT_TRUE(WriteOne(path, MakeSparse()).ok());
  std::vector<char> bytes = ReadAll(path);
  // Header layout: magic u32, version u32, ...
  bytes[4] = 127;
  WriteAll(path, bytes);
  auto result = ReadOne(path);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("version"), std::string::npos);
}

// A hashed image whose key list repeats a key, with a valid checksum: the
// reader rejects it naming the key, and Restore leaves the array untouched.
TEST(Checkpoint, DuplicateHashedKeyIsRejected) {
  const std::string path = TestPath("duplicate_key");
  ASSERT_TRUE(WriteOne(path, MakeSparse()).ok());
  std::vector<char> bytes = ReadAll(path);
  // Frame header: magic u32, version u32, seq u64, size u64, crc u64.
  const size_t payload = 2 * sizeof(u32) + 3 * sizeof(u64);
  ASSERT_GT(bytes.size(), payload);
  // Overwrite key 99 with key 17; MakeSparse's keys are small, so their
  // 8-byte patterns appear once, in the key list.
  const i64 from = 99;
  const i64 to = 17;
  auto it = std::search(bytes.begin() + static_cast<std::ptrdiff_t>(payload), bytes.end(),
                        reinterpret_cast<const char*>(&from),
                        reinterpret_cast<const char*>(&from) + sizeof(i64));
  ASSERT_NE(it, bytes.end());
  std::memcpy(&*it, &to, sizeof(i64));
  // Re-seal the frame: crc = FNV-1a over {seq, size}, chained over the payload.
  u8 hdr[2 * sizeof(u64)];
  std::memcpy(hdr, bytes.data() + 2 * sizeof(u32), sizeof(hdr));
  const u64 crc = Fnv1a64(reinterpret_cast<const u8*>(bytes.data()) + payload,
                          bytes.size() - payload, Fnv1a64(hdr, sizeof(hdr)));
  std::memcpy(bytes.data() + 2 * sizeof(u32) + 2 * sizeof(u64), &crc, sizeof(u64));
  WriteAll(path, bytes);

  auto result = ReadOne(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("repeats key 17"), std::string::npos)
      << result.status().message();

  Driver driver(DriverConfig{});
  const DistArrayId a = driver.CreateDistArray("a", {1 << 21}, 3, Density::kSparse);
  driver.MutableCells(a).GetOrCreate(5)[0] = 7.0f;
  const Status s = driver.Restore(a, path);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  EXPECT_EQ(driver.MutableCells(a).NumCells(), 1);
  EXPECT_EQ(driver.MutableCells(a).Get(5)[0], 7.0f);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace orion
