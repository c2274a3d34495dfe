// DSM primitives: key spaces, cell stores (all three layouts), the flat hash
// index, partitions, bucketing, buffers, randomize.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <optional>

#include "src/common/rng.h"
#include "src/dsm/bucket.h"
#include "src/dsm/cell_store.h"
#include "src/dsm/flat_index.h"
#include "src/dsm/dist_array_buffer.h"
#include "src/dsm/key_space.h"
#include "src/dsm/partition.h"
#include "src/dsm/randomize.h"

namespace orion {
namespace {

// ---- KeySpace ----

TEST(KeySpace, EncodeDecodeRoundtrip) {
  const KeySpace ks({4, 5, 6});
  EXPECT_EQ(ks.total(), 120);
  for (i64 a = 0; a < 4; ++a) {
    for (i64 b = 0; b < 5; ++b) {
      for (i64 c = 0; c < 6; ++c) {
        const i64 key = ks.Encode(std::vector<i64>{a, b, c});
        const auto idx = ks.Decode(key);
        EXPECT_EQ(idx[0], a);
        EXPECT_EQ(idx[1], b);
        EXPECT_EQ(idx[2], c);
        EXPECT_EQ(ks.Coord(key, 0), a);
        EXPECT_EQ(ks.Coord(key, 1), b);
        EXPECT_EQ(ks.Coord(key, 2), c);
      }
    }
  }
}

// DecodeInto takes the last coordinate as what remains after dividing out
// the leading ones: pin it against the encode over every key of key spaces
// with one to three dimensions, including size-1 dimensions in each place.
TEST(KeySpace, DecodeIntoRoundTripsEveryKey) {
  const std::vector<std::vector<i64>> shapes = {
      {1}, {7}, {1, 1}, {1, 5}, {5, 1}, {3, 4}, {1, 1, 1}, {2, 1, 3}, {1, 4, 1}, {4, 5, 6}};
  for (const auto& dims : shapes) {
    const KeySpace ks(dims);
    std::vector<i64> idx(dims.size(), -1);
    for (i64 key = 0; key < ks.total(); ++key) {
      ks.DecodeInto(key, idx);
      ASSERT_TRUE(ks.Contains(idx)) << "key " << key << " of shape size " << dims.size();
      ASSERT_EQ(ks.Encode(idx), key) << "shape size " << dims.size();
    }
    ks.DecodeInto(0, idx);
    EXPECT_EQ(idx, std::vector<i64>(dims.size(), 0));
    ks.DecodeInto(ks.total() - 1, idx);
    for (size_t d = 0; d < dims.size(); ++d) {
      EXPECT_EQ(idx[d], dims[d] - 1) << "dimension " << d;
    }
  }
}

TEST(KeySpace, LastDimContiguous) {
  const KeySpace ks({3, 7});
  EXPECT_EQ(ks.Encode(std::vector<i64>{0, 1}) - ks.Encode(std::vector<i64>{0, 0}), 1);
}

TEST(KeySpace, ContainsBounds) {
  const KeySpace ks({3, 3});
  EXPECT_TRUE(ks.Contains(std::vector<i64>{2, 2}));
  EXPECT_FALSE(ks.Contains(std::vector<i64>{3, 0}));
  EXPECT_FALSE(ks.Contains(std::vector<i64>{0, -1}));
  EXPECT_FALSE(ks.Contains(std::vector<i64>{0}));
}

// ---- CellStore layouts (parameterized) ----

enum class StoreKind { kHashed, kFullDense, kDenseRange };

class CellStoreLayoutTest : public ::testing::TestWithParam<StoreKind> {
 protected:
  CellStore Make(i32 value_dim) const {
    switch (GetParam()) {
      case StoreKind::kHashed:
        return CellStore(value_dim, CellStore::Layout::kHashed, 0);
      case StoreKind::kFullDense:
        return CellStore(value_dim, CellStore::Layout::kFullDense, 100);
      case StoreKind::kDenseRange:
        return CellStore::DenseRange(value_dim, 10, 109);
    }
    return CellStore();
  }
  i64 KeyFor(int i) const {
    return GetParam() == StoreKind::kDenseRange ? 10 + i : i;
  }
};

TEST_P(CellStoreLayoutTest, WriteReadBack) {
  CellStore s = Make(3);
  for (int i = 0; i < 50; ++i) {
    f32* v = s.GetOrCreate(KeyFor(i));
    v[0] = static_cast<f32>(i);
    v[2] = static_cast<f32>(-i);
  }
  for (int i = 0; i < 50; ++i) {
    const f32* v = s.Get(KeyFor(i));
    ASSERT_NE(v, nullptr);
    EXPECT_FLOAT_EQ(v[0], static_cast<f32>(i));
    EXPECT_FLOAT_EQ(v[2], static_cast<f32>(-i));
  }
}

TEST_P(CellStoreLayoutTest, SerializeRoundtrip) {
  CellStore s = Make(2);
  for (int i = 0; i < 30; ++i) {
    s.GetOrCreate(KeyFor(i))[1] = static_cast<f32>(i * i);
  }
  ByteWriter w;
  s.Serialize(&w);
  auto bytes = w.Take();
  ByteReader r(bytes);
  CellStore back = CellStore::Deserialize(&r);
  EXPECT_EQ(back.layout(), s.layout());
  EXPECT_EQ(back.NumCells(), s.NumCells());
  for (int i = 0; i < 30; ++i) {
    EXPECT_FLOAT_EQ(back.Get(KeyFor(i))[1], static_cast<f32>(i * i));
  }
}

TEST_P(CellStoreLayoutTest, ForEachVisitsEverythingOnce) {
  CellStore s = Make(1);
  for (int i = 0; i < 20; ++i) {
    *s.GetOrCreate(KeyFor(i)) = 1.0f;
  }
  i64 visits = 0;
  f64 sum = 0.0;
  s.ForEach([&](i64, f32* v) {
    ++visits;
    sum += v[0];
  });
  EXPECT_EQ(visits, s.NumCells());
  EXPECT_DOUBLE_EQ(sum, 20.0);  // untouched dense cells contribute zero
}

TEST_P(CellStoreLayoutTest, MergeAddAccumulates) {
  CellStore a = Make(2);
  CellStore b = Make(2);
  for (int i = 0; i < 10; ++i) {
    a.GetOrCreate(KeyFor(i))[0] = 1.0f;
    b.GetOrCreate(KeyFor(i))[0] = 2.0f;
  }
  a.MergeAdd(b);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FLOAT_EQ(a.Get(KeyFor(i))[0], 3.0f);
  }
}

TEST_P(CellStoreLayoutTest, ClearZeroesOrEmpties) {
  CellStore s = Make(1);
  *s.GetOrCreate(KeyFor(3)) = 9.0f;
  s.Clear();
  if (GetParam() == StoreKind::kHashed) {
    EXPECT_EQ(s.NumCells(), 0);
  } else {
    EXPECT_FLOAT_EQ(s.Get(KeyFor(3))[0], 0.0f);
  }
}

INSTANTIATE_TEST_SUITE_P(AllLayouts, CellStoreLayoutTest,
                         ::testing::Values(StoreKind::kHashed, StoreKind::kFullDense,
                                           StoreKind::kDenseRange));

TEST(CellStore, HashedInsertionOrderIsStable) {
  CellStore s(1, CellStore::Layout::kHashed, 0);
  const std::vector<i64> keys = {42, 7, 99, 1, 13};
  for (i64 k : keys) {
    s.GetOrCreate(k);
  }
  std::vector<i64> seen;
  s.ForEach([&](i64 k, f32*) { seen.push_back(k); });
  EXPECT_EQ(seen, keys);
}

TEST(CellStore, SliceCoversExactlyOnce) {
  CellStore s(1, CellStore::Layout::kHashed, 0);
  for (i64 k = 0; k < 103; ++k) {
    s.GetOrCreate(k * 7);
  }
  std::vector<int> visits(103, 0);
  for (int chunk = 0; chunk < 8; ++chunk) {
    s.ForEachSlice(chunk, 8, [&](i64 k, f32*) { ++visits[static_cast<size_t>(k / 7)]; });
  }
  for (int v : visits) {
    EXPECT_EQ(v, 1);
  }
}

// ---- Flat hash index ----

// Keys that stress the probe arithmetic: extremes, negatives, and strided runs
// that share their low bits.
i64 AdversarialKey(Rng& rng) {
  switch (rng.NextBounded(5)) {
    case 0:
      return static_cast<i64>(rng.NextU64());  // any i64, often negative
    case 1:
      return std::numeric_limits<i64>::min() + static_cast<i64>(rng.NextBounded(4));
    case 2:
      return std::numeric_limits<i64>::max() - static_cast<i64>(rng.NextBounded(4));
    case 3:
      return static_cast<i64>(rng.NextBounded(1 << 16)) << 20;  // shared low bits
    default:
      return static_cast<i64>(rng.NextBounded(64)) - 32;
  }
}

TEST(FlatIndex, GrowsAndFindsEveryKey) {
  FlatIndex index;
  EXPECT_EQ(index.Find(0), FlatIndex::kAbsent);
  std::map<i64, i64> oracle;
  Rng rng(7);
  int resizes = 0;
  size_t capacity = index.capacity();
  while (oracle.size() < 20000) {
    const i64 key = AdversarialKey(rng);
    const i64 next = static_cast<i64>(oracle.size());
    const auto [it, inserted] = oracle.try_emplace(key, next);
    EXPECT_EQ(index.FindOrInsert(key, next), it->second);
    EXPECT_EQ(index.size(), oracle.size());
    if (index.capacity() != capacity) {
      ++resizes;
      capacity = index.capacity();
    }
  }
  EXPECT_GE(resizes, 10);
  for (const auto& [key, slot] : oracle) {
    ASSERT_EQ(index.Find(key), slot) << "key " << key;
  }
  for (int i = 0; i < 2000; ++i) {
    const i64 key = AdversarialKey(rng);
    const auto it = oracle.find(key);
    EXPECT_EQ(index.Find(key), it == oracle.end() ? FlatIndex::kAbsent : it->second);
  }
}

// Every hashed CellStore operation against a std::map oracle, across many
// index resizes, a Clear and reuse, and a Serialize/Deserialize round trip.
TEST(CellStore, HashedMatchesMapOracle) {
  constexpr i32 kDim = 2;
  CellStore s(kDim, CellStore::Layout::kHashed, 0);
  std::map<i64, f32> oracle;  // key -> value[0]; value[1] is always -value[0]
  std::vector<i64> order;     // oracle insertion order
  Rng rng(11);
  for (int round = 0; round < 2; ++round) {
    for (int step = 0; step < 100000; ++step) {
      const i64 key = rng.NextBounded(4) == 0 && !order.empty()
                          ? order[rng.NextBounded(order.size())]
                          : AdversarialKey(rng);
      switch (rng.NextBounded(8)) {
        case 0:
          EXPECT_EQ(s.Contains(key), oracle.count(key) == 1);
          break;
        case 1: {
          const f32* v = s.Get(key);
          const auto it = oracle.find(key);
          ASSERT_EQ(v == nullptr, it == oracle.end()) << "key " << key;
          if (v != nullptr) {
            EXPECT_EQ(v[0], it->second);
            EXPECT_EQ(v[1], -it->second);
          }
          break;
        }
        case 2:
          s.Reserve(static_cast<i64>(rng.NextBounded(64)));
          break;
        default: {
          const bool fresh = oracle.count(key) == 0;
          f32* v = s.GetOrCreate(key);
          if (fresh) {
            EXPECT_EQ(v[0], 0.0f);
            EXPECT_EQ(v[1], 0.0f);
            order.push_back(key);
          }
          const f32 x = static_cast<f32>(step) + 0.5f;
          v[0] = x;
          v[1] = -x;
          oracle[key] = x;
        }
      }
      ASSERT_EQ(s.NumCells(), static_cast<i64>(oracle.size()));
    }
    ASSERT_GT(oracle.size(), 12288u);  // past ten doublings of a 16-bucket index
    EXPECT_EQ(s.keys(), order);

    ByteWriter w;
    s.Serialize(&w);
    const std::vector<u8> bytes = w.Take();
    ByteReader r(bytes);
    CellStore back = CellStore::Deserialize(&r);
    ByteWriter w2;
    back.Serialize(&w2);
    EXPECT_EQ(w2.Take(), bytes);
    for (const auto& [key, x] : oracle) {
      const f32* v = back.Get(key);
      ASSERT_NE(v, nullptr) << "key " << key;
      EXPECT_EQ(v[0], x);
    }

    if (round == 0) {
      // Clear keeps the index's capacity; the second round reuses it.
      s.Clear();
      oracle.clear();
      order.clear();
      EXPECT_EQ(s.NumCells(), 0);
      EXPECT_FALSE(s.Contains(std::numeric_limits<i64>::min()));
      EXPECT_EQ(s.Get(0), nullptr);
    }
  }

  // A moved-from store is empty and reusable; the moved-to store kept it all.
  CellStore moved = std::move(s);
  EXPECT_EQ(moved.NumCells(), static_cast<i64>(oracle.size()));
  EXPECT_EQ(moved.Get(order.front())[0], oracle.at(order.front()));
  EXPECT_EQ(s.NumCells(), 0);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(s.Get(order.front()), nullptr);
  s.GetOrCreate(order.front())[0] = 1.0f;
  EXPECT_EQ(s.Get(order.front())[0], 1.0f);
  EXPECT_EQ(s.NumCells(), 1);
}

// ---- Bucketing by partition ----

// Each part gets exactly the stable filter of the input order; parts no cell
// lands in stay absent unless they were pre-created, and pre-created dense
// blocks are filled in place.
TEST(BucketCells, EachPartIsTheStableFilterOfTheInput) {
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t num_parts = 1 + rng.NextBounded(9);
    const size_t n = rng.NextBounded(300);
    std::vector<f32> values(n);
    std::vector<CellRef> cells;
    std::vector<u32> part_of;
    for (size_t i = 0; i < n; ++i) {
      values[i] = static_cast<f32>(i);
      // Distinct keys in a shuffled-looking order.
      cells.push_back({static_cast<i64>((i * 7919) % 100003) - 50000, &values[i]});
      // Skewed part choice so some parts stay empty.
      part_of.push_back(static_cast<u32>(rng.NextBounded(num_parts) * rng.NextBounded(2)));
    }
    std::vector<std::optional<CellStore>> parts(num_parts);
    BucketCells(cells, part_of, 1, &parts);
    for (size_t p = 0; p < num_parts; ++p) {
      std::vector<i64> want;
      for (size_t i = 0; i < n; ++i) {
        if (part_of[i] == p) {
          want.push_back(cells[i].key);
        }
      }
      if (want.empty()) {
        EXPECT_FALSE(parts[p].has_value()) << "empty part " << p << " emitted";
        continue;
      }
      ASSERT_TRUE(parts[p].has_value());
      EXPECT_EQ(parts[p]->keys(), want);
      for (size_t i = 0; i < n; ++i) {
        if (part_of[i] == p) {
          EXPECT_EQ(parts[p]->Get(cells[i].key)[0], values[i]);
        }
      }
    }
  }

  // A pre-created empty part survives; a pre-created dense block is filled.
  std::vector<f32> v = {1.0f, 2.0f};
  std::vector<std::optional<CellStore>> parts(3);
  parts[0] = CellStore(1, CellStore::Layout::kHashed, 0);
  parts[2] = CellStore::DenseRange(1, 10, 11);
  BucketCells({{11, &v[0]}, {10, &v[1]}}, {2, 2}, 1, &parts);
  ASSERT_TRUE(parts[0].has_value());
  EXPECT_EQ(parts[0]->NumCells(), 0);
  EXPECT_FALSE(parts[1].has_value());
  EXPECT_EQ(parts[2]->Get(10)[0], 2.0f);
  EXPECT_EQ(parts[2]->Get(11)[0], 1.0f);
}

// ---- Sort-unique of key lists ----

std::vector<i64> SortThenUnique(std::vector<i64> keys) {
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

std::vector<i64> SortUnique(std::vector<i64> keys, std::vector<i64>* scratch) {
  SortUniqueKeys(&keys, scratch);
  return keys;
}

TEST(SortUniqueKeys, MatchesSortThenUniqueOnShapedLists) {
  std::vector<i64> ascending;
  std::vector<i64> descending;
  for (i64 i = 0; i < 3000; ++i) {
    ascending.push_back(i * 37 - 40000);       // spans three digit passes
    descending.push_back(100000 - (i / 3));    // runs of three equal keys
  }
  const std::vector<std::vector<i64>> lists = {
      {},
      {42},
      {-7},
      {5, 5, 5, 5, 5},
      {kI64Min, kI64Min, kI64Min},
      ascending,
      descending,
      {-3, 5, -3, -100000, 7, 0, -1, -100000},
      // The full range: every one of the eight digit passes runs.
      {kI64Max, kI64Min, 0, -1, kI64Max, 1, kI64Min, kI64Max - 1, kI64Min + 1},
      {kI64Max, kI64Max - 1, kI64Max},
      {kI64Min + 1, kI64Min},
      {255, 256, 0, 65535, 65536, 255},  // digit boundaries
  };
  std::vector<i64> scratch;
  for (size_t i = 0; i < lists.size(); ++i) {
    EXPECT_EQ(SortUnique(lists[i], &scratch), SortThenUnique(lists[i])) << "list " << i;
  }
}

// Seeded random lists of 0 to 1e5 keys over narrow, SLR-sized, signed and
// full-width ranges, all sorted through one scratch buffer whose size and
// contents change between calls.
TEST(SortUniqueKeys, MatchesSortThenUniqueOnRandomLists) {
  Rng rng(19);
  std::vector<i64> scratch;
  for (int trial = 0; trial < 48; ++trial) {
    const size_t n = trial % 6 == 5 ? 100000 : rng.NextBounded(trial % 2 == 0 ? 300 : 20000);
    std::vector<i64> keys(n);
    for (i64& k : keys) {
      switch (trial % 4) {
        case 0:
          k = rng.NextIndex(50);  // mostly duplicates
          break;
        case 1:
          k = rng.NextIndex(50000);  // SLR's feature range: two passes
          break;
        case 2:
          k = rng.NextIndex(2000001) - 1000000;  // negative and positive
          break;
        default:
          k = static_cast<i64>(rng.NextU64());  // any i64
          break;
      }
    }
    EXPECT_EQ(SortUnique(keys, &scratch), SortThenUnique(keys))
        << "trial " << trial << ", " << n << " keys";
  }
}

TEST(SortUniqueKeys, ReusesOneScratchAcrossSizes) {
  Rng rng(7);
  std::vector<i64> scratch(5000, -1);  // stale contents from an earlier caller
  for (const size_t n : {3, 100000, 5, 0, 70000, 2, 1}) {
    std::vector<i64> keys(n);
    for (i64& k : keys) {
      k = rng.NextIndex(1 << 20) - (1 << 19);
    }
    EXPECT_EQ(SortUnique(keys, &scratch), SortThenUnique(keys)) << n << " keys";
  }
}

// A list of n keys takes the bitmap pass when its range / 64 < n, and the
// radix passes otherwise; lists on both sides of that line, anchored at
// negative keys and at both ends of i64, match sort + unique.
TEST(SortUniqueKeys, MatchesSortThenUniqueAcrossTheBitmapThreshold) {
  Rng rng(23);
  std::vector<i64> scratch;
  for (const i64 lo : {i64{0}, i64{-5000}, kI64Min, kI64Max - 64 * 400}) {
    for (const size_t n : {2, 3, 64, 400}) {
      const i64 bitmap_range = 64 * static_cast<i64>(n) - 1;  // range / 64 == n - 1
      for (const i64 range : {bitmap_range, bitmap_range + 1, i64{0}, i64{63}}) {
        std::vector<i64> keys(n);
        for (i64& k : keys) {
          k = lo + rng.NextIndex(range + 1);
        }
        keys[0] = lo;  // pin the range's two ends
        keys[n - 1] = lo + range;
        EXPECT_EQ(SortUnique(keys, &scratch), SortThenUnique(keys))
            << "lo " << lo << ", range " << range << ", " << n << " keys";
      }
    }
  }
  const std::vector<std::vector<i64>> extremes = {
      {kI64Max, kI64Max - 3, kI64Max, kI64Max - 1},  // dense at the top
      {kI64Min + 2, kI64Min, kI64Min + 2, kI64Min},   // dense at the bottom
      {-1, 1, 0, -1, -2, 2},                           // dense around zero
      {kI64Min, kI64Max, kI64Min},                     // widest range: radix
  };
  for (size_t i = 0; i < extremes.size(); ++i) {
    EXPECT_EQ(SortUnique(extremes[i], &scratch), SortThenUnique(extremes[i])) << "list " << i;
  }
}

// One bitmap, reused round after round, yields what sort-then-unique leaves
// for each round's stream: with repeats, with the key space's two ends, with
// a single key, and with nothing marked. Keys outside [0, num_keys) are
// refused and leave no mark; Clear drops a round's marks unread.
TEST(KeyBitmap, TakeSortedMatchesSortThenUniqueAcrossRounds) {
  constexpr i64 kKeys = 1000;
  Rng rng(29);
  KeyBitmap marks(kKeys);
  EXPECT_EQ(marks.num_keys(), kKeys);
  for (int round = 0; round < 6; ++round) {
    std::vector<i64> stream;
    const size_t n = round == 3 ? 0 : round == 4 ? 1 : 300 * static_cast<size_t>(round + 1);
    for (size_t i = 0; i < n; ++i) {
      stream.push_back(round == 2 ? 500 + rng.NextIndex(40) : rng.NextIndex(kKeys));
    }
    if (round == 0 || round == 5) {
      stream.push_back(0);
      stream.push_back(kKeys - 1);
      stream.push_back(0);
    }
    for (const i64 k : stream) {
      EXPECT_TRUE(marks.Mark(k));
    }
    for (const i64 k : {i64{-1}, kKeys, kI64Min, kI64Max}) {
      EXPECT_FALSE(marks.Mark(k));
    }
    EXPECT_EQ(marks.empty(), stream.empty());
    std::vector<i64> got = {-7};  // TakeSorted appends
    marks.TakeSorted(&got);
    std::vector<i64> want = {-7};
    const std::vector<i64> unique = SortThenUnique(stream);
    want.insert(want.end(), unique.begin(), unique.end());
    EXPECT_EQ(got, want) << "round " << round;
    EXPECT_TRUE(marks.empty());
  }
  marks.Mark(17);
  marks.Mark(900);
  marks.Clear();
  EXPECT_TRUE(marks.empty());
  std::vector<i64> got;
  marks.Mark(3);
  marks.TakeSorted(&got);
  EXPECT_EQ(got, (std::vector<i64>{3}));
}

// ---- RangeSplits / histograms ----

TEST(RangeSplits, EqualWidthCoversRange) {
  const auto s = RangeSplits::EqualWidth(100, 4);
  EXPECT_EQ(s.PartOf(0), 0);
  EXPECT_EQ(s.PartOf(24), 0);
  EXPECT_EQ(s.PartOf(25), 1);
  EXPECT_EQ(s.PartOf(99), 3);
}

TEST(RangeSplits, PartOfIsMonotone) {
  DimHistogram hist(0, 999, 128);
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    hist.Add(rng.NextZipf(1000, 0.9));
  }
  const auto s = RangeSplits::FromHistogram(hist, 7);
  int prev = 0;
  for (i64 c = 0; c < 1000; ++c) {
    const int p = s.PartOf(c);
    EXPECT_GE(p, prev);
    EXPECT_LT(p, 7);
    prev = p;
  }
}

TEST(RangeSplits, HistogramBalancesSkew) {
  DimHistogram hist(0, 9999, 512);
  Rng rng(6);
  std::vector<i64> coords;
  for (int i = 0; i < 50000; ++i) {
    coords.push_back(rng.NextZipf(10000, 1.0));
    hist.Add(coords.back());
  }
  const int parts = 8;
  const auto balanced = RangeSplits::FromHistogram(hist, parts);
  const auto naive = RangeSplits::EqualWidth(10000, parts);
  std::vector<i64> balanced_load(parts, 0);
  std::vector<i64> naive_load(parts, 0);
  for (i64 c : coords) {
    ++balanced_load[static_cast<size_t>(balanced.PartOf(c))];
    ++naive_load[static_cast<size_t>(naive.PartOf(c))];
  }
  const i64 balanced_max = *std::max_element(balanced_load.begin(), balanced_load.end());
  const i64 naive_max = *std::max_element(naive_load.begin(), naive_load.end());
  EXPECT_LT(balanced_max, naive_max / 2) << "histogram splits should halve the max load";
}

// ---- DistArray buffers ----

TEST(Buffer, CoalescesAndApplies) {
  DistArrayBuffer buf(7, 2, /*num_cells=*/16, MakeAddApplyFn());
  const f32 u1[2] = {1.0f, 2.0f};
  const f32 u2[2] = {3.0f, 4.0f};
  buf.Accumulate(5, u1);
  buf.Accumulate(5, u2);
  buf.Accumulate(9, u1);
  EXPECT_EQ(buf.NumPending(), 2);
  CellStore target(2, CellStore::Layout::kHashed, 0);
  target.GetOrCreate(5)[0] = 10.0f;
  CellStore drained = buf.Drain();
  EXPECT_EQ(buf.NumPending(), 0);
  DistArrayBuffer::ApplyTo(&target, drained, buf.apply_fn());
  EXPECT_FLOAT_EQ(target.Get(5)[0], 14.0f);
  EXPECT_FLOAT_EQ(target.Get(5)[1], 6.0f);
  EXPECT_FLOAT_EQ(target.Get(9)[0], 1.0f);
}

TEST(Buffer, CustomApplyUdf) {
  // Apply: cell[0] = max(cell[0], update[0]) — a non-additive UDF.
  auto apply = [](f32* cell, const f32* update, i32) {
    cell[0] = std::max(cell[0], update[0]);
  };
  DistArrayBuffer buf(7, 1, /*num_cells=*/16, apply);
  const f32 u = 5.0f;
  buf.Accumulate(1, &u);
  CellStore target(1, CellStore::Layout::kHashed, 0);
  target.GetOrCreate(1)[0] = 3.0f;
  DistArrayBuffer::ApplyTo(&target, buf.Drain(), buf.apply_fn());
  EXPECT_FLOAT_EQ(target.Get(1)[0], 5.0f);
}

// The in-place buffer drains what a hashed store accumulating the same
// stream would hold: the same keys, in ascending order, and bit-identical
// sums, and after a drain it starts again from zero. Rounds 0 to 2 touch
// more keys than the touched bitmap has words (a bitmap scan), round 3 fewer
// (a sort).
TEST(Buffer, InPlaceDrainMatchesHashedAccumulate) {
  constexpr i64 kCells = 500;
  Rng rng(41);
  for (const i32 dim : {1, 3}) {
    DistArrayBuffer buf(7, dim, kCells, MakeAddApplyFn());
    for (int round = 0; round < 4; ++round) {  // drain, then reuse the buffer
      CellStore want(dim, CellStore::Layout::kHashed, 0);
      std::vector<f32> update(static_cast<size_t>(dim));
      for (int i = 0; i < 2000; ++i) {
        // Repeated keys: about 25% of the stream is a key's first touch.
        const i64 key = round == 1   ? kCells - 1 - rng.NextIndex(40)
                        : round == 3 ? 97 * rng.NextIndex(5)
                                     : rng.NextIndex(kCells);
        for (f32& u : update) {
          u = static_cast<f32>(rng.NextIndex(2001) - 1000) / 7.0f;
        }
        buf.Accumulate(key, update.data());
        f32* slot = want.GetOrCreate(key);
        for (i32 j = 0; j < dim; ++j) {
          slot[j] += update[static_cast<size_t>(j)];
        }
      }
      EXPECT_EQ(buf.NumPending(), want.NumCells());
      const CellStore got = buf.Drain();
      EXPECT_EQ(buf.NumPending(), 0);
      EXPECT_EQ(got.value_dim(), dim);
      std::vector<i64> ascending = want.keys();
      std::sort(ascending.begin(), ascending.end());
      EXPECT_EQ(got.keys(), ascending) << "dim " << dim << ", round " << round;
      ASSERT_EQ(got.raw_values().size(), want.raw_values().size());
      for (size_t i = 0; i < ascending.size(); ++i) {  // values follow their keys
        EXPECT_EQ(0, std::memcmp(got.raw_values().data() + i * static_cast<size_t>(dim),
                                 want.Get(ascending[i]), sizeof(f32) * dim))
            << "dim " << dim << ", round " << round;
      }
    }
    EXPECT_EQ(buf.Drain().NumCells(), 0);
  }
}

// A drained store is only walked in order, so it carries no key index: a
// keyed lookup on it dies instead of reporting the key absent. A store
// cleared for reuse indexes again.
TEST(Buffer, DrainedStoreRejectsKeyedLookups) {
  DistArrayBuffer buf(7, 1, /*num_cells=*/16, MakeAddApplyFn());
  const f32 u = 1.0f;
  buf.Accumulate(3, &u);
  buf.Accumulate(9, &u);
  CellStore drained = buf.Drain();
  EXPECT_EQ(drained.keys(), (std::vector<i64>{3, 9}));
  EXPECT_DEATH(drained.Get(3), "unindexed");
  EXPECT_DEATH(drained.Find(4), "unindexed");
  EXPECT_DEATH(drained.Contains(9), "unindexed");
  EXPECT_DEATH(drained.GetOrCreate(5), "unindexed");
  drained.Clear();
  drained.GetOrCreate(5)[0] = 2.0f;
  EXPECT_EQ(drained.Get(5)[0], 2.0f);
  EXPECT_EQ(drained.Get(3), nullptr);
}

TEST(Buffer, KeyOutsideCellRangeDies) {
  DistArrayBuffer buf(7, 1, /*num_cells=*/16, MakeAddApplyFn());
  const f32 u = 1.0f;
  buf.Accumulate(15, &u);
  EXPECT_DEATH(buf.Accumulate(16, &u), "outside");
  EXPECT_DEATH(buf.Accumulate(-1, &u), "outside");
}

TEST(CellStore, FindTreatsKeysOutsideADenseRangeAsAbsent) {
  CellStore dense = CellStore::DenseRange(2, 40, 59);
  dense.GetOrCreate(40)[1] = 3.0f;
  ASSERT_NE(dense.Find(40), nullptr);
  EXPECT_EQ(dense.Find(40)[1], 3.0f);
  EXPECT_EQ(dense.Find(59), dense.Get(59));
  EXPECT_EQ(dense.Find(39), nullptr);
  EXPECT_EQ(dense.Find(60), nullptr);
  EXPECT_EQ(dense.Find(kI64Min), nullptr);
  CellStore hashed(2, CellStore::Layout::kHashed, 0);
  hashed.GetOrCreate(7);
  EXPECT_EQ(hashed.Find(7), hashed.Get(7));
  EXPECT_EQ(hashed.Find(8), nullptr);
}

// ---- Randomize ----

TEST(Randomize, IsABijection) {
  RandomPermutation perm(1000, 9);
  std::vector<bool> hit(1000, false);
  for (i64 x = 0; x < 1000; ++x) {
    const i64 y = perm.Map(x);
    ASSERT_GE(y, 0);
    ASSERT_LT(y, 1000);
    EXPECT_FALSE(hit[static_cast<size_t>(y)]);
    hit[static_cast<size_t>(y)] = true;
    EXPECT_EQ(perm.Inverse(y), x);
  }
}

TEST(Randomize, DeterministicInSeed) {
  RandomPermutation a(100, 1);
  RandomPermutation b(100, 1);
  RandomPermutation c(100, 2);
  bool differs = false;
  for (i64 x = 0; x < 100; ++x) {
    EXPECT_EQ(a.Map(x), b.Map(x));
    differs = differs || a.Map(x) != c.Map(x);
  }
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace orion
