// Byte-oriented serialization used by the message fabric.
//
// Everything that crosses a (simulated) machine boundary is serialized with
// these writers/readers so communication volume is measurable and the
// share-nothing worker model is honest.
#ifndef ORION_SRC_COMMON_SERDE_H_
#define ORION_SRC_COMMON_SERDE_H_

#include <algorithm>
#include <bit>
#include <cstring>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "src/common/buffer_pool.h"
#include "src/common/status.h"
#include "src/common/types.h"

namespace orion {

// Append-only encoder. Backing storage comes from the BufferPool (acquired
// lazily on the first append), growth is amortized doubling, and every
// append lands via vector::insert — no resize-then-memcpy, so appended bytes
// are written exactly once and GCC 12's object-size analysis no longer
// produces the spurious -Wstringop-overflow reports the old grow-then-copy
// pattern needed a pragma for. Encode chains that know their size call
// Reserve() up front and append without ever reallocating.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(size_t reserve_bytes) { Reserve(reserve_bytes); }

  // Ensures capacity for `additional` more bytes beyond the current size.
  void Reserve(size_t additional) { EnsureFor(additional); }

  template <typename T>
  void Put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>, "Put requires a trivially copyable type");
    const u8* p = reinterpret_cast<const u8*>(&v);
    EnsureFor(sizeof(T));
    buf_.insert(buf_.end(), p, p + sizeof(T));
  }

  void PutString(const std::string& s) {
    EnsureFor(sizeof(u64) + s.size());
    Put<u64>(s.size());
    PutBytes(s.data(), s.size());
  }

  template <typename T>
  void PutVec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>, "PutVec requires a trivially copyable type");
    EnsureFor(sizeof(u64) + v.size() * sizeof(T));
    Put<u64>(v.size());
    PutBytes(v.data(), v.size() * sizeof(T));
  }

  void PutBytes(const void* data, size_t n) {
    if (n == 0) {
      return;
    }
    EnsureFor(n);
    const u8* p = static_cast<const u8*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  // LEB128: seven bits per byte, low bits first, high bit set on every byte
  // but the last. Writes VarintSize(v) bytes at `out` and returns the count.
  static size_t EncodeVarint(u64 v, u8* out) {
    size_t n = 0;
    for (; v >= 0x80; v >>= 7) {
      out[n++] = static_cast<u8>(v | 0x80);
    }
    out[n++] = static_cast<u8>(v);
    return n;
  }

  // ceil(bit_width / 7) for bit widths 1..64, without a division.
  static size_t VarintSize(u64 v) {
    return (static_cast<size_t>(std::bit_width(v | 1)) * 9 + 64) / 64;
  }

  static constexpr size_t kMaxVarintBytes = 10;

  size_t size() const { return buf_.size(); }
  std::vector<u8> Take() { return std::move(buf_); }
  const std::vector<u8>& bytes() const { return buf_; }

 private:
  // Grows capacity to hold `n` more bytes: first allocation comes from the
  // pool, later growth at least doubles so N appends cost O(N) copies.
  void EnsureFor(size_t n) {
    const size_t need = buf_.size() + n;
    if (need <= buf_.capacity()) {
      return;
    }
    if (buf_.capacity() == 0) {
      buf_ = BufferPool::Acquire(need < kInitialCapacity ? kInitialCapacity : need);
    } else {
      buf_.reserve(std::max(need, buf_.capacity() * 2));
    }
  }

  static constexpr size_t kInitialCapacity = 64;

  std::vector<u8> buf_;
};

// Field-list marker for a sequence framed by a u32 element count whose
// elements are visited one by one (the wire codec in runtime/protocol.h);
// a plain std::vector of trivially copyable elements is u64-counted instead.
template <class C>
struct U32Counted {
  C& items;
};
template <class C>
U32Counted(C&) -> U32Counted<C>;

class ByteReader {
 public:
  explicit ByteReader(const std::vector<u8>& buf) : data_(buf.data()), size_(buf.size()) {}
  ByteReader(const u8* data, size_t size) : data_(data), size_(size) {}

  template <typename T>
  T Get() {
    static_assert(std::is_trivially_copyable_v<T>, "Get requires a trivially copyable type");
    ORION_CHECK(pos_ + sizeof(T) <= size_) << "ByteReader overrun";
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  // Reads one EncodeVarint value; a varint cut short CHECK-fails as an
  // overrun.
  u64 GetVarint() {
    u64 v = 0;
    for (unsigned shift = 0;; shift += 7) {
      ORION_CHECK(pos_ < size_) << "ByteReader overrun";
      const u8 b = data_[pos_++];
      ORION_CHECK(shift < 63 || b <= 1) << "ByteReader varint overflows 64 bits";
      v |= static_cast<u64>(b & 0x7f) << shift;
      if (b < 0x80) {
        return v;
      }
    }
  }

  std::string GetString() {
    const u64 n = Get<u64>();
    ORION_CHECK(n <= size_ - pos_) << "ByteReader overrun";
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  template <typename T>
  std::vector<T> GetVec() {
    static_assert(std::is_trivially_copyable_v<T>, "GetVec requires a trivially copyable type");
    const u64 n = Get<u64>();
    ORION_CHECK(n <= (size_ - pos_) / sizeof(T)) << "ByteReader overrun";
    std::vector<T> v(n);
    if (n > 0) {
      std::memcpy(v.data(), data_ + pos_, n * sizeof(T));
    }
    pos_ += n * sizeof(T);
    return v;
  }

  // Non-aborting variants for parsing untrusted bytes (e.g. checkpoint files
  // that may be truncated or corrupt): return nullopt instead of CHECKing.
  template <typename T>
  std::optional<T> TryGet() {
    static_assert(std::is_trivially_copyable_v<T>, "TryGet requires a trivially copyable type");
    if (pos_ + sizeof(T) > size_) {
      return std::nullopt;
    }
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  template <typename T>
  std::optional<std::vector<T>> TryGetVec() {
    static_assert(std::is_trivially_copyable_v<T>,
                  "TryGetVec requires a trivially copyable type");
    const auto n = TryGet<u64>();
    if (!n.has_value() || *n > (size_ - pos_) / sizeof(T)) {
      return std::nullopt;
    }
    std::vector<T> v(static_cast<size_t>(*n));
    if (*n > 0) {
      std::memcpy(v.data(), data_ + pos_, static_cast<size_t>(*n) * sizeof(T));
    }
    pos_ += static_cast<size_t>(*n) * sizeof(T);
    return v;
  }

  bool AtEnd() const { return pos_ == size_; }
  size_t remaining() const { return size_ - pos_; }

 private:
  const u8* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace orion

#endif  // ORION_SRC_COMMON_SERDE_H_
