// Maps N-dimensional DistArray indices to flat 64-bit keys and back.
//
// DistArray elements are identified by an N-tuple (paper Sec. 3.1); the
// runtime stores and ships them by a flat row-major key so that storage,
// serialization, and range partitioning operate on a single integer.
#ifndef ORION_SRC_DSM_KEY_SPACE_H_
#define ORION_SRC_DSM_KEY_SPACE_H_

#include <numeric>
#include <span>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"

namespace orion {

class KeySpace {
 public:
  KeySpace() = default;
  explicit KeySpace(std::vector<i64> dims) : dims_(std::move(dims)) {
    strides_.resize(dims_.size());
    i64 stride = 1;
    // Row-major with the *last* dimension contiguous.
    for (size_t d = dims_.size(); d-- > 0;) {
      ORION_CHECK(dims_[d] > 0) << "dimension" << d << "must be positive";
      strides_[d] = stride;
      stride *= dims_[d];
    }
    total_ = stride;
  }

  int num_dims() const { return static_cast<int>(dims_.size()); }
  const std::vector<i64>& dims() const { return dims_; }
  i64 dim(int d) const { return dims_[static_cast<size_t>(d)]; }
  i64 total() const { return total_; }

  bool Contains(std::span<const i64> idx) const {
    if (idx.size() != dims_.size()) {
      return false;
    }
    for (size_t d = 0; d < dims_.size(); ++d) {
      if (idx[d] < 0 || idx[d] >= dims_[d]) {
        return false;
      }
    }
    return true;
  }

  i64 Encode(std::span<const i64> idx) const {
    ORION_CHECK(Contains(idx)) << "index outside key space";
    return EncodeUnchecked(idx);
  }

  // Hot-path encode without bounds validation (storage layers re-check
  // ownership anyway).
  i64 EncodeUnchecked(std::span<const i64> idx) const {
    i64 key = 0;
    for (size_t d = 0; d < dims_.size(); ++d) {
      key += idx[d] * strides_[d];
    }
    return key;
  }

  IndexVec Decode(i64 key) const {
    IndexVec idx(dims_.size());
    DecodeInto(key, idx);
    return idx;
  }

  // Allocation-free decode into a preallocated span (hot path; keys come
  // from trusted stores, so no bounds validation). The last stride is 1, so
  // the last coordinate is what remains after the leading divisions.
  void DecodeInto(i64 key, std::span<i64> idx) const {
    if (dims_.empty()) {
      return;
    }
    const size_t last = dims_.size() - 1;
    for (size_t d = 0; d < last; ++d) {
      const i64 q = key / strides_[d];
      idx[d] = q;
      key -= q * strides_[d];
    }
    idx[last] = key;
  }

  const std::vector<i64>& strides() const { return strides_; }

  // Extracts one coordinate without materializing the whole index vector.
  i64 Coord(i64 key, int d) const {
    return (key / strides_[static_cast<size_t>(d)]) % dims_[static_cast<size_t>(d)];
  }

 private:
  std::vector<i64> dims_;
  std::vector<i64> strides_;
  i64 total_ = 0;
};

}  // namespace orion

#endif  // ORION_SRC_DSM_KEY_SPACE_H_
