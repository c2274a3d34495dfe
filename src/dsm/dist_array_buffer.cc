#include "src/dsm/dist_array_buffer.h"

#include "src/common/simd.h"

namespace orion {

BufferApplyFn MakeAddApplyFn() {
  return [](f32* cell, const f32* update, i32 value_dim) {
    simd::AddF32(cell, update, static_cast<size_t>(value_dim));
  };
}

}  // namespace orion
