// Runtime-dispatched SIMD kernels for the data plane's byte-moving loops.
//
// The hot inner loops of the engine — snapshot gathers, deferred applies,
// page clones — all reduce to two primitives over f32 spans: copy and
// lane-wise add. These are dispatched once at startup to the widest
// instruction set the CPU supports (AVX2 > SSE2 > scalar) and can be forced
// down a level for tests and benchmarks. Spans shorter than one AVX2 vector
// skip the dispatch and run inline.
//
// Determinism contract: AddF32 performs exactly one IEEE-754 addition per
// lane — dst[i] += src[i] — regardless of dispatch level. Vectorization is
// across the independent lanes of one cell (value_dim), never across fold
// order, so accumulation results are bit-for-bit identical to the scalar
// loop at every level.
#ifndef ORION_SRC_COMMON_SIMD_H_
#define ORION_SRC_COMMON_SIMD_H_

#include <cstddef>

#include "src/common/types.h"

namespace orion {
namespace simd {

enum class Level : int {
  kScalar = 0,
  kSSE2 = 1,
  kAVX2 = 2,
};

// Widest level this CPU supports (decided once, at startup).
Level BestSupportedLevel();

// Level the kernels currently dispatch to.
Level ActiveLevel();

const char* LevelName(Level level);

// Test/bench seam: force dispatch to `level`, clamped to what the CPU
// supports. Not thread-safe against concurrent kernel calls in the sense of
// choosing which level serves them (results are identical at every level, so
// a racing call merely runs the old kernel); call from a quiesced state in
// tests anyway.
void ForceLevel(Level level);

// Restores dispatch to BestSupportedLevel().
void ResetLevel();

// Spans shorter than this (one AVX2 vector) are copied and added inline:
// a one-float value span costs no call through the dispatch pointer.
inline constexpr size_t kInlineLanes = 8;

// The active level's kernels, whatever the span's length.
void CopyF32Dispatched(f32* dst, const f32* src, size_t n);
void AddF32Dispatched(f32* dst, const f32* src, size_t n);

// dst[i] = src[i] for i in [0, n). Spans must not overlap.
inline void CopyF32(f32* dst, const f32* src, size_t n) {
  if (n < kInlineLanes) {
    for (size_t i = 0; i < n; ++i) {
      dst[i] = src[i];
    }
    return;
  }
  CopyF32Dispatched(dst, src, n);
}

// dst[i] += src[i] for i in [0, n). One IEEE add per lane at every level.
inline void AddF32(f32* dst, const f32* src, size_t n) {
  if (n < kInlineLanes) {
    for (size_t i = 0; i < n; ++i) {
      dst[i] += src[i];
    }
    return;
  }
  AddF32Dispatched(dst, src, n);
}

}  // namespace simd
}  // namespace orion

#endif  // ORION_SRC_COMMON_SIMD_H_
