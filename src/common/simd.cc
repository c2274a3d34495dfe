#include "src/common/simd.h"

#include <atomic>
#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#define ORION_SIMD_X86 1
#include <immintrin.h>
#endif

namespace orion {
namespace simd {
namespace {

// The scalar kernels are the bit-for-bit reference the vector paths are
// tested against, and the baseline the dataplane bench compares to; keep the
// compiler from auto-vectorizing them so "scalar" means scalar.
#if defined(__GNUC__) && !defined(__clang__)
#define ORION_NO_AUTOVEC __attribute__((optimize("no-tree-vectorize")))
#else
#define ORION_NO_AUTOVEC
#endif

ORION_NO_AUTOVEC void CopyScalar(f32* dst, const f32* src, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    dst[i] = src[i];
  }
}

ORION_NO_AUTOVEC void AddScalar(f32* dst, const f32* src, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    dst[i] += src[i];
  }
}

#if defined(ORION_SIMD_X86)

// SSE2 is part of the x86-64 baseline: no target attribute needed.
void CopySSE2(f32* dst, const f32* src, size_t n) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128 a = _mm_loadu_ps(src + i);
    const __m128 b = _mm_loadu_ps(src + i + 4);
    const __m128 c = _mm_loadu_ps(src + i + 8);
    const __m128 d = _mm_loadu_ps(src + i + 12);
    _mm_storeu_ps(dst + i, a);
    _mm_storeu_ps(dst + i + 4, b);
    _mm_storeu_ps(dst + i + 8, c);
    _mm_storeu_ps(dst + i + 12, d);
  }
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(dst + i, _mm_loadu_ps(src + i));
  }
  for (; i < n; ++i) {
    dst[i] = src[i];
  }
}

void AddSSE2(f32* dst, const f32* src, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(dst + i, _mm_add_ps(_mm_loadu_ps(dst + i), _mm_loadu_ps(src + i)));
  }
  for (; i < n; ++i) {
    dst[i] += src[i];
  }
}

__attribute__((target("avx2"))) void CopyAVX2(f32* dst, const f32* src, size_t n) {
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256 a = _mm256_loadu_ps(src + i);
    const __m256 b = _mm256_loadu_ps(src + i + 8);
    const __m256 c = _mm256_loadu_ps(src + i + 16);
    const __m256 d = _mm256_loadu_ps(src + i + 24);
    _mm256_storeu_ps(dst + i, a);
    _mm256_storeu_ps(dst + i + 8, b);
    _mm256_storeu_ps(dst + i + 16, c);
    _mm256_storeu_ps(dst + i + 24, d);
  }
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_loadu_ps(src + i));
  }
  for (; i < n; ++i) {
    dst[i] = src[i];
  }
}

__attribute__((target("avx2"))) void AddAVX2(f32* dst, const f32* src, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i,
                     _mm256_add_ps(_mm256_loadu_ps(dst + i), _mm256_loadu_ps(src + i)));
  }
  for (; i < n; ++i) {
    dst[i] += src[i];
  }
}

#endif  // ORION_SIMD_X86

using KernelFn = void (*)(f32*, const f32*, size_t);

struct Kernels {
  KernelFn copy;
  KernelFn add;
};

Kernels KernelsFor(Level level) {
#if defined(ORION_SIMD_X86)
  switch (level) {
    case Level::kAVX2:
      return {CopyAVX2, AddAVX2};
    case Level::kSSE2:
      return {CopySSE2, AddSSE2};
    case Level::kScalar:
      break;
  }
#else
  (void)level;
#endif
  return {CopyScalar, AddScalar};
}

Level DetectBest() {
#if defined(ORION_SIMD_X86)
#if defined(__GNUC__) || defined(__clang__)
  if (__builtin_cpu_supports("avx2")) {
    return Level::kAVX2;
  }
#endif
  return Level::kSSE2;
#else
  return Level::kScalar;
#endif
}

// Dispatch state. The function pointers are the only per-call indirection;
// ForceLevel swaps both atomically enough for tests (every level computes
// identical results, so a torn read of the pair is still correct). Constant
// scalar initializers keep calls from other static initializers safe before
// DispatchInit upgrades to the detected level.
std::atomic<KernelFn> g_copy{CopyScalar};
std::atomic<KernelFn> g_add{AddScalar};
std::atomic<int> g_level{0};

struct DispatchInit {
  DispatchInit() {
    const Level best = DetectBest();
    const Kernels k = KernelsFor(best);
    g_copy.store(k.copy, std::memory_order_relaxed);
    g_add.store(k.add, std::memory_order_relaxed);
    g_level.store(static_cast<int>(best), std::memory_order_relaxed);
  }
};
DispatchInit g_init;

}  // namespace

Level BestSupportedLevel() { return DetectBest(); }

Level ActiveLevel() {
  return static_cast<Level>(g_level.load(std::memory_order_relaxed));
}

const char* LevelName(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kSSE2:
      return "sse2";
    case Level::kAVX2:
      return "avx2";
  }
  return "unknown";
}

void ForceLevel(Level level) {
  const Level best = DetectBest();
  if (static_cast<int>(level) > static_cast<int>(best)) {
    level = best;
  }
  const Kernels k = KernelsFor(level);
  g_copy.store(k.copy, std::memory_order_relaxed);
  g_add.store(k.add, std::memory_order_relaxed);
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

void ResetLevel() { ForceLevel(DetectBest()); }

void CopyF32Dispatched(f32* dst, const f32* src, size_t n) {
  g_copy.load(std::memory_order_relaxed)(dst, src, n);
}

void AddF32Dispatched(f32* dst, const f32* src, size_t n) {
  g_add.load(std::memory_order_relaxed)(dst, src, n);
}

}  // namespace simd
}  // namespace orion
