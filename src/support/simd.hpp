// SIMD dispatch layer for the batched geometric core.
//
// One binary runs everywhere: vector kernels are compiled with per-function
// target attributes (no global -mavx2), selected at runtime from CPUID.
// Two levels exist — kScalar (portable, always available) and kAvx2
// (4-wide double lanes; requires AVX2+FMA hardware, though the filter
// kernels deliberately use separate mul/add so their rounding matches the
// -ffp-contract=off scalar code bit for bit).
//
// Selection order:
//   1. a programmatic override (force_simd_level / clear_simd_override),
//      used by tests and the pi2m_fuzz SIMD-parity mode;
//   2. the PI2M_SIMD environment variable ("avx2" | "scalar");
//   3. CPUID detection.
// Requests for unavailable levels clamp down to kScalar.
//
// Building with -DPI2M_SIMD=OFF (CMake) defines PI2M_SIMD_DISABLED and
// removes the vector kernels entirely; every query then reports kScalar.
#pragma once

#include <atomic>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) && !defined(PI2M_SIMD_DISABLED)
#define PI2M_SIMD_AVX2 1
#else
#define PI2M_SIMD_AVX2 0
#endif

namespace pi2m::simd {

enum class Level : int {
  kScalar = 0,
  kAvx2 = 1,
};

namespace detail {

inline std::atomic<int> g_override{-1};

inline Level detect_level() {
#if PI2M_SIMD_AVX2
  bool have_avx2 = __builtin_cpu_supports("avx2") != 0;
  if (const char* env = std::getenv("PI2M_SIMD")) {
    if (std::strcmp(env, "scalar") == 0) return Level::kScalar;
    // "avx2" (or anything else) keeps hardware detection authoritative:
    // requesting a level the CPU lacks clamps down to scalar.
  }
  return have_avx2 ? Level::kAvx2 : Level::kScalar;
#else
  return Level::kScalar;
#endif
}

}  // namespace detail

/// The level the dispatched kernels will actually run at, honouring any
/// override, then PI2M_SIMD, then CPUID. Cheap enough for per-batch calls
/// (one relaxed atomic load in the common no-override case).
inline Level active_level() {
  const int o = detail::g_override.load(std::memory_order_relaxed);
  if (o >= 0) return static_cast<Level>(o);
  static const Level detected = detail::detect_level();
  return detected;
}

/// Force a dispatch level for this process (clamped to what the build and
/// hardware support). Used by the SIMD parity tests and pi2m_fuzz
/// --simd-compare; the PI2M_SIMD environment variable is the user-facing
/// switch.
inline void force_simd_level(Level level) {
#if !PI2M_SIMD_AVX2
  level = Level::kScalar;
#else
  if (level == Level::kAvx2 && !__builtin_cpu_supports("avx2")) {
    level = Level::kScalar;
  }
#endif
  detail::g_override.store(static_cast<int>(level), std::memory_order_relaxed);
}

/// Return to environment/CPUID-driven selection.
inline void clear_simd_override() {
  detail::g_override.store(-1, std::memory_order_relaxed);
}

inline const char* level_name(Level level) {
  return level == Level::kAvx2 ? "avx2" : "scalar";
}

// ---------------------------------------------------------------------------
// Portable fixed-width lane helper for code that wants data-parallel shape
// without per-function target attributes (EDT sweeps, distance loops). The
// ops below compile to SSE2 pairs at baseline -O2 and the fixed 4-lane
// structure keeps gcc's autovectorizer engaged; the hot predicate filters
// use real AVX2 intrinsics in predicates_simd.cpp instead.
// ---------------------------------------------------------------------------

struct DVec4 {
  double lane[4];

  static DVec4 splat(double v) { return {{v, v, v, v}}; }
  static DVec4 load(const double* p) { return {{p[0], p[1], p[2], p[3]}}; }
  void store(double* p) const {
    p[0] = lane[0];
    p[1] = lane[1];
    p[2] = lane[2];
    p[3] = lane[3];
  }

  friend DVec4 operator+(const DVec4& a, const DVec4& b) {
    return {{a.lane[0] + b.lane[0], a.lane[1] + b.lane[1],
             a.lane[2] + b.lane[2], a.lane[3] + b.lane[3]}};
  }
  friend DVec4 operator-(const DVec4& a, const DVec4& b) {
    return {{a.lane[0] - b.lane[0], a.lane[1] - b.lane[1],
             a.lane[2] - b.lane[2], a.lane[3] - b.lane[3]}};
  }
  friend DVec4 operator*(const DVec4& a, const DVec4& b) {
    return {{a.lane[0] * b.lane[0], a.lane[1] * b.lane[1],
             a.lane[2] * b.lane[2], a.lane[3] * b.lane[3]}};
  }

  /// Lanewise c.lane >= 0 ? a : b — a branchless select the compiler maps
  /// to a vector compare + blend.
  static DVec4 select_nonneg(const DVec4& c, const DVec4& a, const DVec4& b) {
    return {{c.lane[0] >= 0.0 ? a.lane[0] : b.lane[0],
             c.lane[1] >= 0.0 ? a.lane[1] : b.lane[1],
             c.lane[2] >= 0.0 ? a.lane[2] : b.lane[2],
             c.lane[3] >= 0.0 ? a.lane[3] : b.lane[3]}};
  }
};

}  // namespace pi2m::simd
