// Stub that exists only because the e2ebench/ provenance line still prints
// simd::level_name(simd::active_level()); it goes when e2ebench stops
// naming it.
#pragma once

namespace pi2m::simd {

enum class Level : int { kScalar = 0 };

inline Level active_level() { return Level::kScalar; }
inline const char* level_name(Level) { return "scalar"; }

}  // namespace pi2m::simd
