// Stub that exists only because e2ebench/ still reads these (all-zero)
// counters; it goes when e2ebench stops naming them.
#pragma once

namespace pi2m {

struct SimdPredicateCounters {
  unsigned long long orient3d_lanes = 0, orient3d_fallback = 0;
  unsigned long long insphere_lanes = 0, insphere_fallback = 0;
};
inline SimdPredicateCounters simd_predicate_counters() { return {}; }

namespace telemetry {
template <typename Registry>
void collect_simd_predicates(Registry&, const SimdPredicateCounters&) {}
}  // namespace telemetry

}  // namespace pi2m
