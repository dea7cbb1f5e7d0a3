// Degeneracy torture for the staged (A/B/C/D) predicate ladder.
//
// The adaptive stages B and C (predicates.cpp) certify a sign from partial
// expansions plus an error bound; a wrong bound or a sign error in the
// expansion code would make them *silently* disagree with the full exact
// stage D. These tests hammer the ladder with the configurations most
// likely to expose such a bug — exactly coplanar slabs, exactly cospherical
// lattices, and 1-ulp perturbations of both — and assert sign-for-sign
// agreement with orient3d_exact / insphere_exact on every call.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <random>
#include <vector>

#include "predicates/predicates.hpp"

namespace pi2m {
namespace {

int sign_of(double v) { return (v > 0.0) - (v < 0.0); }

// Perturb one coordinate by n ulps (n may be negative).
double ulps(double v, int n) {
  double r = v;
  const double dir = n >= 0 ? INFINITY : -INFINITY;
  for (int i = 0; i < std::abs(n); ++i) r = std::nextafter(r, dir);
  return r;
}

TEST(StagedOrient3d, CoplanarSlabAgreesWithExact) {
  // A grid of points on the plane z = 1/3 (an inexactly-representable
  // height, so the stored coordinates are still exactly coplanar among
  // themselves) — every orient3d over the slab must be exactly 0.
  const double z = 1.0 / 3.0;
  std::vector<Vec3> slab;
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j)
      slab.push_back({0.25 * i + 0.125 * j, 0.5 * j - 0.0625 * i, z});
  int checked = 0;
  for (std::size_t i = 0; i < slab.size(); ++i)
    for (std::size_t j = i + 1; j < slab.size(); ++j)
      for (std::size_t k = j + 1; k < slab.size(); ++k) {
        const int s = orient3d(slab[i], slab[j], slab[k], slab.back());
        EXPECT_EQ(s, 0);
        EXPECT_EQ(s, orient3d_exact(slab[i], slab[j], slab[k], slab.back()));
        ++checked;
      }
  EXPECT_GT(checked, 100);
}

TEST(StagedOrient3d, OneUlpOffSlabAgreesWithExact) {
  // Perturb the apex height by -2..+2 ulps around the slab plane: the
  // determinant is a few units in the last place of the products, far
  // below every floating-point filter. Staged and exact must agree, and
  // the sign must track the perturbation direction.
  const double z = 1.0 / 3.0;
  const Vec3 a{0, 0, z}, b{1, 0, z}, c{0, 1, z};
  for (int n = -2; n <= 2; ++n) {
    const Vec3 d{0.25, 0.25, ulps(z, n)};
    const int staged = orient3d(a, b, c, d);
    EXPECT_EQ(staged, orient3d_exact(a, b, c, d)) << "n=" << n;
    // (a,b,c) counterclockwise seen from +z: apex below the plane => > 0.
    EXPECT_EQ(staged, -sign_of(static_cast<double>(n))) << "n=" << n;
  }
}

TEST(StagedOrient3d, RandomNearCoplanarAgreesWithExact) {
  // Random triangles with the query point lifted off the triangle plane by
  // 0 to a few hundred ulps: exercises stages B, C and D.
  std::mt19937 rng(101);
  std::uniform_real_distribution<double> u(1.0, 2.0);
  std::uniform_int_distribution<int> lift(-64, 64);
  for (int t = 0; t < 2000; ++t) {
    const Vec3 a{u(rng), u(rng), u(rng)};
    const Vec3 b{u(rng), u(rng), u(rng)};
    const Vec3 c{u(rng), u(rng), u(rng)};
    // d on the (rounded) plane point of the triangle, then lifted by ulps.
    const Vec3 mid = (1.0 / 3.0) * (a + b + c);
    const Vec3 d{mid.x, mid.y, ulps(mid.z, lift(rng))};
    EXPECT_EQ(orient3d(a, b, c, d), orient3d_exact(a, b, c, d));
  }
}

TEST(StagedInsphere, CosphericalLatticeAgreesWithExact) {
  // Integer lattice points on the sphere of radius 5 about the origin:
  // permutations of (+-3,+-4,0) and the six axis points. All coordinates
  // are exact small integers, so every insphere over the set is exactly 0.
  std::vector<Vec3> sph;
  for (const double s3 : {-3.0, 3.0})
    for (const double s4 : {-4.0, 4.0}) {
      sph.push_back({s3, s4, 0});
      sph.push_back({s4, s3, 0});
      sph.push_back({s3, 0, s4});
      sph.push_back({s4, 0, s3});
      sph.push_back({0, s3, s4});
      sph.push_back({0, s4, s3});
    }
  for (const double s5 : {-5.0, 5.0}) {
    sph.push_back({s5, 0, 0});
    sph.push_back({0, s5, 0});
    sph.push_back({0, 0, s5});
  }
  std::mt19937 rng(55);
  std::uniform_int_distribution<std::size_t> pick(0, sph.size() - 1);
  int checked = 0;
  for (int t = 0; t < 4000 && checked < 500; ++t) {
    Vec3 a = sph[pick(rng)], b = sph[pick(rng)], c = sph[pick(rng)],
         d = sph[pick(rng)];
    if (orient3d(a, b, c, d) < 0) std::swap(a, b);
    if (orient3d(a, b, c, d) <= 0) continue;  // need a positively-oriented tet
    const Vec3 e = sph[pick(rng)];
    const int staged = insphere(a, b, c, d, e);
    EXPECT_EQ(staged, 0);
    EXPECT_EQ(staged, insphere_exact(a, b, c, d, e));
    ++checked;
  }
  EXPECT_GE(checked, 500);
}

TEST(StagedInsphere, OneUlpOffSphereAgreesWithExact) {
  // Move the query point radially by single ulps across the sphere: the
  // staged result must match exact and flip sign with the direction.
  const Vec3 a{-3, 4, 0}, b{3, 4, 0}, c{0, -5, 0}, d{0, 0, 5};
  ASSERT_GT(orient3d(a, b, c, d), 0);
  for (int n = -3; n <= 3; ++n) {
    const Vec3 e{0, 0, ulps(-5.0, n)};  // |n| ulps inside (n>0) / outside
    const int staged = insphere(a, b, c, d, e);
    EXPECT_EQ(staged, insphere_exact(a, b, c, d, e)) << "n=" << n;
    EXPECT_EQ(staged, sign_of(static_cast<double>(n))) << "n=" << n;
  }
}

TEST(StagedInsphere, RandomNearCosphericalAgreesWithExact) {
  // Tets from the radius-5 lattice sphere, query points a few ulps off a
  // lattice point: near-zero determinants that fall through stage A.
  const std::vector<Vec3> sph = {{3, 4, 0},  {4, 3, 0},  {-3, 4, 0},
                                 {0, -5, 0}, {0, 0, 5},  {0, 0, -5},
                                 {5, 0, 0},  {-5, 0, 0}, {3, 0, 4},
                                 {0, 4, 3},  {0, -4, 3}, {-4, 0, -3}};
  std::mt19937 rng(77);
  std::uniform_int_distribution<std::size_t> pick(0, sph.size() - 1);
  std::uniform_int_distribution<int> nudge(-8, 8);
  std::uniform_int_distribution<int> axis(0, 2);
  int checked = 0;
  for (int t = 0; t < 4000 && checked < 500; ++t) {
    Vec3 a = sph[pick(rng)], b = sph[pick(rng)], c = sph[pick(rng)],
         d = sph[pick(rng)];
    if (orient3d(a, b, c, d) < 0) std::swap(a, b);
    if (orient3d(a, b, c, d) <= 0) continue;
    Vec3 e = sph[pick(rng)];
    double* coord = axis(rng) == 0 ? &e.x : (axis(rng) == 1 ? &e.y : &e.z);
    *coord = ulps(*coord, nudge(rng));
    EXPECT_EQ(insphere(a, b, c, d, e), insphere_exact(a, b, c, d, e));
    ++checked;
  }
  EXPECT_GE(checked, 500);
}

// Adversarial corpora: random tuples plus the families that defeat (or
// barely pass) the stage-A filter — near-degenerate apexes down to 1e-300
// and DBL_MIN, exactly cospherical cube corners, huge/tiny scales and mixed
// magnitudes within one tuple. Scales stay inside the envelope documented
// in predicates.hpp (|x| <= 1e100 for orient3d, <= 1e60 for insphere).
TEST(StagedOrient3d, AdversarialCorpusAgreesWithExact) {
  std::mt19937 rng(42);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const auto rnd = [&] { return Vec3{u(rng), u(rng), u(rng)}; };
  int n = 0;
  const auto check = [&n](const Vec3& a, const Vec3& b, const Vec3& c,
                          const Vec3& d) {
    EXPECT_EQ(orient3d(a, b, c, d), orient3d_exact(a, b, c, d)) << "case " << n;
    ++n;
  };
  for (int i = 0; i < 256; ++i) check(rnd(), rnd(), rnd(), rnd());
  // Coplanar base, apex perturbed by ever-smaller amounts (including exactly
  // zero and sub-errbound offsets the filter cannot certify).
  for (const double dz :
       {0.0, 1e-300, -1e-300, DBL_MIN, 1e-18, -1e-18, 1e-12, DBL_EPSILON}) {
    check({0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0.3, 0.4, dz});
    check({0.1, 0.2, 0.3}, {1.1, 0.2, 0.3}, {0.1, 1.2, 0.3},
          {0.5, 0.6, 0.3 + dz});
  }
  EXPECT_EQ(orient3d({0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0.3, 0.4, 0}), 0);
  // The filter's relative error bound must scale with the input, and
  // underflow must fail the filter rather than mis-certify.
  for (const double s : {1e50, 1e-50, 1e-120}) {
    for (int i = 0; i < 16; ++i) {
      check(s * rnd(), s * rnd(), s * rnd(), s * rnd());
    }
    check({0, 0, 0}, {s, 0, 0}, {0, s, 0}, {0.3 * s, 0.4 * s, 0});
  }
  for (int i = 0; i < 16; ++i) {
    check(1e40 * rnd(), rnd(), 1e-40 * rnd(), rnd());
  }
}

TEST(StagedInsphere, AdversarialCorpusAgreesWithExact) {
  std::mt19937 rng(43);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const auto rnd = [&] { return Vec3{u(rng), u(rng), u(rng)}; };
  int n = 0;
  const auto check = [&n](const Vec3& a, const Vec3& b, const Vec3& c,
                          const Vec3& d, const Vec3& e) {
    EXPECT_EQ(insphere(a, b, c, d, e), insphere_exact(a, b, c, d, e))
        << "case " << n;
    ++n;
  };
  for (int i = 0; i < 256; ++i) check(rnd(), rnd(), rnd(), rnd(), rnd());
  // All eight cube corners lie on one sphere: the determinant is exactly
  // zero and only the exact ladder can say so.
  const Vec3 a{0, 0, 0}, b{1, 0, 0}, c{0, 0, 1}, d{0, 1, 0};
  EXPECT_EQ(insphere(a, b, c, d, {1, 1, 1}), 0);
  EXPECT_EQ(insphere(a, b, c, d, {1, 1, 0}), 0);
  // Query point nudged off that sphere by tiny offsets.
  for (const double dz :
       {0.0, 1e-300, -1e-300, 1e-18, -1e-18, DBL_EPSILON, -DBL_EPSILON}) {
    check(a, b, c, d, {1, 1, 1 + dz});
  }
  // insphere's determinant is degree 5, so overflow sets in earlier than
  // orient3d's degree 3.
  for (const double s : {1e40, 1e-40, 1e60}) {
    for (int i = 0; i < 16; ++i) {
      check(s * rnd(), s * rnd(), s * rnd(), s * rnd(), s * rnd());
    }
  }
  for (int i = 0; i < 16; ++i) {
    check(1e30 * rnd(), rnd(), 1e-30 * rnd(), rnd(), rnd());
  }
}

TEST(StagedCounters, AdaptiveStageResolvesMostNearDegenerateCalls) {
  // Near-coplanar inputs whose true determinant sits within a few ulps of
  // the evaluation noise, so a large share of calls falls through the
  // stage-A static filter. The coordinate range [1,50) spans more than a
  // factor of two, so the initial translations round (nonzero tails) and
  // stage C has to do real tail-correction work. The full exact stage D
  // must stay the rare path — that is the whole point of the ladder.
  reset_predicate_counters();
  std::mt19937 rng(13);
  std::uniform_real_distribution<double> u(1.0, 50.0);
  const int kCalls = 2000;
  for (int t = 0; t < kCalls; ++t) {
    const Vec3 a{u(rng), u(rng), u(rng)};
    const Vec3 b{u(rng), u(rng), u(rng)};
    const Vec3 c{u(rng), u(rng), u(rng)};
    const Vec3 mid = (1.0 / 3.0) * (a + b + c);
    const Vec3 d{mid.x, mid.y, ulps(mid.z, (t % 7) - 3)};
    orient3d(a, b, c, d);
  }
  const PredicateCounters pc = predicate_counters();
  EXPECT_EQ(pc.orient3d_calls, static_cast<unsigned long long>(kCalls));
  // A solid share of the calls must have fallen through the static filter
  // (the exact fraction depends on how the rounded centroid lands)...
  EXPECT_GT(pc.orient3d_adapt, static_cast<unsigned long long>(kCalls) / 10);
  // ...and the adaptive B/C stages must absorb nearly all of them: only
  // the exactly-degenerate stragglers may reach stage D.
  EXPECT_LT(pc.orient3d_exact, pc.orient3d_adapt / 4);
}

TEST(StagedCounters, InsphereLadderCountsAreConsistent) {
  reset_predicate_counters();
  const Vec3 a{-3, 4, 0}, b{3, 4, 0}, c{0, -5, 0}, d{0, 0, 5};
  const int kCalls = 200;
  for (int t = 0; t < kCalls; ++t) {
    const Vec3 e{0, 0, ulps(-5.0, (t % 5) - 2)};
    insphere(a, b, c, d, e);
  }
  const PredicateCounters pc = predicate_counters();
  EXPECT_EQ(pc.insphere_calls, static_cast<unsigned long long>(kCalls));
  // Every stage count nests inside the previous one.
  EXPECT_LE(pc.insphere_exact, pc.insphere_adapt);
  EXPECT_LE(pc.insphere_adapt, pc.insphere_calls);
  // All of these are within ulps of the sphere: stage A can never certify.
  EXPECT_EQ(pc.insphere_adapt, static_cast<unsigned long long>(kCalls));
}

}  // namespace
}  // namespace pi2m
