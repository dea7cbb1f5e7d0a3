// The refinement rules R1-R6 (paper §3).
//
//  R1  circumball of t intersects ∂O, closest surface point ẑ=ĉ(t) is
//      δ-far from every existing isosurface vertex        -> insert ẑ
//  R2  circumball of t intersects ∂O and r(t) > 2δ        -> insert c(t)
//  R3  a facet's Voronoi edge V(f) crosses ∂O at c_surf and the facet has a
//      planar angle < 30° or a vertex off the isosurface  -> insert c_surf
//  R4  c(t) inside O and radius-edge ratio > 2            -> insert c(t)
//  R5  c(t) inside O and r(t) > sf(c(t))                  -> insert c(t)
//  R6  circumcenters closer than 2δ to an isosurface vertex are deleted
//      (triggered after each surface-vertex insertion; see Refiner).
//
// R1/R2 create the dense surface sample of Theorem 1 (fidelity); R3/R4
// enforce quality; R5 the user sizing field; R6 guarantees termination.
#pragma once

#include <cstdint>

#include "core/sizing.hpp"
#include "core/spatial_grid.hpp"
#include "delaunay/geom_cache.hpp"
#include "delaunay/mesh.hpp"
#include "imaging/isosurface.hpp"

namespace pi2m {

namespace lattice {
class LatticeFill;
}

enum class Rule : std::uint8_t { None = 0, R1, R2, R3, R4, R5 };

const char* to_string(Rule r);

struct RefineRulesConfig {
  double delta = 2.0;                  ///< surface sample spacing (R1/R2/R6)
  double rho_bound = 2.0;              ///< radius-edge bound (R4)
  double min_planar_angle_deg = 30.0;  ///< boundary facet angle bound (R3)
  SizeFunction size_fn;                ///< optional sizing field (R5)
  double removal_factor = 2.0;         ///< R6 radius = removal_factor * delta
  /// Hybrid interior fill: when non-null, no rule may insert a point inside
  /// the lattice guard zone (LatticeFill::protects) — refinement must never
  /// encroach the structured region or its interface circumspheres. A
  /// blocked rule falls through to the next one; a cell with every
  /// applicable rule blocked classifies as Rule::None (no requeue, so
  /// termination is preserved). Surface points (R1/R3) are never blocked:
  /// the occupancy band keeps the guard zone >= 2δ away from ∂O.
  const lattice::LatticeFill* lattice = nullptr;
};

struct Classification {
  Rule rule = Rule::None;
  Vec3 point{};          ///< the point the rule inserts
  VertexKind kind = VertexKind::Circumcenter;
};

/// Classifies an alive cell against R1-R5 in paper order. `iso_grid` holds
/// the already-inserted surface vertices (for R1's packing check).
/// Safe to call without holding locks: positions are immutable, and a
/// misclassification caused by concurrent restructuring at worst schedules
/// an unnecessary (harmless) point or is re-checked at operation time.
///
/// With `cache` non-null the per-generation geometry (circumsphere, EDT
/// lower bound, inside test, memoized closest surface point) is served from
/// / published to the generation-tagged side arena, so pops, retries, and
/// the R3 neighbour scan stop recomputing identical quantities. The parts
/// that read mutable state (`iso_grid.any_within`) are always evaluated
/// fresh, so caching never changes the classification result. The refiner
/// always passes its cache; a null `cache` is the cache-free reference the
/// parity tests and micro-benchmarks compare against. `tid` only picks a
/// padded hit/miss counter slot.
Classification classify_cell(const DelaunayMesh& mesh, CellId c,
                             const IsosurfaceOracle& oracle,
                             const SpatialHashGrid& iso_grid,
                             const RefineRulesConfig& cfg,
                             CellGeomCache* cache = nullptr, int tid = 0);

}  // namespace pi2m
