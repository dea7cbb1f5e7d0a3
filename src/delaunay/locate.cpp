#include <array>

#include "delaunay/operations.hpp"
#include "predicates/predicates.hpp"

namespace pi2m {

CellId any_alive_cell(const DelaunayMesh& mesh, CellId near_hint) {
  const std::uint32_t n = mesh.cell_slot_count();
  if (n == 0) return kNoCell;
  const CellId start = near_hint < n ? near_hint : 0;
  for (std::uint32_t k = 0; k < n; ++k) {
    const CellId c = (start + k) % n;
    if (mesh.cell_alive(c)) return c;
  }
  return kNoCell;
}

LocateResult locate_point(const DelaunayMesh& mesh, const Vec3& p, CellId hint,
                          int max_steps) {
  LocateResult out;
  if (hint == kNoCell || hint >= mesh.cell_slot_count()) return out;

  CellId c = hint;
  int spin = 0;
  for (int step = 0; step < max_steps; ++step) {
    // Snapshot the cell under generation re-check: concurrent retirement or
    // slot reuse during the unlocked walk is detected, not trusted.
    const std::uint32_t g1 = mesh.cell_gen(c);
    if ((g1 & 1u) == 0) return out;  // dead cell
    const Cell& cl = mesh.cell(c);
    // Acquire atomic_ref loads: v may be concurrently rewritten by a commit
    // recycling this slot (the committer uses release stores). Reading-from
    // such a store synchronizes-with it, which — via the writer's vertex
    // locks — orders every vertex position write before our reads below.
    // A torn *snapshot* (mixed old/new ids) is still possible and merely
    // sends the walk astray; callers re-validate containment under locks.
    std::array<VertexId, 4> vs;
    for (int i = 0; i < 4; ++i) {
      vs[i] = std::atomic_ref(const_cast<VertexId&>(cl.v[i]))
                  .load(std::memory_order_acquire);
    }
    std::array<CellId, 4> ns;
    for (int i = 0; i < 4; ++i) ns[i] = cl.n[i].load(std::memory_order_acquire);
    if (mesh.cell_gen(c) != g1) continue;  // torn snapshot: re-read the slot

    const std::uint32_t vcount = mesh.vertex_count();
    std::array<Vec3, 4> pos;
    for (int i = 0; i < 4; ++i) {
      if (vs[i] >= vcount) return out;
      pos[i] = mesh.position(vs[i]);
    }

    // Cross the first separating face. Rotating the scan start index
    // implements the classic "remembering" walk tie-break that avoids
    // 2-cycles on degenerate inputs.
    bool moved = false;
    for (int k = 0; k < 4 && !moved; ++k) {
      const int i = (k + spin) & 3;
      if (orient3d(pos[kFaceOf[i][0]], pos[kFaceOf[i][1]], pos[kFaceOf[i][2]],
                   p) < 0) {
        if (ns[i] == kNoCell) return out;  // walked out of the box
        c = ns[i];
        ++spin;
        moved = true;
      }
    }
    if (!moved) {
      out.cell = c;
      out.ok = true;
      return out;
    }
  }
  return out;  // step limit: heavy churn, let the caller retry
}

}  // namespace pi2m
