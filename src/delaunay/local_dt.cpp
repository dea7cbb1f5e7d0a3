#include "delaunay/local_dt.hpp"

#include <algorithm>

#include "delaunay/mesh.hpp"  // kFaceOf
#include "predicates/predicates.hpp"

namespace pi2m {
namespace {

constexpr int kMaxWalkSteps = 4096;

}  // namespace

void LocalDelaunay::init_bounding_tet(const Vec3& c, double half_diag) {
  // A regular tetrahedron with vertices at distance L from the center
  // contains the ball of radius L/3; L = 64*d comfortably encloses all
  // points with margin for circumcenters of skinny intermediate tets.
  const double l = 64.0 * std::max(half_diag, 1e-9);
  pts_.push_back(c + l * Vec3{1, 1, 1});
  pts_.push_back(c + l * Vec3{1, -1, -1});
  pts_.push_back(c + l * Vec3{-1, 1, -1});
  pts_.push_back(c + l * Vec3{-1, -1, 1});

  Tet t0;
  t0.v = {0, 1, 2, 3};
  if (orient3d(pts_[0], pts_[1], pts_[2], pts_[3]) < 0) std::swap(t0.v[2], t0.v[3]);
  t0.n = {-1, -1, -1, -1};
  t0.alive = true;
  tets_.push_back(t0);
}

LocalDelaunay::LocalDelaunay(const std::vector<Vec3>& pts) { rebuild(pts); }

void LocalDelaunay::rebuild(const std::vector<Vec3>& pts) {
  pts_.clear();
  tets_.clear();
  last_created_.clear();
  ok_ = false;
  if (pts.empty()) return;

  Aabb bb;
  for (const Vec3& p : pts) bb.expand(p);
  pts_.reserve(pts.size() + 4);
  init_bounding_tet(bb.center(), norm(bb.extent()));
  pts_.insert(pts_.end(), pts.begin(), pts.end());

  for (std::size_t i = 4; i < pts_.size(); ++i) {
    if (!insert(static_cast<int>(i))) return;  // ok_ stays false
  }
  ok_ = true;
}

LocalDelaunay::LocalDelaunay(const Aabb& bounds) {
  init_bounding_tet(bounds.center(), norm(bounds.extent()));
  ok_ = true;
}

int LocalDelaunay::add_point(const Vec3& p) {
  const int idx = static_cast<int>(pts_.size());
  pts_.push_back(p);
  if (!insert(idx)) {
    pts_.pop_back();
    return -1;
  }
  return idx;
}

int LocalDelaunay::locate(const Vec3& p) const {
  int cur = -1;
  for (int i = static_cast<int>(tets_.size()) - 1; i >= 0; --i) {
    if (tets_[static_cast<std::size_t>(i)].alive) {
      cur = i;
      break;
    }
  }
  int spin = 0;
  for (int step = 0; step < kMaxWalkSteps && cur >= 0; ++step) {
    const Tet& t = tets_[static_cast<std::size_t>(cur)];
    bool moved = false;
    for (int k = 0; k < 4 && !moved; ++k) {
      const int f = (k + spin) & 3;
      if (orient3d(pts_[static_cast<std::size_t>(t.v[kFaceOf[f][0]])],
                   pts_[static_cast<std::size_t>(t.v[kFaceOf[f][1]])],
                   pts_[static_cast<std::size_t>(t.v[kFaceOf[f][2]])],
                   p) < 0) {
        cur = t.n[f];
        ++spin;
        moved = true;
      }
    }
    if (!moved) return cur;
  }
  return -1;
}

bool LocalDelaunay::insert(int pi) {
  last_created_.clear();
  const Vec3& p = pts_[static_cast<std::size_t>(pi)];
  const int start = locate(p);
  if (start < 0) return false;

  auto in_sphere = [&](int ti) {
    const Tet& t = tets_[static_cast<std::size_t>(ti)];
    return insphere(pts_[static_cast<std::size_t>(t.v[0])],
                    pts_[static_cast<std::size_t>(t.v[1])],
                    pts_[static_cast<std::size_t>(t.v[2])],
                    pts_[static_cast<std::size_t>(t.v[3])], p);
  };
  if (in_sphere(start) <= 0) return false;  // duplicate / degenerate point

  auto& cavity = cavity_;
  auto& stack = stack_;
  auto& bfaces = bfaces_;
  const std::uint64_t epoch = ++cavity_epoch_;
  cavity.assign(1, start);
  tets_[static_cast<std::size_t>(start)].mark = epoch;
  stack.assign(1, start);
  bfaces.clear();
  auto in_cavity = [&](int ti) {
    return tets_[static_cast<std::size_t>(ti)].mark == epoch;
  };
  while (!stack.empty()) {
    const int ti = stack.back();
    stack.pop_back();
    const Tet t = tets_[static_cast<std::size_t>(ti)];  // copy: tets_ may grow
    for (int f = 0; f < 4; ++f) {
      const int nb = t.n[f];
      const int a = t.v[kFaceOf[f][0]];
      const int b = t.v[kFaceOf[f][1]];
      const int c = t.v[kFaceOf[f][2]];
      if (nb < 0) {
        bfaces.push_back({a, b, c, -1});
        continue;
      }
      if (in_cavity(nb)) continue;
      if (in_sphere(nb) > 0) {
        cavity.push_back(nb);
        tets_[static_cast<std::size_t>(nb)].mark = epoch;
        stack.push_back(nb);
      } else {
        bfaces.push_back({a, b, c, nb});
      }
    }
  }

  for (const BFace& bf : bfaces) {
    if (orient3d(pts_[static_cast<std::size_t>(bf.a)],
                 pts_[static_cast<std::size_t>(bf.b)],
                 pts_[static_cast<std::size_t>(bf.c)], p) <= 0) {
      return false;  // degenerate against cavity boundary
    }
  }

  for (int ti : cavity) tets_[static_cast<std::size_t>(ti)].alive = false;

  // Hashed boundary-edge gluing: each cavity-boundary edge pairs exactly
  // twice, so every lookup is O(1) in the epoch-stamped table.
  edge_glue_.begin(bfaces.size() * 3 / 2 + 1);
  for (const BFace& bf : bfaces) {
    const int nt = static_cast<int>(tets_.size());
    Tet t;
    t.v = {bf.a, bf.b, bf.c, pi};
    t.n = {-1, -1, -1, bf.outside};
    t.alive = true;
    tets_.push_back(t);
    last_created_.push_back(nt);
    if (bf.outside >= 0) {
      Tet& ot = tets_[static_cast<std::size_t>(bf.outside)];
      for (int j = 0; j < 4; ++j) {
        const int oa = ot.v[kFaceOf[j][0]];
        const int ob = ot.v[kFaceOf[j][1]];
        const int oc = ot.v[kFaceOf[j][2]];
        const auto has = [&](int x) { return x == oa || x == ob || x == oc; };
        if (has(bf.a) && has(bf.b) && has(bf.c)) {
          ot.n[j] = nt;
          break;
        }
      }
    }
    const std::array<int, 3> base{bf.a, bf.b, bf.c};
    for (int k = 0; k < 3; ++k) {
      const std::uint64_t key =
          edge_key(static_cast<std::uint32_t>(base[(k + 1) % 3]),
                   static_cast<std::uint32_t>(base[(k + 2) % 3]));
      auto* slot = edge_glue_.find_or_insert(key, {nt, k});
      if (slot != nullptr) {
        tets_[static_cast<std::size_t>(nt)].n[k] = slot->value.tet;
        tets_[static_cast<std::size_t>(slot->value.tet)].n[slot->value.face] =
            nt;
        edge_glue_.consume(slot);
      }
    }
  }
  return true;
}

int LocalDelaunay::find_tet_with_face(int a, int b, int c) const {
  for (std::size_t ti = 0; ti < tets_.size(); ++ti) {
    const Tet& t = tets_[ti];
    if (!t.alive) continue;
    int other = -1;
    int found = 0;
    for (int k = 0; k < 4; ++k) {
      if (t.v[k] == a || t.v[k] == b || t.v[k] == c) {
        ++found;
      } else {
        other = t.v[k];
      }
    }
    if (found != 3 || other < 0) continue;
    if (orient3d(pts_[static_cast<std::size_t>(a)],
                 pts_[static_cast<std::size_t>(b)],
                 pts_[static_cast<std::size_t>(c)],
                 pts_[static_cast<std::size_t>(other)]) > 0) {
      return static_cast<int>(ti);
    }
  }
  return -1;
}

}  // namespace pi2m
