#include "lattice/lattice_fill.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>
#include <thread>

#include "check/oplog.hpp"
#include "support/common.hpp"
#include "support/parallel_for.hpp"

namespace pi2m {

const char* interior_name(InteriorFill k) {
  switch (k) {
    case InteriorFill::Delaunay: return "delaunay";
    case InteriorFill::Lattice: return "lattice";
  }
  return "?";
}

std::optional<InteriorFill> parse_interior_name(const std::string& s) {
  if (s == "delaunay") return InteriorFill::Delaunay;
  if (s == "lattice") return InteriorFill::Lattice;
  return std::nullopt;
}

namespace lattice {

namespace {

/// Doubled-integer lattice point keys, 21 bits per axis (even coordinates =
/// cube corners, odd = cube centers).
constexpr int kAxisBits = 21;
constexpr std::uint64_t kAxisMask = (std::uint64_t{1} << kAxisBits) - 1;

std::uint64_t pack_key(std::int64_t dx, std::int64_t dy, std::int64_t dz) {
  return (static_cast<std::uint64_t>(dz) << (2 * kAxisBits)) |
         (static_cast<std::uint64_t>(dy) << kAxisBits) |
         static_cast<std::uint64_t>(dx);
}

void unpack_key(std::uint64_t key, std::int64_t& dx, std::int64_t& dy,
                std::int64_t& dz) {
  dx = static_cast<std::int64_t>(key & kAxisMask);
  dy = static_cast<std::int64_t>((key >> kAxisBits) & kAxisMask);
  dz = static_cast<std::int64_t>((key >> (2 * kAxisBits)) & kAxisMask);
}

/// Occupancy clearance in cube-size units beyond the 2δ surface band:
/// (√3/2)a center-to-corner + √3·a guard-ring reach = (3√3/2)a ≈ 2.598a,
/// rounded up for fp slack. Every point of the guard zone G then sits at
/// true distance >= 2δ from ∂O, so surface sampling never collides with it.
constexpr double kBandCubes = 2.7;

/// Memory ceiling for the cube grid (label + erosion bytes per cube).
constexpr std::size_t kMaxCubes = std::size_t{1} << 24;

/// Spreads the low 21 bits of v to every third bit (bit i -> bit 3i).
std::uint64_t spread_bits(std::uint64_t v) {
  v &= kAxisMask;
  v = (v | v << 32) & 0x001f00000000ffffULL;
  v = (v | v << 16) & 0x001f0000ff0000ffULL;
  v = (v | v << 8) & 0x100f00f00f00f00fULL;
  v = (v | v << 4) & 0x10c30c30c30c30c3ULL;
  v = (v | v << 2) & 0x1249249249249249ULL;
  return v;
}

/// Position of a key along the Morton (Z-order) curve: the three 21-bit
/// axes interleaved into 63 bits.
std::uint64_t morton_of(std::uint64_t key) {
  std::int64_t dx, dy, dz;
  unpack_key(key, dx, dy, dz);
  return spread_bits(static_cast<std::uint64_t>(dx)) |
         spread_bits(static_cast<std::uint64_t>(dy)) << 1 |
         spread_bits(static_cast<std::uint64_t>(dz)) << 2;
}

/// splitmix64: the fixed-seed stream behind the BRIO shuffle (spelled out
/// rather than std::shuffle, whose algorithm differs between libraries).
std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
constexpr std::uint64_t kBrioSeed = 0x5eed1a77ULL;

/// First BRIO round; each later round doubles the points inserted so far.
constexpr std::size_t kFirstRound = 64;

/// Seeds per piece of a parallel round (the unit a free thread claims).
/// Seeding goes parallel from the first round with a piece for every
/// thread: on a mesh of a few hundred vertices, parallel cavities overlap
/// and mostly roll back. Measured on ellipsoid 96³ at 4 threads: 32- and
/// 64-seed pieces roll back 10-30k times per run, 256-seed pieces about 1k.
constexpr std::size_t kSeedPiece = 256;

/// Retries of one seed before seeding gives up. Far above any observed
/// count: a conflict only lasts while a neighbouring chunk's thread holds
/// the shared vertices, so the cap only fires on a livelock.
constexpr int kMaxSeedAttempts = 1 << 20;

}  // namespace

Vec3 LatticeFill::cube_center(int i, int j, int k) const {
  return {origin_.x + (i + 0.5) * a_, origin_.y + (j + 0.5) * a_,
          origin_.z + (k + 0.5) * a_};
}

Vec3 LatticeFill::point_of(std::uint64_t key) const {
  std::int64_t dx, dy, dz;
  unpack_key(key, dx, dy, dz);
  const double h = 0.5 * a_;
  return {origin_.x + dx * h, origin_.y + dy * h, origin_.z + dz * h};
}

LatticeFill::LatticeFill(const IsosurfaceOracle& oracle, double delta,
                         double spacing, int threads) {
  PI2M_CHECK(delta > 0.0, "LatticeFill: delta must be positive");
  a_ = spacing > 0.0 ? spacing : 2.0 * delta;
  band_ = 2.0 * delta + kBandCubes * a_;

  const Aabb ib = oracle.image().bounds();
  origin_ = ib.lo;
  const Vec3 ext = ib.extent();
  auto dims_for = [&](double a) {
    std::array<std::int64_t, 3> d;
    d[0] = static_cast<std::int64_t>(std::floor(ext.x / a));
    d[1] = static_cast<std::int64_t>(std::floor(ext.y / a));
    d[2] = static_cast<std::int64_t>(std::floor(ext.z / a));
    return d;
  };
  auto d = dims_for(a_);
  while (d[0] > 0 && d[1] > 0 && d[2] > 0 &&
         (static_cast<std::size_t>(d[0]) * static_cast<std::size_t>(d[1]) *
                  static_cast<std::size_t>(d[2]) >
              kMaxCubes ||
          d[0] >= (1 << (kAxisBits - 1)) || d[1] >= (1 << (kAxisBits - 1)) ||
          d[2] >= (1 << (kAxisBits - 1)))) {
    a_ *= 2.0;
    band_ = 2.0 * delta + kBandCubes * a_;
    d = dims_for(a_);
  }
  ncx_ = static_cast<int>(std::max<std::int64_t>(0, d[0]));
  ncy_ = static_cast<int>(std::max<std::int64_t>(0, d[1]));
  ncz_ = static_cast<int>(std::max<std::int64_t>(0, d[2]));
  stats_.cube_size = a_;
  stats_.cubes_total = static_cast<std::size_t>(ncx_) *
                       static_cast<std::size_t>(ncy_) *
                       static_cast<std::size_t>(ncz_);
  if (stats_.cubes_total == 0) return;

  build_occupancy(oracle, threads);
  if (stats_.cubes_filled == 0) return;
  erode_deep(threads);
  collect_faces(threads);
  collect_seed_keys();
}

void LatticeFill::build_occupancy(const IsosurfaceOracle& oracle,
                                  int threads) {
  const std::size_t n = stats_.cubes_total;
  occ_.assign(n, Label{0});
  std::atomic<std::size_t> filled{0};
  parallel_blocks(n, threads, [&](std::size_t lo, std::size_t hi) {
    std::size_t local = 0;
    for (std::size_t ci = lo; ci < hi; ++ci) {
      const int i = static_cast<int>(ci % static_cast<std::size_t>(ncx_));
      const int j = static_cast<int>((ci / static_cast<std::size_t>(ncx_)) %
                                     static_cast<std::size_t>(ncy_));
      const int k = static_cast<int>(ci / (static_cast<std::size_t>(ncx_) *
                                           static_cast<std::size_t>(ncy_)));
      const Vec3 c = cube_center(i, j, k);
      // The EDT lower bound never overestimates, so `>= band_` certifies
      // the whole cube (and its guard ring) is deep inside one material:
      // the bound measures distance to ANY label change, internal
      // interfaces included, hence a deep cube is automatically uniform.
      if (oracle.surface_distance_lower_bound(c) < band_) continue;
      if (!oracle.inside(c)) continue;  // deep *outside* is also far from ∂O
      const Label lab = oracle.label_at(c);
      if (lab == 0) continue;
      occ_[ci] = lab;
      ++local;
    }
    filled.fetch_add(local, std::memory_order_relaxed);
  });
  stats_.cubes_filled = filled.load();
}

void LatticeFill::erode_deep(int threads) {
  // Chebyshev-radius-2 erosion of the occupancy bitmap, separable into
  // three radius-2 1D min passes; out-of-grid counts as unoccupied. A point
  // all of whose incident cubes survive erosion cannot belong to a
  // boundary disphenoid (those have an unoccupied cube within Chebyshev
  // distance 2 of both of their face's cubes) and needs no kernel seed.
  const std::size_t n = stats_.cubes_total;
  std::vector<std::uint8_t> a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) a[i] = occ_[i] != 0 ? 1 : 0;

  const std::ptrdiff_t stride[3] = {
      1, ncx_, static_cast<std::ptrdiff_t>(ncx_) * ncy_};
  const int extent[3] = {ncx_, ncy_, ncz_};
  auto pass = [&](const std::vector<std::uint8_t>& src,
                  std::vector<std::uint8_t>& dst, int axis) {
    parallel_blocks(n, threads, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t ci = lo; ci < hi; ++ci) {
        const int coord[3] = {
            static_cast<int>(ci % static_cast<std::size_t>(ncx_)),
            static_cast<int>((ci / static_cast<std::size_t>(ncx_)) %
                             static_cast<std::size_t>(ncy_)),
            static_cast<int>(ci / (static_cast<std::size_t>(ncx_) *
                                   static_cast<std::size_t>(ncy_)))};
        std::uint8_t m = 1;
        for (int o = -2; o <= 2; ++o) {
          const int c = coord[axis] + o;
          if (c < 0 || c >= extent[axis]) {
            m = 0;
            break;
          }
          if (!src[static_cast<std::size_t>(
                  static_cast<std::ptrdiff_t>(ci) + o * stride[axis])]) {
            m = 0;
            break;
          }
        }
        dst[ci] = m;
      }
    });
  };
  pass(a, b, 0);
  pass(b, a, 1);
  pass(a, b, 2);
  deep_ = std::move(b);
}

void LatticeFill::collect_faces(int threads) {
  const std::size_t n = stats_.cubes_total;
  // Mirror parallel_blocks' chunking so per-block buffers merge in a
  // deterministic order regardless of thread scheduling.
  const std::size_t t =
      std::min<std::size_t>(static_cast<std::size_t>(std::max(1, threads)), n);
  const std::size_t chunk = (n + t - 1) / t;
  std::vector<std::vector<std::uint64_t>> parts(t);
  parallel_blocks(n, static_cast<int>(t), [&](std::size_t lo, std::size_t hi) {
    std::vector<std::uint64_t>& out = parts[lo / chunk];
    for (std::size_t ci = lo; ci < hi; ++ci) {
      const Label lab = occ_[ci];
      if (lab == 0) continue;
      const int i = static_cast<int>(ci % static_cast<std::size_t>(ncx_));
      const int j = static_cast<int>((ci / static_cast<std::size_t>(ncx_)) %
                                     static_cast<std::size_t>(ncy_));
      const int k = static_cast<int>(ci / (static_cast<std::size_t>(ncx_) *
                                           static_cast<std::size_t>(ncy_)));
      const std::size_t nb[3] = {
          i + 1 < ncx_ ? cube_index(i + 1, j, k) : std::size_t(-1),
          j + 1 < ncy_ ? cube_index(i, j + 1, k) : std::size_t(-1),
          k + 1 < ncz_ ? cube_index(i, j, k + 1) : std::size_t(-1)};
      for (int axis = 0; axis < 3; ++axis) {
        if (nb[axis] == std::size_t(-1) || occ_[nb[axis]] != lab) continue;
        out.push_back((static_cast<std::uint64_t>(ci) << 2) |
                      static_cast<std::uint64_t>(axis));
      }
    }
  });
  std::size_t total = 0;
  for (const auto& p : parts) total += p.size();
  faces_.reserve(total);
  for (const auto& p : parts) {
    faces_.insert(faces_.end(), p.begin(), p.end());
  }
  stats_.faces = faces_.size();
  stats_.tets = 4 * faces_.size();
}

void LatticeFill::collect_seed_keys() {
  // A disphenoid with a face on ∂L belongs to an instantiated face whose
  // two cubes both fail the radius-2 erosion (the missing neighbour tet
  // lives one cube over). Seeding all 6 lattice points of every such face
  // therefore covers every boundary disphenoid vertex; the over-seeding of
  // nearby interior points is harmless (they are BCC points too).
  for (const std::uint64_t f : faces_) {
    const std::size_t ci = static_cast<std::size_t>(f >> 2);
    const int axis = static_cast<int>(f & 3);
    const std::size_t plane = static_cast<std::size_t>(ncx_) *
                              static_cast<std::size_t>(ncy_);
    const int i = static_cast<int>(ci % static_cast<std::size_t>(ncx_));
    const int j = static_cast<int>((ci / static_cast<std::size_t>(ncx_)) %
                                   static_cast<std::size_t>(ncy_));
    const int k = static_cast<int>(ci / plane);
    const std::ptrdiff_t stride[3] = {1, ncx_,
                                      static_cast<std::ptrdiff_t>(plane)};
    const std::size_t cj = ci + static_cast<std::size_t>(stride[axis]);
    if (deep_[ci] && deep_[cj]) continue;

    std::int64_t c1[3] = {i, j, k};
    std::int64_t c2[3] = {i, j, k};
    ++c2[axis];
    seed_keys_.push_back(
        pack_key(2 * c1[0] + 1, 2 * c1[1] + 1, 2 * c1[2] + 1));
    seed_keys_.push_back(
        pack_key(2 * c2[0] + 1, 2 * c2[1] + 1, 2 * c2[2] + 1));
    const int u = (axis + 1) % 3, v = (axis + 2) % 3;
    std::int64_t base[3] = {2 * c1[0], 2 * c1[1], 2 * c1[2]};
    base[axis] += 2;
    for (int du = 0; du <= 2; du += 2) {
      for (int dv = 0; dv <= 2; dv += 2) {
        std::int64_t q[3] = {base[0], base[1], base[2]};
        q[u] += du;
        q[v] += dv;
        seed_keys_.push_back(pack_key(q[0], q[1], q[2]));
      }
    }
  }
  std::sort(seed_keys_.begin(), seed_keys_.end());
  seed_keys_.erase(std::unique(seed_keys_.begin(), seed_keys_.end()),
                   seed_keys_.end());
  stats_.interface_vertices = seed_keys_.size();
  order_seeds();
}

void LatticeFill::order_seeds() {
  const std::size_t n = seed_keys_.size();
  order_.resize(n);
  std::iota(order_.begin(), order_.end(), std::uint32_t{0});
  std::uint64_t state = kBrioSeed;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order_[i - 1], order_[splitmix64(state) % i]);
  }
  std::vector<std::uint64_t> code(n);
  for (std::size_t i = 0; i < n; ++i) code[i] = morton_of(seed_keys_[i]);
  round_ends_.clear();
  for (std::size_t b = 0, e = std::min(n, kFirstRound); b < n;
       b = e, e = std::min(n, 2 * e)) {
    std::sort(order_.begin() + static_cast<std::ptrdiff_t>(b),
              order_.begin() + static_cast<std::ptrdiff_t>(e),
              [&](std::uint32_t x, std::uint32_t y) {
                return code[x] < code[y];
              });
    round_ends_.push_back(e);
  }
}

std::vector<std::uint64_t> LatticeFill::seed_order() const {
  std::vector<std::uint64_t> keys;
  keys.reserve(order_.size());
  for (const std::uint32_t i : order_) keys.push_back(seed_keys_[i]);
  return keys;
}

bool LatticeFill::contains(const Vec3& p, Label* label) const {
  if (occ_.empty()) return false;
  const std::int64_t i =
      static_cast<std::int64_t>(std::floor((p.x - origin_.x) / a_));
  const std::int64_t j =
      static_cast<std::int64_t>(std::floor((p.y - origin_.y) / a_));
  const std::int64_t k =
      static_cast<std::int64_t>(std::floor((p.z - origin_.z) / a_));
  if (!cube_in_grid(i, j, k)) return false;
  const std::size_t ci = cube_index(static_cast<int>(i), static_cast<int>(j),
                                    static_cast<int>(k));
  const Label lab = occ_[ci];
  if (lab == 0) return false;
  // L is the union of center-to-face pyramids whose face is instantiated.
  // The pyramid containing p is the one toward the dominant axis of the
  // offset from the cube center; it is filled iff the neighbour across
  // that face is occupied with the same label.
  const Vec3 c = cube_center(static_cast<int>(i), static_cast<int>(j),
                             static_cast<int>(k));
  const double r[3] = {p.x - c.x, p.y - c.y, p.z - c.z};
  int axis = 0;
  double best = std::fabs(r[0]);
  for (int d = 1; d < 3; ++d) {
    const double m = std::fabs(r[d]);
    if (m > best) {
      best = m;
      axis = d;
    }
  }
  std::int64_t nb[3] = {i, j, k};
  nb[axis] += r[axis] >= 0.0 ? 1 : -1;
  if (!cube_in_grid(nb[0], nb[1], nb[2])) return false;
  if (occ_[cube_index(static_cast<int>(nb[0]), static_cast<int>(nb[1]),
                      static_cast<int>(nb[2]))] != lab) {
    return false;
  }
  if (label != nullptr) *label = lab;
  return true;
}

bool LatticeFill::protects(const Vec3& p) const {
  if (occ_.empty()) return false;
  const std::int64_t i =
      static_cast<std::int64_t>(std::floor((p.x - origin_.x) / a_));
  const std::int64_t j =
      static_cast<std::int64_t>(std::floor((p.y - origin_.y) / a_));
  const std::int64_t k =
      static_cast<std::int64_t>(std::floor((p.z - origin_.z) / a_));
  for (std::int64_t dk = -1; dk <= 1; ++dk) {
    for (std::int64_t dj = -1; dj <= 1; ++dj) {
      for (std::int64_t di = -1; di <= 1; ++di) {
        const std::int64_t ii = i + di, jj = j + dj, kk = k + dk;
        if (!cube_in_grid(ii, jj, kk)) continue;
        if (occ_[cube_index(static_cast<int>(ii), static_cast<int>(jj),
                            static_cast<int>(kk))] != 0) {
          return true;
        }
      }
    }
  }
  return false;
}

std::size_t LatticeFill::seed_interface(
    DelaunayMesh& mesh, std::span<OpScratch* const> scratch) {
  if (order_.empty()) return 0;
  const std::size_t threads = std::max<std::size_t>(1, scratch.size());
  // Vertex ids aligned with order_: each slot is written by the one thread
  // that inserts that seed, so no shared structure is touched concurrently.
  std::vector<VertexId> ids(order_.size(), kNoVertex);
  std::vector<CellId> hints(threads, any_alive_cell(mesh, 0));
  std::atomic<std::size_t> cells_created{0}, conflicts{0};

  // Inserts seeds [lo, hi) of order_ as kernel thread `tid`. A seed that
  // conflicts with another thread's cavity is deferred to the end of the
  // run (by then the neighbour has moved on) instead of spinning on it.
  auto insert_run = [&](std::size_t lo, std::size_t hi, int tid) {
    // Rule tag 7 in the op log: not one of R1-R6, identifies lattice
    // interface seeds in recorded runs (replay treats it as a plain
    // insert). The tag slot is thread-local.
    check::set_current_rule(7);
    OpScratch& s = *scratch[static_cast<std::size_t>(tid)];
    CellId& hint = hints[static_cast<std::size_t>(tid)];
    std::size_t created = 0, conflicted = 0;
    auto insert_one = [&](std::size_t i, bool wait) {
      const Vec3 p = point_of(seed_keys_[order_[i]]);
      OpResult res;
      for (int attempt = 0; attempt < kMaxSeedAttempts; ++attempt) {
        res = insert_point(mesh, p, VertexKind::Lattice, hint, tid, s);
        if (res.status == OpStatus::Success ||
            res.status == OpStatus::Failed) {
          break;
        }
        if (res.status == OpStatus::Conflict) {
          ++conflicted;
          if (!wait) return false;
          std::this_thread::yield();
        } else {  // Stale: the walk lost its hint to a neighbouring thread
          hint = any_alive_cell(mesh, hint);
        }
      }
      PI2M_CHECK(res.status == OpStatus::Success,
                 "lattice interface seed insertion failed");
      ids[i] = res.new_vertex;
      created += s.created.size();
      if (!s.created.empty()) hint = s.created.front();
      return true;
    };
    std::vector<std::size_t> deferred;
    for (std::size_t i = lo; i < hi; ++i) {
      if (!insert_one(i, false)) deferred.push_back(i);
    }
    for (const std::size_t i : deferred) insert_one(i, true);
    cells_created.fetch_add(created, std::memory_order_relaxed);
    conflicts.fetch_add(conflicted, std::memory_order_relaxed);
    check::set_current_rule(0);
  };

  // Rounds too small to split run first, in order, on the calling thread
  // (at one thread that is every round: deterministic output).
  std::size_t seq_end = 0;
  for (const std::size_t end : round_ends_) {
    if (threads > 1 && end - seq_end >= threads * kSeedPiece) break;
    seq_end = end;
  }
  insert_run(0, seq_end, 0);

  // The remaining rounds are cut into contiguous curve pieces, claimed in
  // BRIO order by whichever thread is free: no per-round barrier, and a
  // thread slowed by the host does not hold the others back. Neighbouring
  // pieces start together and move apart, so cavities meet only where one
  // thread finishes a piece next to where another started.
  std::vector<std::size_t> piece_ends;
  std::size_t b = seq_end;
  for (const std::size_t end : round_ends_) {
    if (end <= seq_end) continue;
    const std::size_t pieces = (end - b + kSeedPiece - 1) / kSeedPiece;
    for (std::size_t k = 1; k <= pieces; ++k) {
      piece_ends.push_back(b + (end - b) * k / pieces);
    }
    b = end;
  }
  if (!piece_ends.empty()) {
    std::atomic<std::size_t> next{0};
    parallel_blocks(threads, static_cast<int>(threads),
                    [&](std::size_t tid, std::size_t) {
                      for (std::size_t k = next.fetch_add(1);
                           k < piece_ends.size(); k = next.fetch_add(1)) {
                        insert_run(k == 0 ? seq_end : piece_ends[k - 1],
                                   piece_ends[k], static_cast<int>(tid));
                      }
                    });
  }

  seeded_.reserve(order_.size());
  for (std::size_t i = 0; i < order_.size(); ++i) {
    seeded_.emplace(seed_keys_[order_[i]], ids[i]);
  }
  stats_.seed_cells_created = cells_created.load();
  stats_.seed_conflicts = conflicts.load();
  return seeded_.size();
}

VertexId LatticeFill::seeded_vertex(std::uint64_t key) const {
  const auto it = seeded_.find(key);
  return it == seeded_.end() ? kNoVertex : it->second;
}

void LatticeFill::for_each_tet(
    const std::function<void(const std::array<std::uint64_t, 4>&,
                             const std::array<Vec3, 4>&, Label)>& fn) const {
  for (const std::uint64_t f : faces_) {
    const std::size_t ci = static_cast<std::size_t>(f >> 2);
    const int axis = static_cast<int>(f & 3);
    const int i = static_cast<int>(ci % static_cast<std::size_t>(ncx_));
    const int j = static_cast<int>((ci / static_cast<std::size_t>(ncx_)) %
                                   static_cast<std::size_t>(ncy_));
    const int k = static_cast<int>(ci / (static_cast<std::size_t>(ncx_) *
                                         static_cast<std::size_t>(ncy_)));
    const Label lab = occ_[ci];

    std::int64_t z1c[3] = {2 * i + 1, 2 * j + 1, 2 * k + 1};
    std::int64_t z2c[3] = {z1c[0], z1c[1], z1c[2]};
    z2c[axis] += 2;
    const int u = (axis + 1) % 3, v = (axis + 2) % 3;
    std::int64_t base[3] = {2 * i, 2 * j, 2 * k};
    base[axis] += 2;
    // Face corners wound clockwise as seen from the +axis side; with the
    // bipyramid apexes (z1, z2) prepended, (z1, z2, q[m], q[m+1]) is
    // positively oriented under the orient3d convention (verified by
    // lattice_test's exhaustive exact-predicate check).
    std::array<std::array<std::int64_t, 3>, 4> q;
    const int du[4] = {0, 0, 2, 2};
    const int dv[4] = {0, 2, 2, 0};
    for (int m = 0; m < 4; ++m) {
      q[m] = {base[0], base[1], base[2]};
      q[m][u] += du[m];
      q[m][v] += dv[m];
    }
    const std::uint64_t kz1 = pack_key(z1c[0], z1c[1], z1c[2]);
    const std::uint64_t kz2 = pack_key(z2c[0], z2c[1], z2c[2]);
    const Vec3 pz1 = point_of(kz1), pz2 = point_of(kz2);
    for (int m = 0; m < 4; ++m) {
      const int mm = (m + 1) & 3;
      const std::uint64_t ka = pack_key(q[m][0], q[m][1], q[m][2]);
      const std::uint64_t kb = pack_key(q[mm][0], q[mm][1], q[mm][2]);
      const std::array<std::uint64_t, 4> keys{kz1, kz2, ka, kb};
      const std::array<Vec3, 4> pos{pz1, pz2, point_of(ka), point_of(kb)};
      fn(keys, pos, lab);
    }
  }
}

}  // namespace lattice
}  // namespace pi2m
