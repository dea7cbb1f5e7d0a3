#include "imaging/edt.hpp"

#include <cmath>
#include <limits>

#include "support/common.hpp"
#include "support/parallel_for.hpp"
#include "telemetry/telemetry.hpp"

namespace pi2m {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One lower-envelope (Felzenszwalb-Huttenlocher) pass along an axis with
/// physical sample positions q[i] = i * spacing. For each output index i it
/// returns the argmin_j of cost[j] + (q[i]-q[j])^2, considering only finite
/// costs. Returns -1 where no finite parabola exists.
void lower_envelope_argmin(const std::vector<double>& cost, double spacing,
                           std::vector<int>& argmin,
                           std::vector<int>& v_buf, std::vector<double>& z_buf) {
  const int n = static_cast<int>(cost.size());
  argmin.assign(static_cast<std::size_t>(n), -1);
  v_buf.clear();
  z_buf.clear();

  auto q = [&](int i) { return i * spacing; };
  // Intersection abscissa of parabolas rooted at i and j (i > j).
  auto intersect = [&](int i, int j) {
    return ((cost[i] + q(i) * q(i)) - (cost[j] + q(j) * q(j))) /
           (2.0 * q(i) - 2.0 * q(j));
  };

  for (int i = 0; i < n; ++i) {
    if (cost[static_cast<std::size_t>(i)] == kInf) continue;
    if (v_buf.empty()) {
      v_buf.push_back(i);
      z_buf.push_back(-kInf);
      continue;
    }
    double s = intersect(i, v_buf.back());
    while (!v_buf.empty() && s <= z_buf.back()) {
      v_buf.pop_back();
      z_buf.pop_back();
      if (!v_buf.empty()) s = intersect(i, v_buf.back());
    }
    v_buf.push_back(i);
    z_buf.push_back(v_buf.size() == 1 ? -kInf : s);
  }
  if (v_buf.empty()) return;

  std::size_t k = 0;
  for (int i = 0; i < n; ++i) {
    const double x = q(i);
    while (k + 1 < v_buf.size() && z_buf[k + 1] < x) ++k;
    argmin[static_cast<std::size_t>(i)] = v_buf[k];
  }
}

}  // namespace

FeatureTransform FeatureTransform::compute(const LabeledImage3D& img,
                                           int threads) {
  FeatureTransform ft;
  ft.img_ = &img;
  ft.nx_ = img.nx();
  ft.ny_ = img.ny();
  ft.nz_ = img.nz();
  PI2M_CHECK(ft.nx_ < 32768 && ft.ny_ < 32768 && ft.nz_ < 32768,
             "image dimension exceeds feature-transform index range");
  const std::size_t total = img.voxel_count();
  ft.fx_.assign(total, -1);
  ft.fy_.assign(total, -1);
  ft.fz_.assign(total, -1);

  const int nx = ft.nx_, ny = ft.ny_, nz = ft.nz_;
  const Vec3 sp = img.spacing();
  auto idx = [nx, ny](int x, int y, int z) {
    return static_cast<std::size_t>(z) * nx * ny +
           static_cast<std::size_t>(y) * nx + x;
  };

  // Pass 1 (x axis): per (y,z) row, nearest surface voxel along the row.
  // Two linear scans suffice in 1D.
  telemetry::Span pass_x("edt.pass_x", "edt");
  parallel_blocks(static_cast<std::size_t>(ny) * nz, threads,
                  [&](std::size_t b, std::size_t e) {
    for (std::size_t row = b; row < e; ++row) {
      const int y = static_cast<int>(row % ny);
      const int z = static_cast<int>(row / ny);
      int last = -1;
      for (int x = 0; x < nx; ++x) {
        if (img.is_surface_voxel({x, y, z})) last = x;
        ft.fx_[idx(x, y, z)] = static_cast<std::int16_t>(last);
      }
      last = -1;
      for (int x = nx - 1; x >= 0; --x) {
        const std::int16_t fwd = ft.fx_[idx(x, y, z)];
        if (img.is_surface_voxel({x, y, z})) last = x;
        if (last >= 0 &&
            (fwd < 0 || (last - x) < (x - fwd))) {
          ft.fx_[idx(x, y, z)] = static_cast<std::int16_t>(last);
        }
      }
    }
  });

  // Pass 2 (y axis): combine row results across y with a lower envelope,
  // tracking the winning (fx, y') pair.
  pass_x.close();
  telemetry::Span pass_y("edt.pass_y", "edt");
  parallel_blocks(static_cast<std::size_t>(nx) * nz, threads,
                  [&](std::size_t b, std::size_t e) {
    std::vector<double> cost(static_cast<std::size_t>(ny));
    std::vector<int> argmin, v_buf;
    std::vector<double> z_buf;
    std::vector<std::int16_t> fx_new(static_cast<std::size_t>(ny));
    for (std::size_t col = b; col < e; ++col) {
      const int x = static_cast<int>(col % nx);
      const int z = static_cast<int>(col / nx);
      for (int y = 0; y < ny; ++y) {
        const double f = static_cast<double>(ft.fx_[idx(x, y, z)]);
        const double dx = (static_cast<double>(x) - f) * sp.x;
        cost[static_cast<std::size_t>(y)] = f >= 0.0 ? dx * dx : kInf;
      }
      lower_envelope_argmin(cost, sp.y, argmin, v_buf, z_buf);
      for (int y = 0; y < ny; ++y) {
        const int w = argmin[static_cast<std::size_t>(y)];
        if (w >= 0) {
          fx_new[static_cast<std::size_t>(y)] = ft.fx_[idx(x, w, z)];
          ft.fy_[idx(x, y, z)] = static_cast<std::int16_t>(w);
        } else {
          fx_new[static_cast<std::size_t>(y)] = -1;
        }
      }
      for (int y = 0; y < ny; ++y) {
        ft.fx_[idx(x, y, z)] = fx_new[static_cast<std::size_t>(y)];
      }
    }
  });

  // Pass 3 (z axis): combine across z; winners carry full (fx, fy, z').
  pass_y.close();
  telemetry::Span pass_z("edt.pass_z", "edt");
  parallel_blocks(static_cast<std::size_t>(nx) * ny, threads,
                  [&](std::size_t b, std::size_t e) {
    std::vector<double> cost(static_cast<std::size_t>(nz));
    std::vector<int> argmin, v_buf;
    std::vector<double> z_buf;
    std::vector<std::int16_t> fx_new(static_cast<std::size_t>(nz));
    std::vector<std::int16_t> fy_new(static_cast<std::size_t>(nz));
    for (std::size_t col = b; col < e; ++col) {
      const int x = static_cast<int>(col % nx);
      const int y = static_cast<int>(col / nx);
      for (int z = 0; z < nz; ++z) {
        const double fx = static_cast<double>(ft.fx_[idx(x, y, z)]);
        const double fy = static_cast<double>(ft.fy_[idx(x, y, z)]);
        if (fx >= 0.0 && fy >= 0.0) {
          const double dx = (static_cast<double>(x) - fx) * sp.x;
          const double dy = (static_cast<double>(y) - fy) * sp.y;
          cost[static_cast<std::size_t>(z)] = dx * dx + dy * dy;
        } else {
          cost[static_cast<std::size_t>(z)] = kInf;
        }
      }
      lower_envelope_argmin(cost, sp.z, argmin, v_buf, z_buf);
      for (int z = 0; z < nz; ++z) {
        const int w = argmin[static_cast<std::size_t>(z)];
        if (w >= 0) {
          fx_new[static_cast<std::size_t>(z)] = ft.fx_[idx(x, y, w)];
          fy_new[static_cast<std::size_t>(z)] = ft.fy_[idx(x, y, w)];
          ft.fz_[idx(x, y, z)] = static_cast<std::int16_t>(w);
        } else {
          fx_new[static_cast<std::size_t>(z)] = -1;
          fy_new[static_cast<std::size_t>(z)] = -1;
        }
      }
      for (int z = 0; z < nz; ++z) {
        ft.fx_[idx(x, y, z)] = fx_new[static_cast<std::size_t>(z)];
        ft.fy_[idx(x, y, z)] = fy_new[static_cast<std::size_t>(z)];
      }
    }
  });

  for (std::size_t i = 0; i < total; ++i) {
    if (ft.fx_[i] >= 0) {
      ft.has_surface_ = true;
      break;
    }
  }
  return ft;
}

Voxel FeatureTransform::nearest_surface_voxel(const Voxel& v) const {
  PI2M_CHECK(img_ != nullptr && img_->in_bounds(v),
             "feature lookup out of bounds");
  const std::size_t i = img_->index(v);
  return {fx_[i], fy_[i], fz_[i]};
}

double FeatureTransform::surface_distance_estimate(const Vec3& p) const {
  const Voxel v = img_->nearest_voxel(p);
  const Voxel f = nearest_surface_voxel(v);
  if (f.x < 0) return std::numeric_limits<double>::infinity();
  return distance(p, img_->voxel_center(f));
}

}  // namespace pi2m
