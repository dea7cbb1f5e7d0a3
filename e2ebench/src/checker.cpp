#include "checker.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "core/validate.hpp"
#include "geometry/tetra.hpp"
#include "metrics/hausdorff.hpp"
#include "metrics/quality.hpp"
#include "runtime/stats.hpp"

namespace e2e {

namespace {

constexpr double kTolerance = 1.05;   // on ρ; reported bound on Hausdorff
constexpr double kFidelityGate = 3.0;  // gated bound on Hausdorff
constexpr double kTetAgreement = 0.02;

std::string fmt(double v) {
  std::ostringstream o;
  o.precision(6);
  o << v;
  return o.str();
}

}  // namespace

std::size_t count_radius_edge_over(const pi2m::TetMesh& mesh, double limit) {
  std::size_t over = 0;
  for (const auto& t : mesh.tets) {
    const double re =
        pi2m::radius_edge_ratio(mesh.points[t[0]], mesh.points[t[1]],
                                mesh.points[t[2]], mesh.points[t[3]]);
    if (!(re <= limit)) ++over;
  }
  return over;
}

std::string read_file(const std::string& path, bool* ok) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream o;
  if (in) o << in.rdbuf();
  *ok = static_cast<bool>(in);
  return o.str();
}

bool Checker::check_completed(const std::string& job, bool completed,
                              const std::string& error) {
  ledger_->attempt(job);
  if (!completed) {
    ledger_->fail(job, "did not complete: " + error);
    return false;
  }
  if (!error.empty()) {
    ledger_->fail(job, "job error: " + error);
    return false;
  }
  return true;
}

MeshFacts Checker::check_mesh(const std::string& job,
                              const pi2m::TetMesh& mesh,
                              const pi2m::IsosurfaceOracle& oracle,
                              const CheckLimits& limits,
                              std::size_t lattice_tets) {
  ledger_->attempt(job);
  MeshFacts f;
  f.tets = mesh.num_tets();

  double t0 = pi2m::now_sec();
  const pi2m::MeshValidation v = pi2m::validate_mesh(mesh);
  f.validate_sec = pi2m::now_sec() - t0;
  if (!v.ok || !v.errors.empty()) {
    ledger_->fail(job, "validate_mesh: " + std::to_string(v.errors.size()) +
                           " error(s), first: " +
                           (v.errors.empty() ? "?" : v.errors.front()));
  }

  t0 = pi2m::now_sec();
  const pi2m::QualityReport q = pi2m::evaluate_quality(mesh);
  const double rho_limit = kTolerance * limits.rho;
  f.rho_over = count_radius_edge_over(mesh, rho_limit);
  f.quality_sec = pi2m::now_sec() - t0;
  f.max_radius_edge = q.max_radius_edge;
  f.min_dihedral_deg = q.min_dihedral_deg;
  if (limits.gate_rho && lattice_tets == 0 && f.rho_over > 0) {
    ledger_->fail(job, "radius-edge " + fmt(q.max_radius_edge) +
                           " > 1.05*rho = " + fmt(rho_limit) + " on " +
                           std::to_string(f.rho_over) +
                           " element(s) of a pure-Delaunay mesh");
  }

  t0 = pi2m::now_sec();
  const pi2m::HausdorffResult h = pi2m::hausdorff_distance(mesh, oracle, 2);
  f.hausdorff_sec = pi2m::now_sec() - t0;
  f.hausdorff = h.symmetric();
  const double scale = std::max(limits.delta, limits.voxel);
  f.fidelity_ratio = f.hausdorff / scale;
  f.fidelity_over = !(f.fidelity_ratio <= kTolerance);
  const double h_limit = kFidelityGate * scale;
  if (!(f.hausdorff <= h_limit)) {
    ledger_->fail(job, "Hausdorff " + fmt(f.hausdorff) + " > " + fmt(h_limit));
  }
  return f;
}

bool Checker::check_tet_agreement(const std::string& job, std::size_t tets,
                                  std::size_t reference_tets) {
  ledger_->attempt(job);
  const double rel =
      reference_tets > 0
          ? std::fabs(static_cast<double>(tets) -
                      static_cast<double>(reference_tets)) /
                static_cast<double>(reference_tets)
          : 1.0;
  if (!(rel <= kTetAgreement)) {
    ledger_->fail(job, "tet count " + std::to_string(tets) + " differs by " +
                           fmt(100.0 * rel) + "% from the 1-thread mesh (" +
                           std::to_string(reference_tets) + ")");
    return false;
  }
  return true;
}

bool Checker::check_repeat(const std::string& job, const std::string& bytes,
                           const std::string& reference) {
  ledger_->attempt(job);
  if (bytes != reference) {
    ledger_->fail(job, "1-thread repeat is not byte-identical to the first "
                       "mesh of its spec (" + std::to_string(bytes.size()) +
                       " vs " + std::to_string(reference.size()) + " bytes)");
    return false;
  }
  return true;
}

}  // namespace e2e
