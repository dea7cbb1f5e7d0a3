// Self-tests of the benchmark's own machinery: the tail-percentile rule,
// metric naming, trace accounting, and that the output checker catches each
// corruption it is meant to catch.
#include <gtest/gtest.h>

#include <filesystem>
#include <utility>

#include "checker.hpp"
#include "core/pi2m.hpp"
#include "imaging/phantom.hpp"
#include "io/mesh_serialize.hpp"
#include "report.hpp"
#include "trace.hpp"

namespace {

std::vector<double> ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(TailPercentile, HighestPercentileWithTenSamplesBeyond) {
  const e2e::Tail t20 = e2e::tail_percentile(ramp(20));
  EXPECT_TRUE(t20.ok);
  EXPECT_DOUBLE_EQ(t20.value, 10.0);  // 10 samples (11..20) beyond it
  EXPECT_DOUBLE_EQ(t20.percentile, 50.0);
  EXPECT_EQ(t20.samples, 20u);

  const e2e::Tail t100 = e2e::tail_percentile(ramp(100));
  EXPECT_DOUBLE_EQ(t100.value, 90.0);
  EXPECT_DOUBLE_EQ(t100.percentile, 90.0);

  const e2e::Tail t11 = e2e::tail_percentile(ramp(11));
  EXPECT_TRUE(t11.ok);
  EXPECT_DOUBLE_EQ(t11.value, 1.0);
}

TEST(TailPercentile, TenOrFewerSamplesHaveNoTail) {
  const e2e::Tail t = e2e::tail_percentile(ramp(10));
  EXPECT_FALSE(t.ok);
  EXPECT_DOUBLE_EQ(t.value, 10.0);
  EXPECT_FALSE(e2e::tail_percentile({}).ok);
}

TEST(Median, OddAndEven) {
  EXPECT_DOUBLE_EQ(e2e::median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(e2e::median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(e2e::median({}), 0.0);
}

TEST(MetricNames, Charset) {
  EXPECT_TRUE(e2e::valid_metric_name("mesh_s"));
  EXPECT_TRUE(e2e::valid_metric_name("core.classify_cache_hit_ratio"));
  EXPECT_TRUE(e2e::valid_metric_name("4t-speedup"));
  EXPECT_FALSE(e2e::valid_metric_name(""));
  EXPECT_FALSE(e2e::valid_metric_name("_leading"));
  EXPECT_FALSE(e2e::valid_metric_name(".leading"));
  EXPECT_FALSE(e2e::valid_metric_name("has space"));
  EXPECT_FALSE(e2e::valid_metric_name("slash/name"));
  EXPECT_FALSE(e2e::valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(e2e::valid_metric_name(std::string(64, 'a')));

  EXPECT_TRUE(e2e::valid_unit("1/s"));
  EXPECT_TRUE(e2e::valid_unit("%"));
  EXPECT_FALSE(e2e::valid_unit(""));
  EXPECT_FALSE(e2e::valid_unit("m s"));
  EXPECT_FALSE(e2e::valid_unit(std::string(17, 's')));
}

TEST(MetricNames, SetRefusesBadAndDuplicateEntries) {
  e2e::MetricSet m;
  EXPECT_TRUE(m.add("mesh_s", 1.0, "s"));
  EXPECT_FALSE(m.add("mesh_s", 2.0, "s"));
  EXPECT_FALSE(m.add("bad name", 1.0, "s"));
  EXPECT_FALSE(m.add("nan_metric", std::nan(""), "s"));
  EXPECT_EQ(m.all().size(), 1u);
}

TEST(Trace, LayerSelfTimesSumToJobTime) {
  e2e::Tracer t(true);
  const std::uint64_t root = t.reserve();
  const std::uint64_t refine = t.add("core.refine", 1, root, 1.0, 3.0);
  t.add("lattice.fill", 1, refine, 1.0, 1.5);
  t.add("io.save", 1, root, 3.0, 3.25);
  t.set(root, "job", 1, 0, 0.5, 4.0);
  const auto jobs = e2e::layer_self_times(t.spans(), "pipeline.other");
  ASSERT_EQ(jobs.size(), 1u);
  const e2e::JobLayers& jl = jobs.at(1);
  EXPECT_EQ(jl.root, "job");
  EXPECT_DOUBLE_EQ(jl.self_sec.at("core.refine"), 1.5);
  EXPECT_DOUBLE_EQ(jl.self_sec.at("lattice.fill"), 0.5);
  EXPECT_DOUBLE_EQ(jl.self_sec.at("pipeline.other"), 1.25);
  double sum = 0.0;
  for (const auto& [layer, sec] : jl.self_sec) sum += sec;
  EXPECT_DOUBLE_EQ(sum, jl.job_sec);

  e2e::Tracer off(false);
  EXPECT_EQ(off.add("x", 1, 0, 0.0, 1.0), 0u);
  EXPECT_TRUE(off.spans().empty());
}

/// A small mesh of `img` plus the oracle the checker measures it against.
struct Meshed {
  pi2m::LabeledImage3D img;
  pi2m::MeshingResult res;
};

Meshed mesh_of(pi2m::LabeledImage3D img, double delta,
               pi2m::InteriorFill interior) {
  pi2m::MeshingOptions opt;
  opt.delta = delta;
  opt.threads = 1;
  opt.interior = interior;
  Meshed m{std::move(img), {}};
  m.res = pi2m::mesh_image(m.img, opt);
  return m;
}

class CheckerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    delaunay_ = new Meshed(
        mesh_of(pi2m::phantom::ball(24), 1.5, pi2m::InteriorFill::Delaunay));
    hybrid_ = new Meshed(mesh_of(pi2m::phantom::ellipsoid(40), 0.8,
                                 pi2m::InteriorFill::Lattice));
  }
  static void TearDownTestSuite() {
    delete delaunay_;
    delete hybrid_;
  }

  static e2e::CheckLimits limits(double delta) {
    e2e::CheckLimits l;
    l.delta = delta;
    return l;
  }

  static Meshed* delaunay_;
  static Meshed* hybrid_;
};

Meshed* CheckerTest::delaunay_ = nullptr;
Meshed* CheckerTest::hybrid_ = nullptr;

TEST_F(CheckerTest, CleanMeshPasses) {
  ASSERT_TRUE(delaunay_->res.ok());
  e2e::Ledger ledger("selftest");
  e2e::Checker checker(&ledger);
  const pi2m::IsosurfaceOracle oracle(delaunay_->img);
  const e2e::MeshFacts f = checker.check_mesh(
      "clean", delaunay_->res.mesh, oracle, limits(1.5),
      delaunay_->res.outcome.lattice_tets);
  EXPECT_EQ(ledger.failed(), 0u) << ledger.failures().front().reason;
  EXPECT_EQ(ledger.attempted(), 1u);
  EXPECT_EQ(f.tets, delaunay_->res.mesh.num_tets());
  EXPECT_EQ(f.rho_over, 0u);
}

TEST_F(CheckerTest, FlippedTetFails) {
  pi2m::TetMesh bad = delaunay_->res.mesh;
  ASSERT_FALSE(bad.tets.empty());
  std::swap(bad.tets[bad.tets.size() / 2][0], bad.tets[bad.tets.size() / 2][1]);
  e2e::Ledger ledger("selftest");
  e2e::Checker checker(&ledger);
  const pi2m::IsosurfaceOracle oracle(delaunay_->img);
  checker.check_mesh("flipped", bad, oracle, limits(1.5), 0);
  ASSERT_EQ(ledger.failed(), 1u);
  const auto failures = ledger.failures();
  EXPECT_EQ(failures.front().job, "flipped");
  EXPECT_NE(failures.front().reason.find("validate_mesh"), std::string::npos);
}

TEST_F(CheckerTest, AlteredOneThreadRepeatFails) {
  const std::string path = "e2ebench_selftest_repeat.p2m";
  ASSERT_TRUE(pi2m::io::save_mesh(delaunay_->res.mesh, path));
  bool ok = false;
  const std::string reference = e2e::read_file(path, &ok);
  ASSERT_TRUE(ok);
  std::filesystem::remove(path);

  e2e::Ledger ledger("selftest");
  e2e::Checker checker(&ledger);
  EXPECT_TRUE(checker.check_repeat("same", reference, reference));
  std::string altered = reference;
  altered[altered.size() / 2] ^= 0x01;
  EXPECT_FALSE(checker.check_repeat("altered", altered, reference));
  EXPECT_FALSE(checker.check_repeat("truncated",
                                    reference.substr(0, reference.size() - 1),
                                    reference));
  EXPECT_EQ(ledger.attempted(), 3u);
  EXPECT_EQ(ledger.failed(), 2u);
}

TEST_F(CheckerTest, FourThreadTetCountOutsideTwoPercentFails) {
  e2e::Ledger ledger("selftest");
  e2e::Checker checker(&ledger);
  EXPECT_TRUE(checker.check_tet_agreement("close", 1015, 1000));
  EXPECT_FALSE(checker.check_tet_agreement("far", 1030, 1000));
  EXPECT_EQ(ledger.failed(), 1u);
}

TEST_F(CheckerTest, PureDelaunayMeshOverRhoFails) {
  // The mesh honours rho = 2; checked against a bound below its actual
  // maximum radius-edge ratio it is over 1.05 * rho and must fail.
  const pi2m::IsosurfaceOracle oracle(delaunay_->img);
  e2e::Ledger probe("selftest");
  const double max_re =
      e2e::Checker(&probe)
          .check_mesh("probe", delaunay_->res.mesh, oracle, limits(1.5), 0)
          .max_radius_edge;
  ASSERT_GT(max_re, 1.0);
  e2e::CheckLimits tight = limits(1.5);
  tight.rho = max_re / 1.2;

  e2e::Ledger ledger("selftest");
  e2e::Checker checker(&ledger);
  const e2e::MeshFacts f =
      checker.check_mesh("over_rho", delaunay_->res.mesh, oracle, tight, 0);
  EXPECT_GT(f.rho_over, 0u);
  ASSERT_EQ(ledger.failed(), 1u);
  EXPECT_NE(ledger.failures().front().reason.find("radius-edge"),
            std::string::npos);

  // Outside the gate the same overshoot is reported, not failed.
  tight.gate_rho = false;
  e2e::Ledger ungated("selftest");
  const e2e::MeshFacts g = e2e::Checker(&ungated).check_mesh(
      "creased", delaunay_->res.mesh, oracle, tight, 0);
  EXPECT_EQ(g.rho_over, f.rho_over);
  EXPECT_EQ(ungated.failed(), 0u);
}

TEST_F(CheckerTest, HybridMeshOverRhoIsReportedNotFailed) {
  ASSERT_TRUE(hybrid_->res.ok());
  ASSERT_GT(hybrid_->res.outcome.lattice_tets, 0u);
  const pi2m::IsosurfaceOracle oracle(hybrid_->img);
  e2e::Ledger probe("selftest");
  const double max_re =
      e2e::Checker(&probe)
          .check_mesh("probe", hybrid_->res.mesh, oracle, limits(0.8),
                      hybrid_->res.outcome.lattice_tets)
          .max_radius_edge;
  e2e::CheckLimits tight = limits(0.8);
  tight.rho = max_re / 1.2;

  e2e::Ledger ledger("selftest");
  e2e::Checker checker(&ledger);
  const e2e::MeshFacts f =
      checker.check_mesh("hybrid", hybrid_->res.mesh, oracle, tight,
                         hybrid_->res.outcome.lattice_tets);
  EXPECT_GT(f.rho_over, 0u);
  EXPECT_EQ(f.rho_over,
            e2e::count_radius_edge_over(hybrid_->res.mesh, 1.05 * tight.rho));
  EXPECT_EQ(ledger.failed(), 0u) << ledger.failures().front().reason;
}

TEST_F(CheckerTest, FidelityOverBoundIsReportedGrossMissFails) {
  const pi2m::IsosurfaceOracle oracle(delaunay_->img);
  e2e::Ledger ledger("selftest");
  e2e::Checker checker(&ledger);
  // Judged against a finer delta than it was meshed with, the mesh is over
  // 1.05 * max(delta, voxel) but within the gross bound: reported only.
  e2e::CheckLimits fine = limits(0.5);
  const e2e::MeshFacts f = checker.check_mesh(
      "fine_delta", delaunay_->res.mesh, oracle, fine, 0);
  if (f.hausdorff > 1.05) {
    EXPECT_TRUE(f.fidelity_over);
  }
  EXPECT_EQ(ledger.failed(), 0u);

  // Against a much smaller ball's surface the mesh is a gross miss.
  const pi2m::LabeledImage3D small = pi2m::phantom::ball(24, 0.3);
  const pi2m::IsosurfaceOracle wrong(small);
  const e2e::MeshFacts g = checker.check_mesh(
      "wrong_surface", delaunay_->res.mesh, wrong, limits(1.5), 0);
  EXPECT_TRUE(g.fidelity_over);
  ASSERT_EQ(ledger.failed(), 1u);
  EXPECT_NE(ledger.failures().front().reason.find("Hausdorff"),
            std::string::npos);
}

TEST_F(CheckerTest, IncompleteRefinementFails) {
  e2e::Ledger ledger("selftest");
  e2e::Checker checker(&ledger);
  EXPECT_FALSE(checker.check_completed("cut", false, "livelock"));
  EXPECT_TRUE(checker.check_completed("fine", true, ""));
  EXPECT_EQ(ledger.failed(), 1u);
  ledger.require("engaged", false, "counter was 0");
  EXPECT_EQ(ledger.failed(), 2u);
  EXPECT_EQ(ledger.attempted(), 3u);
}

}  // namespace
