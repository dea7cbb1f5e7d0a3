// One-shot workloads: abdominal128_delaunay and ellipsoid96_hybrid.
//
// Untraced run: set-up (input generation + one untimed warm-up mesh at 4
// threads and one at 1 thread) is repeated kSetupRounds times; then, for
// the timed window, one-shot meshes (MeshJob::run, inline image -> mesh
// written as .p2m) cycle through kCycle's thread counts. Every mesh is
// checked after the window, in parallel, from its .p2m file.
//
// Traced run: same set-up; the window cycles an untraced 4-thread
// MeshJob::run, a traced 4-thread job and a traced 1-thread job. A traced
// job drives the same pipeline through the public layer calls (Refiner
// constructor = EDT, Refiner::refine, extract_mesh, io::save_mesh) with a
// span around each, and reads the program's counters from RefineOutcome.
#include <filesystem>
#include <map>
#include <memory>

#include "checker.hpp"
#include "core/pi2m.hpp"
#include "imaging/phantom.hpp"
#include "inputs.hpp"
#include "io/mesh_serialize.hpp"
#include "pipeline/mesh_job.hpp"
#include "predicates/predicates.hpp"
#include "predicates/predicates_simd.hpp"
#include "runtime/stats.hpp"
#include "telemetry/collectors.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

using pi2m::now_sec;

struct OneShotConfig {
  const char* name;
  const char* phantom;
  int size;
  pi2m::InteriorFill interior;
};

constexpr OneShotConfig kConfigs[] = {
    {"abdominal128_delaunay", "abdominal", 128, pi2m::InteriorFill::Delaunay},
    {"ellipsoid96_hybrid", "ellipsoid", 96, pi2m::InteriorFill::Lattice},
};

/// Seeded voxel offset range of the phantom inside its grid.
constexpr int kPad = 4;
/// Thread counts of one cycle of the timed window: interleaved so drift
/// hits both alike, with more 4-thread meshes so their tail percentile has
/// at least ten samples beyond it. The window ends on a whole cycle, so the
/// thread-count mix (and with it jobs_per_s) does not depend on where the
/// clock ran out.
constexpr int kCycle[] = {4, 4, 4, 1};
/// The timed window runs on past --seconds until the 4-thread samples are
/// enough for a tail percentile (more than ten).
constexpr std::size_t kMinSamples4 = 12;
/// Traced runs cycle an untraced 4-thread mesh, a traced 4-thread job and a
/// traced 1-thread job.
constexpr std::size_t kTracedCycle = 3;
constexpr std::uint64_t kCheckJobIds = std::uint64_t{1} << 40;

const OneShotConfig& config_of(const std::string& name) {
  for (const OneShotConfig& c : kConfigs) {
    if (name == c.name) return c;
  }
  PI2M_CHECK(false, "unknown one-shot workload");
  return kConfigs[0];
}

pi2m::LabeledImage3D make_input(const OneShotConfig& cfg, std::uint64_t seed) {
  const int n = cfg.size;
  const std::string p = cfg.phantom;
  pi2m::LabeledImage3D img = p == "abdominal"
                                 ? pi2m::phantom::abdominal(n, n, n)
                                 : pi2m::phantom::ellipsoid(n);
  return pad_at_seeded_offset(img, kPad, mix_seed(seed, 0));
}

/// One mesh produced in the run, checked after the window.
struct MeshRecord {
  std::string job;
  int threads = 1;
  bool traced = false;  ///< produced through the traced layer calls
  std::string path;
  double sec = 0.0;
  bool completed = false;
  std::string error;
  std::size_t lattice_tets = 0;
  std::size_t tets = 0;
  double bytes = 0.0;  ///< size of the written .p2m
  Counts counts;
  pi2m::telemetry::MetricsRegistry metrics;  ///< program counters (P)
  MeshFacts facts;
  bool fully_checked = false;
};

pi2m::MeshingOptions meshing_options(const OneShotConfig& cfg, int threads) {
  pi2m::JobSpec defaults;
  pi2m::MeshingOptions opt = defaults.mesh;
  opt.threads = threads;
  opt.interior = cfg.interior;
  return opt;
}

double file_size(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(n);
}

MeshRecord run_mesh_job(const OneShotConfig& cfg,
                        const std::shared_ptr<const pi2m::LabeledImage3D>& img,
                        int threads, const std::string& job,
                        const std::string& path) {
  pi2m::JobSpec spec;
  spec.inline_image = img;
  spec.mesh = meshing_options(cfg, threads);
  spec.outputs = {path};
  MeshRecord r;
  r.job = job;
  r.threads = threads;
  r.path = path;
  pi2m::MeshJob mj(std::move(spec));
  const double t0 = now_sec();
  const pi2m::JobArtifacts& art = mj.run();
  r.sec = now_sec() - t0;
  r.completed = art.outcome.completed && art.ok;
  r.error = art.error;
  r.lattice_tets = art.outcome.lattice_tets;
  r.tets = art.mesh.num_tets();
  r.bytes = file_size(path);
  r.metrics = art.metrics;
  r.counts = repeatable_counts(art.metrics);
  return r;
}

/// The traced variant: the same pipeline through the public layer calls,
/// one span per call, job root "job".
MeshRecord run_traced_job(const OneShotConfig& cfg,
                          const pi2m::LabeledImage3D& img, int threads,
                          const std::string& job, const std::string& path,
                          std::uint64_t job_id, Tracer* tracer) {
  MeshRecord r;
  r.job = job;
  r.threads = threads;
  r.path = path;
  r.traced = true;
  const std::uint64_t root = tracer->reserve();
  const double j0 = now_sec();

  double t0 = now_sec();
  auto refiner = std::make_unique<pi2m::Refiner>(
      img, pi2m::to_refiner_options(meshing_options(cfg, threads)));
  tracer->add("imaging.edt", job_id, root, t0, now_sec());

  const pi2m::PredicateCounters p0 = pi2m::predicate_counters();
  const pi2m::SimdPredicateCounters s0 = pi2m::simd_predicate_counters();
  t0 = now_sec();
  const pi2m::RefineOutcome out = refiner->refine();
  const double t1 = now_sec();
  const pi2m::PredicateCounters p1 = pi2m::predicate_counters();
  const pi2m::SimdPredicateCounters s1 = pi2m::simd_predicate_counters();
  const std::uint64_t refine_id =
      tracer->add("core.refine", job_id, root, t0, t1);
  // The lattice phases run first inside refine(); the program times them.
  tracer->add("lattice.fill", job_id, refine_id, t0, t0 + out.lattice_fill_sec);
  tracer->add("lattice.seed", job_id, refine_id, t0 + out.lattice_fill_sec,
              t0 + out.lattice_fill_sec + out.lattice_seed_sec);

  t0 = now_sec();
  pi2m::TetMesh mesh = pi2m::extract_mesh(refiner->mesh(), refiner->oracle(),
                                          threads, refiner->lattice());
  tracer->add("core.extract", job_id, root, t0, now_sec());
  refiner.reset();

  t0 = now_sec();
  const bool saved = pi2m::io::save_mesh(mesh, path);
  tracer->add("io.save", job_id, root, t0, now_sec());
  r.sec = now_sec() - j0;
  tracer->set(root, "job", job_id, 0, j0, j0 + r.sec);

  r.completed = out.completed && saved;
  r.error = !out.completed ? "refinement did not complete"
            : !saved       ? "failed to write " + path
                           : "";
  r.lattice_tets = out.lattice_tets;
  r.tets = mesh.num_tets();
  r.bytes = file_size(path);
  pi2m::telemetry::collect_outcome(r.metrics, out);
  pi2m::PredicateCounters dp{};
  dp.orient3d_calls = p1.orient3d_calls - p0.orient3d_calls;
  dp.orient3d_adapt = p1.orient3d_adapt - p0.orient3d_adapt;
  dp.orient3d_exact = p1.orient3d_exact - p0.orient3d_exact;
  dp.insphere_calls = p1.insphere_calls - p0.insphere_calls;
  dp.insphere_adapt = p1.insphere_adapt - p0.insphere_adapt;
  dp.insphere_exact = p1.insphere_exact - p0.insphere_exact;
  pi2m::telemetry::collect_predicates(r.metrics, dp);
  pi2m::SimdPredicateCounters ds{};
  ds.orient3d_lanes = s1.orient3d_lanes - s0.orient3d_lanes;
  ds.orient3d_fallback = s1.orient3d_fallback - s0.orient3d_fallback;
  ds.insphere_lanes = s1.insphere_lanes - s0.insphere_lanes;
  ds.insphere_fallback = s1.insphere_fallback - s0.insphere_fallback;
  pi2m::telemetry::collect_simd_predicates(r.metrics, ds);
  pi2m::telemetry::collect_mesh(r.metrics, mesh);
  r.counts = repeatable_counts(r.metrics);
  return r;
}

/// Checks every record: the first 1-thread mesh fully (it is the spec's
/// reference), later 1-thread meshes by byte identity, every 4-thread mesh
/// fully plus tet-count agreement with the reference. Output files are
/// removed once checked.
void check_records(std::vector<MeshRecord>* records,
                   const pi2m::LabeledImage3D& img, Ledger* ledger,
                   Tracer* tracer) {
  Checker checker(ledger);
  const pi2m::IsosurfaceOracle oracle(img, kCheckThreads);
  CheckLimits limits;
  limits.voxel = img.min_spacing();

  auto full_check = [&](MeshRecord& r) {
    std::string err;
    const auto mesh = pi2m::io::load_mesh(r.path, &err);
    if (!mesh) {
      ledger->fail(r.job, "cannot read mesh: " + err);
      return;
    }
    const double t0 = now_sec();
    r.facts = checker.check_mesh(r.job, *mesh, oracle, limits, r.lattice_tets);
    r.fully_checked = true;
    if (tracer->enabled()) {
      // Check spans get their own job ids, apart from the meshing jobs'.
      const std::uint64_t root = tracer->reserve();
      const std::uint64_t job = root + kCheckJobIds;
      double t = t0;
      tracer->add("core.validate", job, root, t, t + r.facts.validate_sec, 1);
      t += r.facts.validate_sec;
      tracer->add("metrics.quality", job, root, t, t + r.facts.quality_sec, 1);
      t += r.facts.quality_sec;
      tracer->add("metrics.hausdorff", job, root, t,
                  t + r.facts.hausdorff_sec, 1);
      tracer->set(root, "check", job, 0, t0, now_sec(), 1);
    }
  };

  MeshRecord* ref = nullptr;
  for (MeshRecord& r : *records) {
    if (r.threads == 1 && r.completed) {
      ref = &r;
      break;
    }
  }
  std::string ref_bytes;
  if (ref != nullptr) {
    bool ok = false;
    ref_bytes = read_file(ref->path, &ok);
    if (!ok) ledger->fail(ref->job, "cannot read " + ref->path);
  } else {
    ledger->fail("reference", "no completed 1-thread mesh to check against");
  }

  std::vector<std::function<void()>> tasks;
  for (MeshRecord& r : *records) {
    tasks.emplace_back([&, rp = &r] {
      MeshRecord& rec = *rp;
      if (!checker.check_completed(rec.job, rec.completed, rec.error)) return;
      if (&rec == ref) {
        full_check(rec);
      } else if (rec.threads == 1 && ref != nullptr) {
        bool ok = false;
        const std::string bytes = read_file(rec.path, &ok);
        if (!ok) {
          ledger->fail(rec.job, "cannot read " + rec.path);
        } else {
          checker.check_repeat(rec.job, bytes, ref_bytes);
        }
      } else {
        full_check(rec);
        if (ref != nullptr) {
          checker.check_tet_agreement(rec.job, rec.tets, ref->tets);
        }
      }
    });
  }
  run_parallel(tasks, kCheckThreads);
  for (const MeshRecord& r : *records) {
    std::error_code ec;
    std::filesystem::remove(r.path, ec);
  }
}

double as_double(std::uint64_t v) { return static_cast<double>(v); }

}  // namespace

bool is_oneshot_workload(const std::string& name) {
  for (const OneShotConfig& c : kConfigs) {
    if (name == c.name) return true;
  }
  return false;
}

void run_oneshot(const RunArgs& args, Ledger* ledger, RunOutput* out) {
  const OneShotConfig& cfg = config_of(args.workload);
  Tracer tracer(args.trace);
  std::vector<MeshRecord> records;
  auto path_of = [&](const std::string& job) {
    return args.out_dir + "/" + job + ".p2m";
  };

  // --- set-up, repeated; setup_s is the median round ---
  std::vector<double> setup_sec;
  std::shared_ptr<const pi2m::LabeledImage3D> img;
  for (int round = 0; round < kSetupRounds; ++round) {
    const double t0 = now_sec();
    img = std::make_shared<const pi2m::LabeledImage3D>(
        make_input(cfg, args.seed));
    for (const int threads : {4, 1}) {
      const std::string job =
          "warmup" + std::to_string(round) + "_t" + std::to_string(threads);
      records.push_back(run_mesh_job(cfg, img, threads, job, path_of(job)));
    }
    setup_sec.push_back(now_sec() - t0);
  }

  // --- timed window ---
  // Peak RSS is taken per 4-thread mesh, from a trimmed heap, and reported
  // as the median: without the trim the peak moved by 70% between inputs
  // one voxel apart with what the allocator's arenas retained.
  const bool rss_resets = reset_peak_rss();
  std::vector<double> t4, t1, t4_untraced, rss4;
  const double w0 = now_sec();
  std::uint64_t traced_jobs = 0;
  const std::size_t cycle = args.trace ? kTracedCycle : std::size(kCycle);
  for (std::size_t i = 0;
       i % cycle != 0 || now_sec() - w0 < args.seconds ||
       (!args.trace && t4.size() < kMinSamples4);
       ++i) {
    const int threads =
        args.trace ? (i % cycle == 2 ? 1 : 4) : kCycle[i % cycle];
    const bool traced = args.trace && i % cycle != 0;
    release_free_heap();
    reset_peak_rss();
    const std::string job = "mesh" + std::to_string(i) + "_t" +
                            std::to_string(threads) + (traced ? "_traced" : "");
    MeshRecord r = traced ? run_traced_job(cfg, *img, threads, job,
                                           path_of(job), ++traced_jobs,
                                           &tracer)
                          : run_mesh_job(cfg, img, threads, job, path_of(job));
    if (threads == 4) rss4.push_back(peak_rss_mb());
    if (!args.trace || traced) (threads == 4 ? t4 : t1).push_back(r.sec);
    if (args.trace && !traced) t4_untraced.push_back(r.sec);
    records.push_back(std::move(r));
  }
  const double window = now_sec() - w0;
  const double rss = median(rss4);

  check_records(&records, *img, ledger, &tracer);

  // --- engagement: the lattice layer is (not) exercised ---
  std::size_t lattice_tets = 0;
  for (const MeshRecord& r : records) {
    lattice_tets = std::max(lattice_tets, r.lattice_tets);
  }
  if (cfg.interior == pi2m::InteriorFill::Lattice) {
    ledger->require("lattice_tets_positive", lattice_tets > 0,
                    "lattice.tets = 0 on a hybrid workload");
  } else {
    ledger->require("lattice_tets_zero", lattice_tets == 0,
                    "lattice.tets = " + std::to_string(lattice_tets) +
                        " on a pure-Delaunay workload");
  }

  // --- output facts (reported, not all gated) ---
  double max_re = 0.0, min_dih = 180.0, max_h = 0.0, max_ratio = 0.0;
  std::size_t rho_over = 0, rho_over_meshes = 0, fidelity_over = 0;
  for (const MeshRecord& r : records) {
    if (!r.fully_checked) continue;
    if (r.facts.rho_over > 0) ++rho_over_meshes;
    max_ratio = std::max(max_ratio, r.facts.fidelity_ratio);
    if (r.facts.fidelity_over) ++fidelity_over;
    max_re = std::max(max_re, r.facts.max_radius_edge);
    min_dih = std::min(min_dih, r.facts.min_dihedral_deg);
    max_h = std::max(max_h, r.facts.hausdorff);
    rho_over = std::max(rho_over, r.facts.rho_over);
  }
  const MeshRecord* ref1 = nullptr;
  bool counts_repeat = true;
  for (const MeshRecord& r : records) {
    if (r.threads != 1 || !r.completed) continue;
    if (ref1 == nullptr) {
      ref1 = &r;
    } else if (r.counts != ref1->counts) {
      counts_repeat = false;
    }
  }
  const Tail tail = tail_percentile(t4);
  out->notes.push_back(
      "quality max_radius_edge=" + std::to_string(max_re) +
      " rho_over_count(max per mesh)=" + std::to_string(rho_over) +
      " min_dihedral_deg=" + std::to_string(min_dih) +
      " hausdorff(max)=" + std::to_string(max_h) +
      " lattice_tets=" + std::to_string(lattice_tets));
  out->notes.push_back("samples 4-thread=" + std::to_string(t4.size()) +
                       " 1-thread=" + std::to_string(t1.size()) +
                       " window_s=" + std::to_string(window));
  if (!rss4.empty()) {
    out->notes.push_back(
        "peak_rss_mb per 4-thread mesh: min " +
        std::to_string(*std::min_element(rss4.begin(), rss4.end())) +
        " median " + std::to_string(median(rss4)) + " max " +
        std::to_string(*std::max_element(rss4.begin(), rss4.end())));
  }
  out->notes.push_back("mesh_tail_s is p" + std::to_string(tail.percentile) +
                       " of " + std::to_string(tail.samples) +
                       " 4-thread samples");
  if (!rss_resets) {
    out->notes.push_back("peak_rss_mb covers the whole process (no "
                         "clear_refs)");
  }
  if (!args.trace && !tail.ok) {
    ledger->fail("mesh_tail_s", "too few 4-thread samples");
  }

  if (!args.trace) {
    const double n = static_cast<double>(t4.size() + t1.size());
    out->metrics.add("mesh_s", median(t4), "s");
    out->metrics.add("mesh_tail_s", tail.value, "s");
    out->metrics.add("mesh_t1_s", median(t1), "s");
    out->metrics.add("jobs_per_s", n / window, "1/s");
    out->metrics.add("setup_s", median(setup_sec), "s");
    out->metrics.add("peak_rss_mb", rss, "MB");
    return;
  }

  // --- traced run: per-layer metrics ---
  const std::vector<JobLayers> jobs = checked_job_layers(tracer, "job", ledger);
  std::map<std::string, std::vector<double>> layer4;
  std::map<std::string, std::vector<double>> p4;  // program metrics, 4t
  std::vector<double> job1;
  std::size_t k = 0;
  for (const MeshRecord& r : records) {
    if (!r.traced) continue;
    const JobLayers& jl = jobs.at(k++);
    if (r.threads == 1) {
      job1.push_back(jl.job_sec);
      continue;
    }
    for (const auto& [layer, sec] : jl.self_sec) layer4[layer].push_back(sec);
    const auto& m = r.metrics;
    const double wall = m.f64("refine.wall_sec");
    const double ops = as_double(m.u64("refine.operations"));
    const double rb = as_double(m.u64("refine.rollbacks"));
    const double idle = m.f64("refine.contention_sec") +
                        m.f64("refine.loadbalance_sec") +
                        m.f64("refine.parked_sec");
    p4["contention"].push_back(m.f64("refine.contention_sec"));
    p4["loadbalance"].push_back(m.f64("refine.loadbalance_sec"));
    p4["rollback_s"].push_back(m.f64("refine.rollback_sec"));
    p4["parked"].push_back(m.f64("refine.parked_sec"));
    p4["rollbacks"].push_back(rb);
    p4["rollback_ratio"].push_back(ops + rb > 0 ? rb / (ops + rb) : 0.0);
    p4["steals"].push_back(as_double(m.u64("refine.steals_total")));
    p4["parks"].push_back(as_double(m.u64("refine.parks")));
    p4["busy"].push_back(wall > 0 ? std::clamp(1.0 - idle / (4.0 * wall),
                                               0.0, 1.0)
                                  : 0.0);
    p4["ops_per_s"].push_back(wall > 0 ? ops / wall : 0.0);
    p4["elements_per_s"].push_back(
        wall > 0 ? as_double(m.u64("mesh.tets")) / wall : 0.0);
    p4["lattice_fill"].push_back(m.f64("lattice.fill_sec"));
    p4["lattice_seed"].push_back(m.f64("lattice.seed_sec"));
    p4["bytes"].push_back(r.bytes);
    p4["job"].push_back(jl.job_sec);
  }
  std::vector<double> quality_s, hausdorff_s, validate_s;
  for (const MeshRecord& r : records) {
    if (r.fully_checked) {
      quality_s.push_back(r.facts.quality_sec);
      hausdorff_s.push_back(r.facts.hausdorff_sec);
      validate_s.push_back(r.facts.validate_sec);
    }
  }
  // Counts come from a traced 1-thread mesh: they repeat exactly.
  const MeshRecord* c1 = nullptr;
  for (const MeshRecord& r : records) {
    if (r.traced && r.threads == 1 && r.completed) {
      c1 = &r;
      break;
    }
  }
  pi2m::telemetry::MetricsRegistry cm;
  if (c1 != nullptr) cm = c1->metrics;
  const double ops1 = as_double(cm.u64("refine.operations"));
  const double lookups = as_double(cm.u64("classify.cache.hits") +
                                   cm.u64("classify.cache.misses"));
  const double pred_calls = as_double(cm.u64("predicates.orient3d_calls") +
                                      cm.u64("predicates.insphere_calls"));
  const double pred_exact = as_double(cm.u64("predicates.orient3d_exact") +
                                      cm.u64("predicates.insphere_exact"));
  const double lanes = as_double(cm.u64("predicates.simd.orient3d_lanes") +
                                 cm.u64("predicates.simd.insphere_lanes"));
  const double fallback =
      as_double(cm.u64("predicates.simd.orient3d_fallback") +
                cm.u64("predicates.simd.insphere_fallback"));
  const double edt_s = median(layer4["imaging.edt"]);
  const double save_s = median(layer4["io.save"]);
  const double voxels = static_cast<double>(img->voxel_count());
  const double job4 = median(p4["job"]);

  const std::vector<std::pair<std::string, double>> v = {
      {"imaging.edt_s", edt_s},
      {"imaging.edt_mvox_per_s", edt_s > 0 ? voxels / edt_s / 1e6 : 0.0},
      {"lattice.fill_s", median(p4["lattice_fill"])},
      {"lattice.seed_s", median(p4["lattice_seed"])},
      {"lattice.seeds", as_double(cm.u64("lattice.interface_vertices"))},
      {"lattice.tets", as_double(cm.u64("lattice.tets"))},
      {"core.refine_s", median(layer4["core.refine"])},
      {"core.extract_s", median(layer4["core.extract"])},
      {"core.ops", ops1},
      {"core.ops_per_s", median(p4["ops_per_s"])},
      {"core.surface_ops", as_double(cm.u64("rules.r1") + cm.u64("rules.r2") +
                                     cm.u64("rules.r3"))},
      {"core.volume_ops", as_double(cm.u64("rules.r4") + cm.u64("rules.r5"))},
      {"core.classify_cache_hit_ratio",
       lookups > 0 ? as_double(cm.u64("classify.cache.hits")) / lookups : 0.0},
      {"core.elements_per_s", median(p4["elements_per_s"])},
      {"delaunay.insertions", as_double(cm.u64("refine.insertions"))},
      {"delaunay.removals", as_double(cm.u64("refine.removals"))},
      {"delaunay.cells_created", as_double(cm.u64("refine.cells_created"))},
      {"delaunay.cells_per_op",
       ops1 > 0 ? as_double(cm.u64("refine.cells_created")) / ops1 : 0.0},
      {"predicates.orient3d_calls",
       as_double(cm.u64("predicates.orient3d_calls"))},
      {"predicates.insphere_calls",
       as_double(cm.u64("predicates.insphere_calls"))},
      {"predicates.exact_ratio",
       pred_calls > 0 ? pred_exact / pred_calls : 0.0},
      {"predicates.simd_fallback_ratio", lanes > 0 ? fallback / lanes : 0.0},
      {"runtime.contention_s", median(p4["contention"])},
      {"runtime.loadbalance_s", median(p4["loadbalance"])},
      {"runtime.rollback_s", median(p4["rollback_s"])},
      {"runtime.parked_s", median(p4["parked"])},
      {"runtime.rollbacks", median(p4["rollbacks"])},
      {"runtime.rollback_ratio", median(p4["rollback_ratio"])},
      {"runtime.steals", median(p4["steals"])},
      {"runtime.parks", median(p4["parks"])},
      {"runtime.busy_ratio", median(p4["busy"])},
      {"runtime.speedup_4t", job4 > 0 ? median(job1) / job4 : 0.0},
      {"io.save_s", save_s},
      {"io.bytes", median(p4["bytes"])},
      {"metrics.quality_s", median(quality_s)},
      {"metrics.hausdorff_s", median(hausdorff_s)},
      {"core.validate_s", median(validate_s)},
      {"pipeline.other_s", median(layer4["pipeline.other"])},
      {"quality.max_radius_edge", max_re},
      {"quality.rho_over_count", static_cast<double>(rho_over)},
      {"quality.rho_over_meshes", static_cast<double>(rho_over_meshes)},
      {"quality.min_dihedral_deg", min_dih},
      {"fidelity.hausdorff", max_h},
      {"fidelity.max_ratio", max_ratio},
      {"fidelity.over_bound_count", static_cast<double>(fidelity_over)},
      {"mesh.tets", ref1 != nullptr ? static_cast<double>(ref1->tets) : 0.0},
      {"trace.overhead_ratio",
       median(t4_untraced) > 0 ? job4 / median(t4_untraced) : 0.0},
      {"counts.repeat", counts_repeat ? 1.0 : 0.0},
  };
  std::vector<std::pair<std::string, double>> values = v;
  values.emplace_back("failed_ratio",
                      static_cast<double>(ledger->failed()) /
                          static_cast<double>(std::max<std::uint64_t>(
                              1, ledger->attempted())));
  emit_per_layer(values, out);
  const std::string trace_path =
      args.out_dir + "/trace_" + args.workload + ".json";
  if (!tracer.write_chrome_json(trace_path)) {
    out->notes.push_back("could not write " + trace_path);
  } else {
    out->notes.push_back("trace written to " + trace_path);
  }
}

}  // namespace e2e
