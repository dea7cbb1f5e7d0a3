#include "workloads.hpp"

#include <atomic>
#include <cmath>
#include <map>
#include <thread>

namespace e2e {

void run_parallel(const std::vector<std::function<void()>>& tasks,
                  int threads) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < std::max(1, threads); ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < tasks.size(); i = next++) tasks[i]();
    });
  }
  for (std::thread& th : pool) th.join();
}

Counts repeatable_counts(const pi2m::telemetry::MetricsRegistry& m) {
  static const char* kNames[] = {
      "refine.operations",   "refine.insertions",   "refine.removals",
      "refine.cells_created", "rules.r1",           "rules.r2",
      "rules.r3",            "rules.r4",            "rules.r5",
      "lattice.tets",        "lattice.interface_vertices"};
  Counts c;
  for (const char* n : kNames) c.emplace_back(n, m.u64(n));
  return c;
}

const std::vector<std::pair<const char*, const char*>>& per_layer_metrics() {
  static const std::vector<std::pair<const char*, const char*>> kMetrics = {
      {"imaging.edt_s", "s"},
      {"imaging.edt_mvox_per_s", "Mvox/s"},
      {"lattice.fill_s", "s"},
      {"lattice.seed_s", "s"},
      {"lattice.seeds", "count"},
      {"lattice.tets", "count"},
      {"core.refine_s", "s"},
      {"core.extract_s", "s"},
      {"core.ops", "count"},
      {"core.ops_per_s", "1/s"},
      {"core.surface_ops", "count"},
      {"core.volume_ops", "count"},
      {"core.classify_cache_hit_ratio", "ratio"},
      {"core.elements_per_s", "1/s"},
      {"delaunay.insertions", "count"},
      {"delaunay.removals", "count"},
      {"delaunay.cells_created", "count"},
      {"delaunay.cells_per_op", "ratio"},
      {"predicates.orient3d_calls", "count"},
      {"predicates.insphere_calls", "count"},
      {"predicates.exact_ratio", "ratio"},
      {"predicates.simd_fallback_ratio", "ratio"},
      {"runtime.contention_s", "s"},
      {"runtime.loadbalance_s", "s"},
      {"runtime.rollback_s", "s"},
      {"runtime.parked_s", "s"},
      {"runtime.rollbacks", "count"},
      {"runtime.rollback_ratio", "ratio"},
      {"runtime.steals", "count"},
      {"runtime.parks", "count"},
      {"runtime.busy_ratio", "ratio"},
      {"runtime.speedup_4t", "ratio"},
      {"io.save_s", "s"},
      {"io.bytes", "bytes"},
      {"metrics.quality_s", "s"},
      {"metrics.hausdorff_s", "s"},
      {"core.validate_s", "s"},
      {"serve.submit_s", "s"},
      {"serve.queue_wait_p50_s", "s"},
      {"serve.exec_p50_s", "s"},
      {"serve.exec_self_s", "s"},
      {"serve.edt_cache_hit_ratio", "ratio"},
      {"serve.edt_cache_evictions", "count"},
      {"serve.arena_reuse_ratio", "ratio"},
      {"pipeline.other_s", "s"},
      {"quality.max_radius_edge", "ratio"},
      {"quality.rho_over_count", "count"},
      {"quality.rho_over_meshes", "count"},
      {"quality.min_dihedral_deg", "deg"},
      {"fidelity.hausdorff", "mm"},
      {"fidelity.max_ratio", "ratio"},
      {"fidelity.over_bound_count", "count"},
      {"mesh.tets", "count"},
      {"trace.overhead_ratio", "ratio"},
      {"counts.repeat", "bool"},
      {"failed_ratio", "ratio"},
  };
  return kMetrics;
}

void emit_per_layer(const std::vector<std::pair<std::string, double>>& values,
                    RunOutput* out) {
  std::map<std::string, double> v(values.begin(), values.end());
  for (const auto& [name, unit] : per_layer_metrics()) {
    const auto it = v.find(name);
    const double x = it != v.end() && std::isfinite(it->second) ? it->second
                                                                : 0.0;
    out->metrics.add(name, x, unit);
  }
}

std::vector<JobLayers> checked_job_layers(const Tracer& tracer,
                                          const std::string& root,
                                          Ledger* ledger) {
  std::vector<JobLayers> jobs;
  for (auto& [job, jl] : layer_self_times(tracer.spans(), "pipeline.other")) {
    if (jl.root != root) continue;
    double sum = 0.0;
    for (const auto& [layer, sec] : jl.self_sec) {
      sum += sec;
      if (sec < -1e-6) {
        ledger->fail("trace:job" + std::to_string(job),
                     "spans overlap: layer " + layer + " self time " +
                         std::to_string(sec) + " s");
      }
    }
    if (std::fabs(sum - jl.job_sec) > 1e-6 * std::max(1.0, jl.job_sec)) {
      ledger->fail("trace:job" + std::to_string(job),
                   "layer seconds sum to " + std::to_string(sum) +
                       " s, job took " + std::to_string(jl.job_sec) + " s");
    }
    jobs.push_back(std::move(jl));
  }
  return jobs;
}

}  // namespace e2e
