// serve_mixed: an in-process MeshService (4 executors x 1 refinement thread
// per job) driven by a closed loop of 4 clients. Each client takes the next
// request of the seeded stream, submits it, waits for the terminal state and
// only then takes another. Every job writes a .p2m; after the window each
// job is checked from its file: the first job of each spec (image + delta)
// fully, later ones by byte identity with it. The radius-edge bound is
// reported, not gated, here: lattice-free meshes of these small multi-label
// inputs exceed 1.05 * rho about once in 300 (README.md, "Known gaps").
#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>

#include "checker.hpp"
#include "inputs.hpp"
#include "io/mesh_serialize.hpp"
#include "runtime/stats.hpp"
#include "serve/json.hpp"
#include "serve/service.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

using pi2m::now_sec;
using pi2m::serve::JobState;

constexpr int kClients = 4;
constexpr int kExecutors = 4;
/// Shuffled decks of requests generated per run; a faster program that
/// runs out wraps around (the fresh images then turn into cache hits).
constexpr int kDecks = 40;
/// EDT cache budget: room for the repeated phantoms and a few fresh images,
/// so fresh images evict older entries.
constexpr std::size_t kEdtCacheBytes = std::size_t{96} << 20;


struct JobRecord {
  std::size_t request = 0;
  std::string job;
  std::string path;
  bool accepted = false;
  std::string reject;
  JobState state = JobState::Failed;
  std::string error;
  double submit_call_sec = 0.0;  ///< client-side submit() duration
  double latency_sec = 0.0;      ///< submit call to terminal state
  double queue_wait_sec = 0.0;   ///< program-reported
  double mesh_sec = 0.0;         ///< program-reported MeshJob::run time
  double c0 = 0.0, c1 = 0.0, c2 = 0.0, submit_sec = 0.0;
  pi2m::serve::JsonValue manifest;
  double bytes = 0.0;  ///< size of the written .p2m
  MeshFacts facts;
  bool fully_checked = false;
};

/// The per-refinement counts that must repeat across 1-thread jobs of one
/// spec, read from the job manifest.
Counts manifest_counts(const pi2m::serve::JsonValue& manifest) {
  pi2m::telemetry::MetricsRegistry m;
  for (const auto& [name, value] : manifest["metrics"].as_object()) {
    if (value.is_number()) {
      m.set(name, static_cast<std::uint64_t>(value.as_double()));
    }
  }
  return repeatable_counts(m);
}

double metric(const pi2m::serve::JsonValue& manifest, const char* name) {
  return manifest["metrics"][name].as_double(0.0);
}

double phase(const pi2m::serve::JsonValue& manifest, const char* name) {
  return manifest["phases"][name].as_double(0.0);
}

pi2m::JobSpec make_spec(const ServeInputs& in, const ServeRequest& req,
                        const std::string& path) {
  pi2m::JobSpec spec;
  spec.inline_image = in.images[req.image];
  spec.mesh.delta = req.delta;
  spec.mesh.threads = 0;  // the service default: 1 refinement thread
  spec.outputs = {path};
  return spec;
}

/// Submits one request and waits for it, as one client does.
JobRecord run_request(pi2m::serve::MeshService* svc, const ServeInputs& in,
                      const ServeRequest& req, std::size_t index,
                      const std::string& job, const std::string& path) {
  JobRecord r;
  r.request = index;
  r.job = job;
  r.path = path;
  r.c0 = now_sec();
  const auto sub = svc->submit(make_spec(in, req, path), req.priority);
  r.c1 = now_sec();
  r.submit_call_sec = r.c1 - r.c0;
  r.accepted = sub.accepted;
  if (!sub.accepted) {
    r.reject = sub.reject_code != nullptr ? sub.reject_code : "rejected";
    r.c2 = r.c1;
    return r;
  }
  const auto rec = svc->wait(sub.id);
  r.c2 = now_sec();
  r.latency_sec = r.c2 - r.c0;
  r.state = rec->current_state();
  r.error = rec->error;
  r.queue_wait_sec = rec->queue_wait_sec;
  r.mesh_sec = rec->mesh_sec;
  r.submit_sec = rec->submit_sec;
  std::string perr;
  r.manifest = pi2m::serve::json_parse(rec->manifest_json, &perr);
  return r;
}

/// Spans of one served job, from the client's clock and the job's manifest
/// phases: job > {serve.submit, serve.queue_wait, serve.exec > {imaging.edt,
/// core.refine > {lattice.fill, lattice.seed}}}. Phase spans are placed in
/// pipeline order and clipped so siblings never overlap.
void add_job_spans(Tracer* tracer, const JobRecord& r, std::uint64_t job_id,
                   int lane) {
  const std::uint64_t root = tracer->reserve();
  tracer->add("serve.submit", job_id, root, r.c0, r.c1, lane);
  const double q0 = std::max(r.c1, r.submit_sec);
  const double q1 = std::max(q0, r.submit_sec + r.queue_wait_sec);
  tracer->add("serve.queue_wait", job_id, root, q0, q1, lane);
  const double e0 = q1;
  const double e1 = std::min(r.c2, std::max(e0, e0 + r.mesh_sec));
  const std::uint64_t exec = tracer->add("serve.exec", job_id, root, e0, e1,
                                         lane);
  auto clip = [&](double t) { return std::min(t, e1); };
  double t = e0;
  const double edt = phase(r.manifest, "edt");
  tracer->add("imaging.edt", job_id, exec, clip(t), clip(t + edt), lane);
  t = clip(t + edt);
  const double refine = phase(r.manifest, "refine");
  const double fill = phase(r.manifest, "lattice_fill");
  const double seed = phase(r.manifest, "lattice_seed");
  const std::uint64_t ref =
      tracer->add("core.refine", job_id, exec, t, clip(t + refine), lane);
  tracer->add("lattice.fill", job_id, ref, t, clip(t + fill), lane);
  tracer->add("lattice.seed", job_id, ref, clip(t + fill),
              clip(t + fill + seed), lane);
  tracer->set(root, "job", job_id, 0, r.c0, r.c2, lane);
}

}  // namespace

void run_serve_mixed(const RunArgs& args, Ledger* ledger, RunOutput* out) {
  Tracer tracer(args.trace);
  pi2m::serve::ServiceConfig cfg;
  cfg.executors = kExecutors;
  cfg.default_threads = 1;
  cfg.edt_cache_bytes = kEdtCacheBytes;

  // --- set-up, repeated; setup_s is the median round ---
  std::vector<double> setup_sec;
  ServeInputs in;
  std::unique_ptr<pi2m::serve::MeshService> svc;
  std::vector<JobRecord> warmups;
  for (int round = 0; round < kSetupRounds; ++round) {
    svc.reset();
    const double t0 = now_sec();
    in = make_serve_inputs(args.seed, kDecks);
    svc = std::make_unique<pi2m::serve::MeshService>(cfg);
    // Warm-up: one job per executor on an image outside the stream.
    std::vector<std::thread> clients;
    std::vector<JobRecord> batch(kExecutors);
    for (int c = 0; c < kExecutors; ++c) {
      clients.emplace_back([&, c] {
        const std::string job =
            "warmup" + std::to_string(round) + "_" + std::to_string(c);
        batch[c] = run_request(svc.get(), in,
                               {in.warmup_image, 2.0,
                                pi2m::serve::Priority::Normal},
                               0, job, args.out_dir + "/" + job + ".p2m");
      });
    }
    for (std::thread& th : clients) th.join();
    warmups.insert(warmups.end(), batch.begin(), batch.end());
    setup_sec.push_back(now_sec() - t0);
  }

  // --- timed window: closed loop of kClients clients ---
  const auto before = svc->metrics_snapshot();
  release_free_heap();
  const bool rss_window = reset_peak_rss();
  std::atomic<std::size_t> next{0};
  std::vector<std::vector<JobRecord>> per_client(kClients);
  const double w0 = now_sec();
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        while (now_sec() - w0 < args.seconds) {
          const std::size_t i = next++;
          const ServeRequest& req = in.requests[i % in.requests.size()];
          const std::string job = "job" + std::to_string(i) + "_" +
                                  in.names[req.image] + "_d" +
                                  std::to_string(req.delta).substr(0, 3);
          per_client[c].push_back(run_request(
              svc.get(), in, req, i, job, args.out_dir + "/" + job + ".p2m"));
        }
      });
    }
    for (std::thread& th : clients) th.join();
  }
  const double rss = peak_rss_mb();
  double w1 = w0;
  std::vector<JobRecord> jobs;
  // Spans are recorded after the window from the clients' timestamps, so
  // tracing cannot slow the jobs it describes; its cost is timed here.
  const double trace0 = now_sec();
  for (int c = 0; c < kClients; ++c) {
    for (JobRecord& r : per_client[c]) {
      w1 = std::max(w1, r.c2);
      if (args.trace) add_job_spans(&tracer, r, r.request + 1, c);
      jobs.push_back(std::move(r));
    }
  }
  const double trace_sec = now_sec() - trace0;
  const auto after = svc->metrics_snapshot();
  svc->drain();
  std::sort(jobs.begin(), jobs.end(),
            [](const JobRecord& a, const JobRecord& b) {
              return a.request < b.request;
            });

  // --- checks: first job of each spec fully, repeats by byte identity ---
  Checker checker(ledger);
  std::vector<JobRecord*> all;
  for (JobRecord& r : warmups) all.push_back(&r);
  for (JobRecord& r : jobs) all.push_back(&r);
  std::map<std::pair<std::size_t, double>, std::vector<JobRecord*>> by_spec;
  for (JobRecord* r : all) {
    const bool warm = r->job.rfind("warmup", 0) == 0;
    const ServeRequest& req =
        warm ? ServeRequest{in.warmup_image, 2.0,
                            pi2m::serve::Priority::Normal}
             : in.requests[r->request % in.requests.size()];
    by_spec[{req.image, req.delta}].push_back(r);
  }
  std::atomic<bool> counts_repeat{true};
  std::vector<std::function<void()>> tasks;
  for (auto& [key, recs] : by_spec) {
    tasks.emplace_back([&, key = key, recs = &recs] {
      const auto& image = *in.images[key.first];
      JobRecord* first = nullptr;
      std::string ref_bytes;
      for (JobRecord* r : *recs) {
        const bool done = r->accepted && r->state == JobState::Done;
        const std::string why =
            !r->accepted ? "rejected (" + r->reject + ")"
                         : std::string(pi2m::serve::job_state_name(r->state)) +
                               (r->error.empty() ? "" : ": " + r->error);
        if (!checker.check_completed(r->job, done, done ? "" : why)) continue;
        bool ok = false;
        const std::string bytes = read_file(r->path, &ok);
        if (!ok) {
          ledger->fail(r->job, "cannot read " + r->path);
          continue;
        }
        r->bytes = static_cast<double>(bytes.size());
        if (first != nullptr) {
          checker.check_repeat(r->job, bytes, ref_bytes);
          if (manifest_counts(r->manifest) !=
              manifest_counts(first->manifest)) {
            counts_repeat = false;
          }
          continue;
        }
        first = r;
        ref_bytes = bytes;
        std::string err;
        const auto mesh = pi2m::io::load_mesh(r->path, &err);
        if (!mesh) {
          ledger->fail(r->job, "cannot read mesh: " + err);
          continue;
        }
        const pi2m::IsosurfaceOracle oracle(image, 1);
        CheckLimits limits;
        limits.delta = key.second;
        limits.voxel = image.min_spacing();
        limits.gate_rho = false;
        r->facts = checker.check_mesh(
            r->job, *mesh, oracle, limits,
            static_cast<std::size_t>(metric(r->manifest, "lattice.tets")));
        r->fully_checked = true;
      }
    });
  }
  run_parallel(tasks, kCheckThreads);
  for (const JobRecord* r : all) {
    std::error_code ec;
    std::filesystem::remove(r->path, ec);
  }

  // --- engagement: the cache is hit and missed; no CM work ---
  auto delta = [&](const char* name) {
    return static_cast<double>(after.u64(name) - before.u64(name));
  };
  const double hits = delta("serve.edt_cache.hits");
  const double misses = delta("serve.edt_cache.misses");
  const double hit_ratio = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  ledger->require("edt_cache_hit_ratio_in_0_1",
                  hit_ratio > 0.0 && hit_ratio < 1.0,
                  "EDT cache hit ratio " + std::to_string(hit_ratio));
  double contention = 0.0;
  for (const JobRecord& r : jobs) {
    contention += metric(r.manifest, "refine.contention_sec");
  }
  ledger->require("contention_zero", contention == 0.0,
                  "runtime.contention_s = " + std::to_string(contention));

  std::vector<double> latency, exec, submit, bytes;
  for (const JobRecord& r : jobs) {
    if (!r.accepted || r.state != JobState::Done) continue;
    latency.push_back(r.latency_sec);
    exec.push_back(r.mesh_sec);
    submit.push_back(r.submit_call_sec);
    bytes.push_back(r.bytes);
  }
  const double window = w1 - w0;
  const Tail tail = tail_percentile(latency);
  double max_re = 0.0, min_dih = 180.0, max_h = 0.0, max_ratio = 0.0;
  std::size_t rho_over = 0, rho_over_meshes = 0, checked = 0;
  std::size_t fidelity_over = 0;
  for (const JobRecord* r : all) {
    if (!r->fully_checked) continue;
    ++checked;
    if (r->facts.rho_over > 0) ++rho_over_meshes;
    max_ratio = std::max(max_ratio, r->facts.fidelity_ratio);
    if (r->facts.fidelity_over) ++fidelity_over;
    max_re = std::max(max_re, r->facts.max_radius_edge);
    min_dih = std::min(min_dih, r->facts.min_dihedral_deg);
    max_h = std::max(max_h, r->facts.hausdorff);
    rho_over = std::max(rho_over, r->facts.rho_over);
  }
  out->notes.push_back("jobs=" + std::to_string(jobs.size()) +
                       " fully_checked=" + std::to_string(checked) +
                       " window_s=" + std::to_string(window) +
                       " edt_cache_hit_ratio=" + std::to_string(hit_ratio) +
                       " evictions=" +
                       std::to_string(delta("serve.edt_cache.evictions")));
  out->notes.push_back("job_p50_s = mesh_s, job_tail_s = mesh_tail_s = p" +
                       std::to_string(tail.percentile) + " of " +
                       std::to_string(tail.samples) + " jobs");
  out->notes.push_back(
      "quality max_radius_edge=" + std::to_string(max_re) +
      " rho_over_count(max per mesh)=" + std::to_string(rho_over) +
      " rho_over_meshes=" + std::to_string(rho_over_meshes) +
      " min_dihedral_deg=" + std::to_string(min_dih) +
      " hausdorff(max)=" + std::to_string(max_h) +
      " fidelity_over_bound=" + std::to_string(fidelity_over) + "/" +
      std::to_string(checked) +
      " fidelity_max_ratio=" + std::to_string(max_ratio));
  if (!rss_window) {
    out->notes.push_back("peak_rss_mb covers the whole process (no "
                         "clear_refs)");
  }
  if (next.load() > in.requests.size()) {
    out->notes.push_back("request stream wrapped around");
  }
  if (!tail.ok) ledger->fail("mesh_tail_s", "too few completed jobs");

  if (!args.trace) {
    out->metrics.add("mesh_s", median(latency), "s");
    out->metrics.add("mesh_tail_s", tail.value, "s");
    out->metrics.add("mesh_t1_s", median(exec), "s");
    out->metrics.add("jobs_per_s", static_cast<double>(latency.size()) / window,
                     "1/s");
    out->metrics.add("setup_s", median(setup_sec), "s");
    out->metrics.add("peak_rss_mb", rss, "MB");
    return;
  }

  // --- traced run: per-layer metrics from spans and job manifests ---
  const std::vector<JobLayers> layers =
      checked_job_layers(tracer, "job", ledger);
  // Per-job means: most jobs skip some layers (lattice, EDT on a cache
  // hit), and means keep the layers summing to the mean job time.
  std::map<std::string, double> self;
  for (const JobLayers& jl : layers) {
    for (const auto& [layer, sec] : jl.self_sec) {
      self[layer] += sec / static_cast<double>(layers.size());
    }
  }
  std::vector<double> quality_s, hausdorff_s, validate_s;
  for (const JobRecord* r : all) {
    if (!r->fully_checked) continue;
    quality_s.push_back(r->facts.quality_sec);
    hausdorff_s.push_back(r->facts.hausdorff_sec);
    validate_s.push_back(r->facts.validate_sec);
  }
  std::map<std::string, double> sum;
  const char* kCounts[] = {
      "refine.operations", "refine.insertions", "refine.removals",
      "refine.cells_created", "rules.r1", "rules.r2", "rules.r3", "rules.r4",
      "rules.r5", "classify.cache.hits", "classify.cache.misses",
      "predicates.orient3d_calls", "predicates.insphere_calls",
      "predicates.orient3d_exact", "predicates.insphere_exact",
      "predicates.simd.orient3d_lanes", "predicates.simd.insphere_lanes",
      "predicates.simd.orient3d_fallback", "predicates.simd.insphere_fallback",
      "refine.contention_sec", "refine.loadbalance_sec", "refine.rollback_sec",
      "refine.parked_sec", "refine.rollbacks", "refine.steals_total",
      "refine.parks", "lattice.tets", "lattice.interface_vertices",
      "mesh.tets", "refine.wall_sec"};
  std::size_t n = 0;
  for (const JobRecord& r : jobs) {
    if (r.state != JobState::Done) continue;
    ++n;
    for (const char* k : kCounts) sum[k] += metric(r.manifest, k);
  }
  const double jobs_n = std::max<double>(1.0, static_cast<double>(n));
  auto mean = [&](const char* k) { return sum[k] / jobs_n; };
  const double ops = mean("refine.operations");
  const double lookups =
      sum["classify.cache.hits"] + sum["classify.cache.misses"];
  const double calls =
      sum["predicates.orient3d_calls"] + sum["predicates.insphere_calls"];
  const double exact =
      sum["predicates.orient3d_exact"] + sum["predicates.insphere_exact"];
  const double lanes = sum["predicates.simd.orient3d_lanes"] +
                       sum["predicates.simd.insphere_lanes"];
  const double fallback = sum["predicates.simd.orient3d_fallback"] +
                          sum["predicates.simd.insphere_fallback"];
  const double rollbacks = mean("refine.rollbacks");
  const double wall = sum["refine.wall_sec"];
  const double idle = sum["refine.contention_sec"] +
                      sum["refine.loadbalance_sec"] + sum["refine.parked_sec"];
  const double acquires = delta("serve.arena.acquires");
  const std::vector<std::pair<std::string, double>> v = {
      {"imaging.edt_s", self["imaging.edt"]},
      {"lattice.fill_s", self["lattice.fill"]},
      {"lattice.seed_s", self["lattice.seed"]},
      {"lattice.seeds", mean("lattice.interface_vertices")},
      {"lattice.tets", mean("lattice.tets")},
      {"core.refine_s", self["core.refine"]},
      {"core.ops", ops},
      {"core.ops_per_s", wall > 0 ? sum["refine.operations"] / wall : 0.0},
      {"core.surface_ops",
       mean("rules.r1") + mean("rules.r2") + mean("rules.r3")},
      {"core.volume_ops", mean("rules.r4") + mean("rules.r5")},
      {"core.classify_cache_hit_ratio",
       lookups > 0 ? sum["classify.cache.hits"] / lookups : 0.0},
      {"core.elements_per_s", wall > 0 ? sum["mesh.tets"] / wall : 0.0},
      {"delaunay.insertions", mean("refine.insertions")},
      {"delaunay.removals", mean("refine.removals")},
      {"delaunay.cells_created", mean("refine.cells_created")},
      {"delaunay.cells_per_op",
       ops > 0 ? mean("refine.cells_created") / ops : 0.0},
      {"predicates.orient3d_calls", mean("predicates.orient3d_calls")},
      {"predicates.insphere_calls", mean("predicates.insphere_calls")},
      {"predicates.exact_ratio", calls > 0 ? exact / calls : 0.0},
      {"predicates.simd_fallback_ratio", lanes > 0 ? fallback / lanes : 0.0},
      {"runtime.contention_s", sum["refine.contention_sec"]},
      {"runtime.loadbalance_s", sum["refine.loadbalance_sec"]},
      {"runtime.rollback_s", sum["refine.rollback_sec"]},
      {"runtime.parked_s", sum["refine.parked_sec"]},
      {"runtime.rollbacks", rollbacks},
      {"runtime.rollback_ratio",
       ops + rollbacks > 0 ? rollbacks / (ops + rollbacks) : 0.0},
      {"runtime.steals", mean("refine.steals_total")},
      {"runtime.parks", mean("refine.parks")},
      {"runtime.busy_ratio",
       wall > 0 ? std::clamp(1.0 - idle / wall, 0.0, 1.0) : 0.0},
      {"io.bytes", median(bytes)},
      {"serve.submit_s", median(submit)},
      {"serve.queue_wait_p50_s",
       after.f64("serve.latency.queue_wait.p50_sec")},
      {"serve.exec_p50_s", after.f64("serve.latency.mesh.p50_sec")},
      {"serve.exec_self_s", self["serve.exec"]},
      {"serve.edt_cache_hit_ratio", hit_ratio},
      {"serve.edt_cache_evictions", delta("serve.edt_cache.evictions")},
      {"serve.arena_reuse_ratio",
       acquires > 0 ? delta("serve.arena.reuses") / acquires : 0.0},
      {"metrics.quality_s", median(quality_s)},
      {"metrics.hausdorff_s", median(hausdorff_s)},
      {"core.validate_s", median(validate_s)},
      {"pipeline.other_s", self["pipeline.other"]},
      {"quality.max_radius_edge", max_re},
      {"quality.rho_over_count", static_cast<double>(rho_over)},
      {"quality.rho_over_meshes", static_cast<double>(rho_over_meshes)},
      {"quality.min_dihedral_deg", min_dih},
      {"fidelity.hausdorff", max_h},
      {"fidelity.max_ratio", max_ratio},
      {"fidelity.over_bound_count", static_cast<double>(fidelity_over)},
      {"mesh.tets", mean("mesh.tets")},
      {"trace.overhead_ratio", 1.0 + trace_sec / std::max(1e-9, [&] {
         double s = 0.0;
         for (const double x : latency) s += x;
         return s;
       }())},
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
  out->notes.push_back(tracer.write_chrome_json(trace_path)
                           ? "trace written to " + trace_path
                           : "could not write " + trace_path);
}

}  // namespace e2e
