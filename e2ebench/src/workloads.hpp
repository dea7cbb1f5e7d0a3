// The benchmark's workloads and what they share.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "report.hpp"
#include "telemetry/metrics_registry.hpp"
#include "trace.hpp"

namespace e2e {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< scratch for .p2m outputs and the trace file
};

struct RunOutput {
  MetricSet metrics;
  std::vector<std::string> notes;
};

bool is_oneshot_workload(const std::string& name);
void run_oneshot(const RunArgs& args, Ledger* ledger, RunOutput* out);
void run_serve_mixed(const RunArgs& args, Ledger* ledger, RunOutput* out);

/// Set-up is repeated this many times per run; setup_s is the median.
constexpr int kSetupRounds = 3;
/// Worker threads for the post-window output checks (nproc of the host the
/// benchmark is sized for).
constexpr int kCheckThreads = 4;

/// Runs every task on `threads` threads and joins them.
void run_parallel(const std::vector<std::function<void()>>& tasks,
                  int threads);

/// The program's own per-refinement counts that must repeat exactly across
/// 1-thread runs of one spec (operations, rules, cells, lattice sizes).
using Counts = std::vector<std::pair<std::string, std::uint64_t>>;
Counts repeatable_counts(const pi2m::telemetry::MetricsRegistry& m);

/// Per-layer metrics every traced run prints, with the unit of each. A
/// workload fills what it measures; the rest read 0 ("not exercised").
const std::vector<std::pair<const char*, const char*>>& per_layer_metrics();

/// Fills `out` from `values` in per_layer_metrics() order (missing = 0).
void emit_per_layer(const std::vector<std::pair<std::string, double>>& values,
                    RunOutput* out);

/// Checks that each job's layer self times sum to its time; records a
/// failure per job that does not. Returns the per-job layers of jobs whose
/// root span is named `root`.
std::vector<JobLayers> checked_job_layers(const Tracer& tracer,
                                          const std::string& root,
                                          Ledger* ledger);

}  // namespace e2e
