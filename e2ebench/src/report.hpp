// Statistics, metric naming, failure accounting, host provenance and the
// result line of the end-to-end benchmark.
#pragma once

#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

/// Median (mean of the two middle values for an even count); 0 when empty.
double median(std::vector<double> v);

/// The highest percentile of `v` that still has at least `beyond` samples
/// above it: sorted ascending, the value at index n - beyond - 1, named as
/// percentile 100 * (n - beyond) / n. `ok` is false when n <= beyond (no
/// percentile qualifies; `value` is then the maximum).
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
  bool ok = false;
};
Tail tail_percentile(std::vector<double> v, std::size_t beyond = 10);

/// Metric names: start with a letter or digit, at most 64 characters from
/// letters, digits, '_', '.' and '-'.
bool valid_metric_name(std::string_view name);
/// Units: 1 to 16 characters from letters, digits, '_', '/', '%', '.', '-'.
bool valid_unit(std::string_view unit);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Ordered metric list that refuses malformed or duplicate names.
class MetricSet {
 public:
  /// Returns false (and keeps nothing) for an invalid name or unit, a
  /// duplicate name, or a non-finite value.
  bool add(std::string name, double value, std::string unit);
  [[nodiscard]] const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
  std::set<std::string, std::less<>> names_;
};

struct Failure {
  std::string workload;
  std::string job;
  std::string reason;
};

/// Operation and failure ledger, safe to use from several threads. An
/// operation is a mesh, a served job or an engagement assertion; it fails
/// once however many of its checks fail (every reason is kept).
class Ledger {
 public:
  explicit Ledger(std::string workload) : workload_(std::move(workload)) {}

  void attempt(const std::string& job);
  void fail(const std::string& job, std::string reason);
  /// Records an engagement assertion as an operation of its own.
  void require(const std::string& name, bool holds, const std::string& detail);

  [[nodiscard]] std::uint64_t attempted() const;
  [[nodiscard]] std::uint64_t failed() const;
  [[nodiscard]] std::vector<Failure> failures() const;
  [[nodiscard]] const std::string& workload() const { return workload_; }

 private:
  std::string workload_;
  mutable std::mutex mu_;
  std::set<std::string> attempted_;
  std::set<std::string> failed_jobs_;
  std::vector<Failure> failures_;
};

/// Host and build provenance as a JSON object: nproc, CPU model, build
/// type, SIMD level and PI2M_SIMD, telemetry compiled in, git describe,
/// and whether the build is optimized (comparable).
std::string host_json();
bool build_is_optimized();

/// Peak resident set size: reset_peak_rss() starts a new window (Linux
/// clear_refs; false if unsupported), peak_rss_mb() reads the peak since.
bool reset_peak_rss();
double peak_rss_mb();
/// Returns the allocator's free heap memory to the system (glibc
/// malloc_trim), so a following peak measures live memory, not what the
/// per-thread arenas happened to retain from earlier work.
void release_free_heap();

/// Prints the human-readable report (host block, failures, every metric
/// with its unit) and, as the last line, the result object:
/// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
void print_result(const Ledger& ledger, const MetricSet& metrics,
                  const std::vector<std::string>& notes);

/// JSON string escaping for the writers in this benchmark.
std::string json_escape(std::string_view s);

}  // namespace e2e
