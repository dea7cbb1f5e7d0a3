// In-memory span recorder for the traced benchmark run.
//
// The benchmark opens a span around each public library call it makes (and
// adds spans for phases the program itself reports, such as a served job's
// manifest phases). Each span has a name (the layer), start, end, parent
// and the id of the job it belongs to. Spans stay in memory and are written
// as Chrome trace-event JSON at exit. A disabled tracer records nothing, so
// untraced runs pay one branch per call.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = a root span
  std::uint64_t job = 0;
  std::string name;
  double t0 = 0.0;
  double t1 = 0.0;
  int lane = 0;  ///< trace row (client or executor slot)
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Records a finished span; returns its id (0 when disabled).
  std::uint64_t add(std::string name, std::uint64_t job, std::uint64_t parent,
                    double t0, double t1, int lane = 0);
  /// Reserves an id for a span whose end is not known yet (a parent whose
  /// children are recorded first); finish it with set().
  std::uint64_t reserve();
  void set(std::uint64_t id, std::string name, std::uint64_t job,
           std::uint64_t parent, double t0, double t1, int lane = 0);

  [[nodiscard]] std::vector<Span> spans() const;

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  bool write_chrome_json(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::uint64_t next_id_ = 1;
  std::vector<Span> spans_;
};

/// Self time per layer of one job: each span's duration minus the part its
/// children cover (children of one parent never overlap here), summed by
/// span name. The root span's self time is reported under `root_layer`.
/// By construction the values sum to the root span's duration.
struct JobLayers {
  std::string root;  ///< name of the job's root span
  double job_sec = 0.0;
  std::map<std::string, double> self_sec;
};
std::map<std::uint64_t, JobLayers> layer_self_times(
    const std::vector<Span>& spans, const std::string& root_layer);

}  // namespace e2e
