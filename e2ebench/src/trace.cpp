#include "trace.hpp"

#include <fstream>
#include <unordered_map>

#include "report.hpp"

namespace e2e {

std::uint64_t Tracer::add(std::string name, std::uint64_t job,
                          std::uint64_t parent, double t0, double t1,
                          int lane) {
  if (!enabled_) return 0;
  const std::uint64_t id = reserve();
  set(id, std::move(name), job, parent, t0, t1, lane);
  return id;
}

std::uint64_t Tracer::reserve() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lk(mu_);
  return next_id_++;
}

void Tracer::set(std::uint64_t id, std::string name, std::uint64_t job,
                 std::uint64_t parent, double t0, double t1, int lane) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back({id, parent, job, std::move(name), t0, t1, lane});
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  const std::vector<Span> all = spans();
  double origin = 0.0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (i == 0 || all[i].t0 < origin) origin = all[i].t0;
  }
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, "
                  "\"dur\": %.3f",
                  s.lane, (s.t0 - origin) * 1e6, (s.t1 - s.t0) * 1e6);
    out << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << json_escape(s.name)
        << "\", \"cat\": \"e2ebench\", " << buf << ", \"args\": {\"id\": "
        << s.id << ", \"parent\": " << s.parent << ", \"job\": " << s.job
        << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

std::map<std::uint64_t, JobLayers> layer_self_times(
    const std::vector<Span>& spans, const std::string& root_layer) {
  std::unordered_map<std::uint64_t, double> child_sec;
  for (const Span& s : spans) {
    if (s.parent != 0) child_sec[s.parent] += s.t1 - s.t0;
  }
  std::map<std::uint64_t, JobLayers> out;
  for (const Span& s : spans) {
    JobLayers& jl = out[s.job];
    const double self = (s.t1 - s.t0) - child_sec[s.id];
    if (s.parent == 0) {
      jl.root = s.name;
      jl.job_sec = s.t1 - s.t0;
      jl.self_sec[root_layer] += self;
    } else {
      jl.self_sec[s.name] += self;
    }
  }
  return out;
}

}  // namespace e2e
