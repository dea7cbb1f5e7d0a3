#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <malloc.h>
#include <sstream>
#include <thread>

#include "support/simd.hpp"
#include "telemetry/run_manifest.hpp"
#include "telemetry/telemetry.hpp"

namespace e2e {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail_percentile(std::vector<double> v, std::size_t beyond) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n <= beyond) {
    t.value = v.back();
    t.percentile = 100.0;
    return t;
  }
  t.value = v[n - beyond - 1];
  t.percentile = 100.0 * static_cast<double>(n - beyond) /
                 static_cast<double>(n);
  t.ok = true;
  return t;
}

namespace {

bool name_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
}

bool alnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

}  // namespace

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64 || !alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), name_char);
}

bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return name_char(c) || c == '/' || c == '%';
  });
}

bool MetricSet::add(std::string name, double value, std::string unit) {
  if (!valid_metric_name(name) || !valid_unit(unit) || !std::isfinite(value) ||
      names_.count(name) != 0) {
    return false;
  }
  names_.insert(name);
  metrics_.push_back({std::move(name), value, std::move(unit)});
  return true;
}

void Ledger::attempt(const std::string& job) {
  std::lock_guard<std::mutex> lk(mu_);
  attempted_.insert(job);
}

void Ledger::fail(const std::string& job, std::string reason) {
  std::lock_guard<std::mutex> lk(mu_);
  attempted_.insert(job);
  failed_jobs_.insert(job);
  failures_.push_back({workload_, job, std::move(reason)});
}

void Ledger::require(const std::string& name, bool holds,
                     const std::string& detail) {
  const std::string job = "assert:" + name;
  if (holds) {
    attempt(job);
  } else {
    fail(job, "engagement assertion failed: " + detail);
  }
}

std::uint64_t Ledger::attempted() const {
  std::lock_guard<std::mutex> lk(mu_);
  return attempted_.size();
}

std::uint64_t Ledger::failed() const {
  std::lock_guard<std::mutex> lk(mu_);
  return failed_jobs_.size();
}

std::vector<Failure> Ledger::failures() const {
  std::lock_guard<std::mutex> lk(mu_);
  return failures_;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string m = line.substr(colon + 1);
        m.erase(0, m.find_first_not_of(' '));
        return m;
      }
    }
  }
  return "unknown";
}

std::string format_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

bool build_is_optimized() {
  const std::string type = E2E_BUILD_TYPE;
  return type == "Release" || type == "RelWithDebInfo";
}

std::string host_json() {
  const char* env = std::getenv("PI2M_SIMD");
  std::ostringstream o;
  o << "{\"nproc\": " << std::thread::hardware_concurrency()
    << ", \"cpu_model\": \"" << json_escape(cpu_model()) << "\""
    << ", \"build_type\": \"" << json_escape(E2E_BUILD_TYPE) << "\""
    << ", \"optimized\": " << (build_is_optimized() ? "true" : "false")
    << ", \"comparable\": " << (build_is_optimized() ? "true" : "false")
    << ", \"simd_level\": \""
    << pi2m::simd::level_name(pi2m::simd::active_level()) << "\""
    << ", \"PI2M_SIMD\": \"" << json_escape(env != nullptr ? env : "") << "\""
    << ", \"telemetry_compiled\": "
    << (PI2M_TELEMETRY_ENABLED ? "true" : "false") << ", \"git\": \""
    << json_escape(pi2m::telemetry::build_git_describe()) << "\"}";
  return o.str();
}

bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  if (!out) return false;
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

void release_free_heap() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

void print_result(const Ledger& ledger, const MetricSet& metrics,
                  const std::vector<std::string>& notes) {
  std::cout << "host " << host_json() << "\n";
  if (!build_is_optimized()) {
    std::cout << "WARNING: build type '" << E2E_BUILD_TYPE
              << "' is not optimized; results are not comparable\n";
  }
  for (const std::string& n : notes) std::cout << "note " << n << "\n";
  const auto failures = ledger.failures();
  const std::uint64_t attempted = ledger.attempted();
  const std::uint64_t failed = ledger.failed();
  for (const Failure& f : failures) {
    std::cout << "FAILED workload=" << f.workload << " job=" << f.job
              << " reason=" << f.reason << "\n";
  }
  std::cout << "failed_ratio " << failed << "/" << attempted << " = "
            << (attempted > 0 ? static_cast<double>(failed) /
                                    static_cast<double>(attempted)
                              : 0.0)
            << "\n";
  for (const Metric& m : metrics.all()) {
    std::cout << "metric " << m.name << " " << format_number(m.value) << " "
              << m.unit << "\n";
  }
  std::ostringstream o;
  o << "{\"correct\": " << (failed == 0 && attempted > 0 ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics.all()) {
    if (!first) o << ", ";
    first = false;
    o << "\"" << m.name << "\": {\"value\": " << format_number(m.value)
      << ", \"unit\": \"" << m.unit << "\"}";
  }
  o << "}}";
  std::cout << o.str() << std::endl;
}

}  // namespace e2e
