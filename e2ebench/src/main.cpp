// e2ebench: end-to-end PI2M benchmark.
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1 [--out-dir D]
//
// Runs one workload, checks every mesh it produced, and prints the report;
// the last stdout line is the result object (see report.hpp). See README.md
// for the workloads, metrics and checks.
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "report.hpp"
#include "workloads.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "e2ebench: " << why << "\n"
            << "usage: e2ebench --workload abdominal128_delaunay|"
               "ellipsoid96_hybrid|serve_mixed --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::RunArgs args;
  args.out_dir = ".bench_build/e2ebench_out";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      args.trace = v == "1";
    } else if (a == "--out-dir") {
      args.out_dir = v;
    } else {
      return usage("unknown argument " + a);
    }
  }
  if (!(args.seconds > 0.0)) return usage("--seconds must be positive");
  const bool oneshot = e2e::is_oneshot_workload(args.workload);
  if (!oneshot && args.workload != "serve_mixed") {
    return usage("unknown workload '" + args.workload + "'");
  }
  args.out_dir += "/" + args.workload + "_seed" + std::to_string(args.seed) +
                  (args.trace ? "_trace" : "");
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  if (ec) return usage("cannot create " + args.out_dir + ": " + ec.message());

  e2e::Ledger ledger(args.workload);
  e2e::RunOutput out;
  if (oneshot) {
    e2e::run_oneshot(args, &ledger, &out);
  } else {
    e2e::run_serve_mixed(args, &ledger, &out);
  }
  e2e::print_result(ledger, out.metrics, out.notes);
  return 0;
}
