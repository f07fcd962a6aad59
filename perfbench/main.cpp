// Repo benchmark driver: runs one workload and prints its fingerprint,
// any failed operations, and, as the last line of standard output, the
// result object {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <chrome-trace.json>]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>]\nworkloads:",
               argv0);
  for (const std::string& w : perfbench::workload_names())
    std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 == argc) return usage(argv[0]);
    const std::string a = argv[i];
    const char* value = argv[++i];
    if (a == "--workload") {
      opts.workload = value;
    } else if (a == "--seed") {
      opts.seed = std::strtoull(value, nullptr, 10);
    } else if (a == "--seconds") {
      opts.seconds = std::atof(value);
    } else if (a == "--trace") {
      opts.trace = std::string(value) == "1";
    } else if (a == "--trace-out") {
      opts.trace_path = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (opts.workload.empty()) return usage(argv[0]);

  perfbench::Report report;
  try {
    report = perfbench::run(opts);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return usage(argv[0]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: run aborted: %s\n", e.what());
    return 1;
  }
  for (const std::string& f : report.failures)
    std::printf("FAILED %s\n", f.c_str());
  std::printf("%s\n", perfbench::fingerprint_json(report).c_str());
  std::printf("%s\n", perfbench::result_json(report).c_str());
  return 0;
}
