// Repo benchmark: time to a reconstruction of stated accuracy, end to
// end and per layer (phantom, dbim, forward, mlfma, fft, vcluster,
// service). Drives only the library's public functions and accessors.
//
// A run executes one workload for a time budget and returns a Report:
// the end-to-end metrics (untraced run) or the per-layer metrics (traced
// run), the number of operations attempted and failed, and the run's
// fingerprint. See perfbench/README.md for the workloads and metrics.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;  // measurement budget of the run
  bool trace = false;     // per-layer run with obs enabled
  bool smoke = false;     // tiny problem sizes (the self-test's)
  std::string trace_path;  // chrome://tracing output of a traced run
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> failures;  // one line per failed operation
  std::vector<std::pair<std::string, std::string>> fingerprint;
  bool correct() const { return attempted > 0 && failed == 0; }
};

/// Metric name and unit, in output order.
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& end_to_end_metrics();
const std::vector<MetricSpec>& per_layer_metrics();

const std::vector<std::string>& workload_names();

/// Runs one workload; throws std::invalid_argument for an unknown name.
Report run(const Options& opts);

/// The one-line result object: correct, attempted, failed, metrics.
std::string result_json(const Report& report);
/// The run fingerprint as a one-line JSON object.
std::string fingerprint_json(const Report& report);

}  // namespace perfbench
