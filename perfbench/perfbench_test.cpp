// Self-test of the repo benchmark, at smoke sizes:
//   * every emitted object (result, fingerprint, chrome trace) is valid
//     RFC 8259 JSON, per the checker the repository's tests use;
//   * every metric BENCHMARK.json names is printed by name with its unit,
//     and nothing else is;
//   * every workload ends with no failed operation (fail ratio 0);
//   * the counts BENCHMARK.json's documentation marks deterministic repeat
//     exactly across two runs of one seed.
//
//   perfbench_test <path/to/BENCHMARK.json>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "json_check.hpp"
#include "workloads.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Value of every `"key": "<value>"` pair inside the JSON array that
/// follows `"section":` — enough of a reader for BENCHMARK.json's flat
/// arrays of flat objects.
std::vector<std::string> string_fields(const std::string& json,
                                       const std::string& section,
                                       const std::string& key) {
  std::vector<std::string> out;
  std::size_t pos = json.find("\"" + section + "\"");
  if (pos == std::string::npos) return out;
  const std::size_t end = json.find(']', pos);
  const std::string needle = "\"" + key + "\"";
  while ((pos = json.find(needle, pos)) != std::string::npos && pos < end) {
    const std::size_t open = json.find('"', json.find(':', pos) + 1);
    const std::size_t close = json.find('"', open + 1);
    out.push_back(json.substr(open + 1, close - open - 1));
    pos = close;
  }
  return out;
}

perfbench::Report smoke_run(const std::string& workload, bool trace,
                            const std::string& trace_path = {}) {
  perfbench::Options o;
  o.workload = workload;
  o.seed = 7;
  o.seconds = 0.0;  // one repetition
  o.trace = trace;
  o.smoke = true;
  o.trace_path = trace_path;
  return perfbench::run(o);
}

double metric(const perfbench::Report& r, const std::string& name) {
  for (const auto& m : r.metrics)
    if (m.name == name) return m.value;
  return -1.0;
}

void check_report(const perfbench::Report& r, const std::string& label,
                  const std::vector<std::string>& names,
                  const std::vector<std::string>& units) {
  const std::string line = perfbench::result_json(r);
  expect(ffw::testing::json_valid(line), label + ": result is valid JSON");
  expect(ffw::testing::json_valid(perfbench::fingerprint_json(r)),
         label + ": fingerprint is valid JSON");
  expect(r.attempted >= 1 && r.failed == 0,
         label + ": fail ratio 0 (" + std::to_string(r.failed) + "/" +
             std::to_string(r.attempted) + ")");
  for (const std::string& f : r.failures) std::printf("  failed: %s\n", f.c_str());
  expect(r.metrics.size() == names.size(),
         label + ": prints exactly the " + std::to_string(names.size()) +
             " metrics of BENCHMARK.json");
  for (std::size_t i = 0; i < names.size() && i < units.size(); ++i) {
    // "<name>": {"value": <number>, "unit": "<unit>"}
    const std::string key = "\"" + names[i] + "\": {\"value\": ";
    const std::string tail = ", \"unit\": \"" + units[i] + "\"}";
    const std::size_t at = line.find(key);
    const std::size_t close = line.find('}', at);
    const bool printed =
        at != std::string::npos && close != std::string::npos &&
        line.compare(close + 1 - tail.size(), tail.size(), tail) == 0;
    expect(printed, label + ": prints " + names[i] + " [" + units[i] + "]");
  }
  std::map<std::string, bool> seen;
  for (const auto& [k, v] : r.fingerprint) seen[k] = !v.empty();
  for (const char* k : {"nproc", "isa", "compiler", "build_type", "git_sha",
                        "thread_cap", "seed"})
    expect(seen[k], label + ": fingerprint records " + k);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <BENCHMARK.json>\n", argv[0]);
    return 2;
  }
  // Chrome traces go next to this binary.
  std::string dir = argv[0];
  dir = dir.find('/') == std::string::npos ? "." : dir.substr(0, dir.rfind('/'));
  const std::string bench = read_file(argv[1]);
  expect(ffw::testing::json_valid(bench), "BENCHMARK.json is valid JSON");
  const auto workloads = string_fields(bench, "workloads", "name");
  const auto e2e_names = string_fields(bench, "end_to_end", "name");
  const auto e2e_units = string_fields(bench, "end_to_end", "unit");
  const auto layer_names = string_fields(bench, "per_layer", "name");
  const auto layer_units = string_fields(bench, "per_layer", "unit");
  expect(workloads == perfbench::workload_names(),
         "BENCHMARK.json names the benchmark's workloads");

  for (const std::string& w : workloads) {
    check_report(smoke_run(w, false), w + " timed", e2e_names, e2e_units);
    const std::string trace_path = dir + "/perfbench_test_trace_" + w + ".json";
    const perfbench::Report traced = smoke_run(w, true, trace_path);
    check_report(traced, w + " traced", layer_names, layer_units);
    expect(ffw::testing::json_valid(read_file(trace_path)),
           w + ": chrome trace is valid JSON");
    std::remove(trace_path.c_str());

    // Deterministic counts: a second traced run of the same seed.
    const perfbench::Report again = smoke_run(w, true);
    for (const char* count : {"dbim.iterations", "forward.krylov_iters",
                              "mlfma.applications", "vcluster.wire_bytes",
                              "vcluster.messages"}) {
      expect(metric(traced, count) == metric(again, count),
             w + ": " + count + " repeats exactly (" +
                 std::to_string(metric(traced, count)) + ")");
    }
  }
  std::printf("%s: %d failure(s)\n", g_failures ? "FAILED" : "OK", g_failures);
  return g_failures == 0 ? 0 : 1;
}
