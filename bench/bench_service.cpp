// Multi-tenant service throughput: N reconstruction jobs sharing a
// handful of operator configurations, run (a) serially with cold
// operator tables per job — the one-tenant-at-a-time deployment — and
// (b) through ReconstructionService over a shared OperatorTableCache
// and vcluster rank pool. Reports jobs/sec for both, the speedup
// (gated: the shared-cache path must be >= 3x), the cache hit rate and
// the amortised table-build seconds per job.
//
// The tenant mix leans on table-heavy configurations (16x16-pixel MLFMA
// leaves make the near-field assembly quadratic in leaf area), so the
// cold-table baseline pays the dominant build cost once *per job* while
// the service pays it once *per configuration*.
//
// Writes BENCH_service.json (see FFW_BENCH_JSON_DIR) and re-validates
// the emitted file with the RFC 8259 checker shared with the tests.
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "bench_common.hpp"
#include "dbim/dbim.hpp"
#include "json_check.hpp"
#include "phantom/phantom.hpp"
#include "phantom/setup.hpp"
#include "service/service.hpp"

namespace ffw {
namespace {

constexpr int kJobs = 24;       // >= 8 per the gate; round-robin configs
constexpr int kRanks = 2;       // service worker pool size
constexpr int kIterations = 2;  // DBIM iterations per job

struct TenantConfig {
  ScenarioConfig scenario;
  CMatrix measured;
};

/// The two shared operator configurations of the tenant mix.
std::vector<TenantConfig> make_configs() {
  std::vector<TenantConfig> configs;
  {
    ScenarioConfig cfg;
    cfg.nx = 32;
    cfg.leaf_pixel_side = 16;  // table-heavy: near-field ~ leaf^2/pixel
    cfg.num_transmitters = 4;
    cfg.num_receivers = 16;
    configs.push_back({cfg, {}});
  }
  {
    ScenarioConfig cfg;
    cfg.nx = 32;
    cfg.leaf_pixel_side = 8;  // the paper's 0.8-lambda leaf
    cfg.num_transmitters = 4;
    cfg.num_receivers = 16;
    configs.push_back({cfg, {}});
  }
  for (auto& c : configs) {
    Scenario scene(c.scenario,
                   gaussian_blob(Grid(c.scenario.nx), Vec2{0.3, -0.2}, 0.5,
                                 cplx{0.01, 0.0}));
    c.measured = scene.measurements();
  }
  return configs;
}

JobSpec make_job(const TenantConfig& c, int index) {
  const ScenarioConfig& cfg = c.scenario;
  JobSpec spec;
  spec.name = "tenant" + std::to_string(index);
  spec.nx = cfg.nx;
  spec.leaf_pixel_side = cfg.leaf_pixel_side;
  spec.mlfma = cfg.mlfma;
  const double radius = cfg.ring_radius_factor * Grid(cfg.nx).domain();
  spec.transmitters = ring_positions(cfg.num_transmitters, radius);
  spec.receivers = ring_positions(cfg.num_receivers, radius);
  spec.measured = c.measured;
  spec.dbim.max_iterations = kIterations;
  spec.forward = cfg.forward;
  return spec;
}

/// One job, the service's exact per-job path, against `cache`.
DbimResult run_one(OperatorTableCache& cache, const JobSpec& spec) {
  const Grid grid(spec.nx);
  const auto tables =
      cache.mlfma_tables(grid, spec.leaf_pixel_side, spec.mlfma);
  MlfmaEngine engine(tables);
  const auto tt =
      cache.transceiver_tables(grid, spec.transmitters, spec.receivers);
  DbimOptions opts = spec.dbim;
  opts.table_cache = &cache;
  return dbim_reconstruct(engine, tt->trx, spec.measured, opts, spec.forward,
                          spec.initial_contrast);
}

bool bit_identical(const DbimResult& a, const DbimResult& b) {
  return a.contrast.size() == b.contrast.size() &&
         std::memcmp(a.contrast.data(), b.contrast.data(),
                     a.contrast.size() * sizeof(cplx)) == 0 &&
         a.history.relative_residual == b.history.relative_residual;
}

}  // namespace
}  // namespace ffw

int main(int argc, char** argv) {
  using namespace ffw;
  auto trace = bench::parse_trace_flag(argc, argv);
  bench::banner("Multi-tenant reconstruction service",
                "service layer throughput (DESIGN.md Sec. 15): shared "
                "OperatorTableCache + fair scheduler vs cold-table serial");

  const auto configs = make_configs();
  std::vector<JobSpec> specs;
  for (int j = 0; j < kJobs; ++j) {
    specs.push_back(make_job(configs[static_cast<std::size_t>(j) %
                                     configs.size()],
                             j));
  }

  // Baseline: one tenant at a time, cold tables for every job (each job
  // gets a fresh cache, so every build cost is paid again).
  std::printf("baseline: %d jobs, cold tables per job...\n", kJobs);
  std::vector<DbimResult> baseline(specs.size());
  double baseline_build_seconds = 0.0;
  Timer baseline_timer;
  for (std::size_t j = 0; j < specs.size(); ++j) {
    OperatorTableCache cold;
    baseline[j] = run_one(cold, specs[j]);
    baseline_build_seconds += cold.stats().build_seconds;
  }
  const double baseline_seconds = baseline_timer.seconds();

  // Service: same jobs through the shared cache + rank pool.
  std::printf("service: %d jobs over %d ranks, shared cache...\n", kJobs,
              kRanks);
  OperatorTableCache cache;
  ReconstructionService service(cache);
  std::vector<int> ids;
  for (auto& spec : specs) ids.push_back(service.submit(spec));
  VCluster vc(kRanks);
  Timer service_timer;
  service.run(vc);
  const double service_seconds = service_timer.seconds();

  // Every tenant's image must be bit-identical to its cold-table run:
  // sharing immutable tables may not change a single ulp.
  bool identical = true;
  for (std::size_t j = 0; j < specs.size(); ++j) {
    if (service.status(ids[j]).state != JobState::kCompleted ||
        !bit_identical(baseline[j], service.result(ids[j]))) {
      identical = false;
    }
  }
  FFW_CHECK_MSG(identical,
                "service results diverged from the cold-table baseline");

  const auto cs = cache.stats();
  const auto ss = service.stats();
  const double baseline_jps = kJobs / baseline_seconds;
  const double service_jps = kJobs / service_seconds;
  const double speedup = baseline_seconds / service_seconds;
  const double hit_rate =
      cs.hits + cs.misses > 0
          ? static_cast<double>(cs.hits) / static_cast<double>(cs.hits +
                                                               cs.misses)
          : 0.0;

  Table t({"mode", "seconds", "jobs/sec", "table-build s", "build s/job"});
  t.add_row({"serial, cold tables", fmt_fixed(baseline_seconds, 2),
             fmt_fixed(baseline_jps, 2), fmt_fixed(baseline_build_seconds, 2),
             fmt_fixed(baseline_build_seconds / kJobs, 3)});
  t.add_row({"service, shared cache", fmt_fixed(service_seconds, 2),
             fmt_fixed(service_jps, 2), fmt_fixed(cs.build_seconds, 2),
             fmt_fixed(cs.build_seconds / kJobs, 3)});
  std::printf("%s\n", t.to_string().c_str());
  std::printf("\nspeedup: %.2fx   cache hit rate: %.1f%%   results: "
              "bit-identical\n",
              speedup, 100.0 * hit_rate);

  {
    bench::JsonWriter json("BENCH_service");
    json.field("bench", "service");
    json.field("jobs", static_cast<std::uint64_t>(kJobs));
    json.field("configs", static_cast<std::uint64_t>(configs.size()));
    json.field("ranks", static_cast<std::uint64_t>(kRanks));
    json.field("dbim_iterations", static_cast<std::uint64_t>(kIterations));
    json.begin_object("baseline");
    json.field("seconds", baseline_seconds);
    json.field("jobs_per_sec", baseline_jps);
    json.field("table_build_seconds", baseline_build_seconds);
    json.end();
    json.begin_object("service");
    json.field("seconds", service_seconds);
    json.field("jobs_per_sec", service_jps);
    json.field("table_build_seconds", cs.build_seconds);
    json.field("amortized_build_seconds_per_job", cs.build_seconds / kJobs);
    json.field("cache_hits", cs.hits);
    json.field("cache_misses", cs.misses);
    json.field("cache_hit_rate", hit_rate);
    json.field("scheduler_steps", ss.steps);
    json.end();
    json.field("speedup", speedup);
    json.field("bit_identical", true);
  }

  // RFC 8259 sanity of the emitted file, with the checker the test
  // suite uses on the JSON subsystem.
  {
    std::ifstream in(bench::json_output_path("BENCH_service"));
    std::stringstream buf;
    buf << in.rdbuf();
    FFW_CHECK_MSG(testing::json_valid(buf.str()),
                  "BENCH_service.json is not valid RFC 8259 JSON");
    std::printf("BENCH_service.json: valid JSON\n");
  }

  // The whole point of the shared cache: the gate the issue sets.
  FFW_CHECK_MSG(speedup >= 3.0,
                "service speedup fell below the 3x acceptance gate");

  if (trace.enabled) bench::write_trace(trace);
  return 0;
}
