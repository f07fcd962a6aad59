#include "workloads.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "common/rng.hpp"
#include "common/timer.hpp"
#include "dbim/dbim.hpp"
#include "dbim/parallel_driver.hpp"
#include "obs/obs.hpp"
#include "parallel/parallel_for.hpp"
#include "phantom/phantom.hpp"
#include "phantom/resample.hpp"
#include "phantom/setup.hpp"
#include "service/service.hpp"
#include "vcluster/transport.hpp"

namespace perfbench {
namespace {

using namespace ffw;

// ---- Workload parameters -------------------------------------------------

/// The Shepp-Logan scene shared by serial_mlfma, serial_auto and
/// parallel_2x2_shm, and the accuracy it must be reconstructed to.
struct SceneSpec {
  int nx;
  int transmitters;
  int receivers;
  double contrast;     // peak permittivity contrast (paper Fig. 13: 0.02)
  double noise;        // relative measurement-noise std (seeded)
  double residual_tol; // stop once the relative residual drops below this
  int max_iterations;  // a run that misses residual_tol by then fails
  double rmse_ref;     // image RMSE against the true contrast ...
  double rmse_rel_tol; // ... must lie within rmse_ref * (1 +- this)
};

// 128^2: the residual falls through 0.0049 -> 0.0031 at iterations 9 ->
// 10 on every seed, so the 0.004 target is met at iteration 10 with a
// wide margin on both sides; the 1e-3 noise floor sits near 5e-4.
constexpr SceneSpec kScene{128, 16, 32, 0.02, 1e-3, 4e-3, 15, 0.5613, 0.02};
// The 2x2 workload solves the same scene with the same options to a
// looser target, met at iteration 6 (0.0149, after 0.0390): a 2x2 solve
// on one thread per rank costs twice a 4-thread serial one, and every
// run also solves the scene serially for the image comparison.
constexpr SceneSpec kParallelScene{128, 16, 32, 0.02, 1e-3, 2.5e-2, 15, 0.5619, 0.02};
// 32^2 (self-test): kAuto escalates from CBS past iteration 11 here, so
// the target is looser: met at iteration 8 (0.0115, after 0.0150).
constexpr SceneSpec kSmokeScene{32, 8, 16, 0.02, 1e-3, 1.3e-2, 15, 0.4511, 0.02};

/// Parallel vs serial image: largest RMSE of the 2x2 image relative to
/// the serial image of the same scene.
constexpr double kParallelImageTol = 1e-6;

/// Service batch: single-frequency jobs on two operator configurations
/// plus 3-rung frequency ladders whose 32^2 and 64^2 rungs share those
/// configurations' tables.
struct ServiceSpec {
  int jobs_small;   // 32^2 jobs
  int jobs_large;   // 64^2 jobs
  int jobs_ladder;  // 16 -> 32 -> 64 ladders
  int iterations;   // per single-frequency job
  int ladder_iterations;  // per rung
  double rmse_max;  // a completed job must beat this image RMSE
};
// 28 of 48 jobs are 64^2, so the median job's iteration time sits well
// inside the 64^2 cluster rather than on a cluster edge.
constexpr ServiceSpec kService{12, 28, 8, 3, 2, 0.9};
constexpr ServiceSpec kSmokeService{3, 2, 1, 2, 1, 0.99};
constexpr int kServiceRanks = 2;
constexpr int kServiceTx = 4;
constexpr int kServiceRx = 16;

/// How many times a run repeats its set-up (median reported): the scene
/// of the serial and 2x2 workloads, the service batch's job inputs.
constexpr int kSceneSetupRepeats = 3;
constexpr int kBatchSetupRepeats = 3;

// ---- Metric catalogue ----------------------------------------------------

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},          {"time_to_residual_s", "s"},
    {"iter_p50_s", "s"},       {"cpu_s", "s"},
    {"peak_rss_mb", "MB"},     {"image_rmse", "ratio"},
    {"jobs_per_s", "1/s"},     {"job_latency_p50_s", "s"},
    {"job_latency_p75_s", "s"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"phantom.scenario_s", "s"},
    {"dbim.iterations", "count"},
    {"dbim.forward_solves", "count"},
    {"dbim.residual_pass_s", "s"},
    {"dbim.gradient_pass_s", "s"},
    {"dbim.step_pass_s", "s"},
    {"dbim.update_s", "s"},
    {"forward.krylov_iters", "count"},
    {"forward.precond_setup_s", "s"},
    {"forward.precond_apply_s", "s"},
    {"forward.recycle_hit_ratio", "ratio"},
    {"forward.cbs_iters", "count"},
    {"mlfma.expansion_s", "s"},
    {"mlfma.aggregation_s", "s"},
    {"mlfma.translation_s", "s"},
    {"mlfma.disaggregation_s", "s"},
    {"mlfma.local_expansion_s", "s"},
    {"mlfma.near_field_s", "s"},
    {"mlfma.applications", "count"},
    {"mlfma.apply_ms_per_rhs", "ms"},
    {"fft.busy_s", "s"},
    {"fft.plan_hit_ratio", "ratio"},
    {"vcluster.wire_bytes", "bytes"},
    {"vcluster.messages", "count"},
    {"vcluster.halo_wait_sum_s", "s"},
    {"vcluster.halo_wait_max_s", "s"},
    {"vcluster.compute_sum_s", "s"},
    {"vcluster.compute_max_s", "s"},
    {"vcluster.transport_syscalls", "count"},
    {"vcluster.ring_full_stalls", "count"},
    {"service.table_build_s", "s"},
    {"service.cache_hit_ratio", "ratio"},
    {"service.admission_wait_p50_s", "s"},
    {"service.steps", "count"},
    {"service.pool_restarts", "count"},
    {"trace.coverage", "ratio"},
    {"trace.overhead_ratio", "ratio"},
};

const std::vector<std::string> kWorkloads = {
    "serial_mlfma", "serial_auto", "parallel_2x2_shm", "service_mix"};

// ---- Small helpers -------------------------------------------------------

/// CPUs this process may run on (what `nproc` prints).
int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return hardware_threads();
  return std::max(1, CPU_COUNT(&set));
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// Peak resident set size (VmHWM) since the last reset_peak_rss().
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
}

/// Lowers the peak-RSS mark to the current RSS, so the next peak_rss_mb()
/// covers only what ran in between (set-up state still resident counts).
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

/// Wall time, process CPU time and peak RSS of one measured operation.
struct Usage {
  double seconds = 0.0;
  double cpu = 0.0;
  double peak_rss_mb = 0.0;
};

class UsageMeter {
 public:
  UsageMeter() : cpu0_((reset_peak_rss(), cpu_seconds())) {}
  Usage stop() const {
    return {wall_.seconds(), cpu_seconds() - cpu0_, peak_rss_mb()};
  }

 private:
  double cpu0_;
  Timer wall_;
};

/// Quantile with linear interpolation between order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/// Repeats `op` until the time budget is used: the first repetition
/// always runs; another starts only if it is predicted to end within the
/// budget (its predecessor's duration).
void repeat_within(double budget_s, const std::function<void()>& op) {
  Timer run;
  double last = 0.0;
  do {
    Timer t;
    op();
    last = t.seconds();
  } while (run.seconds() + last <= budget_s);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---- Per-run context -----------------------------------------------------

struct Ctx {
  const Options& opts;
  Report& report;
  std::map<std::string, double> values;

  void fail(const std::string& what) {
    ++report.failed;
    report.failures.push_back(what);
  }
  /// Counts one operation, failed when `ok` is false.
  void check(bool ok, const std::string& what) {
    ++report.attempted;
    if (!ok) fail(what);
  }
  void note(const std::string& key, const std::string& value) {
    report.fingerprint.emplace_back(key, value);
  }
  void set(const std::string& name, double v) { values[name] = v; }
};

/// Span totals and counters of one traced interval, summed over every
/// thread (and rank) that recorded.
struct TraceTotals {
  std::map<std::string, double> span_s;
  std::array<double, obs::kNumCounters> counter{};
  std::map<int, std::array<double, obs::kNumCounters>> counter_by_rank;
  double coverage = 0.0;  // leaf-span time / dbim.iteration time
  std::uint64_t dropped = 0;

  double span(const char* name) const {
    const auto it = span_s.find(name);
    return it == span_s.end() ? 0.0 : it->second;
  }
  double count(obs::Counter c) const {
    return counter[static_cast<std::size_t>(c)];
  }
  double seconds(obs::Counter c) const { return 1e-9 * count(c); }
  double rank_max_seconds(obs::Counter c) const {
    double m = 0.0;
    for (const auto& [rank, cs] : counter_by_rank)
      m = std::max(m, cs[static_cast<std::size_t>(c)]);
    return 1e-9 * m;
  }
};

/// Runs `op` with obs enabled, then aggregates what it recorded. Leaf
/// spans are those with no nested span on the same thread; coverage is
/// the leaf time inside every dbim.iteration span over the time of those
/// spans.
TraceTotals traced(const std::function<void()>& op) {
  obs::reset();
  obs::set_enabled(true);
  op();
  obs::set_enabled(false);

  TraceTotals out;
  double iter_ns = 0.0, leaf_ns = 0.0;
  for (obs::ThreadSnapshot& t : obs::snapshot()) {
    out.dropped += t.dropped;
    auto& by_rank = out.counter_by_rank[t.rank];
    for (std::size_t c = 0; c < obs::kNumCounters; ++c) {
      out.counter[c] += static_cast<double>(t.counters[c]);
      by_rank[c] += static_cast<double>(t.counters[c]);
    }
    auto& ev = t.events;
    std::sort(ev.begin(), ev.end(), [](const auto& a, const auto& b) {
      return a.begin_ns != b.begin_ns ? a.begin_ns < b.begin_ns
                                      : a.depth < b.depth;
    });
    // Open dbim.iteration span on this thread (end time, depth).
    std::uint64_t iter_end = 0;
    int iter_depth = -1;
    for (std::size_t i = 0; i < ev.size(); ++i) {
      const auto& e = ev[i];
      const double ns = static_cast<double>(e.end_ns - e.begin_ns);
      out.span_s[e.name] += 1e-9 * ns;
      if (iter_depth >= 0 && e.begin_ns >= iter_end) iter_depth = -1;
      if (std::string_view(e.name) == "dbim.iteration") {
        iter_ns += ns;
        iter_end = e.end_ns;
        iter_depth = e.depth;
        continue;
      }
      const bool leaf = i + 1 == ev.size() || ev[i + 1].begin_ns >= e.end_ns ||
                        ev[i + 1].depth <= e.depth;
      if (leaf && iter_depth >= 0 && e.depth > iter_depth) leaf_ns += ns;
    }
  }
  out.coverage = ratio(leaf_ns, iter_ns);
  return out;
}

/// Per-layer values every traced DBIM interval reports.
void set_traced_dbim(Ctx& c, const TraceTotals& t, double forward_solves) {
  const double res = t.span("dbim.residual_pass");
  const double grad = t.span("dbim.gradient_pass");
  const double step = t.span("dbim.step_pass");
  c.set("dbim.residual_pass_s", res);
  c.set("dbim.gradient_pass_s", grad);
  c.set("dbim.step_pass_s", step);
  const double iter = t.span("dbim.iteration");
  c.set("dbim.update_s", iter > 0.0 ? iter - res - grad - step : 0.0);
  c.set("forward.precond_apply_s", t.seconds(obs::Counter::kPrecondApplyNs));
  c.set("forward.recycle_hit_ratio",
        ratio(t.count(obs::Counter::kRecycleHits), forward_solves));
  c.set("forward.cbs_iters", t.count(obs::Counter::kCbsIterations));
  c.set("fft.busy_s", t.seconds(obs::Counter::kFftNs));
  const double hits = t.count(obs::Counter::kFftPlanHits);
  c.set("fft.plan_hit_ratio",
        ratio(hits, hits + t.count(obs::Counter::kFftPlanMisses)));
  c.set("vcluster.halo_wait_sum_s", t.seconds(obs::Counter::kHaloWaitNs));
  c.set("vcluster.halo_wait_max_s",
        t.rank_max_seconds(obs::Counter::kHaloWaitNs));
  c.set("vcluster.compute_sum_s", t.seconds(obs::Counter::kComputeNs));
  c.set("vcluster.compute_max_s", t.rank_max_seconds(obs::Counter::kComputeNs));
  c.set("trace.coverage", t.coverage);
  if (t.dropped > 0) c.note("trace_dropped_events", std::to_string(t.dropped));
}

/// MLFMA phase seconds from the serial engine's always-on accumulators.
void set_engine_phases(Ctx& c, const PhaseTimes& pt) {
  const auto ph = [&](MlfmaPhase p) {
    return pt.seconds[static_cast<std::size_t>(p)];
  };
  c.set("mlfma.expansion_s", ph(MlfmaPhase::kExpansion));
  c.set("mlfma.aggregation_s", ph(MlfmaPhase::kAggregation));
  c.set("mlfma.translation_s", ph(MlfmaPhase::kTranslation));
  c.set("mlfma.disaggregation_s", ph(MlfmaPhase::kDisaggregation));
  c.set("mlfma.local_expansion_s", ph(MlfmaPhase::kLocalExpansion));
  c.set("mlfma.near_field_s", ph(MlfmaPhase::kNearField));
  c.set("mlfma.applications", static_cast<double>(pt.applications));
  c.set("mlfma.apply_ms_per_rhs",
        1e3 * ratio(pt.total(), static_cast<double>(pt.applications)));
}

/// MLFMA phase seconds from the spans of engines the benchmark cannot
/// reach (service jobs, partitioned ranks). The partitioned apply folds
/// expansion into its upward pass and local expansion into its downward
/// pass, so those report under aggregation and disaggregation.
void set_span_phases(Ctx& c, const TraceTotals& t, double applications) {
  const double exp = t.span("mlfma.expand");
  const double agg = t.span("mlfma.aggregate") + t.span("dist.upward");
  const double tr = t.span("mlfma.translate") + t.span("dist.translate");
  const double dis = t.span("mlfma.disaggregate") + t.span("dist.downward");
  const double loc = t.span("mlfma.local_expand");
  const double near = t.span("mlfma.nearfield") + t.span("dist.near");
  c.set("mlfma.expansion_s", exp);
  c.set("mlfma.aggregation_s", agg);
  c.set("mlfma.translation_s", tr);
  c.set("mlfma.disaggregation_s", dis);
  c.set("mlfma.local_expansion_s", loc);
  c.set("mlfma.near_field_s", near);
  c.set("mlfma.applications", applications);
  c.set("mlfma.apply_ms_per_rhs",
        1e3 * ratio(exp + agg + tr + dis + loc + near, applications));
}

/// Writes the chrome trace of the last traced interval.
void write_trace(Ctx& c) {
  if (c.opts.trace_path.empty()) return;
  if (obs::write_chrome_trace(c.opts.trace_path)) {
    c.note("chrome_trace", c.opts.trace_path);
  } else {
    c.note("chrome_trace", "unwritable: " + c.opts.trace_path);
  }
}

// ---- Shepp-Logan scene: serial and 2x2 workloads --------------------------

ScenarioConfig scene_config(const SceneSpec& s, std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.nx = s.nx;
  cfg.num_transmitters = s.transmitters;
  cfg.num_receivers = s.receivers;
  cfg.measurement_noise = s.noise;
  cfg.noise_seed = seed;
  return cfg;
}

DbimOptions scene_dbim_options(const SceneSpec& s, BackendKind backend) {
  DbimOptions o;
  o.max_iterations = s.max_iterations;
  o.residual_tol = s.residual_tol;
  o.backend = backend;
  o.near_precondition = backend == BackendKind::kMlfma;
  o.adaptive_forcing = true;
  o.recycle_depth = 2;
  return o;
}

/// Builds the scene `kSceneSetupRepeats` times; the median build time is the
/// run's set-up time.
std::unique_ptr<Scenario> build_scene(Ctx& c, const SceneSpec& s) {
  const ScenarioConfig cfg = scene_config(s, c.opts.seed);
  std::unique_ptr<Scenario> scene;
  std::vector<double> times;
  for (int k = 0; k < kSceneSetupRepeats; ++k) {
    scene.reset();
    Timer t;
    scene = std::make_unique<Scenario>(cfg, shepp_logan(Grid(s.nx), s.contrast));
    times.push_back(t.seconds());
  }
  c.set("setup_s", median(times));
  c.set("phantom.scenario_s", median(times));
  return scene;
}

struct Solve {
  DbimResult result;
  Usage usage;
  std::vector<double> iter_seconds;
  PhaseTimes phases;
};

Solve solve_serial(Scenario& scene, const DbimOptions& opts) {
  Solve out;
  scene.engine().clear_phase_times();
  const UsageMeter meter;
  {
    FFW_TRACE_SPAN("perfbench.solve");
    DbimStepper stepper(scene.engine(), scene.transceivers(),
                        scene.measurements(), opts, scene.config().forward);
    bool more = true;
    while (more) {
      Timer it;
      FFW_TRACE_SPAN("perfbench.step", stepper.iteration());
      more = stepper.step();
      out.iter_seconds.push_back(it.seconds());
    }
    out.result = stepper.result();
  }
  out.usage = meter.stop();
  out.phases = scene.engine().phase_times();
  return out;
}

/// Why one reconstruction of the Shepp-Logan scene fails its accuracy
/// checks (empty when it passes); stores its image RMSE in `rmse`.
std::string scene_solve_problem(const SceneSpec& s, const Scenario& scene,
                                const DbimResult& r, double& rmse) {
  rmse = image_rmse(r.contrast, scene.true_contrast());
  const auto& res = r.history.relative_residual;
  const double last = res.empty() ? 1.0 : res.back();
  if (!(last < s.residual_tol)) {
    return "missed residual " + std::to_string(s.residual_tol) + " in " +
           std::to_string(res.size()) + " iterations (" +
           std::to_string(last) + ")";
  }
  if (!std::isfinite(rmse)) return "image_rmse not finite";
  if (std::abs(rmse - s.rmse_ref) > s.rmse_rel_tol * s.rmse_ref) {
    return "image_rmse " + std::to_string(rmse) + " outside " +
           std::to_string(s.rmse_ref) + " +- " +
           std::to_string(100.0 * s.rmse_rel_tol) + "%";
  }
  return {};
}

/// End-to-end metrics of a sequence of reconstructions run one at a time
/// (each is one job of a closed loop with a single client).
void set_solve_metrics(Ctx& c, const std::vector<Usage>& usage,
                       const std::vector<double>& iters,
                       const std::vector<double>& rmse) {
  std::vector<double> seconds, cpu, rss;
  double total = 0.0;
  for (const Usage& u : usage) {
    seconds.push_back(u.seconds);
    cpu.push_back(u.cpu);
    rss.push_back(u.peak_rss_mb);
    total += u.seconds;
  }
  c.set("time_to_residual_s", median(seconds));
  c.set("iter_p50_s", median(iters));
  c.set("cpu_s", median(cpu));
  c.set("peak_rss_mb", median(rss));
  c.set("image_rmse", median(rmse));
  c.set("jobs_per_s", ratio(static_cast<double>(seconds.size()), total));
  c.set("job_latency_p50_s", quantile(seconds, 0.5));
  c.set("job_latency_p75_s", quantile(seconds, 0.75));
}

void set_history_counts(Ctx& c, const DbimHistory& h) {
  c.set("dbim.iterations", static_cast<double>(h.relative_residual.size()));
  c.set("dbim.forward_solves", static_cast<double>(h.forward_solves));
  c.set("forward.krylov_iters", static_cast<double>(h.bicgstab_iterations));
  c.set("forward.precond_setup_s", h.precond_setup_seconds);
}

void run_serial(Ctx& c, BackendKind backend) {
  const SceneSpec& s = c.opts.smoke ? kSmokeScene : kScene;
  const int threads = nproc();
  set_num_threads(threads);
  c.note("thread_cap", std::to_string(threads));
  c.note("backend", backend_name(backend));
  c.note("scene", std::to_string(s.nx) + "^2 Shepp-Logan, " +
                      std::to_string(s.transmitters) + " Tx / " +
                      std::to_string(s.receivers) + " Rx");
  std::unique_ptr<Scenario> scene = build_scene(c, s);
  const DbimOptions opts = scene_dbim_options(s, backend);

  const auto solve_checked = [&](const char* what) {
    Solve sv = solve_serial(*scene, opts);
    double rmse = 0.0;
    std::string why = scene_solve_problem(s, *scene, sv.result, rmse);
    if (why.empty() && sv.result.history.cbs_escalated)
      why = "kAuto escalated to MLFMA";
    c.check(why.empty(), std::string(what) + ": " + why);
    return std::make_pair(std::move(sv), rmse);
  };

  if (!c.opts.trace) {
    std::vector<Usage> usage;
    std::vector<double> iters, rmse;
    repeat_within(c.opts.seconds, [&] {
      auto [sv, r] = solve_checked("solve");
      usage.push_back(sv.usage);
      iters.insert(iters.end(), sv.iter_seconds.begin(), sv.iter_seconds.end());
      rmse.push_back(r);
    });
    set_solve_metrics(c, usage, iters, rmse);
    return;
  }

  // Traced run: counts and always-on phase times from an untraced solve,
  // span seconds from a traced one, overhead from the pair.
  std::vector<double> plain_s, traced_s;
  repeat_within(c.opts.seconds, [&] {
    const Solve plain = solve_checked("untraced solve").first;
    plain_s.push_back(plain.usage.seconds);
    set_history_counts(c, plain.result.history);
    set_engine_phases(c, plain.phases);
    Solve tr;
    const TraceTotals t =
        traced([&] { tr = solve_checked("traced solve").first; });
    traced_s.push_back(tr.usage.seconds);
    set_traced_dbim(c, t, static_cast<double>(tr.result.history.forward_solves));
  });
  c.set("trace.overhead_ratio", ratio(median(traced_s), median(plain_s)));
  write_trace(c);
}

void run_parallel(Ctx& c) {
  const SceneSpec& s = c.opts.smoke ? kSmokeScene : kParallelScene;
  constexpr int kIllumGroups = 2, kTreeRanks = 2;
  constexpr int kRanks = kIllumGroups * kTreeRanks;
  const char* kTransport = "shm";
  const int serial_threads = nproc();
  const int rank_threads = std::max(1, nproc() / kRanks);
  c.note("thread_cap", std::to_string(rank_threads) + " per rank (" +
                           std::to_string(serial_threads) +
                           " for set-up and the serial reference)");
  c.note("transport", kTransport);
  c.note("decomposition", "2 illumination groups x 2 sub-tree ranks");

  set_num_threads(serial_threads);
  std::unique_ptr<Scenario> scene = build_scene(c, s);
  const DbimOptions opts = scene_dbim_options(s, BackendKind::kMlfma);

  struct ParallelSolve {
    DbimResult result;
    Usage usage;
    std::vector<double> iter_seconds;
    TrafficStats traffic;
    TransportCounters transport;
  };
  const auto solve = [&] {
    set_num_threads(rank_threads);
    ParallelSolve out;
    ParallelDbimConfig pcfg;
    pcfg.illum_groups = kIllumGroups;
    pcfg.tree_ranks = kTreeRanks;
    pcfg.dbim = opts;
    pcfg.forward = scene->config().forward;
    pcfg.mlfma = scene->config().mlfma;
    Timer lap;
    pcfg.dbim.progress = [&](int, double) {
      out.iter_seconds.push_back(lap.seconds());
      lap.reset();
    };
    VCluster vc(kRanks, make_transport(kTransport, kRanks));
    const UsageMeter meter;
    lap.reset();
    {
      FFW_TRACE_SPAN("perfbench.parallel_solve");
      out.result = dbim_reconstruct_parallel(vc, scene->tree(),
                                             scene->transceivers(),
                                             scene->measurements(), pcfg);
    }
    out.usage = meter.stop();
    out.traffic = vc.traffic();
    out.transport = vc.transport().counters();
    set_num_threads(serial_threads);
    return out;
  };

  std::vector<ParallelSolve> runs;
  std::vector<double> traced_s;
  TraceTotals t;
  repeat_within(c.opts.seconds, [&] {
    runs.push_back(solve());
    if (c.opts.trace) {
      t = traced([&] { traced_s.push_back(solve().usage.seconds); });
    }
  });

  // Correctness: every 2x2 image against the serial image of the scene.
  const Solve ref = solve_serial(*scene, opts);
  double ref_rmse = 0.0;
  const std::string ref_why =
      scene_solve_problem(s, *scene, ref.result, ref_rmse);
  c.check(ref_why.empty(), "serial reference: " + ref_why);
  std::vector<Usage> usage;
  std::vector<double> iters, rmse;
  for (const ParallelSolve& p : runs) {
    double r = 0.0;
    std::string why = scene_solve_problem(s, *scene, p.result, r);
    const double diff = image_rmse(p.result.contrast, ref.result.contrast);
    if (why.empty() && !(diff <= kParallelImageTol)) {
      why = "image departs from the serial image by " + std::to_string(diff) +
            " (RMSE, tolerance " + std::to_string(kParallelImageTol) + ")";
    }
    c.check(why.empty(), "2x2 solve: " + why);
    rmse.push_back(r);
    usage.push_back(p.usage);
    iters.insert(iters.end(), p.iter_seconds.begin(), p.iter_seconds.end());
  }
  set_solve_metrics(c, usage, iters, rmse);
  if (!c.opts.trace) return;

  const ParallelSolve& last = runs.back();
  set_history_counts(c, last.result.history);
  c.set("forward.krylov_iters", t.count(obs::Counter::kBicgstabTotalIters));
  c.set("forward.precond_setup_s", t.seconds(obs::Counter::kPrecondSetupNs));
  // Both sub-tree ranks of an illumination group count every recycled
  // guess and every operator application they share.
  const double forward_solves =
      static_cast<double>(last.result.history.forward_solves);
  set_traced_dbim(c, t, forward_solves);
  c.set("forward.recycle_hit_ratio",
        ratio(t.count(obs::Counter::kRecycleHits) / kTreeRanks, forward_solves));
  set_span_phases(c, t,
                  t.count(obs::Counter::kMlfmaApplications) / kTreeRanks);
  c.set("vcluster.wire_bytes", static_cast<double>(last.traffic.total_bytes()));
  c.set("vcluster.messages", static_cast<double>(last.traffic.total_messages()));
  c.set("vcluster.transport_syscalls",
        static_cast<double>(last.transport.syscalls));
  c.set("vcluster.ring_full_stalls",
        static_cast<double>(last.transport.ring_full_stalls));
  std::vector<double> plain_s;
  for (const Usage& u : usage) plain_s.push_back(u.seconds);
  c.set("trace.overhead_ratio", ratio(median(traced_s), median(plain_s)));
  write_trace(c);
}

// ---- Service batch --------------------------------------------------------

struct BatchJob {
  JobSpec spec;
  cvec truth;  // true contrast on the job's final grid
};

std::vector<Vec2> ring(int count, const Grid& g) {
  return ring_positions(count, ScenarioConfig{}.ring_radius_factor * g.domain());
}

/// Synthesises the batch's inputs: every job's phantom placement and noise
/// realisation and the batch's job order follow from `seed`.
std::vector<BatchJob> make_batch(const ServiceSpec& sp, std::uint64_t seed) {
  Rng rng(seed);
  OperatorTableCache synth_cache;  // shares operators across synthesis only
  const auto scene = [&](int nx, const cvec& delta_eps) {
    ScenarioConfig cfg;
    cfg.nx = nx;
    cfg.num_transmitters = kServiceTx;
    cfg.num_receivers = kServiceRx;
    cfg.measurement_noise = kScene.noise;
    cfg.noise_seed = rng.next_u64();
    cfg.table_cache = &synth_cache;
    return std::make_unique<Scenario>(cfg, delta_eps);
  };
  const auto phantom = [&](int nx) {
    const Grid g(nx);
    const double d = g.domain();
    const Vec2 centre{rng.uniform(-0.2, 0.2) * d, rng.uniform(-0.2, 0.2) * d};
    return gaussian_blob(g, centre, 0.15 * d, cplx{0.01, 0.0});
  };
  const auto single = [&](int nx, int index) {
    const auto s = scene(nx, phantom(nx));
    BatchJob j;
    j.spec.name = "job" + std::to_string(index);
    j.spec.nx = nx;
    j.spec.transmitters = ring(kServiceTx, s->grid());
    j.spec.receivers = ring(kServiceRx, s->grid());
    j.spec.measured = s->measurements();
    j.spec.dbim.max_iterations = sp.iterations;
    j.truth.assign(s->true_contrast().begin(), s->true_contrast().end());
    return j;
  };
  const auto ladder = [&](int index) {
    const cvec fine = phantom(64);
    const cvec mid = downsample2(fine, 64);
    const cvec coarse = downsample2(mid, 32);
    BatchJob j;
    j.spec.name = "ladder" + std::to_string(index);
    j.spec.nx = 64;
    for (const auto& [nx, de] : {std::pair{16, &coarse}, std::pair{32, &mid},
                                 std::pair{64, &fine}}) {
      const auto s = scene(nx, *de);
      JobBand b;
      b.nx = nx;
      b.transmitters = ring(kServiceTx, s->grid());
      b.receivers = ring(kServiceRx, s->grid());
      b.measured = s->measurements();
      b.max_iterations = sp.ladder_iterations;
      j.spec.bands.push_back(std::move(b));
      if (nx == 64) j.truth.assign(s->true_contrast().begin(), s->true_contrast().end());
    }
    return j;
  };

  std::vector<BatchJob> jobs;
  int index = 0;
  for (int k = 0; k < sp.jobs_small; ++k) jobs.push_back(single(32, index++));
  for (int k = 0; k < sp.jobs_large; ++k) jobs.push_back(single(64, index++));
  for (int k = 0; k < sp.jobs_ladder; ++k) jobs.push_back(ladder(index++));
  // Seeded Fisher-Yates shuffle of the submission order.
  for (std::size_t i = jobs.size(); i > 1; --i) {
    const std::size_t k = static_cast<std::size_t>(rng.next_u64() % i);
    std::swap(jobs[i - 1], jobs[k]);
  }
  return jobs;
}

struct BatchRun {
  Usage usage;
  std::vector<double> latency, admission_wait, iter_seconds, rmse;
  ServiceStats stats;
  OperatorTableCache::Stats cache;
  TrafficStats traffic;
  TransportCounters transport;
  // Summed over jobs.
  double iterations = 0.0, forward_solves = 0.0, krylov_iters = 0.0;
  double applications = 0.0;
};

/// Submits every job at t = 0 and drains the batch on a fresh cache and
/// rank pool; a poller thread timestamps admission and completion.
BatchRun run_batch(Ctx& c, const ServiceSpec& sp,
                   const std::vector<BatchJob>& jobs) {
  BatchRun out;
  OperatorTableCache cache;
  ReconstructionService service(cache);
  const std::size_t n = jobs.size();
  std::vector<double> admitted(n, -1.0), finished(n, -1.0);
  std::vector<int> ids;
  VCluster vc(kServiceRanks, make_transport("inproc", kServiceRanks));
  const UsageMeter meter;
  Timer clock;
  for (const BatchJob& j : jobs) ids.push_back(service.submit(j.spec));

  std::atomic<bool> stop{false};
  std::thread poller([&] {
    while (!stop.load()) {
      for (std::size_t i = 0; i < n; ++i) {
        if (finished[i] >= 0.0) continue;
        const JobState st = service.status(ids[i]).state;
        const double now = clock.seconds();
        if (st != JobState::kQueued && admitted[i] < 0.0) admitted[i] = now;
        if (st != JobState::kQueued && st != JobState::kRunning) finished[i] = now;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  try {
    FFW_TRACE_SPAN("perfbench.service_run");
    service.run(vc);
  } catch (const std::exception& e) {
    c.fail(std::string("service run threw: ") + e.what());
  }
  const double drained = clock.seconds();
  stop.store(true);
  poller.join();
  out.usage = meter.stop();

  out.stats = service.stats();
  out.cache = cache.stats();
  out.traffic = vc.traffic();
  out.transport = vc.transport().counters();
  for (std::size_t i = 0; i < n; ++i) {
    // Jobs the poller had not yet seen finish ended by the drain.
    if (finished[i] < 0.0) finished[i] = drained;
    if (admitted[i] < 0.0) admitted[i] = finished[i];
    out.latency.push_back(finished[i]);
    out.admission_wait.push_back(admitted[i]);
    const JobStatus st = service.status(ids[i]);
    std::string why;
    double rmse = 1.0;
    if (st.state != JobState::kCompleted) {
      why = "ended in state " + std::to_string(static_cast<int>(st.state)) +
            (st.error.empty() ? "" : " (" + st.error + ")");
    } else {
      const DbimResult& r = service.result(ids[i]);
      rmse = image_rmse(r.contrast, jobs[i].truth);
      out.forward_solves += static_cast<double>(r.history.forward_solves);
      out.krylov_iters += static_cast<double>(r.history.bicgstab_iterations);
      out.applications +=
          static_cast<double>(r.history.operator_applications);
      if (!(rmse < sp.rmse_max)) {
        why = "image_rmse " + std::to_string(rmse) + " not below " +
              std::to_string(sp.rmse_max);
      }
    }
    if (st.iterations > 0)
      out.iter_seconds.push_back(st.compute_seconds / st.iterations);
    out.iterations += st.iterations;
    if (why.empty() && out.stats.pool_restarts > 0)
      why = "pool restarted " + std::to_string(out.stats.pool_restarts) + " times";
    c.check(why.empty(), jobs[i].spec.name + ": " + why);
    out.rmse.push_back(rmse);
  }
  return out;
}

void run_service(Ctx& c) {
  const ServiceSpec& sp = c.opts.smoke ? kSmokeService : kService;
  const int threads = std::max(1, nproc() / kServiceRanks);
  set_num_threads(threads);
  c.note("thread_cap", std::to_string(threads) + " per rank");
  c.note("transport", "inproc");
  c.note("pool", std::to_string(kServiceRanks) + " ranks, closed batch of " +
                     std::to_string(sp.jobs_small + sp.jobs_large +
                                    sp.jobs_ladder) +
                     " jobs submitted at t = 0");

  std::vector<BatchJob> jobs;
  std::vector<double> setup;
  for (int k = 0; k < kBatchSetupRepeats; ++k) {
    jobs.clear();
    Timer t;
    jobs = make_batch(sp, c.opts.seed);
    setup.push_back(t.seconds());
  }
  c.set("setup_s", median(setup));
  c.set("phantom.scenario_s", median(setup));

  std::vector<BatchRun> batches;
  std::vector<double> traced_s;
  TraceTotals t;
  repeat_within(c.opts.seconds, [&] {
    batches.push_back(run_batch(c, sp, jobs));
    if (c.opts.trace) {
      t = traced(
          [&] { traced_s.push_back(run_batch(c, sp, jobs).usage.seconds); });
    }
  });

  std::vector<double> secs, cpu, rss, jps, rmse, latency, iters;
  for (const BatchRun& b : batches) {
    secs.push_back(b.usage.seconds);
    cpu.push_back(b.usage.cpu);
    rss.push_back(b.usage.peak_rss_mb);
    jps.push_back(static_cast<double>(jobs.size()) / b.usage.seconds);
    rmse.push_back(mean(b.rmse));
    latency.insert(latency.end(), b.latency.begin(), b.latency.end());
    iters.insert(iters.end(), b.iter_seconds.begin(), b.iter_seconds.end());
  }
  c.set("time_to_residual_s", median(secs));
  c.set("iter_p50_s", median(iters));
  c.set("cpu_s", median(cpu));
  c.set("peak_rss_mb", median(rss));
  c.set("image_rmse", median(rmse));
  c.set("jobs_per_s", median(jps));
  c.set("job_latency_p50_s", quantile(latency, 0.5));
  c.set("job_latency_p75_s", quantile(latency, 0.75));
  c.note("latency_samples", std::to_string(latency.size()));
  if (!c.opts.trace) return;

  const BatchRun& b = batches.back();
  c.set("dbim.iterations", b.iterations);
  c.set("dbim.forward_solves", b.forward_solves);
  c.set("forward.krylov_iters", b.krylov_iters);
  c.set("forward.precond_setup_s", t.seconds(obs::Counter::kPrecondSetupNs));
  set_traced_dbim(c, t, b.forward_solves);
  set_span_phases(c, t, b.applications);
  c.set("vcluster.wire_bytes", static_cast<double>(b.traffic.total_bytes()));
  c.set("vcluster.messages", static_cast<double>(b.traffic.total_messages()));
  c.set("vcluster.transport_syscalls", static_cast<double>(b.transport.syscalls));
  c.set("vcluster.ring_full_stalls",
        static_cast<double>(b.transport.ring_full_stalls));
  c.set("service.table_build_s", b.cache.build_seconds);
  c.set("service.cache_hit_ratio",
        ratio(static_cast<double>(b.cache.hits),
              static_cast<double>(b.cache.hits + b.cache.misses)));
  c.set("service.admission_wait_p50_s", median(b.admission_wait));
  c.set("service.steps", static_cast<double>(b.stats.steps));
  c.set("service.pool_restarts", static_cast<double>(b.stats.pool_restarts));
  c.set("trace.overhead_ratio", ratio(median(traced_s), median(secs)));
  write_trace(c);
}

// ---- Output --------------------------------------------------------------

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(ch));
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string isa() {
  __builtin_cpu_init();
  std::string s = __builtin_cpu_supports("avx512f") ? "avx512f" : "no-avx512";
  if (__builtin_cpu_supports("avx2")) s += ",avx2";
#ifdef __AVX512F__
  s += " (build: avx512)";
#else
  s += " (build: no avx512)";
#endif
  return s;
}

}  // namespace

const std::vector<MetricSpec>& end_to_end_metrics() { return kEndToEnd; }
const std::vector<MetricSpec>& per_layer_metrics() { return kPerLayer; }
const std::vector<std::string>& workload_names() { return kWorkloads; }

Report run(const Options& opts) {
  const std::map<std::string, std::function<void(Ctx&)>> table = {
      {"serial_mlfma", [](Ctx& c) { run_serial(c, BackendKind::kMlfma); }},
      {"serial_auto", [](Ctx& c) { run_serial(c, BackendKind::kAuto); }},
      {"parallel_2x2_shm", run_parallel},
      {"service_mix", run_service},
  };
  const auto it = table.find(opts.workload);
  if (it == table.end())
    throw std::invalid_argument("unknown workload: " + opts.workload);

  Report report;
  Ctx c{opts, report, {}};
  c.note("workload", opts.workload);
  c.note("seed", std::to_string(opts.seed));
  c.note("nproc", std::to_string(nproc()));
  c.note("isa", isa());
#ifdef FFW_PERFBENCH_COMPILER
  c.note("compiler", FFW_PERFBENCH_COMPILER);
  c.note("build_type", FFW_PERFBENCH_BUILD_TYPE);
  c.note("git_sha", FFW_PERFBENCH_GIT_SHA);
#endif
#ifdef FFW_HAVE_OPENMP
  c.note("openmp", "on");
#else
  c.note("openmp", "off");
#endif
  c.note("mode", std::string(opts.trace ? "traced" : "timed") +
                     (opts.smoke ? ", smoke sizes" : ""));
  obs::set_ring_capacity(std::size_t{1} << 20);

  it->second(c);

  for (const MetricSpec& m : opts.trace ? kPerLayer : kEndToEnd) {
    double v = c.values.count(m.name) ? c.values.at(m.name) : 0.0;
    if (!std::isfinite(v)) {
      c.fail(std::string("metric ") + m.name + " is not finite");
      v = 0.0;
    }
    report.metrics.push_back({m.name, v, m.unit});
  }
  return report;
}

std::string result_json(const Report& r) {
  std::string out = "{\"correct\": ";
  out += r.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i > 0) out += ", ";
    out += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}}";
}

std::string fingerprint_json(const Report& r) {
  std::string out = "{\"fingerprint\": {";
  for (std::size_t i = 0; i < r.fingerprint.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(r.fingerprint[i].first) + ": " +
           json_string(r.fingerprint[i].second);
  }
  return out + "}}";
}

}  // namespace perfbench
