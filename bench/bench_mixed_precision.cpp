// Mixed-precision MLFMA ablation: the Precision::kMixed engine (fp32
// operator tables, fp32 spectra panels, fp32 halo wire format, fp64
// accumulation at the dense expansion boundaries) against the fp64
// reference, end to end:
//
//   1. serial blocked apply — per-phase wall times, per-RHS time, and
//      operator + workspace footprint for both engines;
//   2. partitioned apply at 4 ranks — per-tag halo traffic, asserting
//      the fp32 wire format moves exactly half the bytes of fp64 in the
//      same number of messages;
//   3. DBIM reconstruction at 64x64 — an unpreconditioned fixed-
//      tolerance fp64 baseline against the Krylov-acceleration stack
//      (near-field block preconditioner + Eisenstat-Walker forcing) in
//      fp64 and in mixed-precision iterative refinement
//      (forward/refined.hpp). Asserts the stack's >= 2x cut in total
//      BiCGStab iterations and that mixed is strictly faster than fp64
//      (medians of 5 alternating runs each) at equal (<= +0.001%)
//      reconstruction RMSE.
//
// Writes BENCH_mixed_precision.json (see FFW_BENCH_JSON_DIR).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "forward/backend.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "dbim/dbim.hpp"
#include "linalg/block.hpp"
#include "mlfma/partitioned.hpp"
#include "phantom/setup.hpp"

using namespace ffw;

namespace {

struct ApplyProfile {
  PhaseTimes times;            // summed over `reps` applies
  double seconds_per_apply = 0.0;
  std::uint64_t engine_bytes = 0;
  std::uint64_t shrunk_bytes = 0;  // after shrink_workspace()
};

ApplyProfile profile_apply(const QuadTree& tree, Precision precision,
                           std::size_t nrhs, ccspan x, cspan y, int reps) {
  MlfmaParams params;
  params.precision = precision;
  MlfmaEngine engine(tree, params);
  engine.apply_block(x, y, nrhs);  // warm-up grows the spectra panels
  engine.clear_phase_times();
  Timer timer;
  for (int rep = 0; rep < reps; ++rep) engine.apply_block(x, y, nrhs);
  ApplyProfile out;
  out.seconds_per_apply = timer.seconds() / reps;
  out.times = engine.phase_times();
  out.engine_bytes = engine.bytes();
  engine.shrink_workspace();
  out.shrunk_bytes = engine.bytes();
  return out;
}

struct WireProfile {
  std::uint64_t bytes = 0, messages = 0;
  int edges = 0;  // directed (src, dst) pairs that exchanged halo data
  std::map<int, TagTraffic> by_tag;
};

WireProfile profile_wire(const QuadTree& tree, Precision precision, int ranks,
                         std::size_t nrhs, ccspan x) {
  MlfmaParams params;
  params.precision = precision;
  PartitionedMlfma dist(tree, params, ranks);
  const std::size_t np = static_cast<std::size_t>(tree.pixels_per_leaf());
  VCluster vc(ranks);
  vc.run([&](Comm& comm) {
    const std::size_t b = dist.leaf_begin(comm.rank()) * np * nrhs;
    const std::size_t sz = dist.local_pixels(comm.rank()) * nrhs;
    cvec y_local(sz);
    dist.apply_block(comm, ccspan{x.data() + b, sz}, y_local, nrhs, 0,
                     ApplySchedule::kOverlapped);
  });
  const TrafficStats traffic = vc.traffic();
  WireProfile out;
  out.bytes = traffic.total_bytes();
  out.messages = traffic.total_messages();
  for (const std::uint64_t b : traffic.bytes)
    if (b > 0) ++out.edges;
  out.by_tag = vc.traffic_by_tag();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::TraceOptions trace = bench::parse_trace_flag(argc, argv);
  const int nx = argc > 1 ? std::atoi(argv[1]) : 128;
  const std::size_t nrhs = argc > 2
                               ? static_cast<std::size_t>(std::atoi(argv[2]))
                               : 8;
  bench::banner("Mixed-precision MLFMA — fp32 tables/panels/wire vs fp64",
                "precision extension of paper Sec. IV: fp32 storage and "
                "streaming with fp64 accumulation and an fp64-refined "
                "Krylov outer loop");

  bench::JsonWriter json("BENCH_mixed_precision");
  json.field("bench", "mixed_precision");
  json.field("backend", backend_name(BackendKind::kMlfma));

  // --- 1. Serial blocked apply: per-phase times and footprint.
  Grid grid(nx);
  QuadTree tree(grid);
  const BlockLayout lo{static_cast<std::size_t>(tree.pixels_per_leaf()), nrhs,
                       tree.num_leaves()};
  std::printf("apply: grid %dx%d (%zu unknowns), nrhs=%zu\n\n", nx, nx,
              grid.num_pixels(), nrhs);
  cvec x(lo.size()), y(lo.size());
  Rng rng(42);
  rng.fill_cnormal(x);
  const int reps = 5;
  const ApplyProfile f64 =
      profile_apply(tree, Precision::kDouble, nrhs, x, y, reps);
  const ApplyProfile mix =
      profile_apply(tree, Precision::kMixed, nrhs, x, y, reps);

  Table t({"phase", "fp64 [ms]", "mixed [ms]", "speedup"});
  for (std::size_t p = 0; p < static_cast<std::size_t>(MlfmaPhase::kCount);
       ++p) {
    const double a = f64.times.seconds[p] / reps;
    const double b = mix.times.seconds[p] / reps;
    char sa[32], sb[32], sc[32];
    std::snprintf(sa, sizeof sa, "%.2f", 1e3 * a);
    std::snprintf(sb, sizeof sb, "%.2f", 1e3 * b);
    std::snprintf(sc, sizeof sc, "%.2fx", b > 0 ? a / b : 0.0);
    t.add_row({phase_name(static_cast<MlfmaPhase>(p)), sa, sb, sc});
  }
  {
    char sa[32], sb[32], sc[32];
    std::snprintf(sa, sizeof sa, "%.2f", 1e3 * f64.seconds_per_apply);
    std::snprintf(sb, sizeof sb, "%.2f", 1e3 * mix.seconds_per_apply);
    std::snprintf(sc, sizeof sc, "%.2fx",
                  f64.seconds_per_apply / mix.seconds_per_apply);
    t.add_row({"total block apply", sa, sb, sc});
  }
  std::printf("%s\n", t.to_string().c_str());
  std::printf("engine bytes: fp64 %.1f MB (%.1f MB shrunk), "
              "mixed %.1f MB (%.1f MB shrunk)\n\n",
              f64.engine_bytes / 1048576.0, f64.shrunk_bytes / 1048576.0,
              mix.engine_bytes / 1048576.0, mix.shrunk_bytes / 1048576.0);

  json.begin_object("apply");
  json.field("nx", nx);
  json.field("nrhs", static_cast<std::uint64_t>(nrhs));
  json.field("reps", reps);
  json.field("fp64_block_apply_s", f64.seconds_per_apply);
  json.field("mixed_block_apply_s", mix.seconds_per_apply);
  json.field("speedup", f64.seconds_per_apply / mix.seconds_per_apply);
  json.field("fp64_engine_bytes", f64.engine_bytes);
  json.field("mixed_engine_bytes", mix.engine_bytes);
  json.field("fp64_shrunk_bytes", f64.shrunk_bytes);
  json.field("mixed_shrunk_bytes", mix.shrunk_bytes);
  json.begin_array("phases");
  for (std::size_t p = 0; p < static_cast<std::size_t>(MlfmaPhase::kCount);
       ++p) {
    json.begin_object();
    json.field("phase", phase_name(static_cast<MlfmaPhase>(p)));
    json.field("fp64_s", f64.times.seconds[p] / reps);
    json.field("mixed_s", mix.times.seconds[p] / reps);
    json.end();
  }
  json.end();
  json.end();

  // --- 2. Partitioned apply: fp32 halo wire format at 4 ranks.
  const int ranks = 4;
  const std::size_t wire_nrhs = 4;
  cvec xw(grid.num_pixels() * wire_nrhs);
  Rng rng2(7);
  rng2.fill_cnormal(xw);
  const WireProfile w64 =
      profile_wire(tree, Precision::kDouble, ranks, wire_nrhs, xw);
  const WireProfile w32 =
      profile_wire(tree, Precision::kMixed, ranks, wire_nrhs, xw);
  FFW_CHECK_MSG(w64.messages == w32.messages,
                "precision must not change the halo message pattern");
  FFW_CHECK_MSG(w64.bytes == 2 * w32.bytes,
                "fp32 wire format must move exactly half the fp64 bytes");

  std::printf("wire (%d ranks, nrhs=%zu): fp64 %llu bytes, mixed %llu bytes "
              "in %llu messages over %d edges (%.1f KB/edge -> %.1f KB/edge)\n",
              ranks, wire_nrhs, static_cast<unsigned long long>(w64.bytes),
              static_cast<unsigned long long>(w32.bytes),
              static_cast<unsigned long long>(w32.messages), w32.edges,
              w64.bytes / 1024.0 / w64.edges, w32.bytes / 1024.0 / w32.edges);
  Table wt({"tag", "fp64 bytes", "mixed bytes", "messages"});
  for (const auto& [tag, tt] : w64.by_tag) {
    const TagTraffic mt = w32.by_tag.at(tag);
    wt.add_row({std::to_string(tag), std::to_string(tt.bytes),
                std::to_string(mt.bytes), std::to_string(mt.messages)});
  }
  std::printf("%s\n", wt.to_string().c_str());

  json.begin_object("wire");
  json.field("ranks", ranks);
  json.field("nrhs", static_cast<std::uint64_t>(wire_nrhs));
  json.field("edges", w32.edges);
  json.field("fp64_bytes", w64.bytes);
  json.field("mixed_bytes", w32.bytes);
  json.field("messages", w32.messages);
  json.field("fp64_bytes_per_edge",
             static_cast<double>(w64.bytes) / w64.edges);
  json.field("mixed_bytes_per_edge",
             static_cast<double>(w32.bytes) / w32.edges);
  json.begin_array("tags");
  for (const auto& [tag, tt] : w64.by_tag) {
    const TagTraffic mt = w32.by_tag.at(tag);
    json.begin_object();
    json.field("tag", tag);
    json.field("fp64_bytes", tt.bytes);
    json.field("mixed_bytes", mt.bytes);
    json.field("messages", mt.messages);
    json.end();
  }
  json.end();
  json.end();

  // --- 3. DBIM reconstruction: unpreconditioned fixed-tolerance fp64
  // baseline vs the full Krylov-acceleration stack (near-field block
  // preconditioner + Eisenstat-Walker forcing) in fp64 and in mixed
  // precision. Two acceptance gates live here:
  //   * the accelerated fp64 run must spend <= half the baseline's total
  //     BiCGStab iterations at the same base tolerance;
  //   * the mixed accelerated runs must be strictly faster than the fp64
  //     accelerated runs in the median at equal RMSE (<= +0.001%
  //     relative).
  ScenarioConfig cfg;
  cfg.nx = 128;
  cfg.num_transmitters = 16;
  cfg.num_receivers = 32;
  cfg.forward.tol = 1e-6;  // base (and baseline's fixed) Krylov tolerance
  Scenario scene(cfg, shepp_logan(Grid(cfg.nx), 0.02));
  std::printf("dbim: grid %dx%d, %d Tx, %d Rx, Shepp-Logan 0.02, "
              "base tol %.0e\n",
              cfg.nx, cfg.nx, cfg.num_transmitters, cfg.num_receivers,
              cfg.forward.tol);

  MlfmaParams mixed_params = cfg.mlfma;
  mixed_params.precision = Precision::kMixed;
  MlfmaEngine mixed_engine(scene.tree(), mixed_params);

  struct DbimRun {
    DbimResult res;
    double seconds = 0.0;
    double rmse = 0.0;
  };
  const auto run_dbim = [&](const DbimOptions& o) {
    DbimRun out;
    Timer t;
    out.res = dbim_reconstruct(scene.engine(), scene.transceivers(),
                               scene.measurements(), o, cfg.forward);
    out.seconds = t.seconds();
    out.rmse = image_rmse(out.res.contrast, scene.true_contrast());
    return out;
  };

  DbimOptions plain_opts;
  plain_opts.max_iterations = 10;
  DbimOptions accel_opts = plain_opts;
  accel_opts.near_precondition = true;
  accel_opts.adaptive_forcing = true;
  DbimOptions mixed_opts = accel_opts;
  mixed_opts.mixed_engine = &mixed_engine;

  const DbimRun plain = run_dbim(plain_opts);
  // Single accelerated and mixed runs lie about 1.06x apart, within the
  // host's run-to-run spread, so the time gate compares the medians of
  // kTimedPairs runs each, alternating which side runs first. The runs
  // are deterministic: every one has the same iterates and RMSE.
  constexpr int kTimedPairs = 5;
  DbimRun accel, mixed;
  std::vector<double> accel_times, mixed_times;
  std::printf("timed runs (fp64 accelerated / mixed accelerated):\n");
  for (int pair = 0; pair < kTimedPairs; ++pair) {
    for (int k = 0; k < 2; ++k) {
      const bool is_mixed = (k == 0) == (pair % 2 == 1);
      DbimRun r = run_dbim(is_mixed ? mixed_opts : accel_opts);
      std::printf("  pair %d %-16s %.3f s\n", pair + 1,
                  is_mixed ? "mixed" : "fp64 accelerated", r.seconds);
      (is_mixed ? mixed_times : accel_times).push_back(r.seconds);
      (is_mixed ? mixed : accel) = std::move(r);
    }
  }
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  accel.seconds = median(accel_times);
  mixed.seconds = median(mixed_times);

  const double iter_cut =
      static_cast<double>(plain.res.history.bicgstab_iterations) /
      static_cast<double>(accel.res.history.bicgstab_iterations);
  const double rmse_rel_diff =
      accel.rmse > 0 ? (mixed.rmse - accel.rmse) / accel.rmse : 0.0;

  Table dt({"run", "BiCGS iters", "precond setup [ms]", "RMSE vs truth",
            "residual [%]", "time [s] (median)"});
  const auto dbim_row = [&](const char* name, const DbimRun& r) {
    char si[32], sp[32], sr[32], se[32], st[32];
    std::snprintf(si, sizeof si, "%llu",
                  static_cast<unsigned long long>(
                      r.res.history.bicgstab_iterations));
    std::snprintf(sp, sizeof sp, "%.1f",
                  1e3 * r.res.history.precond_setup_seconds);
    std::snprintf(sr, sizeof sr, "%.6f", r.rmse);
    std::snprintf(se, sizeof se, "%.4f",
                  100.0 * r.res.history.relative_residual.back());
    std::snprintf(st, sizeof st, "%.2f", r.seconds);
    dt.add_row({name, si, sp, sr, se, st});
  };
  dbim_row("fp64 plain (baseline)", plain);
  dbim_row("fp64 accelerated", accel);
  dbim_row("mixed accelerated", mixed);
  std::printf("%s\n", dt.to_string().c_str());
  std::printf("  BiCGStab iteration cut (plain / accelerated): %.2fx "
              "(must be >= 2x)\n",
              iter_cut);
  std::printf("  mixed vs fp64 accelerated: %.2fx median time, RMSE %+.6f%% "
              "(must be <= +0.001%%)\n\n",
              accel.seconds / mixed.seconds, 100.0 * rmse_rel_diff);
  // A failed gate aborts: print the tables first even when stdout is a
  // pipe.
  std::fflush(stdout);

  FFW_CHECK_MSG(iter_cut >= 2.0,
                "acceleration stack cut BiCGStab iterations by < 2x");
  FFW_CHECK_MSG(mixed.seconds < accel.seconds,
                "mixed-precision accelerated DBIM not faster than fp64 "
                "in the median");
  FFW_CHECK_MSG(rmse_rel_diff <= 1e-5,
                "mixed-precision DBIM reconstruction drifted > 0.001% "
                "above the fp64 RMSE");

  json.begin_object("dbim");
  json.field("nx", cfg.nx);
  json.field("transmitters", cfg.num_transmitters);
  json.field("receivers", cfg.num_receivers);
  json.field("iterations", plain_opts.max_iterations);
  json.field("base_tol", cfg.forward.tol);
  json.begin_array("runs");
  const auto dbim_json = [&](const char* name, const DbimRun& r) {
    json.begin_object();
    json.field("run", name);
    json.field("seconds", r.seconds);
    json.field("rmse", r.rmse);
    json.field("final_residual", r.res.history.relative_residual.back());
    json.field("bicgstab_total_iters", r.res.history.bicgstab_iterations);
    json.field("precond_setup_s", r.res.history.precond_setup_seconds);
    json.field("forward_solves", r.res.history.forward_solves);
    json.field("operator_applications", r.res.history.operator_applications);
    json.end();
  };
  dbim_json("fp64_plain", plain);
  dbim_json("fp64_accel", accel);
  dbim_json("mixed_accel", mixed);
  json.end();
  json.field("iter_cut_vs_baseline", iter_cut);
  json.field("mixed_speedup_vs_fp64_accel", accel.seconds / mixed.seconds);
  json.field("mixed_rmse_rel_diff", rmse_rel_diff);
  json.end();
  json.close();

  bench::write_trace(trace);

  bench::note("the mixed engine halves every operator-table, spectra-panel "
              "and halo-wire byte; with fp64 kept only at the dense "
              "expansion boundaries and in the refined Krylov outer loop, "
              "the reconstruction is indistinguishable from pure fp64 — "
              "and the acceleration stack (self-block preconditioner, "
              "adaptive forcing) halves the Krylov work on top.");
  return 0;
}
