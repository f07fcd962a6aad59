// Multi-RHS (blocked) MLFMA apply throughput: per-RHS time of
// apply_block over nrhs in {1, 2, 4, 8, 16, 32} on a fixed tree, for
// both the fp64 reference engine and the Precision::kMixed engine
// (fp32 tables and spectra panels, fp64 accumulation at the dense
// expansion boundaries).
//
// The blocked apply streams each translation diagonal, interpolation
// stencil, shift vector and near-field block once for all columns, so
// per-RHS time should drop well below the nrhs=1 baseline as the width
// grows (the operator tables stop dominating the memory traffic). The
// mixed engine then halves the bytes behind every one of those streams,
// which compounds with the blocking.
// Per width it also prints the six phase_times() phases in ms per apply
// (each the best over the timed applies), for fp64 and mixed, so a
// per-phase change shows without a traced run.
// Writes bench_block_apply.json (see FFW_BENCH_JSON_DIR) with the raw
// numbers for regression tracking.
#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "forward/backend.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "linalg/block.hpp"
#include "mlfma/engine.hpp"

using namespace ffw;

namespace {

constexpr std::size_t kPhases = static_cast<std::size_t>(MlfmaPhase::kCount);

struct SweepResult {
  std::vector<double> total_s;    // blocked apply time per width
  std::vector<double> per_rhs_s;  // total_s / nrhs
  // Per width, the phase_times() phases in seconds per apply (best of
  // the timed applies, phase by phase).
  std::vector<std::array<double, kPhases>> phase_s;
  std::uint64_t engine_bytes = 0;
};

SweepResult sweep(const QuadTree& tree, Precision precision,
                  const std::vector<std::size_t>& widths, ccspan x, cspan y) {
  MlfmaParams params;
  params.precision = precision;
  MlfmaEngine engine(tree, params);
  SweepResult out;
  for (const std::size_t w : widths) {
    const BlockLayout lo{static_cast<std::size_t>(tree.pixels_per_leaf()), w,
                         tree.num_leaves()};
    // Warm-up: first call at each width grows the spectra panels.
    engine.apply_block(ccspan{x.data(), lo.size()},
                       cspan{y.data(), lo.size()}, w);
    // Best-of-N: the min is the schedule-noise-free estimate, and N
    // keeps total work ~comparable at every width.
    const int reps = std::max(6, static_cast<int>(64 / w));
    double total = 1e30;
    std::array<double, kPhases> phases;
    phases.fill(1e30);
    for (int rep = 0; rep < reps; ++rep) {
      engine.clear_phase_times();
      Timer timer;
      engine.apply_block(ccspan{x.data(), lo.size()},
                         cspan{y.data(), lo.size()}, w);
      total = std::min(total, timer.seconds());
      for (std::size_t p = 0; p < kPhases; ++p)
        phases[p] = std::min(phases[p], engine.phase_times().seconds[p]);
    }
    out.phase_s.push_back(phases);
    out.total_s.push_back(total);
    out.per_rhs_s.push_back(total / static_cast<double>(w));
  }
  out.engine_bytes = engine.bytes();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::TraceOptions trace = bench::parse_trace_flag(argc, argv);
  const int nx = argc > 1 ? std::atoi(argv[1]) : 256;
  bench::banner("Blocked MLFMA apply — per-RHS speedup vs block width",
                "multi-RHS extension of paper Sec. IV (one inverse "
                "iteration solves every illumination), plus the "
                "fp32-table mixed-precision engine");

  Grid grid(nx);
  QuadTree tree(grid);
  const std::size_t n = grid.num_pixels();
  std::printf("grid %dx%d (%zu unknowns), %d far-field levels\n\n", nx, nx,
              n, tree.num_levels());

  const std::vector<std::size_t> widths = {1, 2, 4, 8, 16, 32};
  const std::size_t max_w = widths.back();
  const BlockLayout lo_max{static_cast<std::size_t>(tree.pixels_per_leaf()),
                           max_w, tree.num_leaves()};
  cvec x(lo_max.size()), y(lo_max.size());
  Rng rng(42);
  rng.fill_cnormal(x);

  const SweepResult f64 = sweep(tree, Precision::kDouble, widths, x, y);
  const SweepResult mix = sweep(tree, Precision::kMixed, widths, x, y);

  Table t({"nrhs", "fp64/RHS [ms]", "mixed/RHS [ms]", "mixed speedup",
           "vs fp64 nrhs=1"});
  for (std::size_t i = 0; i < widths.size(); ++i) {
    char a[32], b[32], c[32], d[32];
    std::snprintf(a, sizeof a, "%.2f", 1e3 * f64.per_rhs_s[i]);
    std::snprintf(b, sizeof b, "%.2f", 1e3 * mix.per_rhs_s[i]);
    std::snprintf(c, sizeof c, "%.2fx", f64.per_rhs_s[i] / mix.per_rhs_s[i]);
    std::snprintf(d, sizeof d, "%.2fx", f64.per_rhs_s[0] / mix.per_rhs_s[i]);
    t.add_row({std::to_string(widths[i]), a, b, c, d});
  }
  std::printf("%s\n", t.to_string().c_str());
  for (const auto& [name, r] :
       {std::pair{"fp64", &f64}, std::pair{"mixed", &mix}}) {
    std::vector<std::string> head{"nrhs"};
    for (std::size_t p = 0; p < kPhases; ++p)
      head.push_back(phase_name(static_cast<MlfmaPhase>(p)));
    Table pt(head);
    for (std::size_t i = 0; i < widths.size(); ++i) {
      std::vector<std::string> row{std::to_string(widths[i])};
      for (std::size_t p = 0; p < kPhases; ++p) {
        char v[32];
        std::snprintf(v, sizeof v, "%.3f", 1e3 * r->phase_s[i][p]);
        row.push_back(v);
      }
      pt.add_row(row);
    }
    std::printf("%s phases [ms per apply]\n%s\n", name,
                pt.to_string().c_str());
  }
  std::printf("engine footprint: fp64 %.1f MB, mixed %.1f MB\n\n",
              static_cast<double>(f64.engine_bytes) / 1048576.0,
              static_cast<double>(mix.engine_bytes) / 1048576.0);

  bench::JsonWriter json("bench_block_apply");
  json.field("bench", "block_apply");
  json.field("backend", backend_name(BackendKind::kMlfma));
  json.field("nx", nx);
  json.field("unknowns", static_cast<std::uint64_t>(n));
  json.field("engine_bytes_fp64", f64.engine_bytes);
  json.field("engine_bytes_mixed", mix.engine_bytes);
  json.begin_array("rows");
  for (std::size_t i = 0; i < widths.size(); ++i) {
    json.begin_object();
    json.field("nrhs", static_cast<std::uint64_t>(widths[i]));
    json.field("block_apply_s", f64.total_s[i]);
    json.field("per_rhs_s", f64.per_rhs_s[i]);
    json.field("speedup", f64.per_rhs_s[0] / f64.per_rhs_s[i]);
    json.field("mixed_block_apply_s", mix.total_s[i]);
    json.field("mixed_per_rhs_s", mix.per_rhs_s[i]);
    json.field("mixed_speedup", f64.per_rhs_s[i] / mix.per_rhs_s[i]);
    for (const auto& [prefix, r] :
         {std::pair{"", &f64}, std::pair{"mixed_", &mix}}) {
      json.begin_object(std::string(prefix) + "phase_ms");
      for (std::size_t p = 0; p < kPhases; ++p)
        json.field(phase_name(static_cast<MlfmaPhase>(p)),
                   1e3 * r->phase_s[i][p]);
      json.end();
    }
    json.end();
  }
  json.end();
  json.close();

  bench::write_trace(trace);

  bench::note("per-RHS speedup at nrhs>=8 should exceed 1.5x for the "
              "blocked fp64 apply vs nrhs=1, and the mixed engine should "
              "add a further table-bandwidth factor on top: the "
              "translation/interpolation tables are loaded once per "
              "cluster instead of once per illumination, at half the "
              "bytes per entry.");
  return 0;
}
