// Receiver projection cost: the dense G_R panel GEMM against the MLFMA
// upward pass that an O(N + R sqrt(N)) top-level receiver evaluation
// (paper Sec. III-C) would have to run for every column.
//
// For each grid size, with R = 32 receivers, reports the per-column
// time of
//   - the dense projection of one column (Transceivers::apply_gr, nrhs 1);
//   - the dense projection of a 16-column panel, divided by 16 (what
//     every DBIM pass runs);
//   - a single-column MLFMA apply, and its upward pass (leaf expansion +
//     aggregation), the part a top-level receiver evaluation repeats.
// Medians of several repetitions on all threads.
//
//   ./bench_receiver_projection [max_nx]   (default 512)
//
// Writes bench_receiver_projection.json (see FFW_BENCH_JSON_DIR).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "greens/transceivers.hpp"
#include "mlfma/engine.hpp"
#include "parallel/parallel_for.hpp"

using namespace ffw;

namespace {

constexpr std::size_t kReceivers = 32;
constexpr std::size_t kPanel = 16;
constexpr int kReps = 7;

template <typename F>
double median_seconds(F&& fn) {
  fn();  // warm-up
  std::vector<double> t;
  for (int k = 0; k < kReps; ++k) {
    const Timer timer;
    fn();
    t.push_back(timer.seconds());
  }
  std::sort(t.begin(), t.end());
  return t[t.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  const int max_nx = argc > 1 ? std::atoi(argv[1]) : 512;
  bench::banner("Receiver projection — dense G_R panel vs MLFMA upward pass",
                "paper Sec. III-C (no step above O(N)), Fig. 4 projections");
  bench::JsonWriter json("bench_receiver_projection");
  json.field("receivers", static_cast<int>(kReceivers));
  json.field("panel_columns", static_cast<int>(kPanel));
  json.field("threads", num_threads() > 0 ? num_threads() : hardware_threads());
  json.begin_array("sizes");
  Table table({"N", "dense 1 col", "dense panel / col", "MLFMA apply",
               "upward pass", "G_R MB"});
  for (int nx = 128; nx <= max_nx; nx *= 2) {
    const Grid grid(nx);
    const QuadTree tree(grid);
    MlfmaEngine engine(tree);
    const Transceivers trx(
        grid, ring_positions(1, grid.domain()),
        ring_positions(static_cast<int>(kReceivers), grid.domain()));
    const std::size_t n = grid.num_pixels();
    Rng rng(static_cast<std::uint64_t>(nx));
    cvec x(n * kPanel), xc(n), yc(n), y(kReceivers * kPanel);
    rng.fill_cnormal(x);
    tree.to_cluster_order(ccspan{x.data(), n}, xc);

    const cspan y1{y.data(), kReceivers};
    const double one =
        median_seconds([&] { trx.apply_gr(ccspan{x.data(), n}, y1); });
    const double panel =
        median_seconds([&] { trx.apply_gr(x, y, kPanel); }) / kPanel;
    PhaseTimes phases;
    const double apply = median_seconds([&] {
      engine.clear_phase_times();
      engine.apply(xc, yc);
      phases = engine.phase_times();
    });
    const double upward =
        phases.seconds[static_cast<std::size_t>(MlfmaPhase::kExpansion)] +
        phases.seconds[static_cast<std::size_t>(MlfmaPhase::kAggregation)];
    const double gr_mb = static_cast<double>(trx.gr().bytes()) / 1e6;
    table.add_row({std::to_string(nx) + "^2", fmt_fixed(one * 1e3, 3) + " ms",
                   fmt_fixed(panel * 1e3, 3) + " ms",
                   fmt_fixed(apply * 1e3, 2) + " ms",
                   fmt_fixed(upward * 1e3, 2) + " ms", fmt_fixed(gr_mb, 1)});
    json.begin_object();
    json.field("nx", nx);
    json.field("dense_one_column_s", one);
    json.field("dense_panel_per_column_s", panel);
    json.field("mlfma_apply_s", apply);
    json.field("upward_pass_s", upward);
    json.field("gr_bytes", static_cast<double>(trx.gr().bytes()));
    json.end();
  }
  json.end();
  std::printf("%s\n", table.to_string().c_str());
  return 0;
}
