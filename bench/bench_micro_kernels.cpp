// google-benchmark microbenchmarks of the kernels behind Table I: the
// batched dense expansions, the band-diagonal interpolation (one column,
// and the engines' band-tile aggregation pass), the diagonal
// translations, the 9-type near-field pass and the near-field
// preconditioner's setup, the FFT backend's padded-FFT operator apply —
// plus the full MLFMA apply and one forward solve.
#include <benchmark/benchmark.h>

#include <cmath>

#include "common/rng.hpp"
#include "fft/fft.hpp"
#include "fft/fft2.hpp"
#include "forward/cbs.hpp"
#include "forward/forward.hpp"
#include "forward/precond.hpp"
#include "greens/nearfield.hpp"
#include "linalg/gemm.hpp"
#include "mlfma/engine.hpp"
#include "mlfma/farfield.hpp"
#include "parallel/parallel_for.hpp"
#include "phantom/phantom.hpp"

using namespace ffw;

namespace {

struct Fixture {
  Grid grid;
  QuadTree tree;
  MlfmaEngine engine;
  explicit Fixture(int nx) : grid(nx), tree(grid), engine(tree) {}
};

Fixture& fixture128() {
  static Fixture f(128);
  return f;
}

}  // namespace

static void BM_MlfmaApply(benchmark::State& state) {
  Fixture f(static_cast<int>(state.range(0)));
  const std::size_t n = f.grid.num_pixels();
  Rng rng(1);
  cvec x(n), y(n);
  rng.fill_cnormal(x);
  for (auto _ : state) {
    f.engine.apply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_MlfmaApply)->Arg(64)->Arg(128)->Arg(256)->Complexity();

static void BM_ExpansionGemm(benchmark::State& state) {
  Fixture& f = fixture128();
  const auto& e = f.engine.operators().expansion();
  const std::size_t nleaf = f.tree.num_leaves();
  CMatrix x(static_cast<std::size_t>(f.tree.pixels_per_leaf()), nleaf),
      s(e.rows(), nleaf);
  Rng rng(2);
  rng.fill_cnormal(cspan{x.data(), x.size()});
  for (auto _ : state) {
    gemm(cplx{1.0}, e, x, cplx{0.0}, s);
    benchmark::DoNotOptimize(s.data());
  }
}
BENCHMARK(BM_ExpansionGemm);

static void BM_Interpolation(benchmark::State& state) {
  Fixture& f = fixture128();
  const auto& w = f.engine.operators().level(0).interp;
  cvec x(w.cols()), y(w.rows());
  Rng rng(3);
  rng.fill_cnormal(x);
  for (auto _ : state) {
    w.apply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Interpolation);

static void BM_TranslationDiag(benchmark::State& state) {
  Fixture& f = fixture128();
  const auto& trans = f.engine.operators().level(0).translations[0];
  cvec s(trans.size()), g(trans.size(), cplx{});
  Rng rng(4);
  rng.fill_cnormal(s);
  for (auto _ : state) {
    for (std::size_t i = 0; i < trans.size(); ++i) g[i] += trans[i] * s[i];
    benchmark::DoNotOptimize(g.data());
  }
}
BENCHMARK(BM_TranslationDiag);

// The engines' near pass: NearFieldOperators::apply_box on the whole
// grid (leaf-row transforms, row-operators and row products), on nrhs
// columns, at 1 thread or at all (threads = 0). GFLOP/s counts the MACs
// the routine performs (8 flops each: both transforms, the
// row-operators as 9 np^2 per frequency, the products); direct-eq GFLOP/s
// counts the direct nine-type sum's MACs per second instead (one np^2
// product per near-list entry), the rate the per-leaf sum had to reach
// for the same time.
static void BM_NearFieldPass(benchmark::State& state) {
  Fixture f(static_cast<int>(state.range(0)));
  const std::size_t nrhs = static_cast<std::size_t>(state.range(1));
  const NearFieldOperators& near = f.engine.nearfield();
  const std::size_t np = static_cast<std::size_t>(f.tree.pixels_per_leaf());
  const LeafBox box = leaf_box(0, f.tree.num_leaves());
  Rng rng(5);
  cvec x(f.grid.num_pixels() * nrhs), y(x.size(), cplx{});
  rng.fill_cnormal(x);
  set_num_threads(static_cast<int>(state.range(2)));
  for (auto _ : state) {
    near.apply_box<double>(box, x.data(), y.data(), nrhs);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  set_num_threads(0);
  const double w = static_cast<double>(box.width),
               h = static_cast<double>(box.height), m = w + 1,
               n2 = static_cast<double>(np * np),
               len = static_cast<double>(np * nrhs);
  const double macs = 2 * h * w * m * len + 9 * m * n2 +
                      m * (3 * h - 2) * n2 * static_cast<double>(nrhs);
  const double direct = static_cast<double>(f.tree.near().size()) * n2 *
                        static_cast<double>(nrhs);
  state.counters["GFLOP/s"] = benchmark::Counter(
      8.0 * macs * 1e-9, benchmark::Counter::kIsIterationInvariantRate);
  state.counters["direct-eq GFLOP/s"] = benchmark::Counter(
      8.0 * direct * 1e-9, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_NearFieldPass)
    ->ArgNames({"nx", "nrhs", "threads"})
    ->Args({128, 16, 1})
    ->Args({128, 16, 0})
    ->Args({64, 4, 1})
    ->Args({64, 4, 0})
    ->Args({32, 4, 1})
    ->Args({32, 4, 0})
    ->UseRealTime();

// The near-field preconditioner's setup: every leaf's M_c = I - A_self
// diag(O_c) formed and inverted in place (blocked Gauss-Jordan on the
// gemm_sum_t tile), at 1 thread or at all (threads = 0). GFLOP/s counts
// np^3 complex MACs per leaf (8 flops each), comparable with
// BM_NearFieldPass above.
static void BM_PrecondRebuild(benchmark::State& state) {
  Fixture f(static_cast<int>(state.range(0)));
  const CMatrix& self = f.engine.nearfield().type(4);
  const std::size_t np = self.rows();
  const std::size_t leaves = f.tree.num_leaves();
  cvec o(leaves * np);
  Rng rng(8);
  rng.fill_cnormal(o);
  for (cplx& v : o) v *= 0.05;
  set_num_threads(static_cast<int>(state.range(1)));
  NearFieldBlockJacobi p(self, o);
  for (auto _ : state) {
    p.rebuild(self, o);
    benchmark::DoNotOptimize(p.inverse(0).data());
    benchmark::ClobberMemory();
  }
  set_num_threads(0);
  const double n = static_cast<double>(np);
  state.counters["leaves/s"] = benchmark::Counter(
      static_cast<double>(leaves), benchmark::Counter::kIsIterationInvariantRate);
  state.counters["GFLOP/s"] = benchmark::Counter(
      8.0 * n * n * n * static_cast<double>(leaves) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_PrecondRebuild)
    ->ArgNames({"nx", "threads"})
    ->Args({128, 1})
    ->Args({128, 0})
    ->UseRealTime();

// The engines' aggregation kernel: every level-0 -> level-1 parent of
// the tree, four children each through the band tiles (interpolation
// fused with the child -> parent shift), on nrhs columns, at 1 thread or
// at all (threads = 0). GFLOP/s counts the band's nonzeros (4 flops
// each per column) plus the shift (6 per parent row per column), not
// the zero padding the tiles also multiply.
static void BM_BandTilePass(benchmark::State& state) {
  Fixture f(static_cast<int>(state.range(0)));
  const std::size_t nrhs = static_cast<std::size_t>(state.range(1));
  const LevelOperators& level = f.engine.operators().level(0);
  const std::size_t qc = static_cast<std::size_t>(level.samples);
  const std::size_t qp = level.interp.rows();
  const std::size_t nparents = f.tree.level(1).num_clusters;
  Rng rng(6);
  cvec children(4 * nparents * qc * nrhs), parents(nparents * qp * nrhs);
  rng.fill_cnormal(children);
  set_num_threads(static_cast<int>(state.range(2)));
  for (auto _ : state) {
    parallel_for(0, nparents, [&](std::size_t p) {
      aggregate_parent<double>(level, nrhs,
                               children.data() + 4 * p * qc * nrhs,
                               parents.data() + p * qp * nrhs);
    });
    benchmark::DoNotOptimize(parents.data());
    benchmark::ClobberMemory();
  }
  set_num_threads(0);
  const double flops = 4.0 * static_cast<double>(nparents * nrhs) *
                       static_cast<double>(qp) *
                       (4.0 * static_cast<double>(level.interp.width()) + 6.0);
  state.counters["GFLOP/s"] = benchmark::Counter(
      flops * 1e-9, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_BandTilePass)
    ->ArgNames({"nx", "nrhs", "threads"})
    ->Args({128, 16, 1})
    ->Args({128, 16, 0})
    ->UseRealTime();

// The 1-D FFT through the shared plan cache (what fft()/ifft() do now)
// against a fresh plan per call (what they used to do: twiddle tables or
// the Bluestein chirp recomputed every time). Arg 96 exercises the
// Bluestein path, where the setup dwarfs the transform itself.
static void BM_FftPlanCached(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  cvec x(n);
  rng.fill_cnormal(x);
  (void)fft_plan(n);  // warm the cache: steady-state hit cost
  for (auto _ : state) {
    fft_plan(n)->forward(x);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_FftPlanCached)->Arg(128)->Arg(96)->Arg(254);

static void BM_FftPlanPerCall(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(8);
  cvec x(n);
  rng.fill_cnormal(x);
  for (auto _ : state) {
    Fft1Plan<double> plan(n);
    plan.forward(x);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_FftPlanPerCall)->Arg(128)->Arg(96)->Arg(254);

// One padded-FFT operator apply of the FFT backend, y = [I - G0 O] x
// over a 16-column panel (one Fft2Plan::convolve per column: pack and
// row forwards, the column sweeps with the symbol product, row inverses
// and crop), at 1 thread or at all (threads = 0). nx = 100 pads to the
// same P = 256 as nx = 128 and times the zero-fill of [nx, P/2).
// "time/col" is the time per column; GFLOP/s is an equivalent rate that
// counts two full P x P transforms per column (2 * 5 P^2 log2 P^2 flops)
// whatever the pruning saves, so that later kernels compare.
static void BM_CbsApply(benchmark::State& state) {
  const Grid grid(static_cast<int>(state.range(0)));
  const std::size_t nrhs = static_cast<std::size_t>(state.range(1));
  CbsEngine cbs(grid);
  cbs.set_contrast(contrast_from_permittivity(
      grid, gaussian_blob(grid, Vec2{0.0, 0.0}, 2.0, cplx{0.05, 0.0})));
  const std::size_t n = grid.num_pixels();
  Rng rng(10);
  cvec x(n * nrhs), y(n * nrhs);
  rng.fill_cnormal(x);
  set_num_threads(static_cast<int>(state.range(2)));
  for (auto _ : state) {
    cbs.apply_system_panel(x, y, nrhs);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  set_num_threads(0);
  const double p2 = static_cast<double>(cbs.padded() * cbs.padded());
  const double cols = static_cast<double>(nrhs);
  state.counters["time/col"] = benchmark::Counter(
      cols, benchmark::Counter::kIsIterationInvariantRate |
                benchmark::Counter::kInvert);
  state.counters["GFLOP/s"] = benchmark::Counter(
      cols * 2.0 * 5.0 * p2 * std::log2(p2) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_CbsApply)
    ->ArgNames({"nx", "nrhs", "threads"})
    ->Args({64, 16, 1})
    ->Args({64, 16, 0})
    ->Args({100, 16, 1})
    ->Args({100, 16, 0})
    ->Args({128, 16, 1})
    ->Args({128, 16, 0})
    ->Args({256, 16, 1})
    ->Args({256, 16, 0})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

static void BM_ForwardSolve(benchmark::State& state) {
  Fixture& f = fixture128();
  ForwardSolver fs(f.engine);
  const cvec deps =
      gaussian_blob(f.grid, Vec2{0.0, 0.0}, 2.0, cplx{0.01, 0.0});
  fs.set_contrast(contrast_from_permittivity(f.grid, deps));
  const std::size_t n = f.grid.num_pixels();
  Rng rng(6);
  cvec rhs(n), phi(n);
  rng.fill_cnormal(rhs);
  for (auto _ : state) {
    std::fill(phi.begin(), phi.end(), cplx{});
    const BlockBicgstabResult res = fs.solve_block(rhs, phi, 1);
    benchmark::DoNotOptimize(res.iterations);
  }
}
BENCHMARK(BM_ForwardSolve)->Unit(benchmark::kMillisecond);
