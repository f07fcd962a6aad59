// Mixed-precision (Precision::kMixed) MLFMA: fp32 operator tables,
// spectra panels and halo wire format must reproduce the fp64 engine to
// the fp32 error budget (~3e-6 relative L2 — table rounding plus fp32
// streaming accumulation), halve the operator footprint and the on-wire
// halo bytes, and reach fp64-level solver tolerances through the
// iterative-refinement outer loop.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>

#include "common/rng.hpp"
#include "forward/forward.hpp"
#include "linalg/block.hpp"
#include "linalg/kernels.hpp"
#include "mlfma/engine.hpp"
#include "mlfma/partitioned.hpp"
#include "obs/obs.hpp"

namespace ffw {
namespace {

// Tags used by PartitionedMlfma (mirrored so the wire-format test can
// assert per-tag traffic): near-field halo = 1, level-l halo = 10 + l.
constexpr int kTagNear = 1;
constexpr int kTagLevel = 10;

// Relative L2 budget of the fp32 path: ~6e-8 per rounded table entry
// plus fp32 accumulation over the streamed phases (see DESIGN.md
// Sec. 10).
constexpr double kMixedTol = 3e-6;

MlfmaEngine make_engine(const QuadTree& tree, Precision p) {
  MlfmaParams params;
  params.precision = p;
  return MlfmaEngine(tree, params);
}

/// Precision::kMixed tables of `tree`: the fp32 inner operator of a
/// refining ForwardSolver.
std::shared_ptr<const OperatorTables> fp32_tables(const QuadTree& tree) {
  MlfmaParams params;
  params.precision = Precision::kMixed;
  return std::make_shared<const OperatorTables>(tree, params);
}

double rel_l2(ccspan got, ccspan want) {
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    num += std::norm(got[i] - want[i]);
    den += std::norm(want[i]);
  }
  return std::sqrt(num / den);
}

class MixedApplySweep : public ::testing::TestWithParam<int> {};

TEST_P(MixedApplySweep, SingleApplyMatchesFp64WithinBudget) {
  const int nx = GetParam();
  Grid grid(nx);
  QuadTree tree(grid);
  MlfmaEngine f64 = make_engine(tree, Precision::kDouble);
  MlfmaEngine mix = make_engine(tree, Precision::kMixed);
  EXPECT_EQ(mix.precision(), Precision::kMixed);

  const std::size_t n = grid.num_pixels();
  Rng rng(static_cast<std::uint64_t>(nx));
  cvec x(n), want(n), got(n);
  rng.fill_cnormal(x);
  f64.apply(x, want);
  mix.apply(x, got);
  EXPECT_LT(rel_l2(got, want), kMixedTol) << "nx=" << nx;
}

TEST_P(MixedApplySweep, BlockApplyMatchesFp64PerColumn) {
  const int nx = GetParam();
  Grid grid(nx);
  QuadTree tree(grid);
  MlfmaEngine f64 = make_engine(tree, Precision::kDouble);
  MlfmaEngine mix = make_engine(tree, Precision::kMixed);

  const std::size_t nrhs = 5;
  const BlockLayout lo{static_cast<std::size_t>(tree.pixels_per_leaf()), nrhs,
                       tree.num_leaves()};
  Rng rng(static_cast<std::uint64_t>(10 * nx));
  cvec x(lo.size()), want(lo.size()), got(lo.size());
  rng.fill_cnormal(x);
  f64.apply_block(x, want, nrhs);
  mix.apply_block(x, got, nrhs);

  const std::size_t n = grid.num_pixels();
  cvec wc(n), gc(n);
  for (std::size_t r = 0; r < nrhs; ++r) {
    block_col_get(lo, want, r, wc);
    block_col_get(lo, got, r, gc);
    EXPECT_LT(rel_l2(gc, wc), kMixedTol) << "nx=" << nx << " col=" << r;
  }
}

TEST_P(MixedApplySweep, HermBlockApplyMatchesFp64) {
  const int nx = GetParam();
  Grid grid(nx);
  QuadTree tree(grid);
  MlfmaEngine f64 = make_engine(tree, Precision::kDouble);
  MlfmaEngine mix = make_engine(tree, Precision::kMixed);

  const std::size_t nrhs = 3;
  const BlockLayout lo{static_cast<std::size_t>(tree.pixels_per_leaf()), nrhs,
                       tree.num_leaves()};
  Rng rng(static_cast<std::uint64_t>(20 * nx));
  cvec x(lo.size()), want(lo.size()), got(lo.size());
  rng.fill_cnormal(x);
  f64.apply_herm_block(x, want, nrhs);
  mix.apply_herm_block(x, got, nrhs);
  EXPECT_LT(rel_l2(got, want), kMixedTol) << "nx=" << nx;
}

INSTANTIATE_TEST_SUITE_P(Trees, MixedApplySweep, ::testing::Values(64, 128));

TEST(MixedPrecision, TablesHalveOperatorFootprint) {
  Grid grid(128);
  QuadTree tree(grid);
  MlfmaEngine f64 = make_engine(tree, Precision::kDouble);
  MlfmaEngine mix = make_engine(tree, Precision::kMixed);

  // Tables are built in fp64, rounded once, and the fp64 copies dropped:
  // the table footprint must land at half (small slack for the
  // band-start index arrays, which stay integer-width).
  const std::size_t ops64 = f64.operators().bytes();
  const std::size_t ops32 = mix.operators().bytes();
  EXPECT_LT(ops32, (55 * ops64) / 100);
  EXPECT_GT(ops32, (40 * ops64) / 100);

  const std::size_t near64 = f64.nearfield().bytes();
  const std::size_t near32 = mix.nearfield().bytes();
  EXPECT_EQ(near32, near64 / 2);
}

TEST(MixedPrecision, ShrinkWorkspaceReleasesPanelsAndStaysCorrect) {
  Grid grid(64);
  QuadTree tree(grid);
  MlfmaEngine engine = make_engine(tree, Precision::kMixed);
  const std::size_t n = grid.num_pixels();
  const std::size_t nrhs = 16;
  const BlockLayout lo{static_cast<std::size_t>(tree.pixels_per_leaf()), nrhs,
                       tree.num_leaves()};
  Rng rng(5);
  cvec xb(lo.size()), yb(lo.size());
  rng.fill_cnormal(xb);
  engine.apply_block(xb, yb, nrhs);
  const std::size_t wide = engine.bytes();
  engine.shrink_workspace();
  EXPECT_LT(engine.bytes(), wide);

  // The next apply re-reserves what it needs and matches a fresh engine.
  cvec x(n), y1(n), y2(n);
  rng.fill_cnormal(x);
  engine.apply(x, y1);
  MlfmaEngine fresh = make_engine(tree, Precision::kMixed);
  fresh.apply(x, y2);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(y1[i], y2[i]);
}

TEST(MixedPrecision, ApplicationsCounterAdvancesByNrhs) {
  Grid grid(64);
  QuadTree tree(grid);
  MlfmaEngine engine = make_engine(tree, Precision::kMixed);
  const BlockLayout lo{static_cast<std::size_t>(tree.pixels_per_leaf()), 4,
                       tree.num_leaves()};
  cvec x(lo.size(), cplx{1.0, 0.0}), y(lo.size());
  const std::uint64_t before = engine.phase_times().applications;
  engine.apply_block(x, y, 4);
  EXPECT_EQ(engine.phase_times().applications, before + 4);
}

/// Smooth, well-conditioned test contrast (no resonance): the refined
/// solve must converge without the fp64 fallback.
cvec smooth_contrast(const Grid& grid, double amplitude) {
  const int nx = grid.nx();
  cvec o(grid.num_pixels());
  for (int j = 0; j < nx; ++j) {
    for (int i = 0; i < nx; ++i) {
      const double u = (i + 0.5) / nx - 0.5, v = (j + 0.5) / nx - 0.5;
      const double r2 = u * u + v * v;
      o[static_cast<std::size_t>(j) * nx + i] =
          amplitude * std::exp(-40.0 * r2);
    }
  }
  return o;
}

/// Refinement rounds counted on this thread while `run` executes.
template <typename F>
std::uint64_t refinement_rounds(F&& run) {
  const std::size_t k = static_cast<std::size_t>(obs::Counter::kRefinementRounds);
  obs::set_enabled(true);
  const std::uint64_t before = obs::counter_totals(0)[k];
  run();
  const std::uint64_t rounds = obs::counter_totals(0)[k] - before;
  obs::set_enabled(false);
  return rounds;
}

TEST(MixedRefinement, ReachesFp64ToleranceInFewRounds) {
  Grid grid(64);
  QuadTree tree(grid);
  MlfmaEngine f64 = make_engine(tree, Precision::kDouble);

  BicgstabOptions fw;
  fw.tol = 1e-8;
  fw.max_iterations = 400;
  ForwardSolver solver(f64, fw, fp32_tables(tree));
  solver.set_contrast(smooth_contrast(grid, 0.05));
  ASSERT_EQ(solver.precision(), Precision::kMixed);

  const std::size_t n = grid.num_pixels(), nrhs = 4;
  Rng rng(91);
  cvec b(n * nrhs), x(n * nrhs, cplx{});
  rng.fill_cnormal(b);

  // A converged refined solve has its worst fp64 relres <= tol = 1e-8.
  const std::uint64_t applies0 = f64.phase_times().applications;
  bool converged = false;
  const std::uint64_t rounds = refinement_rounds(
      [&] { converged = solver.solve(b, x, nrhs, 1e-8, /*adjoint=*/false); });
  EXPECT_TRUE(converged);
  // Each round gains ~max(inner tol 1e-4, fp32 error 3e-6): 1e-8 from
  // O(1) takes 2-3 rounds; more means refinement is not contracting.
  EXPECT_LE(rounds, 4u);
  // No fp64 fallback: the fp64 engine ran only the residual of the
  // start and of each round.
  EXPECT_EQ(f64.phase_times().applications - applies0, (1 + rounds) * nrhs);

  // The fp64 residual of the returned solution really is at tolerance.
  cvec ax(n * nrhs);
  solver.apply_system(x, ax, nrhs);
  for (std::size_t r = 0; r < nrhs; ++r) {
    EXPECT_LT(rel_l2(ccspan{ax.data() + r * n, n}, ccspan{b.data() + r * n, n}),
              2e-8)
        << "col=" << r;
  }

  // Matches the pure-fp64 block solve to the shared tolerance.
  ForwardSolver fp64(f64, fw);
  fp64.set_contrast(smooth_contrast(grid, 0.05));
  cvec x64(n * nrhs, cplx{});
  ASSERT_TRUE(fp64.solve(b, x64, nrhs, 0.0, /*adjoint=*/false));
  EXPECT_LT(rel_l2(x, x64), 1e-6);
}

TEST(MixedRefinement, AdjointSolveReachesFp64Tolerance) {
  Grid grid(64);
  QuadTree tree(grid);
  MlfmaEngine f64 = make_engine(tree, Precision::kDouble);

  BicgstabOptions fw;
  fw.tol = 1e-8;
  fw.max_iterations = 400;
  ForwardSolver solver(f64, fw, fp32_tables(tree));
  solver.set_contrast(smooth_contrast(grid, 0.05));

  const std::size_t n = grid.num_pixels(), nrhs = 3;
  Rng rng(92);
  cvec b(n * nrhs), x(n * nrhs, cplx{});
  rng.fill_cnormal(b);

  // Converged: the worst fp64 relres is <= tol = 1e-8.
  EXPECT_TRUE(solver.solve(b, x, nrhs, 1e-8, /*adjoint=*/true));

  ForwardSolver fp64(f64, fw);
  fp64.set_contrast(smooth_contrast(grid, 0.05));
  cvec x64(n * nrhs, cplx{});
  ASSERT_TRUE(fp64.solve(b, x64, nrhs, 0.0, /*adjoint=*/true));
  EXPECT_LT(rel_l2(x, x64), 1e-6);
}

/// Gathers the partitioned blocked apply into a full vector.
cvec distributed_apply(const QuadTree& tree, const PartitionedMlfma& dist,
                       VCluster& vc, ccspan x, std::size_t nrhs) {
  const std::size_t np = static_cast<std::size_t>(tree.pixels_per_leaf());
  cvec y(x.size(), cplx{});
  vc.run([&](Comm& comm) {
    const std::size_t b = dist.leaf_begin(comm.rank()) * np * nrhs;
    const std::size_t sz = dist.local_pixels(comm.rank()) * nrhs;
    cvec y_local(sz);
    dist.apply_block(comm, ccspan{x.data() + b, sz}, y_local, nrhs, 0,
                     ApplySchedule::kOverlapped);
    std::copy(y_local.begin(), y_local.end(), y.begin() + b);
  });
  return y;
}

TEST(MixedPartitioned, HaloBytesExactlyHalveAndResultMatches) {
  Grid grid(128);
  QuadTree tree(grid);
  const int ranks = 4;
  const std::size_t nrhs = 4;
  MlfmaParams p64, p32;
  p32.precision = Precision::kMixed;
  PartitionedMlfma d64(tree, p64, ranks);
  PartitionedMlfma d32(tree, p32, ranks);

  const std::size_t n = grid.num_pixels() * nrhs;
  Rng rng(31);
  cvec x(n);
  rng.fill_cnormal(x);

  VCluster vc64(ranks);
  const cvec y64 = distributed_apply(tree, d64, vc64, x, nrhs);
  VCluster vc32(ranks);
  const cvec y32 = distributed_apply(tree, d32, vc32, x, nrhs);

  // fp32 spectra on the wire: exactly half the bytes of the fp64 run on
  // every tag, in the same number of messages.
  const auto tags64 = vc64.traffic_by_tag();
  const auto tags32 = vc32.traffic_by_tag();
  ASSERT_EQ(tags64.size(), tags32.size());
  ASSERT_TRUE(tags64.count(kTagNear) == 1);
  ASSERT_TRUE(tags64.count(kTagLevel) == 1);
  for (const auto& [tag, t64] : tags64) {
    const TagTraffic t32 = tags32.at(tag);
    EXPECT_EQ(t64.bytes, 2 * t32.bytes) << "tag=" << tag;
    EXPECT_EQ(t64.messages, t32.messages) << "tag=" << tag;
  }
  EXPECT_EQ(vc64.traffic().total_bytes(), 2 * vc32.traffic().total_bytes());

  // And the mixed partitioned result still matches fp64 to the budget,
  // column by column.
  const BlockLayout lo{static_cast<std::size_t>(tree.pixels_per_leaf()), nrhs,
                       tree.num_leaves()};
  const std::size_t npix = grid.num_pixels();
  cvec wc(npix), gc(npix);
  for (std::size_t r = 0; r < nrhs; ++r) {
    block_col_get(lo, y64, r, wc);
    block_col_get(lo, y32, r, gc);
    EXPECT_LT(rel_l2(gc, wc), kMixedTol) << "col=" << r;
  }
}

}  // namespace
}  // namespace ffw
