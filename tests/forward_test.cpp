// Forward scattering solver: block BiCGStab + MLFMA (one column) against
// the dense LU reference, adjoint solves, and solver statistics; plus the
// single-vector reference BiCGStab on small dense systems.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "forward/dense_ref.hpp"
#include "forward/forward.hpp"
#include "greens/transceivers.hpp"
#include "linalg/kernels.hpp"
#include "phantom/phantom.hpp"

namespace ffw {
namespace {

TEST(Bicgstab, SolvesSmallDenseSystem) {
  // Diagonally dominant random system.
  Rng rng(21);
  const std::size_t n = 50;
  CMatrix a(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) a(i, j) = 0.1 * rng.cnormal();
    a(j, j) += 4.0;
  }
  cvec x_true(n), b(n), x(n, cplx{});
  rng.fill_cnormal(x_true);
  matvec(a, x_true, b);
  BicgstabOptions opts;
  opts.tol = 1e-10;
  const auto res = bicgstab(
      [&](ccspan in, cspan out) { matvec(a, in, out); }, b, x, opts);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(rel_l2_diff(x, x_true), 1e-8);
  // Two matvecs per full iteration and no setup matvec from x0 = 0
  // (A x0 = 0 exactly); early exit at the s-norm check skips the second
  // matvec of the last iteration.
  EXPECT_TRUE(res.matvecs == 2 * res.iterations ||
              res.matvecs == 2 * res.iterations - 1);

  // A nonzero guess costs the setup matvec r = b - A x0.
  cvec x1(n);
  rng.fill_cnormal(x1);
  const auto res1 = bicgstab(
      [&](ccspan in, cspan out) { matvec(a, in, out); }, b, x1, opts);
  EXPECT_TRUE(res1.converged);
  EXPECT_LT(rel_l2_diff(x1, x_true), 1e-8);
  EXPECT_TRUE(res1.matvecs == 2 * res1.iterations + 1 ||
              res1.matvecs == 2 * res1.iterations);
}

TEST(Bicgstab, ImmediateConvergenceOnExactGuess) {
  Rng rng(22);
  const std::size_t n = 20;
  CMatrix a(n, n);
  for (std::size_t j = 0; j < n; ++j) a(j, j) = 2.0;
  cvec b(n), x(n);
  rng.fill_cnormal(b);
  for (std::size_t i = 0; i < n; ++i) x[i] = b[i] / 2.0;
  const auto res = bicgstab(
      [&](ccspan in, cspan out) { matvec(a, in, out); }, b, x);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 0);
}

TEST(Bicgstab, ZeroRhsGivesZeroSolution) {
  cvec b(8, cplx{}), x(8, cplx{1.0, 1.0});
  const auto res = bicgstab(
      [&](ccspan in, cspan out) { copy(in, out); }, b, x);
  EXPECT_TRUE(res.converged);
  for (const auto& v : x) EXPECT_EQ(v, cplx{});
}

class ForwardVsDense : public ::testing::TestWithParam<cplx> {};

TEST_P(ForwardVsDense, MatchesLuReference) {
  const cplx eps = GetParam();  // permittivity contrast
  Grid grid(32);                // 1024 pixels: dense LU is fast
  QuadTree tree(grid);
  MlfmaEngine engine(tree);

  const cvec deps = gaussian_blob(grid, Vec2{0.3, -0.2}, 0.6, eps);
  const cvec contrast = contrast_from_permittivity(grid, deps);

  BicgstabOptions opts;
  opts.tol = 1e-9;
  ForwardSolver fs(engine, opts);
  fs.set_contrast(contrast);

  Rng rng(31);
  cvec rhs(grid.num_pixels());
  rng.fill_cnormal(rhs);
  cvec phi(grid.num_pixels(), cplx{});
  ASSERT_TRUE(fs.solve_block(rhs, phi, 1).converged);

  DenseForwardSolver dense(grid, contrast);
  const cvec ref = dense.solve(rhs);
  EXPECT_LT(rel_l2_diff(phi, ref), 1e-6) << "eps=" << eps;
}

// The last value is a strong, lossy contrast.
INSTANTIATE_TEST_SUITE_P(ContrastSweep, ForwardVsDense,
                         ::testing::Values(cplx{0.005, 0.0}, cplx{0.02, 0.0},
                                           cplx{0.05, 0.0}, cplx{0.1, 0.0},
                                           cplx{0.15, -0.05}));

TEST(Forward, AdjointSolveMatchesDense) {
  Grid grid(32);
  QuadTree tree(grid);
  MlfmaEngine engine(tree);
  const cvec deps = gaussian_blob(grid, Vec2{0.0, 0.0}, 0.8, cplx{0.03, 0.0});
  const cvec contrast = contrast_from_permittivity(grid, deps);

  BicgstabOptions opts;
  opts.tol = 1e-9;
  ForwardSolver fs(engine, opts);
  fs.set_contrast(contrast);

  Rng rng(33);
  cvec rhs(grid.num_pixels());
  rng.fill_cnormal(rhs);
  cvec psi(grid.num_pixels(), cplx{});
  ASSERT_TRUE(fs.solve_adjoint_block(rhs, psi, 1).converged);

  DenseForwardSolver dense(grid, contrast);
  const cvec ref = dense.solve_herm(rhs);
  EXPECT_LT(rel_l2_diff(psi, ref), 1e-6);
}

TEST(Forward, SolutionSatisfiesSystem) {
  Grid grid(32);
  QuadTree tree(grid);
  MlfmaEngine engine(tree);
  const cvec deps = gaussian_blob(grid, Vec2{-0.4, 0.4}, 0.5, cplx{0.05, 0.0});
  ForwardSolver fs(engine);
  fs.set_contrast(contrast_from_permittivity(grid, deps));

  Transceivers trx(grid, ring_positions(4, grid.domain()),
                   ring_positions(8, grid.domain()));
  const ccspan inc = trx.incident_field(0);
  cvec phi(grid.num_pixels(), cplx{});
  ASSERT_TRUE(fs.solve_block(inc, phi, 1).converged);

  cvec resid(grid.num_pixels());
  fs.apply_system(phi, resid, 1);
  sub(resid, inc, resid);
  EXPECT_LT(nrm2(resid) / nrm2(inc), 2e-4);  // paper tol 1e-4, plus slack
}

TEST(Forward, StatsTrackSolvesAndMlfma) {
  Grid grid(32);
  QuadTree tree(grid);
  MlfmaEngine engine(tree);
  ForwardSolver fs(engine);
  fs.set_contrast(cvec(grid.num_pixels(), cplx{0.1, 0.0}));
  Rng rng(35);
  cvec rhs(grid.num_pixels()), phi(grid.num_pixels(), cplx{});
  rng.fill_cnormal(rhs);
  fs.solve_block(rhs, phi, 1);
  EXPECT_EQ(fs.stats().solves, 1u);
  EXPECT_GT(fs.stats().operator_applications, 0u);
  EXPECT_GT(fs.stats().operator_per_solve(), 1.0);
  fs.clear_stats();
  EXPECT_EQ(fs.stats().solves, 0u);
}

// Zero contrast: the system is the identity, phi == phi_inc, and the
// forward solve must converge instantly.
TEST(Forward, FreeSpaceIsIdentity) {
  Grid grid(32);
  QuadTree tree(grid);
  MlfmaEngine engine(tree);
  ForwardSolver fs(engine);
  fs.set_contrast(cvec(grid.num_pixels(), cplx{}));
  Rng rng(36);
  cvec rhs(grid.num_pixels()), phi(grid.num_pixels(), cplx{});
  rng.fill_cnormal(rhs);
  const auto res = fs.solve_block(rhs, phi, 1);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(rel_l2_diff(phi, rhs), 1e-12);
}

}  // namespace
}  // namespace ffw
