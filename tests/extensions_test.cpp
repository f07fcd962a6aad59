// Extension features: Jacobi-preconditioned forward solves (the paper's
// Sec. VIII future-work item) and multi-frequency DBIM.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "dbim/continuation.hpp"
#include "forward/dense_ref.hpp"
#include "forward/forward.hpp"
#include "linalg/kernels.hpp"
#include "phantom/phantom.hpp"

namespace ffw {
namespace {

TEST(JacobiPrecond, SolutionUnchanged) {
  Grid grid(32);
  QuadTree tree(grid);
  MlfmaEngine engine(tree);
  const cvec deps = gaussian_blob(grid, Vec2{0.2, 0.1}, 0.6, cplx{0.08, 0.0});
  const cvec contrast = contrast_from_permittivity(grid, deps);

  BicgstabOptions opts;
  opts.tol = 1e-9;
  Rng rng(101);
  cvec rhs(grid.num_pixels());
  rng.fill_cnormal(rhs);

  ForwardSolver plain(engine, opts);
  plain.set_contrast(contrast);
  cvec x_plain(grid.num_pixels(), cplx{});
  ASSERT_TRUE(plain.solve(rhs, x_plain).converged);

  ForwardSolver prec(engine, opts);
  prec.set_jacobi_preconditioner(true);
  prec.set_contrast(contrast);
  EXPECT_TRUE(prec.jacobi_preconditioner());
  cvec x_prec(grid.num_pixels(), cplx{});
  ASSERT_TRUE(prec.solve(rhs, x_prec).converged);

  EXPECT_LT(rel_l2_diff(x_prec, x_plain), 1e-6);
}

TEST(JacobiPrecond, MatchesDenseReferenceAtHighContrast) {
  Grid grid(32);
  QuadTree tree(grid);
  MlfmaEngine engine(tree);
  // Strong, lossy contrast: the regime the preconditioner targets.
  const cvec deps = gaussian_blob(grid, Vec2{0.0, 0.0}, 0.7,
                                  cplx{0.15, -0.05});
  const cvec contrast = contrast_from_permittivity(grid, deps);

  BicgstabOptions opts;
  opts.tol = 1e-9;
  ForwardSolver fs(engine, opts);
  fs.set_jacobi_preconditioner(true);
  fs.set_contrast(contrast);

  Rng rng(102);
  cvec rhs(grid.num_pixels());
  rng.fill_cnormal(rhs);
  cvec phi(grid.num_pixels(), cplx{});
  ASSERT_TRUE(fs.solve(rhs, phi).converged);

  DenseForwardSolver dense(grid, contrast);
  EXPECT_LT(rel_l2_diff(phi, dense.solve(rhs)), 1e-6);
}

TEST(JacobiPrecond, HelpsOrAtLeastDoesNotHurtIterations) {
  Grid grid(32);
  QuadTree tree(grid);
  MlfmaEngine engine(tree);
  const cvec deps = gaussian_blob(grid, Vec2{0.0, 0.0}, 0.8,
                                  cplx{0.2, 0.0});
  const cvec contrast = contrast_from_permittivity(grid, deps);
  Rng rng(103);
  cvec rhs(grid.num_pixels());
  rng.fill_cnormal(rhs);

  BicgstabOptions opts;
  opts.tol = 1e-8;
  ForwardSolver plain(engine, opts);
  plain.set_contrast(contrast);
  cvec x1(grid.num_pixels(), cplx{});
  const auto r_plain = plain.solve(rhs, x1);

  ForwardSolver prec(engine, opts);
  prec.set_jacobi_preconditioner(true);
  prec.set_contrast(contrast);
  cvec x2(grid.num_pixels(), cplx{});
  const auto r_prec = prec.solve(rhs, x2);

  ASSERT_TRUE(r_plain.converged && r_prec.converged);
  EXPECT_LE(r_prec.iterations, r_plain.iterations + 2);
}

TEST(MultiFrequency, SingleStageEqualsPlainDbim) {
  ScenarioConfig cfg;
  cfg.nx = 32;
  cfg.num_transmitters = 6;
  cfg.num_receivers = 20;
  Grid grid(cfg.nx);
  const cvec truth =
      gaussian_blob(grid, Vec2{0.3, 0.0}, 0.5, cplx{0.01, 0.0});

  const ContinuationResult mf =
      continuation_reconstruct(cfg, truth, FrequencyLadder{{{0, 8}}});

  Scenario scene(cfg, truth);
  DbimOptions opts;
  opts.max_iterations = 8;
  const DbimResult plain = dbim_reconstruct(
      scene.engine(), scene.transceivers(), scene.measurements(), opts);

  // Same algorithm, same seed-free deterministic pipeline.
  cvec mf_contrast = contrast_from_permittivity(grid, mf.permittivity);
  EXPECT_LT(image_rmse(mf_contrast, plain.contrast), 1e-8);
}

TEST(MultiFrequency, CoarseStageSeedsFineStage) {
  ScenarioConfig cfg;
  cfg.nx = 64;
  cfg.num_transmitters = 8;
  cfg.num_receivers = 24;
  Grid grid(cfg.nx);
  const cvec truth = annulus(grid, 1.0, 1.8, cplx{0.02, 0.0});

  const ContinuationResult mf =
      continuation_reconstruct(cfg, truth, FrequencyLadder{{{1, 6}, {0, 6}}});
  ASSERT_EQ(mf.stages.size(), 2u);
  ASSERT_EQ(mf.permittivity.size(), grid.num_pixels());

  // The fine stage starts from the upsampled coarse image, so its
  // *initial* residual must already be far below 1 (a zero start).
  const std::vector<double>& fine = mf.stages[1].history.relative_residual;
  ASSERT_FALSE(fine.empty());
  EXPECT_LT(fine.front(), 0.75);
  // And it must end better than it started.
  EXPECT_LT(fine.back(), fine.front());
}

TEST(MultiFrequency, BeatsSingleFrequencyAtEqualFineIterations) {
  // High contrast: single-frequency DBIM converges slowly from zero;
  // a coarse stage first gets closer for the same fine-grid effort.
  ScenarioConfig cfg;
  cfg.nx = 64;
  cfg.num_transmitters = 8;
  cfg.num_receivers = 24;
  Grid grid(cfg.nx);
  const cvec truth = disks(grid, {{Vec2{0.0, 0.0}, 1.4, cplx{0.08, 0.0}}});

  const ContinuationResult mf =
      continuation_reconstruct(cfg, truth, FrequencyLadder{{{1, 10}, {0, 8}}});

  Scenario scene(cfg, truth);
  DbimOptions opts;
  opts.max_iterations = 8;
  const DbimResult single = dbim_reconstruct(
      scene.engine(), scene.transceivers(), scene.measurements(), opts);

  const cvec mf_contrast = contrast_from_permittivity(grid, mf.permittivity);
  EXPECT_LT(image_rmse(mf_contrast, scene.true_contrast()),
            image_rmse(single.contrast, scene.true_contrast()));
}

}  // namespace
}  // namespace ffw
