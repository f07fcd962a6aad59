// Scenario assembly and measurement synthesis.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "linalg/kernels.hpp"
#include "phantom/setup.hpp"

namespace ffw {
namespace {

TEST(Scenario, GeometryMatchesConfig) {
  ScenarioConfig cfg;
  cfg.nx = 32;
  cfg.num_transmitters = 5;
  cfg.num_receivers = 9;
  cfg.ring_radius_factor = 1.25;
  Grid grid(cfg.nx);
  Scenario scene(cfg, cvec(grid.num_pixels(), cplx{}));
  EXPECT_EQ(scene.transceivers().num_transmitters(), 5);
  EXPECT_EQ(scene.transceivers().num_receivers(), 9);
  for (const auto& p : scene.transceivers().transmitters()) {
    EXPECT_NEAR(norm(p), 1.25 * grid.domain(), 1e-12);
  }
  EXPECT_EQ(scene.measurements().rows(), 9u);
  EXPECT_EQ(scene.measurements().cols(), 5u);
}

TEST(Scenario, ZeroObjectScattersNothing) {
  ScenarioConfig cfg;
  cfg.nx = 32;
  cfg.num_transmitters = 3;
  cfg.num_receivers = 8;
  Grid grid(cfg.nx);
  Scenario scene(cfg, cvec(grid.num_pixels(), cplx{}));
  for (std::size_t t = 0; t < scene.measurements().cols(); ++t) {
    EXPECT_LT(nrm2(scene.measurements().col(t)), 1e-14);
  }
}

TEST(Scenario, MeasurementScalesLinearlyInTheBornRegime) {
  // For a very weak scatterer, doubling the contrast ~doubles the data.
  ScenarioConfig cfg;
  cfg.nx = 32;
  cfg.num_transmitters = 2;
  cfg.num_receivers = 8;
  Grid grid(cfg.nx);
  const cvec weak = gaussian_blob(grid, Vec2{0, 0}, 0.4, cplx{1e-4, 0});
  cvec strong(weak.size());
  for (std::size_t i = 0; i < weak.size(); ++i) strong[i] = 2.0 * weak[i];
  Scenario s1(cfg, weak), s2(cfg, strong);
  double n1 = 0, n2 = 0;
  for (std::size_t t = 0; t < s1.measurements().cols(); ++t) {
    n1 += nrm2(s1.measurements().col(t));
    n2 += nrm2(s2.measurements().col(t));
  }
  EXPECT_NEAR(n2 / n1, 2.0, 0.01);
}

// The measurements come from one block solve over every transmitter:
// each column must match a one-column solve of the same solver, from the
// same incident start, in its data and its iteration count.
TEST(Scenario, PanelSynthesisMatchesPerTransmitterSolves) {
  ScenarioConfig cfg;
  cfg.nx = 32;
  cfg.num_transmitters = 6;
  cfg.num_receivers = 12;
  Grid grid(cfg.nx);
  Scenario scene(
      cfg, gaussian_blob(grid, Vec2{0.3, -0.2}, 0.6, cplx{0.05, 0.0}));
  const Transceivers& trx = scene.transceivers();
  const ccspan contrast = scene.true_contrast();
  ForwardSolver solver(scene.engine(), cfg.forward);
  const CMatrix panel = synthesize_measurements(solver, trx, contrast);
  const std::vector<std::uint16_t> panel_iters =
      solver.stats().per_solve_iterations;
  ASSERT_EQ(panel_iters.size(), 6u);

  const std::size_t n = grid.num_pixels();
  cvec phi(n), ophi(n), col(static_cast<std::size_t>(cfg.num_receivers));
  for (int t = 0; t < cfg.num_transmitters; ++t) {
    const ccspan inc = trx.incident_field(t);
    copy(inc, phi);
    ASSERT_TRUE(solver.solve(inc, phi, 1, 0.0, /*adjoint=*/false));
    EXPECT_EQ(solver.stats().per_solve_iterations.back(),
              panel_iters[static_cast<std::size_t>(t)])
        << "transmitter " << t;
    diag_mul(contrast, phi, ophi);
    trx.apply_gr(ophi, col);
    EXPECT_LE(rel_l2_diff(panel.col(static_cast<std::size_t>(t)), col), 1e-10)
        << "transmitter " << t;
  }
}

TEST(Scenario, NoiseScalesWithRequestedLevel) {
  ScenarioConfig cfg;
  cfg.nx = 32;
  cfg.num_transmitters = 4;
  cfg.num_receivers = 16;
  Grid grid(cfg.nx);
  const cvec truth = gaussian_blob(grid, Vec2{0, 0}, 0.4, cplx{0.01, 0});
  cfg.measurement_noise = 0.0;
  Scenario clean(cfg, truth);
  cfg.measurement_noise = 0.1;
  Scenario noisy(cfg, truth);
  double diff2 = 0.0, base2 = 0.0;
  for (std::size_t t = 0; t < clean.measurements().cols(); ++t) {
    for (std::size_t r = 0; r < clean.measurements().rows(); ++r) {
      diff2 += std::norm(noisy.measurements()(r, t) -
                         clean.measurements()(r, t));
      base2 += std::norm(clean.measurements()(r, t));
    }
  }
  const double rel = std::sqrt(diff2 / base2);
  EXPECT_GT(rel, 0.05);
  EXPECT_LT(rel, 0.2);  // requested 10%
}

TEST(Scenario, NoiseIsSeedDeterministic) {
  ScenarioConfig cfg;
  cfg.nx = 32;
  cfg.num_transmitters = 2;
  cfg.num_receivers = 8;
  cfg.measurement_noise = 0.05;
  Grid grid(cfg.nx);
  const cvec truth = gaussian_blob(grid, Vec2{0, 0}, 0.4, cplx{0.01, 0});
  Scenario a(cfg, truth), b(cfg, truth);
  for (std::size_t t = 0; t < a.measurements().cols(); ++t) {
    EXPECT_LT(rel_l2_diff(cvec(a.measurements().col(t).begin(),
                               a.measurements().col(t).end()),
                          cvec(b.measurements().col(t).begin(),
                               b.measurements().col(t).end())),
              1e-15);
  }
}

TEST(Scenario, LimitedArcPlacesAllElementsInArc) {
  ScenarioConfig cfg;
  cfg.nx = 32;
  cfg.num_transmitters = 7;
  cfg.num_receivers = 11;
  cfg.tx_angle_begin = -0.5;
  cfg.tx_angle_end = 0.5;
  cfg.rx_angle_begin = 1.0;
  cfg.rx_angle_end = 2.0;
  Grid grid(cfg.nx);
  Scenario scene(cfg, cvec(grid.num_pixels(), cplx{}));
  for (const auto& p : scene.transceivers().transmitters()) {
    const double a = angle_of(p);
    EXPECT_GE(a, -0.5 - 1e-12);
    EXPECT_LT(a, 0.5);
  }
  for (const auto& p : scene.transceivers().receivers()) {
    const double a = angle_of(p);
    EXPECT_GE(a, 1.0 - 1e-12);
    EXPECT_LT(a, 2.0);
  }
}

}  // namespace
}  // namespace ffw
