// Extension features: multi-frequency DBIM.
#include <gtest/gtest.h>

#include "dbim/continuation.hpp"
#include "phantom/phantom.hpp"

namespace ffw {
namespace {

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
