// Checkpoint/resume of the DBIM outer loop: interrupting after k
// iterations and resuming must land (numerically) where the
// uninterrupted run lands.
#include <gtest/gtest.h>

#include <cstdio>

#include "dbim/dbim.hpp"
#include "phantom/setup.hpp"

namespace ffw {
namespace {

TEST(DbimResume, InterruptAndResumeMatchesStraightRun) {
  ScenarioConfig cfg;
  cfg.nx = 32;
  cfg.num_transmitters = 6;
  cfg.num_receivers = 20;
  Grid grid(cfg.nx);
  Scenario scene(cfg,
                 gaussian_blob(grid, Vec2{0.2, -0.1}, 0.5, cplx{0.01, 0.0}));

  const int total_iters = 8, split = 4;

  // Uninterrupted run.
  DbimOptions straight;
  straight.max_iterations = total_iters;
  const DbimResult full = dbim_reconstruct(
      scene.engine(), scene.transceivers(), scene.measurements(), straight);

  // First half, checkpointing every iteration.
  DbimCheckpoint saved;
  DbimOptions first;
  first.max_iterations = split;
  first.checkpoint = [&saved](const DbimCheckpoint& s) { saved = s; };
  dbim_reconstruct(scene.engine(), scene.transceivers(),
                   scene.measurements(), first);
  ASSERT_EQ(saved.iteration, split);
  ASSERT_EQ(saved.residual_history.size(), static_cast<std::size_t>(split));

  // Round-trip the state through a file, like a real restart would.
  const std::string path = "/tmp/ffw_dbim_resume.bin";
  ASSERT_TRUE(saved.save(path));
  DbimCheckpoint restored;
  ASSERT_TRUE(restored.load(path));
  std::remove(path.c_str());

  // Second half from the restored state.
  DbimOptions second;
  second.max_iterations = total_iters;
  second.resume = &restored;
  const DbimResult resumed = dbim_reconstruct(
      scene.engine(), scene.transceivers(), scene.measurements(), second);

  ASSERT_EQ(resumed.history.relative_residual.size(),
            full.history.relative_residual.size());
  // The inner-solver warm starts are not part of the checkpoint, so the
  // trajectories agree to forward-solver tolerance, not bitwise.
  for (std::size_t i = 0; i < full.history.relative_residual.size(); ++i) {
    EXPECT_NEAR(resumed.history.relative_residual[i],
                full.history.relative_residual[i],
                0.05 * full.history.relative_residual[i] + 1e-4)
        << "iteration " << i;
  }
  EXPECT_LT(image_rmse(resumed.contrast, full.contrast), 0.05);
}

// Regression: the checkpoint used to drop the precision policy, so a
// run checkpointed under the mixed-precision engine silently resumed in
// pure fp64 (different cost model, different iterate path). The policy
// is now serialized and a mismatched resume dies loudly.
TEST(DbimResume, MixedModeResumeKeepsPrecisionPolicy) {
  ScenarioConfig cfg;
  cfg.nx = 32;
  cfg.num_transmitters = 6;
  cfg.num_receivers = 20;
  Grid grid(cfg.nx);
  Scenario scene(cfg,
                 gaussian_blob(grid, Vec2{0.2, -0.1}, 0.5, cplx{0.01, 0.0}));

  const int total_iters = 6, split = 3;

  // First half under mixed precision, checkpointing every iteration.
  DbimCheckpoint saved;
  DbimOptions first;
  first.max_iterations = split;
  first.precision = Precision::kMixed;
  first.checkpoint = [&saved](const DbimCheckpoint& s) { saved = s; };
  dbim_reconstruct(scene.engine(), scene.transceivers(),
                   scene.measurements(), first);
  ASSERT_EQ(saved.iteration, split);
  EXPECT_EQ(saved.precision, Precision::kMixed);

  // The policy survives the file round trip.
  const std::string path = "/tmp/ffw_dbim_resume_mixed.bin";
  ASSERT_TRUE(saved.save(path));
  DbimCheckpoint restored;
  ASSERT_TRUE(restored.load(path));
  std::remove(path.c_str());
  EXPECT_EQ(restored.precision, Precision::kMixed);

  // Resuming under the same policy continues and converges further.
  DbimOptions second;
  second.max_iterations = total_iters;
  second.precision = Precision::kMixed;
  second.resume = &restored;
  const DbimResult resumed = dbim_reconstruct(
      scene.engine(), scene.transceivers(), scene.measurements(), second);
  ASSERT_EQ(resumed.history.relative_residual.size(),
            static_cast<std::size_t>(total_iters));
  EXPECT_LT(resumed.history.relative_residual.back(),
            restored.residual_history.back());
}

TEST(DbimResumeDeath, PrecisionPolicyMismatchFailsLoudly) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ScenarioConfig cfg;
  cfg.nx = 32;
  cfg.num_transmitters = 4;
  cfg.num_receivers = 16;
  Grid grid(cfg.nx);
  Scenario scene(cfg,
                 gaussian_blob(grid, Vec2{0.0, 0.0}, 0.4, cplx{0.005, 0.0}));

  // A checkpoint recorded under the mixed policy...
  DbimCheckpoint state;
  state.iteration = 2;
  state.precision = Precision::kMixed;
  state.contrast.assign(grid.num_pixels(), cplx{});
  state.gradient_prev.assign(grid.num_pixels(), cplx{});
  state.direction.assign(grid.num_pixels(), cplx{});
  state.residual_history = {1.0, 0.5};

  // ...must not silently resume with the pure-fp64 engine.
  DbimOptions opts;
  opts.max_iterations = 4;
  opts.resume = &state;  // precision left kDouble: policy mismatch
  EXPECT_DEATH(dbim_reconstruct(scene.engine(), scene.transceivers(),
                                scene.measurements(), opts),
               "precision policy");

  // The reverse direction (fp64 checkpoint, mixed resume) dies too.
  state.precision = Precision::kDouble;
  opts.precision = Precision::kMixed;
  EXPECT_DEATH(dbim_reconstruct(scene.engine(), scene.transceivers(),
                                scene.measurements(), opts),
               "precision policy");

  // Mixed precision is asked for through DbimOptions::precision only: an
  // engine on fp32 tables is refused.
  MlfmaParams mixed_params;
  mixed_params.precision = Precision::kMixed;
  MlfmaEngine mixed(scene.tree(), mixed_params);
  DbimOptions plain;
  plain.max_iterations = 1;
  EXPECT_DEATH(dbim_reconstruct(mixed, scene.transceivers(),
                                scene.measurements(), plain),
               "DbimOptions::precision");
}

TEST(DbimResumeDeath, BackendPolicyMismatchFailsLoudly) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ScenarioConfig cfg;
  cfg.nx = 32;
  cfg.num_transmitters = 4;
  cfg.num_receivers = 16;
  Grid grid(cfg.nx);
  Scenario scene(cfg,
                 gaussian_blob(grid, Vec2{0.0, 0.0}, 0.4, cplx{0.005, 0.0}));

  // A checkpoint recorded under the CBS backend policy...
  DbimCheckpoint state;
  state.iteration = 2;
  state.backend = BackendKind::kCbs;
  state.contrast.assign(grid.num_pixels(), cplx{});
  state.gradient_prev.assign(grid.num_pixels(), cplx{});
  state.direction.assign(grid.num_pixels(), cplx{});
  state.residual_history = {1.0, 0.5};

  // ...must not silently resume onto the MLFMA routing (or any other).
  DbimOptions opts;
  opts.max_iterations = 4;
  opts.resume = &state;  // backend left at kMlfma: policy mismatch
  EXPECT_DEATH(dbim_reconstruct(scene.engine(), scene.transceivers(),
                                scene.measurements(), opts),
               "backend policy");

  state.backend = BackendKind::kMlfma;
  opts.backend = BackendKind::kAuto;
  EXPECT_DEATH(dbim_reconstruct(scene.engine(), scene.transceivers(),
                                scene.measurements(), opts),
               "backend policy");
}

TEST(DbimResume, ResumeAtMaxIterationsIsANoop) {
  ScenarioConfig cfg;
  cfg.nx = 32;
  cfg.num_transmitters = 4;
  cfg.num_receivers = 16;
  Grid grid(cfg.nx);
  Scenario scene(cfg,
                 gaussian_blob(grid, Vec2{0.0, 0.0}, 0.4, cplx{0.005, 0.0}));
  DbimCheckpoint state;
  state.iteration = 5;
  state.contrast.assign(grid.num_pixels(), cplx{1.0, 0.0});
  state.residual_history = {1.0, 0.9, 0.8, 0.7, 0.6};
  DbimOptions opts;
  opts.max_iterations = 5;  // == state.iteration: nothing left to do
  opts.resume = &state;
  const DbimResult res = dbim_reconstruct(
      scene.engine(), scene.transceivers(), scene.measurements(), opts);
  EXPECT_EQ(res.history.relative_residual.size(), 5u);
  EXPECT_EQ(res.contrast[0], (cplx{1.0, 0.0}));
  EXPECT_EQ(res.history.forward_solves, 0u);
}

}  // namespace
}  // namespace ffw
