// The 2-D parallel DBIM driver must reproduce the serial driver for any
// (illumination groups x tree ranks) decomposition — same residual
// trajectory (up to floating-point ordering) and the same image.
#include <gtest/gtest.h>

#include <cstdio>

#include "dbim/parallel_driver.hpp"
#include "phantom/setup.hpp"
#include "vcluster/fault.hpp"

namespace ffw {
namespace {

struct SceneFixture {
  ScenarioConfig cfg;
  std::unique_ptr<Scenario> scene;

  SceneFixture() {
    cfg.nx = 32;
    cfg.num_transmitters = 8;
    cfg.num_receivers = 24;
    Grid grid(cfg.nx);
    scene = std::make_unique<Scenario>(
        cfg, gaussian_blob(grid, Vec2{0.3, -0.2}, 0.5, cplx{0.01, 0.0}));
  }
};

class Decompositions
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(Decompositions, MatchesSerialDriver) {
  const auto [ig, tr] = GetParam();
  SceneFixture f;

  DbimOptions opts;
  opts.max_iterations = 6;
  const DbimResult serial = dbim_reconstruct(
      f.scene->engine(), f.scene->transceivers(), f.scene->measurements(),
      opts);

  ParallelDbimConfig pcfg;
  pcfg.illum_groups = ig;
  pcfg.tree_ranks = tr;
  pcfg.dbim = opts;
  VCluster vc(ig * tr);
  const DbimResult par = dbim_reconstruct_parallel(
      vc, f.scene->tree(), f.scene->transceivers(), f.scene->measurements(),
      pcfg);

  ASSERT_EQ(par.history.relative_residual.size(),
            serial.history.relative_residual.size());
  for (std::size_t i = 0; i < serial.history.relative_residual.size(); ++i) {
    EXPECT_NEAR(par.history.relative_residual[i],
                serial.history.relative_residual[i],
                0.02 * serial.history.relative_residual[i])
        << "iteration " << i << " (ig=" << ig << ", tr=" << tr << ")";
  }
  EXPECT_LT(image_rmse(par.contrast, serial.contrast), 0.05)
      << "ig=" << ig << " tr=" << tr;
}

INSTANTIATE_TEST_SUITE_P(
    Grids, Decompositions,
    ::testing::Values(std::pair{1, 1}, std::pair{2, 1}, std::pair{4, 1},
                      std::pair{1, 4}, std::pair{2, 2}, std::pair{4, 4}));

TEST(ParallelDbim, IlluminationSyncTrafficIsTwicePerIteration) {
  // With tree_ranks = 1 the only communication is the two global
  // combines per DBIM iteration (gradient + step/cost scalars): message
  // count must scale with iterations, not with forward solves.
  SceneFixture f;
  ParallelDbimConfig pcfg;
  pcfg.illum_groups = 4;
  pcfg.tree_ranks = 1;
  pcfg.dbim.max_iterations = 3;
  VCluster vc(4);
  dbim_reconstruct_parallel(vc, f.scene->tree(), f.scene->transceivers(),
                            f.scene->measurements(), pcfg);
  const TrafficStats t = vc.traffic();
  EXPECT_GT(t.total_messages(), 0u);
  // Gradient combine: gather+bcast over 4 ranks = 6 msgs; cost and denom
  // allreduce (recursive doubling, 4 ranks): 8 msgs each; step scalar via
  // the same pattern. Bound: well under 100 messages per iteration, and
  // zero MLFMA halo bytes (tree not partitioned).
  EXPECT_LT(t.total_messages(), 100u * 3u);
}

TEST(ParallelDbim, SurvivesInjectedCrashesViaCheckpointRestart) {
  // End-to-end crash recovery: two injected rank crashes mid-run must
  // leave the reconstruction indistinguishable from the fault-free one.
  // The driver's supervisor catches each RankFailure, recovers the
  // cluster and resumes from the last atomically-saved checkpoint.
  SceneFixture f;
  DbimOptions opts;
  opts.max_iterations = 6;
  // Warm-started background fields are deliberately not checkpointed
  // (they are re-derived on resume); with warm starts off every iterate
  // is a pure function of the checkpointed outer-loop state, so the
  // crashed run must match the fault-free run to rounding.
  opts.warm_start_fields = false;

  ParallelDbimConfig pcfg;
  pcfg.illum_groups = 2;
  pcfg.tree_ranks = 2;
  pcfg.dbim = opts;
  pcfg.checkpoint_path = "/tmp/ffw_dbim_e2e_ref.ckpt";

  constexpr int p = 4;
  VCluster vc_ref(p);
  const DbimResult ref = dbim_reconstruct_parallel(
      vc_ref, f.scene->tree(), f.scene->transceivers(),
      f.scene->measurements(), pcfg);

  // Place the crashes from the fault-free run's per-rank send totals:
  // rank 1 dies ~40% in, rank 2 ~70% in. The 1-based send counters are
  // cumulative across recoveries and every value is eventually reached,
  // so any at_send below the clean-run total is guaranteed to fire.
  const TrafficStats t = vc_ref.traffic();
  const auto sends_of = [&t](int r) {
    std::uint64_t s = 0;
    for (int d = 0; d < p; ++d) s += t.messages[r * p + d];
    return s;
  };
  ASSERT_GT(sends_of(1), 10u);
  ASSERT_GT(sends_of(2), 10u);

  FaultPlan plan;
  plan.crashes.push_back({1, sends_of(1) * 2 / 5});
  plan.crashes.push_back({2, sends_of(2) * 7 / 10});

  pcfg.checkpoint_path = "/tmp/ffw_dbim_e2e_crash.ckpt";
  pcfg.max_restarts = 2;
  VCluster vc_crash(p);
  vc_crash.install_fault_plan(plan);
  const DbimResult crashed = dbim_reconstruct_parallel(
      vc_crash, f.scene->tree(), f.scene->transceivers(),
      f.scene->measurements(), pcfg);

  EXPECT_EQ(vc_crash.fault_stats().crashes, 2u);
  ASSERT_EQ(crashed.history.relative_residual.size(),
            ref.history.relative_residual.size());
  for (std::size_t i = 0; i < ref.history.relative_residual.size(); ++i) {
    EXPECT_NEAR(crashed.history.relative_residual[i],
                ref.history.relative_residual[i],
                1e-10 * ref.history.relative_residual[i])
        << "iteration " << i;
  }
  EXPECT_LE(image_rmse(crashed.contrast, ref.contrast), 1e-10);
  std::remove("/tmp/ffw_dbim_e2e_ref.ckpt");
  std::remove("/tmp/ffw_dbim_e2e_crash.ckpt");
}

TEST(ParallelDbim, CrashBeforeFirstCheckpointRestartsFromScratch) {
  // A crash before any iteration completes finds no checkpoint on disk;
  // the supervisor must rerun from scratch and still converge.
  SceneFixture f;
  ParallelDbimConfig pcfg;
  pcfg.illum_groups = 2;
  pcfg.tree_ranks = 1;
  pcfg.dbim.max_iterations = 3;
  pcfg.dbim.warm_start_fields = false;
  pcfg.checkpoint_path = "/tmp/ffw_dbim_e2e_early.ckpt";
  pcfg.max_restarts = 1;

  VCluster vc_ref(2);
  const DbimResult ref = dbim_reconstruct_parallel(
      vc_ref, f.scene->tree(), f.scene->transceivers(),
      f.scene->measurements(), pcfg);
  std::remove("/tmp/ffw_dbim_e2e_early.ckpt");

  FaultPlan plan;
  plan.crashes.push_back({1, 1});  // rank 1 dies on its very first send
  VCluster vc(2);
  vc.install_fault_plan(plan);
  const DbimResult got = dbim_reconstruct_parallel(
      vc, f.scene->tree(), f.scene->transceivers(), f.scene->measurements(),
      pcfg);
  EXPECT_EQ(vc.fault_stats().crashes, 1u);
  EXPECT_LE(image_rmse(got.contrast, ref.contrast), 1e-12);
  std::remove("/tmp/ffw_dbim_e2e_early.ckpt");
}

TEST(ParallelDbim, ExhaustedRestartBudgetPropagatesTheFailure) {
  // With max_restarts = 0 the supervisor must not mask the failure.
  SceneFixture f;
  ParallelDbimConfig pcfg;
  pcfg.illum_groups = 2;
  pcfg.tree_ranks = 1;
  pcfg.dbim.max_iterations = 2;
  FaultPlan plan;
  plan.crashes.push_back({1, 1});
  VCluster vc(2);
  vc.install_fault_plan(plan);
  EXPECT_THROW(dbim_reconstruct_parallel(vc, f.scene->tree(),
                                         f.scene->transceivers(),
                                         f.scene->measurements(), pcfg),
               RankFailure);
}

// Regression: the parallel driver used to report forward_solves as
// 3 * T * max_iterations (wrong whenever residual_tol stops the run
// early) and zero operator applications and Krylov iterations.
TEST(ParallelDbim, HistoryCountsMatchSerialWhenStoppedEarly) {
  SceneFixture f;
  DbimOptions opts;
  opts.max_iterations = 6;
  const DbimResult probe = dbim_reconstruct(
      f.scene->engine(), f.scene->transceivers(), f.scene->measurements(),
      opts);
  ASSERT_EQ(probe.history.relative_residual.size(), 6u);
  // Stop between the third and the fourth residual.
  const auto& h = probe.history.relative_residual;
  opts.residual_tol = 0.5 * (h[2] + h[3]);
  const DbimResult serial = dbim_reconstruct(
      f.scene->engine(), f.scene->transceivers(), f.scene->measurements(),
      opts);
  ASSERT_EQ(serial.history.relative_residual.size(), 4u);

  ParallelDbimConfig pcfg;
  pcfg.illum_groups = 2;
  pcfg.tree_ranks = 2;
  pcfg.dbim = opts;
  VCluster vc(4);
  const DbimResult par = dbim_reconstruct_parallel(
      vc, f.scene->tree(), f.scene->transceivers(), f.scene->measurements(),
      pcfg);
  ASSERT_EQ(par.history.relative_residual.size(), 4u);
  EXPECT_EQ(par.history.forward_solves, serial.history.forward_solves);
  EXPECT_GT(par.history.operator_applications, 0u);
  EXPECT_GT(par.history.bicgstab_iterations, 0u);
}

// Regression: the partitioned workspace rebuilt the near-field
// preconditioner at every background update but never reported the
// time, so DbimHistory::precond_setup_seconds read 0 on this path.
TEST(ParallelDbim, ReportsPreconditionerSetupTime) {
  SceneFixture f;
  ParallelDbimConfig pcfg;
  pcfg.illum_groups = 2;
  pcfg.tree_ranks = 2;
  pcfg.dbim.max_iterations = 2;
  pcfg.dbim.near_precondition = true;
  VCluster vc(4);
  const DbimResult par = dbim_reconstruct_parallel(
      vc, f.scene->tree(), f.scene->transceivers(), f.scene->measurements(),
      pcfg);
  EXPECT_GT(par.history.precond_setup_seconds, 0.0);

  pcfg.dbim.near_precondition = false;
  VCluster vc_plain(4);
  const DbimResult plain = dbim_reconstruct_parallel(
      vc_plain, f.scene->tree(), f.scene->transceivers(),
      f.scene->measurements(), pcfg);
  EXPECT_EQ(plain.history.precond_setup_seconds, 0.0);
}

// Regression: the parallel driver silently ignored the stepper's
// DbimOptions hooks. Progress fires once per iteration and the
// checkpoint hook receives the natural-order state of every completed
// iteration, once, from global rank 0.
TEST(ParallelDbim, ProgressAndCheckpointHooksFire) {
  SceneFixture f;
  ParallelDbimConfig pcfg;
  pcfg.illum_groups = 2;
  pcfg.tree_ranks = 2;
  pcfg.dbim.max_iterations = 3;
  std::vector<int> progress;
  std::vector<DbimCheckpoint> saved;
  pcfg.dbim.progress = [&progress](int it, double) { progress.push_back(it); };
  pcfg.dbim.checkpoint = [&saved](const DbimCheckpoint& s) {
    saved.push_back(s);
  };
  VCluster vc(4);
  const DbimResult par = dbim_reconstruct_parallel(
      vc, f.scene->tree(), f.scene->transceivers(), f.scene->measurements(),
      pcfg);
  EXPECT_EQ(progress, (std::vector<int>{0, 1, 2}));
  ASSERT_EQ(saved.size(), 3u);
  EXPECT_EQ(saved.back().iteration, 3);
  EXPECT_EQ(saved.back().residual_history, par.history.relative_residual);
  EXPECT_EQ(saved.back().contrast, par.contrast);
}

// Regression: DbimOptions::resume used to be ignored by the parallel
// driver (every run restarted at iteration 0).
TEST(ParallelDbim, ResumeFromDbimOptionsMatchesStraightRun) {
  SceneFixture f;
  ParallelDbimConfig pcfg;
  pcfg.illum_groups = 2;
  pcfg.tree_ranks = 2;
  pcfg.dbim.max_iterations = 6;
  // Without warm starts every iterate is a pure function of the
  // checkpointed state (see the crash-recovery test above).
  pcfg.dbim.warm_start_fields = false;
  VCluster vc_ref(4);
  const DbimResult ref = dbim_reconstruct_parallel(
      vc_ref, f.scene->tree(), f.scene->transceivers(),
      f.scene->measurements(), pcfg);

  DbimCheckpoint saved;
  ParallelDbimConfig first = pcfg;
  first.dbim.max_iterations = 3;
  first.dbim.checkpoint = [&saved](const DbimCheckpoint& s) { saved = s; };
  VCluster vc_first(4);
  dbim_reconstruct_parallel(vc_first, f.scene->tree(),
                            f.scene->transceivers(), f.scene->measurements(),
                            first);
  ASSERT_EQ(saved.iteration, 3);

  ParallelDbimConfig second = pcfg;
  second.dbim.resume = &saved;
  VCluster vc_second(4);
  const DbimResult resumed = dbim_reconstruct_parallel(
      vc_second, f.scene->tree(), f.scene->transceivers(),
      f.scene->measurements(), second);
  ASSERT_EQ(resumed.history.relative_residual.size(),
            ref.history.relative_residual.size());
  for (std::size_t i = 0; i < ref.history.relative_residual.size(); ++i) {
    EXPECT_NEAR(resumed.history.relative_residual[i],
                ref.history.relative_residual[i],
                1e-10 * ref.history.relative_residual[i])
        << "iteration " << i;
  }
  EXPECT_LE(image_rmse(resumed.contrast, ref.contrast), 1e-10);
}

// Every 2-D refusal dies loudly with its own message.
void expect_refused(ParallelDbimConfig pcfg, const char* message) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  SceneFixture f;
  pcfg.illum_groups = 2;
  pcfg.dbim.max_iterations = 1;
  EXPECT_DEATH(
      {
        VCluster vc(2);
        dbim_reconstruct_parallel(vc, f.scene->tree(),
                                  f.scene->transceivers(),
                                  f.scene->measurements(), pcfg);
      },
      message);
}

TEST(ParallelDbimDeath, CbsBackendIsRefusedLoudly) {
  ParallelDbimConfig pcfg;
  pcfg.dbim.backend = BackendKind::kCbs;
  expect_refused(pcfg, "CBS/auto backend routing is a serial-driver feature");
}

TEST(ParallelDbimDeath, AutoBackendIsRefusedLoudly) {
  ParallelDbimConfig pcfg;
  pcfg.dbim.backend = BackendKind::kAuto;
  expect_refused(pcfg, "CBS/auto backend routing is a serial-driver feature");
}

// A multi-rank window runs fp64 partitioned tables only: asking for
// mixed precision, or handing it fp32 tables, dies with one message.
TEST(ParallelDbimDeath, MixedPrecisionIsRefusedLoudly) {
  ParallelDbimConfig pcfg;
  pcfg.dbim.precision = Precision::kMixed;
  expect_refused(pcfg, "DbimOptions::precision = kMixed is a serial-driver");
}

TEST(ParallelDbimDeath, Fp32TablesAreRefusedLoudly) {
  ParallelDbimConfig pcfg;
  pcfg.mlfma.precision = Precision::kMixed;
  pcfg.dbim.near_precondition = true;
  expect_refused(pcfg, "DbimOptions::precision = kMixed is a serial-driver");
}

}  // namespace
}  // namespace ffw
