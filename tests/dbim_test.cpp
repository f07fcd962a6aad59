// End-to-end inverse solver tests: DBIM reconstructs small phantoms, the
// residual history behaves like the paper describes, and the nonlinear
// (multiple-scattering) reconstruction beats the linear Born baseline at
// high contrast — the mechanism behind paper Figs. 1 and 2.
#include <gtest/gtest.h>

#include <cstring>

#include "dbim/born.hpp"
#include "dbim/dbim.hpp"
#include "dbim/parallel_driver.hpp"
#include "parallel/parallel_for.hpp"
#include "phantom/setup.hpp"

namespace ffw {
namespace {

ScenarioConfig small_config() {
  ScenarioConfig c;
  c.nx = 32;  // 3.2 lambda domain, 1024 pixels
  c.num_transmitters = 8;
  c.num_receivers = 24;
  return c;
}

TEST(Dbim, ReconstructsWeakBlob) {
  ScenarioConfig cfg = small_config();
  Grid grid(cfg.nx);
  Scenario scene(cfg,
                 gaussian_blob(grid, Vec2{0.3, -0.2}, 0.5, cplx{0.01, 0.0}));

  DbimOptions opts;
  opts.max_iterations = 12;
  const DbimResult res = dbim_reconstruct(
      scene.engine(), scene.transceivers(), scene.measurements(), opts);

  ASSERT_FALSE(res.history.relative_residual.empty());
  const double first = res.history.relative_residual.front();
  const double last = res.history.relative_residual.back();
  EXPECT_LT(last, 0.05 * first);  // two orders of magnitude-ish drop
  EXPECT_LT(image_rmse(res.contrast, scene.true_contrast()), 0.5);
}

TEST(Dbim, ThreeForwardSolvesPerIterationPerTransmitter) {
  ScenarioConfig cfg = small_config();
  cfg.num_transmitters = 4;
  Grid grid(cfg.nx);
  Scenario scene(cfg,
                 gaussian_blob(grid, Vec2{0.0, 0.0}, 0.5, cplx{0.005, 0.0}));

  DbimOptions opts;
  opts.max_iterations = 5;
  const DbimResult res = dbim_reconstruct(
      scene.engine(), scene.transceivers(), scene.measurements(), opts);
  // Paper Fig. 4: residual + gradient + step = 3 solves per transmitter
  // per iteration.
  EXPECT_EQ(res.history.forward_solves,
            static_cast<std::uint64_t>(3 * 4 * 5));
  EXPECT_GT(res.history.operator_applications, res.history.forward_solves);
}

TEST(Dbim, ResidualDecreasesMonotonically) {
  ScenarioConfig cfg = small_config();
  Grid grid(cfg.nx);
  Scenario scene(cfg, annulus(grid, 0.5, 0.9, cplx{0.01, 0.0}));

  DbimOptions opts;
  opts.max_iterations = 8;
  const DbimResult res = dbim_reconstruct(
      scene.engine(), scene.transceivers(), scene.measurements(), opts);
  const auto& hist = res.history.relative_residual;
  for (std::size_t i = 1; i < hist.size(); ++i) {
    EXPECT_LE(hist[i], hist[i - 1] * 1.05)
        << "residual increased at iteration " << i;
  }
}

TEST(Dbim, EarlyStopOnResidualTol) {
  ScenarioConfig cfg = small_config();
  cfg.num_transmitters = 4;
  Grid grid(cfg.nx);
  Scenario scene(cfg,
                 gaussian_blob(grid, Vec2{0.0, 0.0}, 0.6, cplx{0.004, 0.0}));
  DbimOptions opts;
  opts.max_iterations = 30;
  opts.residual_tol = 0.2;
  const DbimResult res = dbim_reconstruct(
      scene.engine(), scene.transceivers(), scene.measurements(), opts);
  EXPECT_LT(res.history.relative_residual.size(), 30u);
  EXPECT_LT(res.history.relative_residual.back(), 0.2);
}

// Every MLFMA application of a run belongs to one of its block solves
// (the Frechet passes make no bare G0 apply), and the iteration that
// meets residual_tol stops after its residual pass: a run that stops at
// iteration k costs T (3k - 2) forward solves.
TEST(Dbim, CountsEveryOperatorApplicationAndSkipsTheConvergedGradient) {
  ScenarioConfig cfg = small_config();
  cfg.num_transmitters = 4;
  Grid grid(cfg.nx);
  Scenario scene(cfg,
                 gaussian_blob(grid, Vec2{0.0, 0.0}, 0.6, cplx{0.004, 0.0}));
  DbimOptions opts;
  opts.max_iterations = 30;
  opts.residual_tol = 0.2;
  scene.engine().clear_phase_times();
  const DbimResult res = dbim_reconstruct(
      scene.engine(), scene.transceivers(), scene.measurements(), opts);
  const std::size_t k = res.history.relative_residual.size();
  ASSERT_GE(k, 2u);
  ASSERT_LT(k, 30u);
  EXPECT_EQ(res.history.forward_solves, 4 * (3 * k - 2));
  EXPECT_EQ(res.history.operator_applications,
            scene.engine().phase_times().applications);
}

TEST(Dbim, WarmStartFromTruthConvergesImmediately) {
  ScenarioConfig cfg = small_config();
  cfg.num_transmitters = 4;
  Grid grid(cfg.nx);
  Scenario scene(cfg,
                 gaussian_blob(grid, Vec2{0.1, 0.2}, 0.5, cplx{0.008, 0.0}));
  DbimOptions opts;
  opts.max_iterations = 1;
  const DbimResult res = dbim_reconstruct(
      scene.engine(), scene.transceivers(), scene.measurements(), opts, {},
      scene.true_contrast());
  // Starting from the true object, the initial residual reflects only
  // forward-solver tolerance (both solves at 1e-4).
  EXPECT_LT(res.history.relative_residual.front(), 1e-2);
}

// The Fig. 1 mechanism: at high contrast the Born (single-scattering)
// image degrades while DBIM stays accurate.
TEST(Dbim, BeatsBornAtHighContrast) {
  ScenarioConfig cfg = small_config();
  cfg.num_transmitters = 12;
  cfg.num_receivers = 32;
  Grid grid(cfg.nx);
  Scenario scene(cfg, annulus(grid, 0.5, 0.9, cplx{0.05, 0.0}));

  DbimOptions opts;
  opts.max_iterations = 15;
  const DbimResult dbim = dbim_reconstruct(
      scene.engine(), scene.transceivers(), scene.measurements(), opts);

  BornOptions bopts;
  bopts.max_iterations = 25;
  const BornResult born = born_reconstruct(
      scene.grid(), scene.transceivers(), scene.measurements(), bopts);

  const double dbim_rmse = image_rmse(dbim.contrast, scene.true_contrast());
  const double born_rmse = image_rmse(born.contrast, scene.true_contrast());
  EXPECT_LT(dbim_rmse, born_rmse);
}

TEST(Born, RecoversVeryWeakScatterer) {
  // In the true Born regime the linear inverse is accurate.
  ScenarioConfig cfg = small_config();
  cfg.num_transmitters = 12;
  cfg.num_receivers = 32;
  Grid grid(cfg.nx);
  Scenario scene(cfg,
                 gaussian_blob(grid, Vec2{0.0, 0.0}, 0.6, cplx{0.002, 0.0}));
  BornOptions bopts;
  bopts.max_iterations = 30;
  const BornResult born = born_reconstruct(
      scene.grid(), scene.transceivers(), scene.measurements(), bopts);
  EXPECT_LT(image_rmse(born.contrast, scene.true_contrast()), 0.5);
  ASSERT_FALSE(born.relative_residual.empty());
  EXPECT_LT(born.relative_residual.back(),
            0.3 * born.relative_residual.front());
}

// Results must not depend on the thread count (north-star aim 3). The
// benchmark's solver options (near-field preconditioner on MLFMA,
// adaptive forcing, recycling) reconstruct the same bits at 1 and 4
// threads on both serial backends (the FFT backend in fp64 and mixed
// precision), and on the 2x2 partitioned driver at 1 and 2 threads per
// rank. 64^2 with 8 transmitters spans more than one chunk of the
// chunk-parallel block kernels.
struct ThreadCountScene {
  ScenarioConfig cfg;
  std::unique_ptr<Scenario> scene;

  ThreadCountScene() {
    cfg.nx = 64;
    cfg.num_transmitters = 8;
    cfg.num_receivers = 24;
    Grid grid(cfg.nx);
    scene = std::make_unique<Scenario>(
        cfg, gaussian_blob(grid, Vec2{0.3, -0.2}, 0.8, cplx{0.02, 0.0}));
  }

  static DbimOptions options(BackendKind backend,
                             Precision cbs_precision = Precision::kDouble) {
    DbimOptions o;
    o.max_iterations = 4;
    o.backend = backend;
    o.cbs.precision = cbs_precision;
    o.near_precondition = backend == BackendKind::kMlfma;
    o.adaptive_forcing = true;
    o.recycle_depth = 2;
    return o;
  }

  DbimResult serial(BackendKind backend, int threads,
                    Precision cbs_precision = Precision::kDouble) const {
    set_num_threads(threads);
    DbimResult res = dbim_reconstruct(scene->engine(), scene->transceivers(),
                                      scene->measurements(),
                                      options(backend, cbs_precision),
                                      cfg.forward);
    set_num_threads(0);
    return res;
  }

  DbimResult parallel_2x2(int threads_per_rank) const {
    ParallelDbimConfig pcfg;
    pcfg.illum_groups = 2;
    pcfg.tree_ranks = 2;
    pcfg.dbim = options(BackendKind::kMlfma);
    pcfg.forward = cfg.forward;
    pcfg.mlfma = cfg.mlfma;
    set_num_threads(threads_per_rank);
    VCluster vc(4);
    DbimResult res = dbim_reconstruct_parallel(
        vc, scene->tree(), scene->transceivers(), scene->measurements(), pcfg);
    set_num_threads(0);
    return res;
  }
};

void expect_identical(const DbimResult& a, const DbimResult& b) {
  ASSERT_EQ(a.contrast.size(), b.contrast.size());
  EXPECT_EQ(std::memcmp(a.contrast.data(), b.contrast.data(),
                        a.contrast.size() * sizeof(cplx)),
            0);
  const auto& ha = a.history;
  const auto& hb = b.history;
  ASSERT_EQ(ha.relative_residual.size(), hb.relative_residual.size());
  EXPECT_EQ(std::memcmp(ha.relative_residual.data(),
                        hb.relative_residual.data(),
                        ha.relative_residual.size() * sizeof(double)),
            0);
  EXPECT_EQ(ha.forward_solves, hb.forward_solves);
  EXPECT_EQ(ha.operator_applications, hb.operator_applications);
  EXPECT_EQ(ha.bicgstab_iterations, hb.bicgstab_iterations);
}

TEST(DbimThreadCount, MlfmaIsBitIdenticalAt1And4Threads) {
  const ThreadCountScene s;
  expect_identical(s.serial(BackendKind::kMlfma, 1),
                   s.serial(BackendKind::kMlfma, 4));
}

TEST(DbimThreadCount, CbsIsBitIdenticalAt1And4Threads) {
  const ThreadCountScene s;
  expect_identical(s.serial(BackendKind::kCbs, 1),
                   s.serial(BackendKind::kCbs, 4));
}

// The FFT backend's fp32 inner sweeps under mixed-precision refinement.
TEST(DbimThreadCount, MixedCbsIsBitIdenticalAt1And4Threads) {
  const ThreadCountScene s;
  expect_identical(s.serial(BackendKind::kCbs, 1, Precision::kMixed),
                   s.serial(BackendKind::kCbs, 4, Precision::kMixed));
}

TEST(DbimThreadCount, Parallel2x2IsBitIdenticalAt1And2ThreadsPerRank) {
  const ThreadCountScene s;
  expect_identical(s.parallel_2x2(1), s.parallel_2x2(2));
}

}  // namespace
}  // namespace ffw
