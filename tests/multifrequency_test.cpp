// Frequency as the third parallel axis (ROADMAP item 3): the ladder's
// option-threading, noise-seed and hand-off regressions, the
// continuation driver (per-band stopping, checkpoint/resume), and the
// band-parallel ladder (dbim/continuation_parallel.hpp) against the
// serial one. A band with residual_tol = 0 and plateau_window = 0 is a
// fixed-iteration stage.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>

#include "common/rng.hpp"
#include "dbim/continuation.hpp"
#include "dbim/continuation_parallel.hpp"
#include "obs/obs.hpp"
#include "perfmodel/freq_model.hpp"
#include "phantom/phantom.hpp"

namespace ffw {
namespace {

std::uint64_t counter(obs::Counter c) {
  return obs::counter_totals(0)[static_cast<std::size_t>(c)];
}

// ---------------------------------------------------------------------
// Regression (dropped options): the ladder used to construct default
// DbimOptions per stage, silently discarding the caller's backend
// routing, precision and regularisation choices. The caller's options
// must demonstrably act inside every stage.

TEST(MultiFrequencyOptionsBug, BackendRoutingReachesEveryStage) {
  obs::set_enabled(true);
  ScenarioConfig cfg;
  cfg.nx = 32;
  cfg.num_transmitters = 6;
  cfg.num_receivers = 20;
  Grid grid(cfg.nx);
  const cvec truth =
      gaussian_blob(grid, Vec2{0.2, 0.1}, 0.5, cplx{0.01, 0.0});

  ContinuationOptions opts;
  opts.dbim.backend = BackendKind::kAuto;  // starts every solve on CBS
  const std::uint64_t cbs0 = counter(obs::Counter::kCbsIterations);
  const ContinuationResult mf = continuation_reconstruct(
      cfg, truth, FrequencyLadder{{{1, 2}, {0, 2}}}, opts);
  const std::uint64_t cbs1 = counter(obs::Counter::kCbsIterations);
  obs::set_enabled(false);

  ASSERT_EQ(mf.stages.size(), 2u);
  for (const StageReport& st : mf.stages) {
    EXPECT_EQ(st.history.backend, BackendKind::kAuto);
  }
  // The routing actually ran: CBS iterations were spent inside the
  // ladder's stages (zero pre-fix, when stages rebuilt default options).
  EXPECT_GT(cbs1, cbs0);
}

TEST(MultiFrequencyOptionsBug, MixedPrecisionRunsInsideTheLadder) {
  obs::set_enabled(true);
  ScenarioConfig cfg;
  cfg.nx = 32;
  cfg.num_transmitters = 6;
  cfg.num_receivers = 20;
  Grid grid(cfg.nx);
  const cvec truth =
      gaussian_blob(grid, Vec2{-0.2, 0.2}, 0.5, cplx{0.01, 0.0});

  ContinuationOptions opts;
  opts.mixed_precision = true;
  const std::uint64_t rr0 = counter(obs::Counter::kRefinementRounds);
  const ContinuationResult mf = continuation_reconstruct(
      cfg, truth, FrequencyLadder{{{1, 2}, {0, 2}}}, opts);
  const std::uint64_t rr1 = counter(obs::Counter::kRefinementRounds);
  obs::set_enabled(false);

  ASSERT_EQ(mf.stages.size(), 2u);
  // Iterative-refinement rounds prove the fp32 engine carried the
  // Krylov sweeps inside the stages.
  EXPECT_GT(rr1, rr0);
}

// ---------------------------------------------------------------------
// Regression (correlated noise): every stage used to synthesise its
// measurements from the one ScenarioConfig::noise_seed, so the
// "independent experiments per frequency" shared a noise realization.

TEST(MultiFrequencyNoiseBug, PerStageSeedsDecorrelateStages) {
  ScenarioConfig cfg;
  cfg.nx = 32;
  cfg.num_transmitters = 6;
  cfg.num_receivers = 20;
  cfg.measurement_noise = 0.05;
  Grid grid(cfg.nx);
  const cvec truth =
      gaussian_blob(grid, Vec2{0.0, 0.3}, 0.5, cplx{0.01, 0.0});

  // Reference: one 5-iteration run. Its history[4] is the residual of
  // the 4-times-updated contrast against the seed-42 measurements.
  ContinuationOptions legacy;
  legacy.per_stage_noise_seeds = false;
  const ContinuationResult one =
      continuation_reconstruct(cfg, truth, FrequencyLadder{{{0, 5}}}, legacy);
  const std::vector<double>& one_res = one.stages[0].history.relative_residual;
  ASSERT_EQ(one_res.size(), 5u);
  const double ref = one_res[4];

  // Legacy seeds: an equal-nx two-stage split sees the *same* data in
  // both stages (the bug), so stage 1's initial residual reproduces the
  // one-run trajectory.
  const FrequencyLadder split{{{0, 4}, {0, 4}}};
  const ContinuationResult corr =
      continuation_reconstruct(cfg, truth, split, legacy);
  const std::vector<double>& corr1 = corr.stages[1].history.relative_residual;
  ASSERT_FALSE(corr1.empty());
  EXPECT_NEAR(corr1[0], ref, 2e-3 * ref);

  // Per-stage seeds (the fix, default): stage 1 measures a fresh noise
  // realization, so the image fitted to stage 0's realization starts
  // visibly off the correlated trajectory. Fails pre-fix.
  const ContinuationResult decorr = continuation_reconstruct(cfg, truth, split);
  const std::vector<double>& decorr1 =
      decorr.stages[1].history.relative_residual;
  ASSERT_FALSE(decorr1.empty());
  EXPECT_GT(std::abs(decorr1[0] - ref), 1e-2 * ref);
}

TEST(MultiFrequencyNoiseBug, MixSeedSeparatesAndIsDeterministic) {
  EXPECT_NE(mix_seed(42, 0), mix_seed(42, 1));
  EXPECT_NE(mix_seed(42, 0), 42u);
  EXPECT_EQ(mix_seed(42, 3), mix_seed(42, 3));
  EXPECT_NE(mix_seed(42, 1), mix_seed(43, 1));
}

// ---------------------------------------------------------------------
// Regression (equal-nx drift): the verbatim hand-off. Pre-fix the
// warm start round-tripped contrast -> delta_eps -> contrast through a
// divide/multiply by k0^2, drifting equal-resolution repeats by an ulp.

TEST(MultiFrequencyWarmStartBug, EqualResolutionHandOffIsBitExact) {
  ScenarioConfig cfg;
  cfg.nx = 32;
  cfg.num_transmitters = 6;
  cfg.num_receivers = 20;
  Grid grid(cfg.nx);
  const cvec truth =
      gaussian_blob(grid, Vec2{0.3, 0.0}, 0.5, cplx{0.01, 0.0});

  const ContinuationResult a =
      continuation_reconstruct(cfg, truth, FrequencyLadder{{{0, 4}}});
  // A trailing zero-iteration stage must hand the image through
  // untouched: same permittivity to the bit.
  const ContinuationResult b =
      continuation_reconstruct(cfg, truth, FrequencyLadder{{{0, 4}, {0, 0}}});
  ASSERT_EQ(a.permittivity.size(), b.permittivity.size());
  EXPECT_EQ(0, std::memcmp(a.permittivity.data(), b.permittivity.data(),
                           a.permittivity.size() * sizeof(cplx)));
}

TEST(ContinuationWarmStart, EqualNxIsVerbatimAndUpsampleRescales) {
  Rng rng(7);
  cvec c(64 * 64);
  rng.fill_cnormal(c);
  const cvec same = continuation_warm_start(c, 64, 64, 39.5, 157.9);
  ASSERT_EQ(same.size(), c.size());
  EXPECT_EQ(0, std::memcmp(same.data(), c.data(), c.size() * sizeof(cplx)));

  const cvec up = continuation_warm_start(c, 64, 128, 10.0, 40.0);
  EXPECT_EQ(up.size(), std::size_t{128} * 128);
  // delta_eps is conserved: contrast scales by k2_next / k2_prev = 4 at
  // the coincident coarse sample points.
  EXPECT_NEAR(std::abs(up[0]), std::abs(c[0]) * 4.0, 1e-9 * std::abs(c[0]));
}

// ---------------------------------------------------------------------
// Continuation driver: stopping rules, ladder-vs-single quality and
// checkpoint/resume.

TEST(Continuation, PlateauAndStopReason) {
  EXPECT_FALSE(continuation_plateau({1.0, 0.5, 0.25}, 0, 0.02));
  EXPECT_FALSE(continuation_plateau({1.0, 0.5}, 2, 0.02));     // too short
  EXPECT_FALSE(continuation_plateau({1.0, 0.5, 0.25}, 2, 0.02));
  EXPECT_TRUE(continuation_plateau({1.0, 0.5, 0.499, 0.498}, 2, 0.02));

  FrequencyBand band;
  band.max_iterations = 4;
  band.residual_tol = 0.1;
  band.plateau_window = 2;
  band.plateau_rtol = 0.02;
  EXPECT_EQ(continuation_stop_reason({1.0, 0.5, 0.05}, band),
            StageStop::kResidualTol);
  EXPECT_EQ(continuation_stop_reason({1.0, 0.9, 0.89, 0.889}, band),
            StageStop::kPlateau);
  EXPECT_EQ(continuation_stop_reason({1.0, 0.8, 0.6, 0.4}, band),
            StageStop::kIterations);
  band.residual_tol = 0.0;
  band.plateau_window = 0;
  EXPECT_EQ(continuation_stop_reason({1.0, 0.8}, band),
            StageStop::kDegenerate);
}

TEST(Continuation, PlateauCutsABandShort) {
  ScenarioConfig cfg;
  cfg.nx = 32;
  cfg.num_transmitters = 6;
  cfg.num_receivers = 20;
  Grid grid(cfg.nx);
  const cvec truth =
      gaussian_blob(grid, Vec2{0.1, -0.2}, 0.5, cplx{0.01, 0.0});

  FrequencyLadder ladder;
  ladder.bands.push_back({0, 20, 0.0, 1, 0.9});  // "progress < 90%" stop
  const ContinuationResult res = continuation_reconstruct(cfg, truth, ladder);
  ASSERT_EQ(res.stages.size(), 1u);
  EXPECT_EQ(res.stages[0].stop, StageStop::kPlateau);
  EXPECT_LT(res.stages[0].iterations, 20);
}

TEST(Continuation, LadderBeatsSingleFrequencyAtHighContrast) {
  ScenarioConfig cfg;
  cfg.nx = 64;
  cfg.num_transmitters = 8;
  cfg.num_receivers = 24;
  Grid grid(cfg.nx);
  const cvec truth = disks(grid, {{Vec2{0.0, 0.0}, 1.4, cplx{0.08, 0.0}}});

  const FrequencyLadder ladder = FrequencyLadder::geometric(2, 8);
  const ContinuationResult mf = continuation_reconstruct(cfg, truth, ladder);
  ASSERT_EQ(mf.stages.size(), 2u);

  Scenario scene(cfg, truth);
  DbimOptions opts;
  opts.max_iterations = 8;
  const DbimResult single = dbim_reconstruct(
      scene.engine(), scene.transceivers(), scene.measurements(), opts);

  const cvec mf_contrast = contrast_from_permittivity(grid, mf.permittivity);
  EXPECT_LT(image_rmse(mf_contrast, scene.true_contrast()),
            image_rmse(single.contrast, scene.true_contrast()));
}

TEST(Continuation, ResumeMidLadderIsBitIdentical) {
  const char* path = "/tmp/ffw_freq_resume.ckpt";
  std::remove(path);
  ScenarioConfig cfg;
  cfg.nx = 32;
  cfg.num_transmitters = 6;
  cfg.num_receivers = 20;
  cfg.measurement_noise = 0.03;
  Grid grid(cfg.nx);
  const cvec truth =
      gaussian_blob(grid, Vec2{0.2, -0.1}, 0.5, cplx{0.015, 0.0});
  FrequencyLadder ladder;
  ladder.bands.push_back({1, 4});
  ladder.bands.push_back({0, 4});

  const ContinuationResult ref = continuation_reconstruct(cfg, truth, ladder);
  ASSERT_EQ(ref.stages.size(), 2u);

  // Crash mid-ladder: drop the stepper once band 0 has ended (and saved
  // its stage checkpoint).
  ContinuationOptions crash;
  crash.checkpoint_path = path;
  {
    LadderStepper partial = continuation_ladder(cfg, truth, ladder, crash);
    while (partial.band() == 0 && partial.step()) {
    }
    EXPECT_FALSE(partial.done());
    ASSERT_EQ(partial.stages().size(), 1u);
  }

  ContinuationOptions resume;
  resume.checkpoint_path = path;
  resume.resume_from_checkpoint = true;
  const ContinuationResult resumed =
      continuation_reconstruct(cfg, truth, ladder, resume);
  EXPECT_EQ(resumed.first_stage, 1);
  ASSERT_EQ(resumed.stages.size(), 1u);
  EXPECT_EQ(resumed.stages[0].band, 1);

  ASSERT_EQ(resumed.permittivity.size(), ref.permittivity.size());
  EXPECT_EQ(0, std::memcmp(resumed.permittivity.data(),
                           ref.permittivity.data(),
                           ref.permittivity.size() * sizeof(cplx)));
  std::remove(path);
}

// ---------------------------------------------------------------------
// The frequency partition and the band-parallel driver.

TEST(FreqPartition, AutoShapesAndOwnership) {
  const FreqPartition p = make_freq_partition(4, 2);
  ASSERT_EQ(p.num_groups(), 2);
  EXPECT_EQ(p.nranks(), 4);
  EXPECT_EQ(p.groups[0].base, 0);
  EXPECT_EQ(p.groups[1].base, 2);
  EXPECT_EQ(p.groups[0].size(), 2);
  EXPECT_EQ(p.group_of(0), 0);
  EXPECT_EQ(p.group_of(1), 0);
  EXPECT_EQ(p.group_of(3), 1);
  EXPECT_EQ(p.owner_of_band(0), 0);
  EXPECT_EQ(p.owner_of_band(1), 1);
  EXPECT_EQ(p.owner_of_band(2), 0);
  EXPECT_EQ(p.ranks(1), (std::vector<int>{2, 3}));

  // More ranks than bands: the auto shape never exceeds the band count.
  const FreqPartition q = make_freq_partition(8, 2);
  EXPECT_EQ(q.num_groups(), 2);
  EXPECT_EQ(q.groups[0].size(), 4);

  // Explicit 3-D shape: 2 groups x (2 illum x 2 tree).
  const FreqPartition r = make_freq_partition(8, 4, 2, 2);
  ASSERT_EQ(r.num_groups(), 2);
  EXPECT_EQ(r.groups[0].illum_groups, 2);
  EXPECT_EQ(r.groups[0].tree_ranks, 2);
}

class BandParallel : public ::testing::TestWithParam<int> {};

TEST_P(BandParallel, MatchesSerialLadder) {
  const int p = GetParam();
  ScenarioConfig cfg;
  cfg.nx = 32;
  cfg.num_transmitters = 6;
  cfg.num_receivers = 20;
  cfg.leaf_pixel_side = 4;  // coarse rungs (nx=16) need a far-field level
  cfg.measurement_noise = 0.05;
  Grid grid(cfg.nx);
  const cvec truth =
      gaussian_blob(grid, Vec2{0.25, 0.1}, 0.5, cplx{0.015, 0.0});

  // Five bands (two coarse rungs, three fine) so p in {1, 2, 4} maps to
  // single-rank band groups: the parallel arithmetic is then the serial
  // arithmetic, band-by-band, and must agree to reduction-order
  // rounding. p = 1 runs every band in one group, so each band follows
  // its predecessor without a message. The last band stops on
  // residual_tol after a CG update, so its iteration count (updates) is
  // one less than its residual count.
  FrequencyLadder ladder;
  ladder.bands.push_back({1, 3});
  ladder.bands.push_back({1, 2});
  ladder.bands.push_back({0, 3});
  ladder.bands.push_back({0, 2});
  ladder.bands.push_back({0, 8, 0.027});

  const ContinuationResult serial = continuation_reconstruct(cfg, truth,
                                                             ladder);

  VCluster vc(p);
  const ContinuationResult par =
      continuation_reconstruct_parallel(vc, cfg, truth, ladder);

  ASSERT_EQ(serial.stages.back().stop, StageStop::kResidualTol);
  EXPECT_GT(serial.stages.back().iterations, 0);
  ASSERT_EQ(par.stages.size(), serial.stages.size());
  for (std::size_t s = 0; s < serial.stages.size(); ++s) {
    EXPECT_EQ(par.stages[s].nx, serial.stages[s].nx);
    EXPECT_EQ(par.stages[s].iterations, serial.stages[s].iterations)
        << "band " << s;
    EXPECT_EQ(par.stages[s].stop, serial.stages[s].stop);
    EXPECT_EQ(par.stages[s].history.forward_solves,
              serial.stages[s].history.forward_solves)
        << "band " << s;
  }
  ASSERT_EQ(par.permittivity.size(), serial.permittivity.size());
  EXPECT_LE(image_rmse(par.permittivity, serial.permittivity), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Pools, BandParallel, ::testing::Values(2, 4, 1));

TEST(BandParallel, TwoDimensionalWindowsReconstruct) {
  // 2 band groups x (1 illum x 2 tree ranks): exercises the windowed
  // 2-D driver inside band groups. Krylov trajectories differ from the
  // serial ladder's (blocked solves split differently), so parity is at
  // reconstruction accuracy, not bit level.
  ScenarioConfig cfg;
  cfg.nx = 32;
  cfg.num_transmitters = 6;
  cfg.num_receivers = 20;
  cfg.leaf_pixel_side = 4;
  Grid grid(cfg.nx);
  const cvec truth =
      gaussian_blob(grid, Vec2{-0.1, 0.2}, 0.5, cplx{0.01, 0.0});
  FrequencyLadder ladder;
  ladder.bands.push_back({1, 3});
  ladder.bands.push_back({0, 3});

  const ContinuationResult serial = continuation_reconstruct(cfg, truth,
                                                             ladder);
  VCluster vc(4);
  BandParallelOptions opts;
  opts.freq_groups = 2;
  opts.tree_ranks = 2;
  const ContinuationResult par =
      continuation_reconstruct_parallel(vc, cfg, truth, ladder, opts);
  ASSERT_EQ(par.stages.size(), 2u);
  EXPECT_LT(image_rmse(par.permittivity, serial.permittivity), 1e-3);
}

TEST(BandParallel, ResumeSkipsCompletedBands) {
  const char* path = "/tmp/ffw_freq_par_resume.ckpt";
  std::remove(path);
  ScenarioConfig cfg;
  cfg.nx = 32;
  cfg.num_transmitters = 6;
  cfg.num_receivers = 20;
  cfg.leaf_pixel_side = 4;
  Grid grid(cfg.nx);
  const cvec truth =
      gaussian_blob(grid, Vec2{0.0, -0.3}, 0.5, cplx{0.012, 0.0});
  FrequencyLadder ladder;
  ladder.bands.push_back({1, 3});
  ladder.bands.push_back({0, 3});

  // Serial run writes the stage-0 checkpoint, then "crashes".
  ContinuationOptions crash;
  crash.checkpoint_path = path;
  {
    LadderStepper partial = continuation_ladder(cfg, truth, ladder, crash);
    while (partial.band() == 0 && partial.step()) {
    }
  }

  // The band-parallel driver resumes the same file: band 0 is skipped,
  // band 1 runs, and the result matches the uninterrupted serial run.
  const ContinuationResult ref = continuation_reconstruct(cfg, truth, ladder);
  VCluster vc(2);
  BandParallelOptions opts;
  opts.continuation.checkpoint_path = path;
  opts.continuation.resume_from_checkpoint = true;
  const ContinuationResult par =
      continuation_reconstruct_parallel(vc, cfg, truth, ladder, opts);
  EXPECT_EQ(par.first_stage, 1);
  ASSERT_EQ(par.stages.size(), 1u);
  EXPECT_EQ(par.stages[0].band, 1);
  EXPECT_LE(image_rmse(par.permittivity, ref.permittivity), 1e-10);
  std::remove(path);
}

// ---------------------------------------------------------------------
// The 3-D partition model.

TEST(FreqModel, ChoosesAValidPartitionAndPipelinesHelp) {
  CalibratedRates rates;
  rates.cmacs_per_s.fill(1.0e9);
  const ScalingModel model(MachineParams{}, rates);

  std::vector<FreqBandSpec> bands{{32, 8, 4}, {64, 8, 4}};
  const Freq3dChoice choice = choose_freq_partition(model, bands, 4, false);
  EXPECT_EQ(choice.freq_groups * choice.illum_groups * choice.tree_ranks, 4);
  EXPECT_LE(choice.freq_groups, 2);
  EXPECT_GT(choice.time_s, 0.0);
  // The chosen split is no slower than forcing everything through one
  // band group of pure illumination parallelism.
  EXPECT_LE(choice.time_s,
            freq_pipeline_time(model, bands, 1, 4, 1, false) + 1e-12);

  // Overlapping a second band group hides the second band's setup: the
  // pipeline is never slower than the one-group serial chain on the
  // same per-band resources (the warm-start link is microseconds, the
  // hidden setup is not).
  EXPECT_LE(freq_pipeline_time(model, bands, 2, 1, 1, false),
            freq_pipeline_time(model, bands, 1, 1, 1, false));
}

}  // namespace
}  // namespace ffw
