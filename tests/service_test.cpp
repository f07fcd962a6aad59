// ReconstructionService: DbimStepper trajectory identity, multi-tenant
// completion over a shared cache + rank pool, fair stepping, priority
// admission, and crash isolation (cancel / tenant crash / injected rank
// failure) leaving the surviving jobs bit-identical to fault-free runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "dbim/continuation.hpp"
#include "dbim/dbim.hpp"
#include "phantom/phantom.hpp"
#include "phantom/resample.hpp"
#include "phantom/setup.hpp"
#include "service/service.hpp"

namespace ffw {
namespace {

ScenarioConfig small_config() {
  ScenarioConfig cfg;
  cfg.nx = 32;
  cfg.num_transmitters = 8;
  cfg.num_receivers = 24;
  return cfg;
}

/// A JobSpec that reproduces `scene`'s geometry exactly, so the service
/// and a serial reference reconstruct the same inverse problem.
JobSpec make_job(const std::string& name, const Scenario& scene,
                 int iterations = 3, int priority = 0) {
  const ScenarioConfig& cfg = scene.config();
  JobSpec spec;
  spec.name = name;
  spec.nx = cfg.nx;
  spec.leaf_pixel_side = cfg.leaf_pixel_side;
  spec.mlfma = cfg.mlfma;
  const double radius = cfg.ring_radius_factor * scene.grid().domain();
  spec.transmitters = ring_positions(cfg.num_transmitters, radius);
  spec.receivers = ring_positions(cfg.num_receivers, radius);
  spec.measured = scene.measurements();
  spec.dbim.max_iterations = iterations;
  spec.forward = cfg.forward;
  spec.priority = priority;
  return spec;
}

/// What the service does per job, minus the scheduler: same cache
/// artifacts, same options. The gold trajectory.
DbimResult serial_reference(OperatorTableCache& cache, const JobSpec& spec) {
  const Grid grid(spec.nx);
  const auto tables =
      cache.mlfma_tables(grid, spec.leaf_pixel_side, spec.mlfma);
  MlfmaEngine engine(tables);
  const auto tt =
      cache.transceiver_tables(grid, spec.transmitters, spec.receivers);
  DbimOptions opts = spec.dbim;
  opts.progress = nullptr;  // observers never feed back into the math
  opts.checkpoint = nullptr;
  opts.table_cache = &cache;
  return dbim_reconstruct(engine, tt->trx, spec.measured, opts, spec.forward,
                          spec.initial_contrast);
}

void expect_bit_identical(const DbimResult& a, const DbimResult& b) {
  ASSERT_EQ(a.contrast.size(), b.contrast.size());
  EXPECT_EQ(std::memcmp(a.contrast.data(), b.contrast.data(),
                        a.contrast.size() * sizeof(cplx)),
            0);
  EXPECT_EQ(a.history.relative_residual, b.history.relative_residual);
}

TEST(DbimStepper, MatchesMonolithicDriver) {
  ScenarioConfig cfg = small_config();
  Scenario scene(cfg,
                 gaussian_blob(Grid(cfg.nx), Vec2{0.3, -0.2}, 0.5,
                               cplx{0.01, 0.0}));
  DbimOptions opts;
  opts.max_iterations = 3;
  const DbimResult gold = dbim_reconstruct(
      scene.engine(), scene.transceivers(), scene.measurements(), opts,
      cfg.forward);

  DbimStepper stepper(scene.engine(), scene.transceivers(),
                      scene.measurements(), opts, cfg.forward);
  int steps = 0;
  while (stepper.step()) ++steps;
  EXPECT_TRUE(stepper.done());
  EXPECT_EQ(stepper.iteration(), 3);
  const DbimResult split = stepper.result();
  expect_bit_identical(gold, split);
  EXPECT_EQ(gold.history.forward_solves, split.history.forward_solves);
}

TEST(Service, CompletedJobsMatchSerialReference) {
  OperatorTableCache cache;
  ScenarioConfig cfg = small_config();
  cfg.table_cache = &cache;  // warms the same cache the service uses
  Scenario scene(cfg,
                 gaussian_blob(Grid(cfg.nx), Vec2{0.3, -0.2}, 0.5,
                               cplx{0.01, 0.0}));

  ReconstructionService service(cache);
  std::vector<int> ids;
  for (int j = 0; j < 3; ++j) {
    ids.push_back(service.submit(make_job("tenant" + std::to_string(j),
                                          scene)));
  }
  VCluster vc(2);
  service.run(vc);

  const ServiceStats ss = service.stats();
  EXPECT_EQ(ss.submitted, 3u);
  EXPECT_EQ(ss.completed, 3u);
  EXPECT_EQ(ss.failed, 0u);
  const DbimResult gold = serial_reference(cache, make_job("ref", scene));
  for (const int id : ids) {
    const JobStatus st = service.status(id);
    EXPECT_EQ(st.state, JobState::kCompleted);
    EXPECT_EQ(st.iterations, 3);
    expect_bit_identical(gold, service.result(id));
  }
  // Three tenants, one configuration: the MLFMA tables and transceiver
  // panel were built once and amortised (the scenario's warm-up built
  // them; every service job hit).
  const auto cs = cache.stats();
  EXPECT_GT(cs.hits, cs.misses);
}

TEST(Service, FairStepsInterleaveTenants) {
  OperatorTableCache cache;
  ScenarioConfig cfg = small_config();
  Scenario scene(cfg,
                 gaussian_blob(Grid(cfg.nx), Vec2{0.3, -0.2}, 0.5,
                               cplx{0.01, 0.0}));

  std::mutex order_mu;
  std::vector<int> order;  // job tag per progress event, in step order
  ReconstructionService service(cache);
  for (int j = 0; j < 2; ++j) {
    JobSpec spec = make_job("fair" + std::to_string(j), scene);
    spec.dbim.progress = [&order_mu, &order, j](int, double) {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(j);
    };
    service.submit(std::move(spec));
  }
  VCluster vc(1);  // single worker => the pick order is observable
  service.run(vc);

  ASSERT_EQ(order.size(), 6u);
  // Least-consumed-time stepping: after job0's first step it has more
  // compute time than untouched job1, so the first two ticks touch
  // *different* tenants instead of running job0 to completion first.
  EXPECT_NE(order[0], order[1]);
  EXPECT_EQ(service.status(0).state, JobState::kCompleted);
  EXPECT_EQ(service.status(1).state, JobState::kCompleted);
}

TEST(Service, PriorityOrdersAdmission) {
  OperatorTableCache cache;
  ScenarioConfig cfg = small_config();
  Scenario scene(cfg,
                 gaussian_blob(Grid(cfg.nx), Vec2{0.3, -0.2}, 0.5,
                               cplx{0.01, 0.0}));

  ServiceOptions opts;
  opts.max_active_jobs = 1;  // serialise admission to observe its order
  ReconstructionService service(cache, opts);
  std::mutex order_mu;
  std::vector<int> first_touch;
  const int priorities[3] = {0, 5, 1};
  for (int j = 0; j < 3; ++j) {
    JobSpec spec = make_job("prio" + std::to_string(j), scene, /*iterations=*/2,
                            priorities[j]);
    spec.dbim.progress = [&order_mu, &first_touch, j](int, double) {
      std::lock_guard<std::mutex> lock(order_mu);
      if (std::find(first_touch.begin(), first_touch.end(), j) ==
          first_touch.end()) {
        first_touch.push_back(j);
      }
    };
    service.submit(std::move(spec));
  }
  VCluster vc(1);
  service.run(vc);

  // Highest priority admits first; FIFO only breaks ties.
  ASSERT_EQ(first_touch.size(), 3u);
  EXPECT_EQ(first_touch[0], 1);
  EXPECT_EQ(first_touch[1], 2);
  EXPECT_EQ(first_touch[2], 0);
}

TEST(Service, CancelLeavesOtherJobsBitIdentical) {
  ScenarioConfig cfg = small_config();
  Scenario scene(cfg,
                 gaussian_blob(Grid(cfg.nx), Vec2{0.3, -0.2}, 0.5,
                               cplx{0.01, 0.0}));

  // Gold: all three tenants run fault-free.
  OperatorTableCache gold_cache;
  const DbimResult gold =
      serial_reference(gold_cache, make_job("ref", scene));

  OperatorTableCache cache;
  ReconstructionService service(cache);
  const int a = service.submit(make_job("a", scene));
  const int b = service.submit(make_job("b", scene));
  JobSpec doomed = make_job("doomed", scene, /*iterations=*/5);
  doomed.dbim.progress = [&service](int iter, double) {
    if (iter == 0) service.cancel(2);  // tenant cancels itself mid-run
  };
  const int c = service.submit(std::move(doomed));

  VCluster vc(2);
  service.run(vc);

  EXPECT_EQ(service.status(c).state, JobState::kCancelled);
  EXPECT_LT(service.status(c).iterations, 5);
  EXPECT_GE(service.status(c).iterations, 1);  // partial result retained
  EXPECT_EQ(service.result(c).contrast.size(), Grid(cfg.nx).num_pixels());
  for (const int id : {a, b}) {
    ASSERT_EQ(service.status(id).state, JobState::kCompleted);
    expect_bit_identical(gold, service.result(id));
  }
  EXPECT_EQ(service.stats().cancelled, 1u);
}

TEST(Service, TenantCrashIsIsolated) {
  ScenarioConfig cfg = small_config();
  Scenario scene(cfg,
                 gaussian_blob(Grid(cfg.nx), Vec2{0.3, -0.2}, 0.5,
                               cplx{0.01, 0.0}));
  OperatorTableCache gold_cache;
  const DbimResult gold =
      serial_reference(gold_cache, make_job("ref", scene));

  OperatorTableCache cache;
  ReconstructionService service(cache);
  const int a = service.submit(make_job("a", scene));
  const int b = service.submit(make_job("b", scene));
  JobSpec crasher = make_job("crasher", scene, /*iterations=*/5);
  crasher.dbim.progress = [](int iter, double) {
    if (iter == 1) throw std::runtime_error("tenant callback exploded");
  };
  const int c = service.submit(std::move(crasher));

  VCluster vc(2);
  service.run(vc);  // must return normally: the crash stays in job c

  const JobStatus st = service.status(c);
  EXPECT_EQ(st.state, JobState::kFailed);
  EXPECT_NE(st.error.find("exploded"), std::string::npos);
  for (const int id : {a, b}) {
    ASSERT_EQ(service.status(id).state, JobState::kCompleted);
    expect_bit_identical(gold, service.result(id));
  }
  EXPECT_EQ(service.stats().failed, 1u);
  EXPECT_EQ(service.stats().pool_restarts, 0);
}

TEST(Service, MultiFrequencyStagesShareCachedTables) {
  ScenarioConfig cfg;
  cfg.nx = 32;
  cfg.num_transmitters = 6;
  cfg.num_receivers = 20;
  const cvec truth =
      gaussian_blob(Grid(cfg.nx), Vec2{0.3, 0.0}, 0.5, cplx{0.01, 0.0});
  const FrequencyLadder stages{{{1, 2}, {0, 2}}};

  const ContinuationResult plain = continuation_reconstruct(cfg, truth, stages);

  OperatorTableCache cache;
  cfg.table_cache = &cache;
  const ContinuationResult cached =
      continuation_reconstruct(cfg, truth, stages);
  // Cache routing may not change a single bit of the image.
  ASSERT_EQ(plain.permittivity.size(), cached.permittivity.size());
  EXPECT_EQ(std::memcmp(plain.permittivity.data(), cached.permittivity.data(),
                        plain.permittivity.size() * sizeof(cplx)),
            0);
  ASSERT_EQ(cached.stages.size(), stages.bands.size());

  // A second ladder over the same cache rebuilds nothing.
  const auto misses_after_first = cache.stats().misses;
  EXPECT_GT(misses_after_first, 0u);
  const ContinuationResult again =
      continuation_reconstruct(cfg, truth, stages);
  EXPECT_EQ(cache.stats().misses, misses_after_first);
  EXPECT_GT(cache.stats().hits, 0u);
  EXPECT_EQ(std::memcmp(plain.permittivity.data(), again.permittivity.data(),
                        plain.permittivity.size() * sizeof(cplx)),
            0);
}

TEST(Service, LadderJobMatchesManualContinuation) {
  // A multi-frequency job: two bands (nx 16 -> 32), each with its own
  // geometry and measured panel, warm-started down the ladder inside
  // the fair-share scheduler. The result must be bit-identical to
  // running the two bands by hand through the same cache.
  OperatorTableCache cache;
  ScenarioConfig cfg;
  cfg.nx = 32;
  cfg.num_transmitters = 6;
  cfg.num_receivers = 20;
  cfg.table_cache = &cache;
  const Grid fine(cfg.nx), coarse(16);
  const cvec truth =
      gaussian_blob(fine, Vec2{0.2, -0.1}, 0.5, cplx{0.012, 0.0});
  const cvec truth16 = downsample2(truth, cfg.nx);
  ScenarioConfig c16 = cfg;
  c16.nx = 16;
  Scenario s16(c16, truth16);
  Scenario s32(cfg, truth);

  const auto band_of = [&cfg](const Scenario& s, int iters) {
    JobBand b;
    b.nx = s.grid().nx();
    const double radius = cfg.ring_radius_factor * s.grid().domain();
    b.transmitters = ring_positions(cfg.num_transmitters, radius);
    b.receivers = ring_positions(cfg.num_receivers, radius);
    b.measured = s.measurements();
    b.max_iterations = iters;
    return b;
  };
  JobSpec spec;
  spec.name = "ladder";
  spec.nx = cfg.nx;
  spec.forward = cfg.forward;
  spec.bands.push_back(band_of(s16, 3));
  spec.bands.push_back(band_of(s32, 2));

  ReconstructionService service(cache);
  const int id = service.submit(spec);
  VCluster vc(2);
  service.run(vc);
  const JobStatus st = service.status(id);
  EXPECT_EQ(st.state, JobState::kCompleted);
  EXPECT_EQ(st.band, 1);
  EXPECT_EQ(st.iterations, 5);

  // Manual reference: band 0, shared warm-start arithmetic, band 1.
  JobSpec ref0 = spec;
  ref0.nx = 16;
  ref0.transmitters = spec.bands[0].transmitters;
  ref0.receivers = spec.bands[0].receivers;
  ref0.measured = spec.bands[0].measured;
  ref0.dbim.max_iterations = 3;
  ref0.bands.clear();
  const DbimResult r0 = serial_reference(cache, ref0);
  JobSpec ref1 = ref0;
  ref1.nx = 32;
  ref1.transmitters = spec.bands[1].transmitters;
  ref1.receivers = spec.bands[1].receivers;
  ref1.measured = spec.bands[1].measured;
  ref1.dbim.max_iterations = 2;
  ref1.initial_contrast = continuation_warm_start(
      r0.contrast, 16, 32, coarse.k0() * coarse.k0(), fine.k0() * fine.k0());
  const DbimResult gold = serial_reference(cache, ref1);
  expect_bit_identical(gold, service.result(id));
}

/// A service ladder band reproducing `s`'s geometry and data.
JobBand band_of(const Scenario& s, int iterations) {
  const ScenarioConfig& cfg = s.config();
  JobBand b;
  b.nx = s.grid().nx();
  const double radius = cfg.ring_radius_factor * s.grid().domain();
  b.transmitters = ring_positions(cfg.num_transmitters, radius);
  b.receivers = ring_positions(cfg.num_receivers, radius);
  b.measured = s.measurements();
  b.max_iterations = iterations;
  return b;
}

TEST(Service, LadderJobStopsOnPlateauAndResidualLikeContinuation) {
  // Band 0 ends on a plateau, band 1 on residual_tol. The service job
  // is built from the Scenarios continuation_reconstruct builds (same
  // box-filtered truth, same per-band noise seed), so the two ladders
  // must agree bit for bit: image and every band's residual history.
  OperatorTableCache cache;
  ScenarioConfig cfg;
  cfg.nx = 32;
  cfg.num_transmitters = 6;
  cfg.num_receivers = 20;
  cfg.measurement_noise = 0.03;
  cfg.table_cache = &cache;
  const cvec truth =
      gaussian_blob(Grid(cfg.nx), Vec2{0.1, -0.2}, 0.5, cplx{0.015, 0.0});
  FrequencyLadder ladder;
  ladder.bands.push_back({1, 20, 0.0, 1, 0.5});
  ladder.bands.push_back({0, 20, 0.03});
  const ContinuationResult ref = continuation_reconstruct(cfg, truth, ladder);
  ASSERT_EQ(ref.stages.size(), 2u);
  ASSERT_EQ(ref.stages[0].stop, StageStop::kPlateau);
  ASSERT_EQ(ref.stages[1].stop, StageStop::kResidualTol);

  JobSpec spec;
  spec.name = "plateau-ladder";
  spec.nx = cfg.nx;
  spec.forward = cfg.forward;
  for (std::size_t b = 0; b < ladder.bands.size(); ++b) {
    const FrequencyBand& fb = ladder.bands[b];
    ScenarioConfig bc = cfg;
    bc.nx = cfg.nx >> fb.halvings;
    bc.noise_seed = mix_seed(cfg.noise_seed, b);
    const Scenario scene(bc, fb.halvings == 0 ? truth
                                              : downsample2(truth, cfg.nx));
    JobBand jb = band_of(scene, fb.max_iterations);
    jb.residual_tol = fb.residual_tol;
    jb.plateau_window = fb.plateau_window;
    jb.plateau_rtol = fb.plateau_rtol;
    spec.bands.push_back(std::move(jb));
  }
  std::vector<std::vector<double>> histories;  // per band, from progress
  spec.dbim.progress = [&histories](int iter, double relres) {
    if (iter == 0) histories.emplace_back();
    histories.back().push_back(relres);
  };

  ReconstructionService service(cache);
  const int id = service.submit(std::move(spec));
  VCluster vc(1);
  service.run(vc);
  const JobStatus st = service.status(id);
  ASSERT_EQ(st.state, JobState::kCompleted);
  EXPECT_EQ(st.band, 1);
  EXPECT_EQ(st.iterations, ref.stages[0].iterations + ref.stages[1].iterations);

  ASSERT_EQ(histories.size(), 2u);
  for (std::size_t b = 0; b < 2; ++b) {
    EXPECT_EQ(histories[b], ref.stages[b].history.relative_residual)
        << "band " << b;
  }
  const DbimResult& res = service.result(id);
  EXPECT_EQ(res.history.relative_residual,
            ref.stages[1].history.relative_residual);
  const Grid fine(cfg.nx);
  const double k2 = fine.k0() * fine.k0();
  cvec eps(res.contrast.size());
  for (std::size_t i = 0; i < eps.size(); ++i) eps[i] = res.contrast[i] / k2;
  ASSERT_EQ(eps.size(), ref.permittivity.size());
  EXPECT_EQ(std::memcmp(eps.data(), ref.permittivity.data(),
                        eps.size() * sizeof(cplx)),
            0);
}

TEST(Service, LadderJobPassesTheTenantCheckpointHook) {
  // The tenant's checkpoint hook reaches every band's stepper as is:
  // once per completed iteration, with that band's grid-sized state.
  OperatorTableCache cache;
  ScenarioConfig cfg;
  cfg.nx = 32;
  cfg.num_transmitters = 6;
  cfg.num_receivers = 20;
  cfg.table_cache = &cache;
  const cvec truth =
      gaussian_blob(Grid(cfg.nx), Vec2{0.2, 0.1}, 0.5, cplx{0.01, 0.0});
  ScenarioConfig c16 = cfg;
  c16.nx = 16;
  const Scenario s16(c16, downsample2(truth, cfg.nx));
  const Scenario s32(cfg, truth);

  JobSpec spec;
  spec.name = "hooked-ladder";
  spec.nx = cfg.nx;
  spec.forward = cfg.forward;
  spec.bands.push_back(band_of(s16, 3));
  spec.bands.push_back(band_of(s32, 2));
  std::mutex mu;
  std::vector<std::pair<int, std::size_t>> calls;  // iteration, pixels
  spec.dbim.checkpoint = [&mu, &calls](const DbimCheckpoint& c) {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(c.residual_history.size(),
              static_cast<std::size_t>(c.iteration));
    EXPECT_EQ(c.direction.size(), c.contrast.size());
    calls.emplace_back(c.iteration, c.contrast.size());
  };

  ReconstructionService service(cache);
  const int id = service.submit(std::move(spec));
  VCluster vc(2);
  service.run(vc);
  ASSERT_EQ(service.status(id).state, JobState::kCompleted);
  const std::vector<std::pair<int, std::size_t>> expected{
      {1, 256}, {2, 256}, {3, 256}, {1, 1024}, {2, 1024}};
  EXPECT_EQ(calls, expected);
}

TEST(ServiceDeathTest, LadderBandsMustStepByPowersOfTwo) {
  // A 16 -> 24 ladder would warm-start band 1 on a 32^2 grid and abort
  // the whole service mid-run; submit() refuses it instead.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  OperatorTableCache cache;
  ReconstructionService service(cache);
  JobSpec spec;
  spec.bands.resize(2);
  spec.bands[0].nx = 16;
  spec.bands[1].nx = 24;
  EXPECT_DEATH(service.submit(spec), "power-of-two");
}

TEST(Service, InjectedRankFailureRecoversPool) {
  ScenarioConfig cfg = small_config();
  Scenario scene(cfg,
                 gaussian_blob(Grid(cfg.nx), Vec2{0.3, -0.2}, 0.5,
                               cplx{0.01, 0.0}));
  OperatorTableCache gold_cache;
  const DbimResult gold =
      serial_reference(gold_cache, make_job("ref", scene));

  OperatorTableCache cache;
  ServiceOptions opts;
  opts.max_pool_restarts = 1;
  opts.inject_rank_failure_at_tick = 2;  // kills whichever job steps then
  ReconstructionService service(cache, opts);
  std::vector<int> ids;
  for (int j = 0; j < 3; ++j) {
    ids.push_back(service.submit(make_job("t" + std::to_string(j), scene)));
  }
  VCluster vc(2);
  service.run(vc);  // restarts the pool once, then drains

  const ServiceStats ss = service.stats();
  EXPECT_EQ(ss.pool_restarts, 1);
  EXPECT_EQ(ss.failed, 1u);
  EXPECT_EQ(ss.completed, 2u);
  int failed_seen = 0;
  for (const int id : ids) {
    const JobStatus st = service.status(id);
    if (st.state == JobState::kFailed) {
      ++failed_seen;
      EXPECT_NE(st.error.find("rank failure"), std::string::npos);
      continue;
    }
    // Every survivor is bit-identical to the fault-free trajectory.
    ASSERT_EQ(st.state, JobState::kCompleted);
    expect_bit_identical(gold, service.result(id));
  }
  EXPECT_EQ(failed_seen, 1);
}

}  // namespace
}  // namespace ffw
