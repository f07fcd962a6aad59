// FFT backend: exactness of the padded-FFT Richmond kernel products,
// physics validation against the analytic Mie cylinder,
// cross-validation against the MLFMA+BiCGStab path on the same discrete
// system (up to strong contrast), the fp64 accuracy of its fp32-swept
// solves, the solve statistics every backend records, and the kAuto
// routing that stays on the FFT backend unless a solve fails.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "dbim/dbim.hpp"
#include "forward/cbs.hpp"
#include "forward/forward.hpp"
#include "greens/greens.hpp"
#include "greens/transceivers.hpp"
#include "linalg/kernels.hpp"
#include "parallel/parallel_for.hpp"
#include "phantom/phantom.hpp"
#include "phantom/setup.hpp"
#include "special/bessel.hpp"
#include "vcluster/comm.hpp"

namespace ffw {
namespace {

cvec plane_wave(const Grid& grid) {
  cvec inc(grid.num_pixels());
  for (int iy = 0; iy < grid.nx(); ++iy) {
    for (int ix = 0; ix < grid.nx(); ++ix) {
      const Vec2 p = grid.pixel_center(ix, iy);
      inc[grid.pixel_index(ix, iy)] =
          cplx{std::cos(grid.k0() * p.x), std::sin(grid.k0() * p.x)};
    }
  }
  return inc;
}

cvec blob_contrast(const Grid& grid, double eps) {
  const cvec de = gaussian_blob(grid, Vec2{0.3, -0.2}, 0.6, cplx{eps, 0.0});
  return contrast_from_permittivity(grid, de);
}

/// The scalar contrast the G0 checks run the system operator at.
constexpr double kScalarContrast = 1.0;

/// G0 x (G0^H x when `adjoint`) for every column of x, read off the
/// system operator of an engine whose contrast is kScalarContrast
/// everywhere: y = x - c G0 x, so G0 x = (x - y) / c (c is real, so the
/// adjoint's conj(c) is c).
cvec g0_via_system(CbsEngine& cbs, ccspan x, std::size_t nrhs,
                   bool adjoint = false) {
  cvec y(x.size());
  cbs.apply_system(x, y, nrhs, adjoint);
  for (std::size_t i = 0; i < y.size(); ++i)
    y[i] = (x[i] - y[i]) / kScalarContrast;
  return y;
}

TEST(CbsG0Apply, MatchesDenseReference) {
  Grid grid(24);
  CbsEngine cbs(grid);
  const std::size_t n = grid.num_pixels();
  cbs.set_contrast(cvec(n, cplx{kScalarContrast, 0.0}));
  Rng rng(71);
  cvec x(2 * n);
  rng.fill_cnormal(x);
  cvec y = g0_via_system(cbs, x, 2);
  for (std::size_t c = 0; c < 2; ++c) {
    const cvec want = dense_g0_apply(grid, ccspan{x.data() + c * n, n});
    EXPECT_LT(rel_l2_diff(cspan{y.data() + c * n, n}, want), 1e-11);
  }
  // Hermitian product: G0 is complex-symmetric, so G0^H v = conj(G0
  // conj v).
  y = g0_via_system(cbs, x, 2, /*adjoint=*/true);
  for (std::size_t c = 0; c < 2; ++c) {
    cvec xc(n);
    for (std::size_t i = 0; i < n; ++i) xc[i] = std::conj(x[c * n + i]);
    cvec want = dense_g0_apply(grid, xc);
    for (cplx& v : want) v = std::conj(v);
    EXPECT_LT(rel_l2_diff(cspan{y.data() + c * n, n}, want), 1e-11);
  }
}

TEST(CbsSystemApply, MatchesDenseOperator) {
  Grid grid(24);
  const cvec contrast = blob_contrast(grid, 0.08);
  CbsEngine cbs(grid);
  cbs.set_contrast(contrast);
  const std::size_t n = grid.num_pixels();
  Rng rng(72);
  cvec x(n), y(n), t(n);
  rng.fill_cnormal(x);
  cbs.apply_system(x, y, 1);
  for (std::size_t i = 0; i < n; ++i) t[i] = contrast[i] * x[i];
  const cvec g = dense_g0_apply(grid, t);
  cvec want(n);
  for (std::size_t i = 0; i < n; ++i) want[i] = x[i] - g[i];
  EXPECT_LT(rel_l2_diff(y, want), 1e-11);

  cbs.apply_system(x, y, 1, /*adjoint=*/true);
  cvec xc(n);
  for (std::size_t i = 0; i < n; ++i) xc[i] = std::conj(x[i]);
  cvec gh = dense_g0_apply(grid, xc);
  for (std::size_t i = 0; i < n; ++i) {
    want[i] = x[i] - std::conj(contrast[i]) * std::conj(gh[i]);
  }
  EXPECT_LT(rel_l2_diff(y, want), 1e-11);
}

// nx = 100 pads to P = 256, so Fft2Plan::convolve zero-fills rows and
// columns [100, 128) inside its row loop (nx = 24 above pads to P = 64
// and covers [24, 32)). The dense reference costs O(N) per pixel, so it
// checks a sample: the first and last image rows and a stride through
// the rest.
TEST(CbsSystemApply, MatchesDenseOperatorWithZeroFilledPadding) {
  Grid grid(100);
  const cvec contrast = blob_contrast(grid, 0.08);
  CbsEngine cbs(grid);
  ASSERT_EQ(cbs.padded(), 256u);
  cbs.set_contrast(contrast);
  const std::size_t n = grid.num_pixels();
  std::vector<std::uint32_t> rows;
  for (std::uint32_t i = 0; i < 100; ++i) {
    rows.push_back(i);
    rows.push_back(static_cast<std::uint32_t>(n) - 1 - i);
  }
  for (std::size_t i = 100; i + 100 < n; i += 97) {
    rows.push_back(static_cast<std::uint32_t>(i));
  }
  Rng rng(75);
  cvec x(n), y(n), t(n);
  rng.fill_cnormal(x);
  cvec got(rows.size()), want(rows.size());
  cbs.apply_system(x, y, 1);
  for (std::size_t i = 0; i < n; ++i) t[i] = contrast[i] * x[i];
  const cvec g = dense_g0_apply_rows(grid, t, rows);
  for (std::size_t k = 0; k < rows.size(); ++k) {
    got[k] = y[rows[k]];
    want[k] = x[rows[k]] - g[k];
  }
  EXPECT_LT(rel_l2_diff(got, want), 1e-11);

  cbs.apply_system(x, y, 1, /*adjoint=*/true);
  for (std::size_t i = 0; i < n; ++i) t[i] = std::conj(x[i]);
  const cvec gh = dense_g0_apply_rows(grid, t, rows);
  for (std::size_t k = 0; k < rows.size(); ++k) {
    got[k] = y[rows[k]];
    want[k] = x[rows[k]] - std::conj(contrast[rows[k]]) * std::conj(gh[k]);
  }
  EXPECT_LT(rel_l2_diff(got, want), 1e-11);
}

// Every column runs its own pack -> transforms -> crop on one thread,
// so its bits may depend neither on the thread count nor on where the
// column sits in the panel (the DBIM thread-count checks rely on this).
// nx = 24 pads to P = 64 > 2 nx, where [nx, P/2) must be zero-filled.
TEST(CbsSystemApply, BitsDoNotDependOnThreadsOrColumnPosition) {
  Grid grid(24);
  CbsEngine cbs(grid), g0(grid);
  cbs.set_contrast(blob_contrast(grid, 0.08));
  const std::size_t n = grid.num_pixels();
  g0.set_contrast(cvec(n, cplx{kScalarContrast, 0.0}));
  Rng rng(74);
  cvec x(16 * n), other(13 * n);
  rng.fill_cnormal(x);
  rng.fill_cnormal(other);
  enum class Op { kSystem, kAdjoint, kG0 };
  auto apply = [&](Op op, ccspan in, std::size_t nrhs) {
    cvec out(in.size());
    if (op == Op::kG0) {
      out = g0_via_system(g0, in, nrhs);
    } else {
      cbs.apply_system(in, out, nrhs, op == Op::kAdjoint);
    }
    return out;
  };
  auto same = [&](const cplx* a, const cplx* b) {
    return std::memcmp(a, b, n * sizeof(cplx)) == 0;
  };
  const int prev = set_num_threads(1);
  for (const Op op : {Op::kSystem, Op::kAdjoint, Op::kG0}) {
    set_num_threads(1);
    const cvec y1 = apply(op, x, 16);
    set_num_threads(4);
    const cvec y4 = apply(op, x, 16);
    EXPECT_EQ(std::memcmp(y1.data(), y4.data(), y1.size() * sizeof(cplx)), 0)
        << "1 vs 4 threads, op " << static_cast<int>(op);
    for (std::size_t j = 0; j < 16; ++j) {
      const ccspan col{x.data() + j * n, n};
      const cvec alone = apply(op, col, 1);
      std::copy(col.begin(), col.end(), other.begin() + 12 * n);
      const cvec at12 = apply(op, other, 13);
      EXPECT_TRUE(same(alone.data(), y4.data() + j * n))
          << "column " << j << " alone, op " << static_cast<int>(op);
      EXPECT_TRUE(same(at12.data() + 12 * n, y4.data() + j * n))
          << "column " << j << " at 12 of 13, op " << static_cast<int>(op);
    }
  }
  set_num_threads(prev);
}

TEST(CbsSolve, ZeroContrastReturnsRhs) {
  Grid grid(32);
  CbsEngine cbs(grid);
  cbs.set_contrast(cvec(grid.num_pixels(), cplx{}));
  Rng rng(73);
  cvec rhs(grid.num_pixels()), x(grid.num_pixels(), cplx{});
  rng.fill_cnormal(rhs);
  ASSERT_TRUE(cbs.solve(rhs, x, 1, 1e-10, /*adjoint=*/false));
  EXPECT_LT(rel_l2_diff(x, rhs), 1e-8);
}

TEST(CbsSolve, WarmStartConvergesWithoutIterating) {
  Grid grid(32);
  CbsEngine cbs(grid);
  cbs.set_contrast(blob_contrast(grid, 0.05));
  const cvec rhs = plane_wave(grid);
  cvec x(grid.num_pixels(), cplx{});
  ASSERT_TRUE(cbs.solve(rhs, x, 1, 1e-8, /*adjoint=*/false));
  EXPECT_GT(cbs.stats().per_solve_iterations.back(), 0u);
  cvec x2 = x;
  ASSERT_TRUE(cbs.solve(rhs, x2, 1, 1e-8, /*adjoint=*/false));
  EXPECT_EQ(cbs.stats().per_solve_iterations.back(), 0u);
  EXPECT_LT(rel_l2_diff(x2, x), 1e-11);
}

// The paper-pipeline physics check, swapped onto the CBS backend: the
// interior field of a weak homogeneous cylinder must match the analytic
// Mie series to staircase accuracy (same gate as forward_mie_test).
TEST(CbsSolve, InteriorFieldMatchesMieSeries) {
  Grid grid(64);
  const double radius = 1.5;
  const double deps = 0.04;
  const cvec de = disks(grid, {{Vec2{0.0, 0.0}, radius, cplx{deps, 0.0}}});
  CbsEngine cbs(grid);
  cbs.set_contrast(contrast_from_permittivity(grid, de));
  const cvec inc = plane_wave(grid);
  cvec phi(grid.num_pixels(), cplx{});
  ASSERT_TRUE(cbs.solve(inc, phi, 1, 1e-8, /*adjoint=*/false));

  const double k0 = grid.k0();
  const double k1 = k0 * std::sqrt(1.0 + deps);
  const double x0 = k0 * radius, x1 = k1 * radius;
  const int terms = static_cast<int>(k0 * radius) + 12;
  const std::size_t nn = static_cast<std::size_t>(terms) + 2;
  rvec j0v(nn), j1v(nn), y0v(nn);
  bessel_jn_array(x0, j0v);
  bessel_jn_array(x1, j1v);
  bessel_yn_array(x0, y0v);
  auto h0 = [&](int m) {
    return cplx{j0v[static_cast<std::size_t>(m)],
                y0v[static_cast<std::size_t>(m)]};
  };
  auto jp = [](const rvec& a, int m, double x) {
    const double jm = a[static_cast<std::size_t>(m)];
    const double jm1 = m > 0 ? a[static_cast<std::size_t>(m - 1)] : -a[1];
    return jm1 - m / x * jm;
  };
  auto hp0 = [&](int m) {
    const cplx hm = h0(m);
    const cplx hm1 = m > 0 ? h0(m - 1) : -h0(1);
    return hm1 - static_cast<double>(m) / x0 * hm;
  };
  auto mie = [&](Vec2 p) {
    const double r = norm(p);
    const double ph = angle_of(p);
    rvec jr(nn);
    bessel_jn_array(k1 * r, jr);
    cplx total{};
    for (int m = 0; m <= terms; ++m) {
      const double j0m = j0v[static_cast<std::size_t>(m)];
      const double j1m = j1v[static_cast<std::size_t>(m)];
      const cplx num = k1 * jp(j1v, m, x1) * j0m - k0 * j1m * jp(j0v, m, x0);
      const cplx den = k1 * jp(j1v, m, x1) * h0(m) - k0 * j1m * hp0(m);
      const cplx cm = (j0m - num / den * h0(m)) / j1m;
      cplx im{1.0, 0.0};
      for (int q = 0; q < m % 4; ++q) im *= iu;
      const cplx ang{std::cos(m * ph), std::sin(m * ph)};
      cplx term = im * cm * jr[static_cast<std::size_t>(m)] * ang;
      if (m > 0) {
        term += im * cm * jr[static_cast<std::size_t>(m)] * std::conj(ang);
      }
      total += term;
    }
    return total;
  };

  double num = 0.0, den = 0.0;
  for (int iy = 0; iy < grid.nx(); ++iy) {
    for (int ix = 0; ix < grid.nx(); ++ix) {
      const Vec2 p = grid.pixel_center(ix, iy);
      if (norm(p) > 0.8 * radius) continue;
      num += std::norm(phi[grid.pixel_index(ix, iy)] - mie(p));
      den += std::norm(mie(p));
    }
  }
  EXPECT_LT(std::sqrt(num / den), 0.05);
}

// Both backends discretise the same system, so their converged answers
// must agree far below the physics error — the acceptance gate for
// swapping backends mid-reconstruction.
TEST(CbsSolve, CrossValidatesAgainstMlfma) {
  Grid grid(32);
  const std::size_t n = grid.num_pixels();
  QuadTree tree(grid);
  MlfmaEngine engine(tree);
  BicgstabOptions bopts;
  bopts.tol = 1e-10;
  ForwardSolver fs(engine, bopts);
  CbsEngine cbs(grid);
  for (const double eps : {0.02, 0.12}) {
    const cvec contrast = blob_contrast(grid, eps);
    fs.set_contrast(contrast);
    cbs.set_contrast(contrast);
    const std::size_t nrhs = 4;
    Rng rng(74);
    cvec rhs(n * nrhs);
    rng.fill_cnormal(rhs);
    cvec xm(n * nrhs, cplx{}), xc(n * nrhs, cplx{});
    ASSERT_TRUE(fs.solve(rhs, xm, nrhs, 1e-10, /*adjoint=*/false));
    ASSERT_TRUE(cbs.solve(rhs, xc, nrhs, 1e-10, /*adjoint=*/false));
    EXPECT_LT(rel_l2_diff(xc, xm), 1e-6) << "eps=" << eps;

    cvec am(n * nrhs, cplx{}), ac(n * nrhs, cplx{});
    ASSERT_TRUE(fs.solve(rhs, am, nrhs, 1e-10, /*adjoint=*/true));
    ASSERT_TRUE(cbs.solve(rhs, ac, nrhs, 1e-10, /*adjoint=*/true));
    EXPECT_LT(rel_l2_diff(ac, am), 1e-6) << "adjoint eps=" << eps;
  }
}

// The crossover bench's solve at a contrast the FFT backend's former
// Born-series iteration diverged on: block BiCGStab on the padded-FFT
// operator must converge and land on MLFMA's answer, forward and adjoint.
TEST(CbsSolve, ConvergesAndMatchesMlfmaAtStrongContrast) {
  Grid grid(128);
  const std::size_t n = grid.num_pixels();
  const cvec contrast = contrast_from_permittivity(
      grid, disks(grid, {{Vec2{0.0, 0.0}, 2.0, cplx{0.5, 0.0}}}));
  QuadTree tree(grid);
  MlfmaEngine engine(tree);
  BicgstabOptions bopts;
  bopts.tol = 1e-9;
  ForwardSolver fs(engine, bopts);
  CbsEngine cbs(grid);
  fs.set_contrast(contrast);
  cbs.set_contrast(contrast);
  // The bench's eight incident fields: the former iteration converged
  // on random right-hand sides here, but not on these.
  const std::size_t nrhs = 8;
  const Transceivers trx(grid, ring_positions(nrhs, grid.domain()),
                         ring_positions(4, grid.domain()));
  const ccspan rhs = trx.incident_panel();
  cvec xm(n * nrhs, cplx{}), xc(n * nrhs, cplx{});
  ASSERT_TRUE(fs.solve(rhs, xm, nrhs, 1e-9, /*adjoint=*/false));
  ASSERT_TRUE(cbs.solve(rhs, xc, nrhs, 1e-9, /*adjoint=*/false));
  // The worst fp64 column residual of the FFT solution is at tolerance.
  cvec r(n * nrhs);
  cbs.apply_system(xc, r, nrhs);
  for (std::size_t c = 0; c < nrhs; ++c) {
    EXPECT_LE(rel_l2_diff(ccspan{r}.subspan(c * n, n), rhs.subspan(c * n, n)),
              1e-9)
        << "column " << c;
  }
  EXPECT_LT(rel_l2_diff(xc, xm), 1e-6);

  cvec am(n * nrhs, cplx{}), ac(n * nrhs, cplx{});
  ASSERT_TRUE(fs.solve(rhs, am, nrhs, 1e-9, /*adjoint=*/true));
  ASSERT_TRUE(cbs.solve(rhs, ac, nrhs, 1e-9, /*adjoint=*/true));
  EXPECT_LT(rel_l2_diff(ac, am), 1e-6);
}

// Every FFT solve runs fp32 sweeps under fp64 refinement; the reference
// is plain fp64 block BiCGStab on the engine's fp64 operator.
TEST(CbsSolve, MixedPrecisionReachesFp64Tolerance) {
  Grid grid(32);
  const cvec contrast = blob_contrast(grid, 0.06);
  CbsEngine mixed(grid);
  mixed.set_contrast(contrast);
  const cvec rhs = plane_wave(grid);
  const std::size_t n = grid.num_pixels();
  cvec xm(n, cplx{}), xr(n, cplx{});
  ASSERT_TRUE(mixed.solve(rhs, xm, 1, 1e-8, /*adjoint=*/false));
  const BlockBicgstabResult ref = block_bicgstab(
      [&](ccspan in, cspan out) { mixed.apply_system(in, out, 1); },
      rhs, xr, BlockLayout{n, 1, 1}, BicgstabOptions{1e-8, 600});
  ASSERT_TRUE(ref.converged);
  // The mixed pipeline verifies convergence against the fp64 operator,
  // so its answer matches the all-fp64 solve at the solve tolerance.
  EXPECT_LT(rel_l2_diff(xm, xr), 1e-6);
  cvec r(n);
  mixed.apply_system(xm, r, 1);
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    num += std::norm(rhs[i] - r[i]);
    den += std::norm(rhs[i]);
  }
  EXPECT_LT(std::sqrt(num / den), 2e-8);
}

/// Solves two random right-hand sides to 1e-8 on `backend` at
/// `contrast` (in its pass order) and checks its counters: one per-solve
/// sample per column, summing to the Krylov total (refined solves count
/// inner and fallback iterations).
void expect_two_solves_counted(ForwardBackend& backend, ccspan contrast) {
  backend.set_contrast(contrast);
  const std::size_t n = contrast.size();
  Rng rng(75);
  cvec rhs(2 * n), x(2 * n, cplx{});
  rng.fill_cnormal(rhs);
  ASSERT_TRUE(backend.solve(rhs, x, 2, 1e-8, /*adjoint=*/false));
  const ForwardStats& st = backend.stats();
  EXPECT_EQ(st.solves, 2u);
  EXPECT_GT(st.bicgs_iterations, 0u);
  EXPECT_GT(st.operator_applications, 2u);
  EXPECT_DOUBLE_EQ(st.operator_per_solve(),
                   static_cast<double>(st.operator_applications) / 2.0);
  ASSERT_EQ(st.per_solve_iterations.size(), 2u);
  EXPECT_EQ(st.per_solve_iterations[0] + st.per_solve_iterations[1],
            st.bicgs_iterations);
}

TEST(ForwardStats, EveryBackendCountsSolvesAndOperatorApplications) {
  Grid grid(24);
  CbsEngine cbs(grid);
  expect_two_solves_counted(cbs, blob_contrast(grid, 0.05));

  // The MLFMA backend counts the same way, in fp64 and refined (kMixed).
  Grid g32(32);
  const cvec contrast = blob_contrast(g32, 0.05);
  QuadTree tree(g32);
  MlfmaEngine engine(tree);
  ForwardSolver fp64(engine);
  expect_two_solves_counted(fp64, contrast);
  MlfmaParams p32;
  p32.precision = Precision::kMixed;
  ForwardSolver mixed(engine, BicgstabOptions{},
                      std::make_shared<const OperatorTables>(tree, p32));
  ASSERT_EQ(mixed.precision(), Precision::kMixed);
  expect_two_solves_counted(mixed, contrast);

  // So does every rank of a partitioned tree group, on its own slice.
  const PartitionedMlfma pm(tree, MlfmaParams{}, 2);
  cvec clu(contrast.size());
  tree.to_cluster_order(contrast, clu);
  const std::size_t npl = static_cast<std::size_t>(tree.pixels_per_leaf());
  VCluster vc(2);
  vc.run([&](Comm& comm) {
    PartitionedForwardSolver part(comm, 0, pm, BicgstabOptions{},
                                  /*near_precondition=*/false);
    expect_two_solves_counted(
        part, ccspan{clu}.subspan(pm.leaf_begin(comm.rank()) * npl,
                                  pm.local_pixels(comm.rank())));
  });
}

ScenarioConfig dbim_config() {
  ScenarioConfig c;
  c.nx = 32;
  c.num_transmitters = 8;
  c.num_receivers = 24;
  return c;
}

TEST(CbsDbim, PureCbsBackendReconstructsWeakBlob) {
  ScenarioConfig cfg = dbim_config();
  Grid grid(cfg.nx);
  Scenario scene(cfg,
                 gaussian_blob(grid, Vec2{0.3, -0.2}, 0.5, cplx{0.01, 0.0}));
  DbimOptions opts;
  opts.max_iterations = 10;
  opts.backend = BackendKind::kCbs;
  const DbimResult res = dbim_reconstruct(
      scene.engine(), scene.transceivers(), scene.measurements(), opts);
  ASSERT_FALSE(res.history.relative_residual.empty());
  EXPECT_LT(res.history.relative_residual.back(),
            0.05 * res.history.relative_residual.front());
  EXPECT_EQ(res.history.backend, BackendKind::kCbs);
  EXPECT_FALSE(res.history.cbs_escalated);
  // All three passes per iteration per transmitter ran on CBS.
  EXPECT_EQ(res.history.forward_solves, static_cast<std::uint64_t>(3 * 8 * 10));
}

// The kAuto acceptance gate: on a weak-contrast phantom the CBS-routed
// reconstruction must land on the same image as the MLFMA-only run
// (RMSE within 0.1% — both backends solve the same discrete system).
TEST(CbsDbim, AutoBackendMatchesMlfmaReconstruction) {
  ScenarioConfig cfg = dbim_config();
  Grid grid(cfg.nx);
  Scenario scene(cfg,
                 gaussian_blob(grid, Vec2{0.3, -0.2}, 0.5, cplx{0.01, 0.0}));
  DbimOptions mopts;
  mopts.max_iterations = 8;
  const DbimResult mlfma = dbim_reconstruct(
      scene.engine(), scene.transceivers(), scene.measurements(), mopts);

  DbimOptions aopts = mopts;
  aopts.backend = BackendKind::kAuto;
  const DbimResult autob = dbim_reconstruct(
      scene.engine(), scene.transceivers(), scene.measurements(), aopts);

  EXPECT_FALSE(autob.history.cbs_escalated);  // stayed on CBS throughout
  const double rmse_m = image_rmse(mlfma.contrast, scene.true_contrast());
  const double rmse_a = image_rmse(autob.contrast, scene.true_contrast());
  EXPECT_LT(std::abs(rmse_a - rmse_m), 1e-3 * rmse_m);
  EXPECT_LT(rel_l2_diff(autob.contrast, mlfma.contrast), 1e-3);
}

// kAuto's one rule: an FFT solve that misses its tolerance is redone on
// MLFMA, and the run stays there and still finishes the reconstruction.
// The cap of zero iterations per Krylov run stops every fp32 sweep and
// the fp64 fallback where they start (a cap of one no longer fails: up
// to ten one-iteration refinement rounds converge at this contrast).
TEST(CbsDbim, AutoFallsBackToMlfmaWhenAnFftSolveFails) {
  ScenarioConfig cfg = dbim_config();
  Grid grid(cfg.nx);
  Scenario scene(cfg,
                 gaussian_blob(grid, Vec2{0.0, 0.0}, 0.5, cplx{0.1, 0.0}));
  DbimOptions opts;
  opts.max_iterations = 4;
  opts.backend = BackendKind::kAuto;
  opts.cbs.max_iterations = 0;
  const DbimResult res = dbim_reconstruct(
      scene.engine(), scene.transceivers(), scene.measurements(), opts);
  EXPECT_TRUE(res.history.cbs_escalated);
  ASSERT_FALSE(res.history.relative_residual.empty());
  EXPECT_LT(res.history.relative_residual.back(),
            res.history.relative_residual.front());
}

// No contrast gate: at a strong background kAuto keeps solving on the
// FFT backend, and its residual pass agrees with MLFMA's.
TEST(CbsDbim, AutoStaysOnFftAtStrongContrast) {
  ScenarioConfig cfg = dbim_config();
  Grid grid(cfg.nx);
  Scenario scene(cfg,
                 gaussian_blob(grid, Vec2{0.0, 0.0}, 0.5, cplx{0.01, 0.0}));
  const cvec strong = contrast_from_permittivity(
      grid, gaussian_blob(grid, Vec2{0.0, 0.0}, 0.5, cplx{0.5, 0.0}));
  DbimWorkspace mlfma(scene.engine(), scene.transceivers(),
                      scene.measurements(), BicgstabOptions{});
  DbimWorkspace autob(scene.engine(), scene.transceivers(),
                      scene.measurements(), BicgstabOptions{});
  autob.set_backend(BackendKind::kAuto, kCbsDefaults);
  EXPECT_EQ(autob.active_backend(), BackendKind::kCbs);
  mlfma.set_background(strong, false);
  autob.set_background(strong, false);
  cvec rm(mlfma.residual_size()), ra(autob.residual_size());
  const double cost_m = mlfma.residual_pass_all(rm);
  const double cost_a = autob.residual_pass_all(ra);
  EXPECT_EQ(autob.active_backend(), BackendKind::kCbs);
  EXPECT_FALSE(autob.cbs_escalated());
  EXPECT_LT(std::abs(cost_a - cost_m), 1e-3 * cost_m);
}

}  // namespace
}  // namespace ffw
