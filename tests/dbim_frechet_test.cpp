// Frechet operator validation on the blocked DBIM passes: directional
// finite differences of the exact nonlinear forward map, the adjoint
// inner-product identity, and the Born limit, on the MLFMA and the FFT
// backend. This is the part where the paper's eq. (6) typo would bite —
// the tests pin the correct variational form (dbim/dbim.hpp). The first
// two also run on every rank of partitioned illumination x sub-tree
// windows. Both passes run on the transposed system, which rests on the
// complex symmetry of G0 (x^T G0 y = y^T G0 x); the G0Symmetry tests
// check it on every engine.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "dbim/dbim.hpp"
#include "dbim/parallel_driver.hpp"
#include "linalg/kernels.hpp"
#include "phantom/phantom.hpp"

namespace ffw {
namespace {

struct FrechetFixture {
  Grid grid{32};
  QuadTree tree{grid};
  MlfmaEngine engine{tree};
  Transceivers trx{grid, ring_positions(3, grid.domain()),
                   ring_positions(12, grid.domain())};
  // Zero measurements: the residual pass then returns phi_sca itself.
  CMatrix measured{static_cast<std::size_t>(trx.num_receivers()),
                   static_cast<std::size_t>(trx.num_transmitters())};
  cvec contrast;

  FrechetFixture() {
    const cvec de =
        gaussian_blob(grid, Vec2{0.2, 0.1}, 0.7, cplx{0.03, 0.0});
    contrast = contrast_from_permittivity(grid, de);
  }

  /// Workspace on `backend` whose every block solve runs to 1e-11.
  std::unique_ptr<DbimWorkspace> workspace(BackendKind backend) {
    BicgstabOptions opts;
    opts.tol = 1e-11;
    auto ws = std::make_unique<DbimWorkspace>(engine, trx, measured, opts);
    if (backend != BackendKind::kMlfma) ws->set_backend(backend, kCbsDefaults);
    return ws;
  }

  /// Runs check(ws, comm) on every rank of an illum_groups x tree_ranks
  /// window, each over its own partitioned workspace (block solves to
  /// 1e-11).
  template <typename Check>
  void on_window(int illum_groups, int tree_ranks, Check&& check) {
    const PartitionedMlfma pm(tree, MlfmaParams{}, tree_ranks);
    BicgstabOptions opts;
    opts.tol = 1e-11;
    VCluster vc(illum_groups * tree_ranks);
    vc.run([&](Comm& comm) {
      const auto ws = make_partitioned_workspace(
          comm, 0, illum_groups, pm, tree, trx, measured, DbimOptions{}, opts);
      check(*ws, comm);
    });
  }
};

/// phi_sca(O) at every receiver for every transmitter (R x T), solved
/// afresh from the incident field; leaves `ws` linearised at O.
cvec scattered_fields(DbimWorkspace& ws, ccspan contrast) {
  ws.set_background(contrast, /*keep_fields=*/false);
  cvec out(ws.residual_size());
  ws.residual_pass_all(out);
  return out;
}

class Frechet : public ::testing::TestWithParam<BackendKind> {};

TEST_P(Frechet, MatchesCentralFiniteDifference) {
  FrechetFixture s;
  const std::size_t n = s.grid.num_pixels();
  Rng rng(41);
  cvec v(n);
  rng.fill_cnormal(v);

  const auto ws = s.workspace(GetParam());
  scattered_fields(*ws, s.contrast);
  cvec fv(ws->residual_size());
  ws->frechet_pass_all(v, fv);

  // Central difference along v with a real step.
  const double h = 1e-4;
  cvec op(n), om(n);
  for (std::size_t i = 0; i < n; ++i) {
    op[i] = s.contrast[i] + h * v[i];
    om[i] = s.contrast[i] - h * v[i];
  }
  const cvec sp = scattered_fields(*ws, op);
  const cvec sm = scattered_fields(*ws, om);
  cvec fd(sp.size());
  for (std::size_t i = 0; i < fd.size(); ++i)
    fd[i] = (sp[i] - sm[i]) / (2.0 * h);

  EXPECT_LT(rel_l2_diff(fv, fd), 1e-5);
}

TEST_P(Frechet, AdjointInnerProductIdentity) {
  FrechetFixture s;
  const std::size_t n = s.grid.num_pixels();
  const auto ws = s.workspace(GetParam());
  Rng rng(43);
  cvec v(n), u(ws->residual_size());
  rng.fill_cnormal(v);
  rng.fill_cnormal(u);

  scattered_fields(*ws, s.contrast);
  cvec fv(ws->residual_size()), fhu(n, cplx{});
  ws->frechet_pass_all(v, fv);
  ws->gradient_pass_all(u, fhu);  // sum_t F_t^H u_t
  const cplx lhs = cdot(u, fv);   // <u, F v>
  const cplx rhs = cdot(fhu, v);  // <F^H u, v>
  EXPECT_NEAR(std::abs(lhs - rhs), 0.0, 1e-8 * std::abs(lhs));
}

// At zero background the Frechet operator reduces to the Born operator
// G_R diag(phi_inc,t) for every transmitter.
TEST_P(Frechet, ReducesToBornAtZeroBackground) {
  FrechetFixture s;
  const std::size_t n = s.grid.num_pixels();
  const std::size_t tc = static_cast<std::size_t>(s.trx.num_transmitters());
  Rng rng(44);
  cvec v(n);
  rng.fill_cnormal(v);

  const auto ws = s.workspace(GetParam());
  scattered_fields(*ws, cvec(n, cplx{}));  // free space: phi_b == phi_inc
  cvec fv(ws->residual_size());
  ws->frechet_pass_all(v, fv);

  cvec vphi(n * tc), born(fv.size());
  for (std::size_t t = 0; t < tc; ++t) {
    diag_mul(v, s.trx.incident_field(static_cast<int>(t)),
             cspan{vphi.data() + t * n, n});
  }
  s.trx.apply_gr(vphi, born, tc);
  EXPECT_LT(rel_l2_diff(fv, born), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Backends, Frechet,
                         ::testing::Values(BackendKind::kMlfma,
                                           BackendKind::kCbs),
                         [](const auto& info) {
                           return std::string(backend_name(info.param));
                         });

// The same two checks on partitioned windows: each rank's Frechet pass
// covers its illumination group's transmitters over its pixel slice.
class FrechetWindow : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(FrechetWindow, MatchesCentralFiniteDifference) {
  const auto [ig, tr] = GetParam();
  FrechetFixture s;
  Rng rng(41);
  cvec v(s.grid.num_pixels());
  rng.fill_cnormal(v);
  const double h = 1e-4;

  std::vector<double> err(static_cast<std::size_t>(ig * tr), 1.0);
  s.on_window(ig, tr, [&](DbimWorkspace& ws, Comm& comm) {
    const std::size_t nloc = ws.num_pixels();
    cvec vl(nloc), o(nloc), op(nloc), om(nloc);
    ws.scatter(v, vl);
    ws.scatter(s.contrast, o);
    scattered_fields(ws, o);
    cvec fv(ws.residual_size());
    ws.frechet_pass_all(vl, fv);
    for (std::size_t i = 0; i < nloc; ++i) {
      op[i] = o[i] + h * vl[i];
      om[i] = o[i] - h * vl[i];
    }
    const cvec sp = scattered_fields(ws, op);
    const cvec sm = scattered_fields(ws, om);
    cvec fd(sp.size());
    for (std::size_t i = 0; i < fd.size(); ++i)
      fd[i] = (sp[i] - sm[i]) / (2.0 * h);
    err[static_cast<std::size_t>(comm.rank())] = rel_l2_diff(fv, fd);
  });
  for (std::size_t r = 0; r < err.size(); ++r)
    EXPECT_LT(err[r], 1e-5) << "rank " << r;
}

TEST_P(FrechetWindow, AdjointInnerProductIdentity) {
  const auto [ig, tr] = GetParam();
  FrechetFixture s;
  Rng rng(43);
  cvec v(s.grid.num_pixels());
  rng.fill_cnormal(v);

  std::vector<cplx> lhs(static_cast<std::size_t>(ig * tr)), rhs(lhs.size());
  s.on_window(ig, tr, [&](DbimWorkspace& ws, Comm& comm) {
    // One u per illumination group, shared by its tree ranks.
    Rng urng(static_cast<std::uint64_t>(100 + comm.rank() / tr));
    cvec u(ws.residual_size()), vl(ws.num_pixels()), o(ws.num_pixels());
    urng.fill_cnormal(u);
    ws.scatter(v, vl);
    ws.scatter(s.contrast, o);
    scattered_fields(ws, o);
    cvec fv(ws.residual_size()), fhu(ws.num_pixels(), cplx{});
    ws.frechet_pass_all(vl, fv);
    ws.gradient_pass_all(u, fhu);  // sum_t F_t^H u_t over the window
    // <u, F v> is replicated over a group's tree ranks, the F^H u slice
    // over the illumination groups.
    cplx sums[2] = {cdot(u, fv) / static_cast<double>(tr),
                    cdot(fhu, vl) / static_cast<double>(ig)};
    comm.allreduce_sum(cspan{sums, 2});
    lhs[static_cast<std::size_t>(comm.rank())] = sums[0];
    rhs[static_cast<std::size_t>(comm.rank())] = sums[1];
  });
  for (std::size_t r = 0; r < lhs.size(); ++r) {
    EXPECT_NEAR(std::abs(lhs[r] - rhs[r]), 0.0, 1e-8 * std::abs(lhs[r]))
        << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, FrechetWindow,
                         ::testing::Values(std::pair{1, 2}, std::pair{2, 2}));

/// x^T y, unconjugated.
cplx dotu(ccspan x, ccspan y) {
  cplx s{};
  for (std::size_t i = 0; i < x.size(); ++i) s += x[i] * y[i];
  return s;
}

/// |x^T G0 y - y^T G0 x| / |x^T G0 y| from the two bilinear forms.
double symmetry_defect(cplx xgy, cplx ygx) {
  return std::abs(xgy - ygx) / std::abs(xgy);
}

/// The symmetry defect of `apply` (y = G0 x over whole vectors of
/// length n) for random x and y.
template <typename Apply>
double g0_symmetry_defect(std::size_t n, Apply&& apply) {
  Rng rng(47);
  cvec x(n), y(n), gx(n), gy(n);
  rng.fill_cnormal(x);
  rng.fill_cnormal(y);
  apply(ccspan{x}, cspan{gx});
  apply(ccspan{y}, cspan{gy});
  return symmetry_defect(dotu(x, gy), dotu(y, gx));
}

TEST(G0Symmetry, SerialMlfma) {
  FrechetFixture s;
  const auto apply = [&](ccspan x, cspan y) { s.engine.apply(x, y); };
  EXPECT_LT(g0_symmetry_defect(s.grid.num_pixels(), apply), 1e-12);
}

TEST(G0Symmetry, MixedPrecisionMlfma) {
  FrechetFixture s;
  MlfmaParams params;
  params.precision = Precision::kMixed;
  MlfmaEngine mixed(s.tree, params);
  const auto apply = [&](ccspan x, cspan y) { mixed.apply(x, y); };
  EXPECT_LT(g0_symmetry_defect(s.grid.num_pixels(), apply), 2e-5);
}

// The FFT backend's G0 is read off its system operator at a scalar
// contrast c: y = x - c G0 x, so G0 x = (x - y) / c.
TEST(G0Symmetry, PaddedFft) {
  FrechetFixture s;
  const std::size_t n = s.grid.num_pixels();
  const cplx c{1.0, 0.0};
  CbsEngine cbs(s.grid);
  cbs.set_contrast(cvec(n, c));
  const auto apply = [&](ccspan x, cspan y) {
    cbs.apply_system(x, y, 1);
    for (std::size_t i = 0; i < n; ++i) y[i] = (x[i] - y[i]) / c;
  };
  EXPECT_LT(g0_symmetry_defect(n, apply), 1e-12);
}

// The partitioned engine on a 1 x 2 window: each tree rank holds its
// slice of x and y, and the bilinear forms sum over the slices.
TEST(G0Symmetry, PartitionedMlfma) {
  FrechetFixture s;
  const PartitionedMlfma pm(s.tree, MlfmaParams{}, 2);
  std::vector<double> defect(2, 1.0);
  VCluster vc(2);
  vc.run([&](Comm& comm) {
    const std::size_t n = pm.local_pixels(comm.rank());
    Rng rng(static_cast<std::uint64_t>(47 + comm.rank()));
    cvec x(n), y(n), gx(n), gy(n);
    rng.fill_cnormal(x);
    rng.fill_cnormal(y);
    pm.apply(comm, x, gx);
    pm.apply(comm, y, gy);
    cplx forms[2] = {dotu(x, gy), dotu(y, gx)};
    comm.allreduce_sum(cspan{forms, 2});
    defect[static_cast<std::size_t>(comm.rank())] =
        symmetry_defect(forms[0], forms[1]);
  });
  for (std::size_t r = 0; r < defect.size(); ++r)
    EXPECT_LT(defect[r], 1e-12) << "rank " << r;
}

}  // namespace
}  // namespace ffw
