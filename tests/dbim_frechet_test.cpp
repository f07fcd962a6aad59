// Frechet operator validation: directional finite differences of the
// exact nonlinear forward map, and the adjoint inner-product identity.
// This is the part where the paper's eq. (6) typo would bite — the tests
// pin the correct variational form.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "dbim/frechet.hpp"
#include "greens/transceivers.hpp"
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
  cvec contrast;

  FrechetFixture() {
    const cvec de =
        gaussian_blob(grid, Vec2{0.2, 0.1}, 0.7, cplx{0.03, 0.0});
    contrast = contrast_from_permittivity(grid, de);
  }
};

/// phi_sca(O) for one illumination at high accuracy.
cvec scattered_field(FrechetFixture& s, ccspan contrast, int t) {
  BicgstabOptions opts;
  opts.tol = 1e-11;
  ForwardSolver fs(s.engine, opts);
  fs.set_contrast(contrast);
  const ccspan inc = s.trx.incident_field(t);
  cvec phi(s.grid.num_pixels(), cplx{});
  copy(inc, phi);
  FFW_CHECK(fs.solve(inc, phi).converged);
  cvec ophi(phi.size());
  diag_mul(contrast, phi, ophi);
  cvec out(static_cast<std::size_t>(s.trx.num_receivers()));
  s.trx.apply_gr(ophi, out);
  return out;
}

TEST(Frechet, MatchesCentralFiniteDifference) {
  FrechetFixture s;
  const std::size_t n = s.grid.num_pixels();
  Rng rng(41);
  cvec v(n);
  rng.fill_cnormal(v);

  BicgstabOptions opts;
  opts.tol = 1e-11;
  ForwardSolver fs(s.engine, opts);
  fs.set_contrast(s.contrast);
  const ccspan inc = s.trx.incident_field(0);
  cvec phi_b(n, cplx{});
  copy(inc, phi_b);
  ASSERT_TRUE(fs.solve(inc, phi_b).converged);

  FrechetOperator f(fs, s.trx, phi_b);
  cvec fv(static_cast<std::size_t>(s.trx.num_receivers()));
  f.apply(v, fv);

  // Central difference along v with a real step.
  const double h = 1e-4;
  cvec op(n), om(n);
  for (std::size_t i = 0; i < n; ++i) {
    op[i] = s.contrast[i] + h * v[i];
    om[i] = s.contrast[i] - h * v[i];
  }
  const cvec sp = scattered_field(s, op, 0);
  const cvec sm = scattered_field(s, om, 0);
  cvec fd(sp.size());
  for (std::size_t i = 0; i < fd.size(); ++i)
    fd[i] = (sp[i] - sm[i]) / (2.0 * h);

  EXPECT_LT(rel_l2_diff(fv, fd), 1e-5);
}

TEST(Frechet, AdjointInnerProductIdentity) {
  FrechetFixture s;
  const std::size_t n = s.grid.num_pixels();
  const std::size_t r = static_cast<std::size_t>(s.trx.num_receivers());
  Rng rng(43);
  cvec v(n), u(r);
  rng.fill_cnormal(v);
  rng.fill_cnormal(u);

  BicgstabOptions opts;
  opts.tol = 1e-11;
  ForwardSolver fs(s.engine, opts);
  fs.set_contrast(s.contrast);
  const ccspan inc = s.trx.incident_field(1);
  cvec phi_b(n, cplx{});
  copy(inc, phi_b);
  ASSERT_TRUE(fs.solve(inc, phi_b).converged);

  FrechetOperator f(fs, s.trx, phi_b);
  cvec fv(r), fhu(n);
  f.apply(v, fv);
  f.apply_adjoint(u, fhu);
  const cplx lhs = cdot(u, fv);   // <u, F v>
  const cplx rhs = cdot(fhu, v);  // <F^H u, v>
  EXPECT_NEAR(std::abs(lhs - rhs), 0.0, 1e-8 * std::abs(lhs));
}

// At zero background the Frechet operator reduces to the Born operator
// G_R diag(phi_inc).
TEST(Frechet, ReducesToBornAtZeroBackground) {
  FrechetFixture s;
  const std::size_t n = s.grid.num_pixels();
  Rng rng(44);
  cvec v(n);
  rng.fill_cnormal(v);

  ForwardSolver fs(s.engine);
  fs.set_contrast(cvec(n, cplx{}));
  const ccspan inc = s.trx.incident_field(2);
  cvec phi_b(inc.begin(), inc.end());  // free space: phi_b == phi_inc

  FrechetOperator f(fs, s.trx, phi_b);
  cvec fv(static_cast<std::size_t>(s.trx.num_receivers()));
  f.apply(v, fv);

  cvec vphi(n), born(fv.size());
  diag_mul(v, ccspan{phi_b.data(), n}, vphi);
  s.trx.apply_gr(vphi, born);
  EXPECT_LT(rel_l2_diff(fv, born), 1e-8);
}

}  // namespace
}  // namespace ffw
