// Physics validation: scattering of a plane wave by a homogeneous
// dielectric cylinder has an analytic (Mie-type) series solution. The
// VIE + Richmond discretisation + MLFMA + BiCGStab pipeline must
// reproduce the analytic total field inside the cylinder to the
// staircase-discretisation accuracy (a few percent at lambda/10).
//
//   incident : e^{i k0 x} = sum_m i^m J_m(k0 r) e^{im phi}
//   inside   : sum_m i^m c_m J_m(k1 r) e^{im phi},   k1 = k0 sqrt(1+deps)
//   with   c_m = (J_m(x0) + b_m H_m(x0)) / J_m(x1),
//          b_m = -(k1 J'_m(x1) J_m(x0) - k0 J_m(x1) J'_m(x0)) /
//                 (k1 J'_m(x1) H_m(x0) - k0 J_m(x1) H'_m(x0)),
//   x0 = k0 a, x1 = k1 a (TMz continuity of phi and d(phi)/dr).
#include <gtest/gtest.h>

#include <cmath>

#include "forward/forward.hpp"
#include "phantom/phantom.hpp"
#include "special/bessel.hpp"

namespace ffw {
namespace {

/// Analytic interior total field of the dielectric cylinder at point p.
cplx mie_interior_field(double k0, double deps, double radius, Vec2 p,
                        int terms) {
  const double k1 = k0 * std::sqrt(1.0 + deps);
  const double x0 = k0 * radius, x1 = k1 * radius;
  const std::size_t nn = static_cast<std::size_t>(terms) + 2;
  rvec j0v(nn), j1v(nn), y0v(nn);
  bessel_jn_array(x0, j0v);
  bessel_jn_array(x1, j1v);
  bessel_yn_array(x0, y0v);
  auto h0 = [&](int m) { return cplx{j0v[static_cast<std::size_t>(m)],
                                     y0v[static_cast<std::size_t>(m)]}; };
  auto jp = [](const rvec& a, int m, double x) {
    // J'_m = J_{m-1} - (m/x) J_m  (works for m = 0 with J_{-1} = -J_1)
    const double jm = a[static_cast<std::size_t>(m)];
    const double jm1 = m > 0 ? a[static_cast<std::size_t>(m - 1)]
                             : -a[1];
    return jm1 - m / x * jm;
  };
  auto hp0 = [&](int m) {
    const cplx hm = h0(m);
    const cplx hm1 = m > 0 ? h0(m - 1) : -h0(1);
    return hm1 - static_cast<double>(m) / x0 * hm;
  };

  const double r = norm(p);
  const double phi = angle_of(p);
  rvec jr(nn);
  bessel_jn_array(k1 * r, jr);

  cplx total{};
  for (int m = 0; m <= terms; ++m) {
    const double j0m = j0v[static_cast<std::size_t>(m)];
    const double j1m = j1v[static_cast<std::size_t>(m)];
    const double j0p = jp(j0v, m, x0);
    const double j1p = jp(j1v, m, x1);
    const cplx num = k1 * j1p * j0m - k0 * j1m * j0p;
    const cplx den = k1 * j1p * h0(m) - k0 * j1m * hp0(m);
    const cplx bm = -num / den;
    const cplx cm = (j0m + bm * h0(m)) / j1m;
    cplx im{1.0, 0.0};  // i^m
    for (int q = 0; q < m % 4; ++q) im *= iu;
    const cplx ang{std::cos(m * phi), std::sin(m * phi)};
    cplx term = im * cm * jr[static_cast<std::size_t>(m)] * ang;
    if (m > 0) {
      // add the -m term: i^{-m} c_m J_m e^{-im phi}; with J_{-m} =
      // (-1)^m J_m and i^{-m} = (-1)^m i^m ... combined: conj symmetry
      // for real incident direction gives the factor below.
      const cplx angm{std::cos(m * phi), -std::sin(m * phi)};
      term += im * cm * jr[static_cast<std::size_t>(m)] * angm;
    }
    total += term;
  }
  return total;
}

TEST(ForwardMie, InteriorFieldMatchesAnalyticSeries) {
  Grid grid(64);  // 6.4 lambda domain
  QuadTree tree(grid);
  MlfmaEngine engine(tree);

  const double radius = 1.5;
  const double deps = 0.04;
  const cvec de = disks(grid, {{Vec2{0.0, 0.0}, radius, cplx{deps, 0.0}}});
  BicgstabOptions opts;
  opts.tol = 1e-8;
  ForwardSolver fs(engine, opts);
  fs.set_contrast(contrast_from_permittivity(grid, de));

  // Plane-wave incident field e^{i k0 x}.
  const std::size_t n = grid.num_pixels();
  cvec inc(n);
  for (int iy = 0; iy < grid.nx(); ++iy) {
    for (int ix = 0; ix < grid.nx(); ++ix) {
      const Vec2 p = grid.pixel_center(ix, iy);
      inc[grid.pixel_index(ix, iy)] =
          cplx{std::cos(grid.k0() * p.x), std::sin(grid.k0() * p.x)};
    }
  }
  cvec phi(n, cplx{});
  ASSERT_TRUE(fs.solve(inc, phi, 1, 0.0, /*adjoint=*/false));

  // Compare inside the cylinder, away from the staircased boundary.
  const int terms = static_cast<int>(grid.k0() * radius) + 12;
  double num = 0.0, den = 0.0;
  for (int iy = 0; iy < grid.nx(); ++iy) {
    for (int ix = 0; ix < grid.nx(); ++ix) {
      const Vec2 p = grid.pixel_center(ix, iy);
      if (norm(p) > 0.8 * radius) continue;
      const cplx want =
          mie_interior_field(grid.k0(), deps, radius, p, terms);
      const cplx got = phi[grid.pixel_index(ix, iy)];
      num += std::norm(got - want);
      den += std::norm(want);
    }
  }
  const double rel = std::sqrt(num / den);
  EXPECT_LT(rel, 0.05) << "interior field error " << rel;
  EXPECT_GT(den, 0.0);
}

}  // namespace
}  // namespace ffw
