// Transmitter/receiver operator tests: geometry, panel projections
// against per-column products, adjoint identities, thread-count
// independence, partitioned slices, the size cap, incident fields.
#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.hpp"
#include "greens/greens.hpp"
#include "greens/transceivers.hpp"
#include "grid/quadtree.hpp"
#include "linalg/kernels.hpp"
#include "parallel/parallel_for.hpp"

namespace ffw {
namespace {

TEST(Ring, FullRingGeometry) {
  const auto pos = ring_positions(8, 2.0);
  ASSERT_EQ(pos.size(), 8u);
  EXPECT_NEAR(pos[0].x, 2.0, 1e-14);
  EXPECT_NEAR(pos[0].y, 0.0, 1e-14);
  EXPECT_NEAR(pos[2].x, 0.0, 1e-13);
  EXPECT_NEAR(pos[2].y, 2.0, 1e-13);
  for (const auto& p : pos) EXPECT_NEAR(norm(p), 2.0, 1e-13);
}

TEST(Ring, LimitedArc) {
  // Quarter arc on the right side (paper Fig. 2 style).
  const auto pos = ring_positions(5, 3.0, -pi / 4, pi / 4);
  for (const auto& p : pos) {
    EXPECT_GT(p.x, 0.0);
    const double a = angle_of(p);
    EXPECT_GE(a, -pi / 4 - 1e-12);
    EXPECT_LT(a, pi / 4);
  }
}

/// Random N x nrhs natural-order panel.
cvec random_panel(std::size_t rows, std::size_t nrhs, std::uint64_t seed) {
  Rng rng(seed);
  cvec x(rows * nrhs);
  rng.fill_cnormal(x);
  return x;
}

class PanelProjection : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PanelProjection, PanelEqualsPerColumnProjections) {
  const std::size_t nrhs = GetParam();
  Grid grid(64);  // N = 4096: several projection chunks
  Transceivers trx(grid, ring_positions(4, grid.domain()),
                   ring_positions(24, grid.domain()));
  const std::size_t n = grid.num_pixels(), nr = 24;
  const cvec x = random_panel(n, nrhs, 60 + nrhs);
  const cvec u = random_panel(nr, nrhs, 70 + nrhs);
  cvec y(nr * nrhs), g(n * nrhs);
  trx.apply_gr(x, y, nrhs);
  trx.apply_gr_herm(u, g, nrhs);
  // Reference: one dense matvec per column through the plain CMatrix
  // kernels.
  cvec y_ref(nr), g_ref(n);
  for (std::size_t j = 0; j < nrhs; ++j) {
    matvec(trx.gr(), ccspan{x.data() + j * n, n}, y_ref);
    EXPECT_LT(rel_l2_diff(ccspan{y.data() + j * nr, nr}, y_ref), 1e-13)
        << "forward column " << j;
    matvec_herm(trx.gr(), ccspan{u.data() + j * nr, nr}, g_ref);
    EXPECT_LT(rel_l2_diff(ccspan{g.data() + j * n, n}, g_ref), 1e-13)
        << "adjoint column " << j;
  }
}

INSTANTIATE_TEST_SUITE_P(Nrhs, PanelProjection,
                         ::testing::Values(std::size_t{1}, std::size_t{3},
                                           std::size_t{16}));

TEST(Transceivers, PanelAdjointIdentity) {
  constexpr std::size_t kNrhs = 16;
  Grid grid(64);
  Transceivers trx(grid, ring_positions(2, grid.domain()),
                   ring_positions(32, grid.domain()));
  const std::size_t n = grid.num_pixels();
  const cvec x = random_panel(n, kNrhs, 81);
  const cvec u = random_panel(32, kNrhs, 82);
  cvec gx(32 * kNrhs), ghu(n * kNrhs);
  trx.apply_gr(x, gx, kNrhs);
  trx.apply_gr_herm(u, ghu, kNrhs);
  const cplx lhs = cdot(gx, u);   // <G X, U>
  const cplx rhs = cdot(x, ghu);  // <X, G^H U>
  EXPECT_LT(std::abs(lhs - rhs), 1e-12 * std::abs(lhs));
}

TEST(Transceivers, ThreadCountDoesNotChangeAnyBit) {
  constexpr std::size_t kNrhs = 16;
  Grid grid(64);
  Transceivers trx(grid, ring_positions(4, grid.domain()),
                   ring_positions(32, grid.domain()));
  const std::size_t n = grid.num_pixels();
  const cvec x = random_panel(n, kNrhs, 91);
  const cvec u = random_panel(32, kNrhs, 92);
  // The natural panel, and the leaf-blocked layout of the whole tree in
  // cluster order (64-pixel leaves, runs of one 8-pixel leaf row).
  const QuadTree tree(grid);
  const BlockLayout blocked{64, kNrhs, n / 64};
  const auto run = [&](int threads, cvec& y, cvec& g, cvec& yb, cvec& gb) {
    set_num_threads(threads);
    y.assign(32 * kNrhs, cplx{});
    g.assign(n * kNrhs, cplx{});
    yb.assign(32 * kNrhs, cplx{});
    gb.assign(n * kNrhs, cplx{});
    trx.apply_gr(x, y, kNrhs);
    trx.apply_gr_herm(u, g, kNrhs);
    gr_project(trx.gr(), tree.perm(), blocked, x, yb);
    gr_project_herm(trx.gr(), tree.perm(), blocked, u, gb);
    set_num_threads(0);
  };
  cvec y1, g1, yb1, gb1, y4, g4, yb4, gb4;
  run(1, y1, g1, yb1, gb1);
  run(4, y4, g4, yb4, gb4);
  const auto same = [](const cvec& a, const cvec& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0;
  };
  EXPECT_TRUE(same(y1, y4));
  EXPECT_TRUE(same(g1, g4));
  EXPECT_TRUE(same(yb1, yb4));
  EXPECT_TRUE(same(gb1, gb4));
}

TEST(Transceivers, SliceProjectionsSumToFullProjection) {
  // Two ranks' worth of leaf-blocked slices: each half of the cluster
  // order (leaves of 4 x 4 pixels), projected against the shared G_R.
  constexpr std::size_t kNrhs = 3, kNr = 20;
  Grid grid(32);
  const QuadTree tree(grid, 4);
  Transceivers trx(grid, ring_positions(3, grid.domain()),
                   ring_positions(static_cast<int>(kNr), grid.domain()));
  const std::size_t n = grid.num_pixels();
  const std::size_t panel = static_cast<std::size_t>(tree.pixels_per_leaf());
  const cvec x = random_panel(n, kNrhs, 101);
  const cvec u = random_panel(kNr, kNrhs, 102);
  cvec y_full(kNr * kNrhs), g_full(n * kNrhs);
  trx.apply_gr(x, y_full, kNrhs);
  trx.apply_gr_herm(u, g_full, kNrhs);

  cvec y_sum(kNr * kNrhs, cplx{});
  const std::size_t nloc = n / 2;
  for (std::size_t s = 0; s < 2; ++s) {
    const std::span<const std::uint32_t> pix =
        std::span<const std::uint32_t>(tree.perm()).subspan(s * nloc, nloc);
    const BlockLayout lo{panel, kNrhs, nloc / panel};
    cvec x_loc(lo.size());
    for (std::size_t q = 0; q < nloc; ++q) {
      for (std::size_t j = 0; j < kNrhs; ++j)
        x_loc[lo.at(q / panel, j) + q % panel] = x[j * n + pix[q]];
    }
    cvec y_part(kNr * kNrhs), g_loc(lo.size());
    gr_project(trx.gr(), pix, lo, x_loc, y_part);
    for (std::size_t k = 0; k < y_sum.size(); ++k) y_sum[k] += y_part[k];
    // The adjoint slice is the full adjoint restricted to the slice.
    double err = 0.0, ref = 0.0;
    gr_project_herm(trx.gr(), pix, lo, u, g_loc);
    for (std::size_t q = 0; q < nloc; ++q) {
      for (std::size_t j = 0; j < kNrhs; ++j) {
        const cplx want = g_full[j * n + pix[q]];
        err += std::norm(g_loc[lo.at(q / panel, j) + q % panel] - want);
        ref += std::norm(want);
      }
    }
    EXPECT_LT(std::sqrt(err / ref), 1e-13) << "slice " << s;
  }
  EXPECT_LT(rel_l2_diff(y_sum, y_full), 1e-13);
}

TEST(TransceiversDeathTest, OverCapGeometryIsRefused) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // (16 + 1) * 1024^2 entries: one transmitter past the cap.
  Grid grid(1024);
  EXPECT_DEATH(Transceivers(grid, ring_positions(1, grid.domain()),
                            ring_positions(16, grid.domain())),
               "\\(16 \\+ 1\\) \\* 1048576 exceed");
}

TEST(Transceivers, GrAdjointIdentity) {
  Grid grid(32);
  Transceivers trx(grid, ring_positions(2, grid.domain()),
                   ring_positions(10, grid.domain()));
  Rng rng(52);
  cvec x(grid.num_pixels()), u(10), gx(10), ghu(grid.num_pixels());
  rng.fill_cnormal(x);
  rng.fill_cnormal(u);
  trx.apply_gr(x, gx);
  trx.apply_gr_herm(u, ghu);
  EXPECT_NEAR(std::abs(cdot(u, gx) - cdot(ghu, x)), 0.0,
              1e-12 * std::abs(cdot(u, gx)));
}

TEST(Transceivers, IncidentFieldIsLineSourceKernel) {
  Grid grid(16);
  const auto tx = ring_positions(3, grid.domain());
  Transceivers trx(grid, tx, ring_positions(4, grid.domain()));
  const ccspan inc = trx.incident_field(1);
  // Spot check a pixel against the raw kernel.
  const Vec2 p = grid.pixel_center(3, 7);
  const cplx want = g0_point(grid.k0(), norm(p - tx[1]));
  EXPECT_NEAR(std::abs(inc[grid.pixel_index(3, 7)] - want), 0.0, 1e-14);
}

TEST(Transceivers, ReceiverKernelIncludesSourceFactor) {
  Grid grid(16);
  const auto rx = ring_positions(4, grid.domain());
  Transceivers trx(grid, ring_positions(2, grid.domain()), rx);
  // Apply G_R to a delta at one pixel: result must be sf * g0.
  cvec x(grid.num_pixels(), cplx{});
  x[grid.pixel_index(5, 5)] = 1.0;
  cvec y(4);
  trx.apply_gr(x, y);
  const Vec2 p = grid.pixel_center(5, 5);
  for (int r = 0; r < 4; ++r) {
    const cplx want = source_factor(grid) *
                      g0_point(grid.k0(), norm(rx[static_cast<std::size_t>(r)] - p));
    EXPECT_NEAR(std::abs(y[static_cast<std::size_t>(r)] - want), 0.0, 1e-14);
  }
}

}  // namespace
}  // namespace ffw
