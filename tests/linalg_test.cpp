// Dense/banded/diagonal linear-algebra substrate tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "dbim/dbim.hpp"
#include "linalg/banded.hpp"
#include "linalg/cmatrix.hpp"
#include "linalg/gemm.hpp"
#include "linalg/kernels.hpp"
#include "linalg/lu.hpp"
#include "linalg/scratch.hpp"
#include "mlfma/operators.hpp"
#include "mlfma/plan.hpp"
#include "phantom/setup.hpp"

namespace ffw {
namespace {

CMatrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  CMatrix m(r, c);
  for (std::size_t j = 0; j < c; ++j)
    for (std::size_t i = 0; i < r; ++i) m(i, j) = rng.cnormal();
  return m;
}

void naive_gemm(cplx alpha, const CMatrix& a, const CMatrix& b, cplx beta,
                CMatrix& c) {
  for (std::size_t j = 0; j < b.cols(); ++j)
    for (std::size_t i = 0; i < a.rows(); ++i) {
      cplx acc{};
      for (std::size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(k, j);
      c(i, j) = beta * c(i, j) + alpha * acc;
    }
}

class GemmShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapes, MatchesNaive) {
  const auto [m, n, k] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 1000 + n * 100 + k));
  const CMatrix a = random_matrix(static_cast<std::size_t>(m),
                                  static_cast<std::size_t>(k), rng);
  const CMatrix b = random_matrix(static_cast<std::size_t>(k),
                                  static_cast<std::size_t>(n), rng);
  CMatrix c1 = random_matrix(static_cast<std::size_t>(m),
                             static_cast<std::size_t>(n), rng);
  CMatrix c2 = c1;
  const cplx alpha{1.3, -0.4}, beta{0.2, 0.9};
  gemm(alpha, a, b, beta, c1);
  naive_gemm(alpha, a, b, beta, c2);
  double err = 0.0;
  for (std::size_t j = 0; j < c1.cols(); ++j)
    for (std::size_t i = 0; i < c1.rows(); ++i)
      err = std::max(err, std::abs(c1(i, j) - c2(i, j)));
  EXPECT_LT(err, 1e-11 * static_cast<double>(k));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapes,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{4, 2, 128},
                      std::tuple{5, 3, 7}, std::tuple{64, 64, 64},
                      std::tuple{74, 9, 64}, std::tuple{13, 1, 250},
                      std::tuple{8, 2, 129}, std::tuple{3, 5, 2}));

TEST(Gemm, HermitianVariantMatchesNaive) {
  Rng rng(99);
  const CMatrix a = random_matrix(37, 12, rng);
  const CMatrix b = random_matrix(37, 5, rng);
  CMatrix c(12, 5);
  gemm_herm_a(cplx{1.0}, a, b, cplx{0.0}, c);
  const CMatrix ah = a.hermitian();
  CMatrix ref(12, 5);
  naive_gemm(cplx{1.0}, ah, b, cplx{0.0}, ref);
  for (std::size_t j = 0; j < 5; ++j)
    for (std::size_t i = 0; i < 12; ++i)
      EXPECT_NEAR(std::abs(c(i, j) - ref(i, j)), 0.0, 1e-12);
}

class HermGemmShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

// The vectorised A^H B kernel against a naive reference, at fp64 and at
// fp32 storage (fp64 accumulation), on sizes that are not multiples of
// the SIMD width or of its four-column tile.
TEST_P(HermGemmShapes, MatchesNaiveAtBothStoragePrecisions) {
  const auto [mi, ni, ki] = GetParam();
  const auto m = static_cast<std::size_t>(mi), n = static_cast<std::size_t>(ni),
             k = static_cast<std::size_t>(ki);
  Rng rng(static_cast<std::uint64_t>(mi * 1000 + ni * 100 + ki));
  const CMatrix a = random_matrix(k, m, rng);
  const CMatrix b = random_matrix(k, n, rng);
  const CMatrix c0 = random_matrix(m, n, rng);
  const cplx alpha{0.7, -1.1}, beta{-0.3, 0.5};

  // Reference over the operands as stored.
  const auto reference = [&](const CMatrix& as, const CMatrix& bs) {
    CMatrix ref = c0;
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t i = 0; i < m; ++i) {
        cplx acc{};
        for (std::size_t p = 0; p < k; ++p)
          acc += std::conj(as(p, i)) * bs(p, j);
        ref(i, j) = beta * c0(i, j) + alpha * acc;
      }
    return ref;
  };
  const auto max_err = [&](const CMatrix& c, const CMatrix& ref) {
    double err = 0.0;
    for (std::size_t i = 0; i < c.size(); ++i)
      err = std::max(err, std::abs(c.data()[i] - ref.data()[i]));
    return err;
  };

  CMatrix c64 = c0;
  gemm_herm_raw_t<double, double>(m, n, k, alpha, a.data(), k, b.data(), k,
                                  beta, c64.data(), m);
  EXPECT_LT(max_err(c64, reference(a, b)), 1e-12 * static_cast<double>(k));

  // fp32 storage: the reference reads the widened fp32 operands back
  // from memory.
  const auto to32 = [](const CMatrix& x) {
    cvec32 out(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) out[i] = narrow(x.data()[i]);
    return out;
  };
  const auto to64 = [](const cvec32& x, std::size_t rows, std::size_t cols) {
    CMatrix out(rows, cols);
    for (std::size_t i = 0; i < x.size(); ++i) out.data()[i] = widen(x[i]);
    return out;
  };
  const cvec32 a32 = to32(a), b32 = to32(b);
  CMatrix c32 = c0;
  gemm_herm_raw_t<float, double>(m, n, k, alpha, a32.data(), k, b32.data(), k,
                                 beta, c32.data(), m);
  EXPECT_LT(max_err(c32, reference(to64(a32, k, m), to64(b32, k, n))),
            1e-12 * static_cast<double>(k));
}

INSTANTIATE_TEST_SUITE_P(
    OddShapes, HermGemmShapes,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{5, 3, 7},
                      std::tuple{13, 9, 61}, std::tuple{37, 5, 65},
                      std::tuple{3, 11, 129}));

// A^{-1} through invert_in_place, with its scratch.
CMatrix inverted(CMatrix a) {
  cvec panel(kInvertBlock * a.rows());
  std::vector<std::size_t> pivots(a.rows());
  invert_in_place(a.data(), a.rows(), panel, pivots);
  return a;
}

// max_i sum_j |(A B - I)_ij|.
double identity_error_inf(const CMatrix& a, const CMatrix& b) {
  CMatrix prod(a.rows(), b.cols());
  gemm(cplx{1.0}, a, b, cplx{}, prod);
  double err = 0.0;
  for (std::size_t i = 0; i < prod.rows(); ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < prod.cols(); ++j)
      row += std::abs(prod(i, j) - (i == j ? 1.0 : 0.0));
    err = std::max(err, row);
  }
  return err;
}

// Largest entry difference between inv and A^{-1} formed column by
// column with LuFactors::solve.
double lu_column_diff(const CMatrix& a, const CMatrix& inv) {
  const std::size_t n = a.rows();
  const LuFactors lu(a);
  double diff = 0.0;
  cvec e(n);
  for (std::size_t j = 0; j < n; ++j) {
    std::fill(e.begin(), e.end(), cplx{});
    e[j] = 1.0;
    const cvec x = lu.solve(e);
    for (std::size_t i = 0; i < n; ++i)
      diff = std::max(diff, std::abs(x[i] - inv(i, j)));
  }
  return diff;
}

TEST(Lu, InverseTimesMatrixIsIdentity) {
  Rng rng(4);
  const std::size_t n = 37;
  const CMatrix a = random_matrix(n, n, rng);
  const CMatrix inv = inverted(a);
  CMatrix prod(n, n);
  gemm(cplx{1.0}, inv, a, cplx{}, prod);
  double err = 0.0;
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i)
      err = std::max(err, std::abs(prod(i, j) - (i == j ? 1.0 : 0.0)));
  EXPECT_LT(err, 1e-12);
}

class InvertSizes : public ::testing::TestWithParam<int> {};

// Sizes around the pivot-block edge: inside one block, exactly one,
// one past it, and several blocks with and without a short last one.
TEST_P(InvertSizes, MatchesLuSolvesOnWellConditionedMatrices) {
  const std::size_t n = static_cast<std::size_t>(GetParam());
  Rng rng(40 + n);
  CMatrix a = random_matrix(n, n, rng);
  const double scale = 1.0 / std::sqrt(static_cast<double>(n));
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) a(i, j) *= scale;
    a(j, j) += 3.0;
  }
  const CMatrix inv = inverted(a);
  EXPECT_LE(identity_error_inf(a, inv), 1e-12);
  EXPECT_LE(lu_column_diff(a, inv), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(BlockEdges, InvertSizes,
                         ::testing::Values(1, 7, 8, 9, 63, 64, 65, 130));

TEST(Lu, InvertPivotsPastZeroDiagonal) {
  // A cyclic shift plus off-diagonal noise: every diagonal entry is
  // exactly zero, so without row pivoting the first step divides by 0.
  const std::size_t n = 70;
  Rng rng(41);
  CMatrix a(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i)
      if (i != j) a(i, j) = 0.1 / std::sqrt(double(n)) * rng.cnormal();
    a((j + 1) % n, j) += 1.0;
  }
  const CMatrix inv = inverted(a);
  EXPECT_LE(identity_error_inf(a, inv), 1e-12);
  EXPECT_LE(lu_column_diff(a, inv), 1e-12);
}

TEST(LuDeathTest, InvertAbortsOnAnExactlySingularMatrix) {
  // Column 11 is zero: it stays exactly zero through the first block's
  // update, and its pivot search in the second block finds nothing.
  Rng rng(42);
  CMatrix a = random_matrix(16, 16, rng);
  for (std::size_t i = 0; i < 16; ++i) a(i, 11) = 0.0;
  EXPECT_DEATH(inverted(a), "singular");
}

TEST(Lu, SolveRandomSystem) {
  Rng rng(5);
  const std::size_t n = 40;
  const CMatrix a = random_matrix(n, n, rng);
  cvec x_true(n);
  rng.fill_cnormal(x_true);
  cvec b(n);
  matvec(a, x_true, b);
  const cvec x = lu_solve(a, b);
  EXPECT_LT(rel_l2_diff(x, x_true), 1e-10);
}

TEST(Lu, HermitianSolve) {
  Rng rng(6);
  const std::size_t n = 25;
  const CMatrix a = random_matrix(n, n, rng);
  LuFactors lu(a);
  cvec x_true(n), b(n);
  rng.fill_cnormal(x_true);
  // b = A^H x_true
  const CMatrix ah = a.hermitian();
  matvec(ah, x_true, b);
  const cvec x = lu.solve_herm(b);
  EXPECT_LT(rel_l2_diff(x, x_true), 1e-10);
}

TEST(Lu, PivotRatioDetectsConditioning) {
  CMatrix ident(8, 8);
  for (std::size_t i = 0; i < 8; ++i) ident(i, i) = 1.0;
  LuFactors lu(std::move(ident));
  EXPECT_DOUBLE_EQ(lu.pivot_ratio(), 1.0);
}

TEST(Banded, ApplyMatchesDense) {
  // A 12->20 periodic band matrix with random band coefficients.
  Rng rng(7);
  PeriodicBandMatrix w(20, 12, 5);
  for (std::size_t r = 0; r < 20; ++r) {
    w.set_first(r, (r * 3 + 5) % 12);
    for (std::size_t j = 0; j < 5; ++j) w.coeff(r, j) = rng.uniform(-1, 1);
  }
  cvec x(12), y(20);
  rng.fill_cnormal(x);
  w.apply(x, y);
  const auto dense = w.to_dense();
  for (std::size_t r = 0; r < 20; ++r) {
    cplx acc{};
    for (std::size_t c = 0; c < 12; ++c) acc += dense[r][c] * x[c];
    EXPECT_NEAR(std::abs(y[r] - acc), 0.0, 1e-13);
  }
}

TEST(Banded, AdjointIsTranspose) {
  Rng rng(8);
  PeriodicBandMatrix w(16, 10, 4);
  for (std::size_t r = 0; r < 16; ++r) {
    w.set_first(r, (2 * r) % 10);
    for (std::size_t j = 0; j < 4; ++j) w.coeff(r, j) = rng.uniform(-1, 1);
  }
  cvec x(10), y(16), wx(16), wty(10);
  rng.fill_cnormal(x);
  rng.fill_cnormal(y);
  w.apply(x, wx);
  w.apply_adjoint(y, wty);
  // <W x, y> == <x, W^T y> for real coefficients.
  EXPECT_NEAR(std::abs(cdot(wx, y) - cdot(x, wty)), 0.0, 1e-12);
}

// The band-tile kernel of the MLFMA aggregation (interpolation, then
// the row shift) and disaggregation (the scaled transpose, gather-added
// into the child panel) against a dense reference built from
// PeriodicBandMatrix::to_dense(), on every column count the column
// tiling distinguishes.
template <typename T>
double band_tiles_error(const PeriodicBandMatrix& w, bool transpose,
                        double scale, bool shifted, std::size_t nrhs) {
  const auto dense = w.to_dense();
  const std::size_t rows = transpose ? w.cols() : w.rows();
  const std::size_t cols = transpose ? w.rows() : w.cols();
  Rng rng(static_cast<std::uint64_t>(100 * rows + cols + nrhs));
  std::vector<std::complex<T>> x(cols * nrhs), shift(rows), y(rows * nrhs);
  for (auto& v : x) v = std::complex<T>(rng.cnormal());
  for (auto& v : shift) v = std::complex<T>(rng.cnormal());
  for (auto& v : y) v = std::complex<T>(rng.cnormal());
  // The reference in fp64 from the same (rounded) inputs: shifted tests
  // overwrite Y with diag(shift) B X, the others add B X to Y.
  cvec want(rows * nrhs);
  double peak = 0.0;
  for (std::size_t j = 0; j < nrhs; ++j) {
    for (std::size_t r = 0; r < rows; ++r) {
      cplx acc{};
      for (std::size_t c = 0; c < cols; ++c) {
        const double b = transpose ? dense[c][r] : dense[r][c];
        acc += scale * b * cplx(x[j * cols + c]);
      }
      want[j * rows + r] =
          shifted ? cplx(shift[r]) * acc : cplx(y[j * rows + r]) + acc;
      peak = std::max(peak, std::abs(want[j * rows + r]));
    }
  }
  const BandTiles<T> tiles(w, transpose, scale);
  EXPECT_EQ(tiles.rows(), rows);
  EXPECT_EQ(tiles.cols(), cols);
  tiles.apply(x.data(), cols, shifted ? shift.data() : nullptr, y.data(), rows,
              nrhs, /*accumulate=*/!shifted);
  double err = 0.0;
  for (std::size_t i = 0; i < want.size(); ++i)
    err = std::max(err, std::abs(cplx(y[i]) - want[i]));
  return err / peak;
}

struct BandShape {
  int src, dst, width;
};

std::vector<BandShape> band_shapes() {
  // The 128^2 level transitions at the plan's stencil width, a small
  // band whose blocks wrap round the circle, and one so short that a
  // block's window is every source row.
  Grid grid(128);
  QuadTree tree(grid);
  const MlfmaPlan plan(tree, MlfmaParams{});
  EXPECT_EQ(plan.level(0).samples, 74);
  EXPECT_EQ(plan.level(1).samples, 110);
  EXPECT_EQ(plan.level(2).samples, 182);
  return {{74, 110, plan.interp_width()},
          {110, 182, plan.interp_width()},
          {12, 20, 5},
          {6, 9, 6}};
}

const std::size_t kBandWidths[] = {1, 2, 3, 4, 5, 16, 17};

TEST(BandTiles, InterpolationWithShiftMatchesDense) {
  for (const BandShape& bs : band_shapes()) {
    const PeriodicBandMatrix w = make_interpolation(bs.src, bs.dst, bs.width);
    for (const std::size_t nrhs : kBandWidths) {
      EXPECT_LE(band_tiles_error<double>(w, false, 1.0, true, nrhs), 1e-13)
          << bs.src << "->" << bs.dst << " nrhs=" << nrhs;
      EXPECT_LE(band_tiles_error<float>(w, false, 1.0, true, nrhs), 3e-6)
          << bs.src << "->" << bs.dst << " nrhs=" << nrhs;
    }
  }
}

TEST(BandTiles, ScaledTransposeGatherAddMatchesDense) {
  for (const BandShape& bs : band_shapes()) {
    const PeriodicBandMatrix w = make_interpolation(bs.src, bs.dst, bs.width);
    const double scale = static_cast<double>(bs.src) / bs.dst;
    for (const std::size_t nrhs : kBandWidths) {
      EXPECT_LE(band_tiles_error<double>(w, true, scale, false, nrhs), 1e-13)
          << bs.dst << "->" << bs.src << " nrhs=" << nrhs;
      EXPECT_LE(band_tiles_error<float>(w, true, scale, false, nrhs), 3e-6)
          << bs.dst << "->" << bs.src << " nrhs=" << nrhs;
    }
  }
}

TEST(BandTiles, WindowsHoldEveryStencilOnce) {
  // Each block's window is no longer than the circle, and the wrapped
  // blocks of a 12 -> 20 band still cover all their stencil columns.
  for (const BandShape& bs : band_shapes()) {
    const PeriodicBandMatrix w = make_interpolation(bs.src, bs.dst, bs.width);
    for (const bool transpose : {false, true}) {
      const BandTiles<double> tiles(w, transpose, 1.0);
      const std::size_t rows = tiles.rows(), tr = BandTiles<double>::tile_rows();
      EXPECT_EQ(tiles.blocks(), (rows + tr - 1) / tr);
      for (std::size_t b = 0; b < tiles.blocks(); ++b) {
        EXPECT_GT(tiles.window(b), 0u);
        EXPECT_LE(tiles.window(b), tiles.cols());
      }
    }
  }
}

// diag_sum_t, the translation kernel: C (+)= sum_e diag(d_e) B_e against
// a plain loop, on the 128^2 leaf-level sample count (74 rows, a row
// tail), a C shorter than one tile, and every column tail.
template <typename TS, typename TC>
double diag_sum_error(std::size_t m, std::size_t n, bool accumulate) {
  const std::size_t count = 3, ldb = m + 3;
  Rng rng(static_cast<std::uint64_t>(31 * m + n));
  std::vector<std::complex<TS>> d(count * m), b(count * ldb * n);
  std::vector<std::complex<TC>> c(m * n);
  for (auto& v : d) v = std::complex<TS>(rng.cnormal());
  for (auto& v : b) v = std::complex<TS>(rng.cnormal());
  for (auto& v : c) v = std::complex<TC>(rng.cnormal());
  std::vector<DiagTerm<TS>> terms;
  for (std::size_t e = 0; e < count; ++e)
    terms.push_back({d.data() + e * m, b.data() + e * ldb * n});
  cvec want(m * n);
  double peak = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < m; ++i) {
      cplx acc = accumulate ? cplx(c[j * m + i]) : cplx{};
      for (std::size_t e = 0; e < count; ++e)
        acc += cplx(d[e * m + i]) * cplx(b[e * ldb * n + j * ldb + i]);
      want[j * m + i] = acc;
      peak = std::max(peak, std::abs(acc));
    }
  }
  diag_sum_t<TS, TC>(m, n, terms.data(), count, ldb, c.data(), m, accumulate);
  double err = 0.0;
  for (std::size_t i = 0; i < want.size(); ++i)
    err = std::max(err, std::abs(cplx(c[i]) - want[i]));
  return err / peak;
}

TEST(Gemm, DiagSumMatchesNaive) {
  for (const std::size_t m : {std::size_t{74}, std::size_t{3}}) {
    for (const std::size_t n : kBandWidths) {
      for (const bool acc : {false, true}) {
        EXPECT_LE((diag_sum_error<double, double>(m, n, acc)), 1e-14)
            << "m=" << m << " n=" << n;
        EXPECT_LE((diag_sum_error<float, double>(m, n, acc)), 3e-7)
            << "m=" << m << " n=" << n;
        EXPECT_LE((diag_sum_error<float, float>(m, n, acc)), 3e-7)
            << "m=" << m << " n=" << n;
      }
    }
  }
}

TEST(Gemm, ExpandMixedStaysInFp32Budget) {
  // The mixed leaf expansion (short fp32 chains summed in fp64, one
  // rounding into the panel) against the fp64 product, at the 128^2
  // shape (q0 = 74 rows, the row tail) and a k that is not a multiple
  // of the chain.
  Rng rng(17);
  for (const std::size_t k : {std::size_t{64}, std::size_t{67}}) {
    const std::size_t m = 74, n = 21;
    cvec32 a(m * k), b(k * n), c(m * n);
    for (auto& v : a) v = narrow(rng.cnormal());
    for (auto& v : b) v = narrow(rng.cnormal());
    gemm_expand_mixed(m, n, k, a.data(), m, b.data(), k, c.data(), m);
    double err = 0.0, peak = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t i = 0; i < m; ++i) {
        cplx acc{};
        for (std::size_t p = 0; p < k; ++p)
          acc += cplx(a[p * m + i]) * cplx(b[j * k + p]);
        err = std::max(err, std::abs(cplx(c[j * m + i]) - acc));
        peak = std::max(peak, std::abs(acc));
      }
    }
    EXPECT_LT(err / peak, 3e-6) << "k=" << k;
  }
}

TEST(Kernels, DotNormAxpy) {
  cvec x{{1, 2}, {3, -1}}, y{{0, 1}, {2, 2}};
  const cplx d = cdot(x, y);
  // conj(1+2i)*(0+i) + conj(3-i)*(2+2i) = (1-2i)(i) + (3+i)(2+2i)
  // = (2 + i) + (4 + 8i) = 6 + 9i
  EXPECT_NEAR(std::abs(d - cplx(6, 9)), 0.0, 1e-14);
  EXPECT_NEAR(nrm2(x), std::sqrt(15.0), 1e-14);
  axpy(cplx{2.0}, x, y);
  EXPECT_NEAR(std::abs(y[0] - cplx(2, 5)), 0.0, 1e-14);
}

TEST(Kernels, DiagOps) {
  cvec d{{2, 0}, {0, 1}}, x{{1, 1}, {3, 0}}, y(2);
  diag_mul(d, x, y);
  EXPECT_NEAR(std::abs(y[0] - cplx(2, 2)), 0.0, 1e-14);
  EXPECT_NEAR(std::abs(y[1] - cplx(0, 3)), 0.0, 1e-14);
}

TEST(Matrix, HermitianTranspose) {
  Rng rng(9);
  const CMatrix a = random_matrix(6, 4, rng);
  const CMatrix ah = a.hermitian();
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t j = 0; j < 4; ++j)
      EXPECT_EQ(ah(j, i), std::conj(a(i, j)));
}

// --- The per-thread block scratch (linalg/scratch.hpp) ------------------

TEST(Scratch, NestedFramesReuseStorageLifo) {
  scratch_release();
  ScratchFrame outer;
  const cspan a = outer.vec(1000);
  const cplx* inner_first;
  {
    ScratchFrame inner;
    const cspan b = inner.vec(500);
    const std::span<float> c = inner.take<float>(3);
    inner_first = b.data();
    EXPECT_NE(b.data(), a.data());
    for (const void* p : {static_cast<const void*>(a.data()),
                          static_cast<const void*>(b.data()),
                          static_cast<const void*>(c.data())})
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % ScratchFrame::kAlign,
                0u);
  }
  const std::size_t held = scratch_bytes();
  {
    // The closed frame's slot comes back: no growth.
    ScratchFrame again;
    EXPECT_EQ(again.vec(500).data(), inner_first);
  }
  EXPECT_EQ(scratch_bytes(), held);
}

TEST(Scratch, RepeatedPatternReusesItsSlots) {
  scratch_release();
  const auto run = [](std::size_t n) {
    ScratchFrame outer;
    outer.vec(1 << 10);
    ScratchFrame inner;
    return inner.vec(n).data();
  };
  const cplx* first = run(1 << 16);
  const std::size_t held = scratch_bytes();
  EXPECT_EQ(held, ((1u << 10) + (1u << 16)) * sizeof(cplx));
  EXPECT_EQ(run(1 << 16), first);  // same slot, nothing allocated
  EXPECT_EQ(run(1 << 12), first);  // a smaller request fits the slot
  EXPECT_EQ(scratch_bytes(), held);
  scratch_release();
  EXPECT_EQ(scratch_bytes(), 0u);
}

TEST(Scratch, ThreadsGetDisjointStorage) {
  constexpr std::size_t n = 4096;
  const cplx* first[2] = {nullptr, nullptr};
  std::atomic<int> holding{0};
  const auto body = [&](int t) {
    ScratchFrame frame;
    const cspan v = frame.vec(n);
    first[t] = v.data();
    ++holding;
    while (holding.load() < 2) std::this_thread::yield();  // both live
  };
  std::thread a(body, 0), b(body, 1);
  a.join();
  b.join();
  ASSERT_NE(first[0], nullptr);
  ASSERT_NE(first[1], nullptr);
  EXPECT_TRUE(first[0] + n <= first[1] || first[1] + n <= first[0]);
}

TEST(ScratchDeathTest, ClosingFramesOutOfOrderFails) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        auto* outer = new ScratchFrame;
        auto* inner = new ScratchFrame;
        delete outer;  // closes before the frame opened inside it
        delete inner;
      },
      "reverse order");
}

TEST(Scratch, DestroyedStepperLeavesTheThreadNoScratch) {
  ScenarioConfig cfg;
  cfg.nx = 32;
  cfg.num_transmitters = 4;
  cfg.num_receivers = 12;
  Grid grid(cfg.nx);
  Scenario scene(cfg,
                 gaussian_blob(grid, Vec2{0.2, 0.1}, 0.5, cplx{0.01, 0.0}));
  DbimOptions opts;
  opts.max_iterations = 2;
  {
    DbimStepper stepper(scene.engine(), scene.transceivers(),
                        scene.measurements(), opts, cfg.forward);
    stepper.step();
    EXPECT_GT(scratch_bytes(), 0u);  // the passes drew their vectors here
  }
  EXPECT_EQ(scratch_bytes(), 0u);
}

}  // namespace
}  // namespace ffw
