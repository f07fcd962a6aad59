// FFT substrate: radix-2 and Bluestein paths against the O(N^2) DFT,
// round trips, Parseval, and spectral resampling of band-limited signals
// (the exact-interpolation oracle used by the MLFMA interp tests).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "fft/fft.hpp"
#include "fft/fft2.hpp"
#include "linalg/kernels.hpp"

namespace ffw {
namespace {

class FftSizes : public ::testing::TestWithParam<int> {};

TEST_P(FftSizes, MatchesReferenceDft) {
  const std::size_t n = static_cast<std::size_t>(GetParam());
  Rng rng(n);
  cvec x(n);
  rng.fill_cnormal(x);
  const cvec ref = dft_reference(x);
  cvec got(x.begin(), x.end());
  fft(got);
  EXPECT_LT(rel_l2_diff(got, ref), 1e-11) << "n=" << n;
}

TEST_P(FftSizes, RoundTrip) {
  const std::size_t n = static_cast<std::size_t>(GetParam());
  Rng rng(n + 1);
  cvec x(n);
  rng.fill_cnormal(x);
  cvec y(x.begin(), x.end());
  fft(y);
  ifft(y);
  EXPECT_LT(rel_l2_diff(y, x), 1e-12) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftSizes,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 12, 16, 30, 64,
                                           74, 100, 110, 127, 128, 254));

TEST(Fft, ParsevalPow2) {
  Rng rng(3);
  cvec x(64);
  rng.fill_cnormal(x);
  const double tx = nrm2(x);
  cvec y(x.begin(), x.end());
  fft(y);
  EXPECT_NEAR(nrm2(y), tx * 8.0, 1e-10);  // ||X|| = sqrt(N) ||x||
}

TEST(Fft, DeltaTransformsToConstant) {
  cvec x(16, cplx{});
  x[0] = 1.0;
  fft(x);
  for (const auto& v : x) EXPECT_NEAR(std::abs(v - cplx{1.0}), 0.0, 1e-13);
}

TEST(SpectralResample, ExactForBandLimited) {
  // A signal band-limited to |m| <= 5, sampled at 16 points, resampled to
  // 38 points, must match the analytic evaluation exactly.
  const int band = 5;
  Rng rng(17);
  cvec coeff(static_cast<std::size_t>(2 * band + 1));
  rng.fill_cnormal(coeff);
  auto eval = [&](double theta) {
    cplx acc{};
    for (int m = -band; m <= band; ++m) {
      acc += coeff[static_cast<std::size_t>(m + band)] *
             cplx{std::cos(m * theta), std::sin(m * theta)};
    }
    return acc;
  };
  const std::size_t n = 16, m = 38;
  cvec x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = eval(2.0 * pi * static_cast<double>(i) / n);
  const cvec up = spectral_resample(x, m);
  for (std::size_t i = 0; i < m; ++i) {
    const cplx want = eval(2.0 * pi * static_cast<double>(i) / m);
    EXPECT_NEAR(std::abs(up[i] - want), 0.0, 1e-11);
  }
}

TEST(SpectralResample, DownsampleBandLimited) {
  const int band = 3;
  Rng rng(18);
  cvec coeff(static_cast<std::size_t>(2 * band + 1));
  rng.fill_cnormal(coeff);
  auto eval = [&](double theta) {
    cplx acc{};
    for (int mm = -band; mm <= band; ++mm) {
      acc += coeff[static_cast<std::size_t>(mm + band)] *
             cplx{std::cos(mm * theta), std::sin(mm * theta)};
    }
    return acc;
  };
  const std::size_t n = 40, m = 9;  // 9 > 2*3+1 = 7: no aliasing
  cvec x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = eval(2.0 * pi * static_cast<double>(i) / n);
  const cvec down = spectral_resample(x, m);
  for (std::size_t i = 0; i < m; ++i) {
    const cplx want = eval(2.0 * pi * static_cast<double>(i) / m);
    EXPECT_NEAR(std::abs(down[i] - want), 0.0, 1e-11);
  }
}

// 2-D oracle: the row-column transform must equal the tensor product of
// 1-D reference DFTs — transform every row with dft_reference, then
// every column of the result.
cvec dft2_reference(const cvec& x, std::size_t rows, std::size_t cols) {
  cvec out(x.begin(), x.end());
  for (std::size_t r = 0; r < rows; ++r) {
    const cvec row = dft_reference(
        cvec(out.begin() + static_cast<std::ptrdiff_t>(r * cols),
             out.begin() + static_cast<std::ptrdiff_t>((r + 1) * cols)));
    std::copy(row.begin(), row.end(),
              out.begin() + static_cast<std::ptrdiff_t>(r * cols));
  }
  for (std::size_t c = 0; c < cols; ++c) {
    cvec col(rows);
    for (std::size_t r = 0; r < rows; ++r) col[r] = out[r * cols + c];
    col = dft_reference(col);
    for (std::size_t r = 0; r < rows; ++r) out[r * cols + c] = col[r];
  }
  return out;
}

class Fft2Sizes
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(Fft2Sizes, MatchesTensorProductReference) {
  const auto [rows, cols] = GetParam();
  Rng rng(rows * 131 + cols);
  cvec x(rows * cols);
  rng.fill_cnormal(x);
  const cvec want = dft2_reference(x, rows, cols);
  Fft2Plan<double> plan(rows, cols);
  cvec got(x.begin(), x.end());
  plan.forward(got);
  EXPECT_LT(rel_l2_diff(got, want), 1e-11) << rows << "x" << cols;
  plan.inverse(got);
  EXPECT_LT(rel_l2_diff(got, x), 1e-12) << rows << "x" << cols;
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, Fft2Sizes,
    ::testing::Values(std::pair<std::size_t, std::size_t>{1, 1},
                      std::pair<std::size_t, std::size_t>{4, 4},
                      std::pair<std::size_t, std::size_t>{8, 8},
                      std::pair<std::size_t, std::size_t>{16, 16},
                      // Rectangular and non-power-of-two (Bluestein rows
                      // and/or columns).
                      std::pair<std::size_t, std::size_t>{8, 12},
                      std::pair<std::size_t, std::size_t>{12, 8},
                      std::pair<std::size_t, std::size_t>{7, 7},
                      std::pair<std::size_t, std::size_t>{15, 27},
                      std::pair<std::size_t, std::size_t>{30, 10}));

TEST(Fft2, ParsevalOnPaddedPanel) {
  const std::size_t rows = 32, cols = 32;
  Rng rng(91);
  cvec x(rows * cols);
  rng.fill_cnormal(x);
  const double tx = nrm2(x);
  Fft2Plan<double> plan(rows, cols);
  plan.forward(x);
  EXPECT_NEAR(nrm2(x), tx * std::sqrt(static_cast<double>(rows * cols)),
              1e-9 * tx);
}

TEST(Fft2, BatchedPanelsMatchIndividualTransforms) {
  const std::size_t rows = 16, cols = 16, count = 5;
  Rng rng(92);
  cvec batch(rows * cols * count);
  rng.fill_cnormal(batch);
  Fft2Plan<double> plan(rows, cols);
  cvec singles(batch.begin(), batch.end());
  for (std::size_t p = 0; p < count; ++p) {
    plan.forward(
        std::span{singles.data() + p * plan.size(), plan.size()});
  }
  plan.forward(batch, count);
  EXPECT_LT(rel_l2_diff(batch, singles), 1e-13);
  plan.inverse(batch, count);
  for (std::size_t p = 0; p < count; ++p) {
    plan.inverse(std::span{singles.data() + p * plan.size(), plan.size()});
  }
  EXPECT_LT(rel_l2_diff(batch, singles), 1e-13);
}

// The fp32 plan instantiation used by Precision::kMixed backends: same
// math, float-level accuracy.
TEST(Fft2, FloatPlanMatchesDoubleReference) {
  const std::size_t rows = 16, cols = 24;
  Rng rng(93);
  cvec x(rows * cols);
  rng.fill_cnormal(x);
  const cvec want = dft2_reference(x, rows, cols);
  std::vector<std::complex<float>> xf(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    xf[i] = std::complex<float>(static_cast<float>(x[i].real()),
                                static_cast<float>(x[i].imag()));
  }
  Fft2Plan<float> plan(rows, cols);
  plan.forward(std::span{xf});
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    num += std::norm(cplx{xf[i].real(), xf[i].imag()} - want[i]);
    den += std::norm(want[i]);
  }
  EXPECT_LT(std::sqrt(num / den), 1e-5);
}

// Transform-order pair (the padded-convolution kernels): forward_dif is
// the natural forward with both axes bit-reversed, a pruned forward reads
// nothing beyond its row/column counts, and inverse_dit undoes it up to
// the factor P^2 on the rows and columns it keeps. Every power-of-two
// side from 2 to 1024 (both log2 parities, so both the radix-2 end stage
// and pure radix-4), in fp64 and fp32.

std::size_t bit_reverse(std::size_t i, std::size_t n) {
  std::size_t r = 0;
  for (std::size_t bit = 1; bit < n; bit <<= 1) {
    r = (r << 1) | ((i & bit) ? 1 : 0);
  }
  return r;
}

/// The p x p panel x at row pitch ld (>= p) in precision T, with `fill`
/// in the pad columns.
template <typename T>
std::vector<std::complex<T>> pitched(const cvec& x, std::size_t p,
                                     std::size_t ld,
                                     std::complex<T> fill = {}) {
  std::vector<std::complex<T>> out(p * ld, fill);
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t j = 0; j < p; ++j) {
      out[i * ld + j] = {static_cast<T>(x[i * p + j].real()),
                         static_cast<T>(x[i * p + j].imag())};
    }
  }
  return out;
}

/// ||got - want|| / ||want|| over the rows < r, columns < c; got has row
/// pitch ld, want is dense p x p.
template <typename T>
double block_rel_diff(const std::vector<std::complex<T>>& got, std::size_t ld,
                      const cvec& want, std::size_t p, std::size_t r,
                      std::size_t c) {
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) {
      const std::complex<T> g = got[i * ld + j];
      num += std::norm(cplx{g.real(), g.imag()} - want[i * p + j]);
      den += std::norm(want[i * p + j]);
    }
  }
  return std::sqrt(num / den);
}

template <typename T>
class TransformOrder : public ::testing::Test {
 protected:
  // fp64 to rounding; fp32 at the bound of FloatPlanMatchesDoubleReference.
  static double tol() { return std::is_same_v<T, float> ? 1e-5 : 1e-13; }
  static constexpr T kNan = std::numeric_limits<T>::quiet_NaN();
};
using Precisions = ::testing::Types<double, float>;
TYPED_TEST_SUITE(TransformOrder, Precisions);

TYPED_TEST(TransformOrder, ForwardIsBitReversedNaturalForward) {
  using T = TypeParam;
  for (std::size_t p = 2; p <= 1024; p *= 2) {
    Rng rng(p);
    cvec x(p * p);
    rng.fill_cnormal(x);
    // Natural-order reference in fp64: the O(N^2) tensor DFT on small
    // sides, the natural-order plan on large ones.
    cvec nat = p <= 32 ? dft2_reference(x, p, p) : x;
    if (p > 32) Fft2Plan<double>(p, p).forward(nat);
    cvec want(p * p);
    for (std::size_t i = 0; i < p; ++i) {
      for (std::size_t j = 0; j < p; ++j) {
        want[i * p + j] = nat[bit_reverse(i, p) * p + bit_reverse(j, p)];
      }
    }
    const Fft2Plan<T> plan(p, p);
    const std::size_t ld = plan.pitch();
    // NaN pad columns: a read of them would poison the result.
    std::vector<std::complex<T>> got =
        pitched<T>(x, p, ld, {this->kNan, this->kNan});
    plan.forward_dif(got.data(), p, p);
    EXPECT_LT(block_rel_diff(got, ld, want, p, p, p),
              p <= 32 ? std::max(this->tol(), 1e-12) : this->tol())
        << "P=" << p;
  }
}

TYPED_TEST(TransformOrder, PrunedForwardMatchesUnprunedAndReadsNoPadding) {
  using T = TypeParam;
  for (std::size_t p = 2; p <= 1024; p *= 2) {
    const Fft2Plan<T> plan(p, p);
    const std::size_t ld = plan.pitch();
    // Row and column counts at half the side, and below it (a padded
    // grid whose side is not a power of two leaves [n, P/2) to zero).
    const std::size_t half = p / 2;
    const std::size_t below = std::max<std::size_t>(1, half - half / 4 - 1);
    for (const auto& [r, c] : {std::pair{half, half}, std::pair{below, half},
                               std::pair{half, below}, std::pair{below, below}}) {
      Rng rng(p * 7 + r * 3 + c);
      cvec x(p * p, cplx{});
      for (std::size_t i = 0; i < r; ++i) {
        rng.fill_cnormal(cspan{x.data() + i * p, c});
      }
      std::vector<std::complex<T>> full = pitched<T>(x, p, ld);
      plan.forward_dif(full.data(), p, p);
      // NaN outside the r x c block: the pruned forward must read none
      // of it.
      std::vector<std::complex<T>> pruned =
          pitched<T>(x, p, ld, {this->kNan, this->kNan});
      for (std::size_t i = 0; i < p; ++i) {
        for (std::size_t j = 0; j < p; ++j) {
          if (i >= r || j >= c) pruned[i * ld + j] = {this->kNan, this->kNan};
        }
      }
      plan.forward_dif(pruned.data(), r, c);
      cvec want(p * p);
      for (std::size_t i = 0; i < p; ++i) {
        for (std::size_t j = 0; j < p; ++j) {
          want[i * p + j] = {full[i * ld + j].real(), full[i * ld + j].imag()};
        }
      }
      EXPECT_LT(block_rel_diff(pruned, ld, want, p, p, p), this->tol())
          << "P=" << p << " r=" << r << " c=" << c;
    }
  }
}

TYPED_TEST(TransformOrder, InverseOfForwardIsP2TimesInputOnKeptBlock) {
  using T = TypeParam;
  for (std::size_t p = 2; p <= 1024; p *= 2) {
    const Fft2Plan<T> plan(p, p);
    const std::size_t ld = plan.pitch();
    const std::size_t half = p / 2;
    const std::size_t below = std::max<std::size_t>(1, half - half / 4 - 1);
    for (const auto& [r, c] : {std::pair{p, p}, std::pair{half, half},
                               std::pair{below, half}, std::pair{half, below}}) {
      Rng rng(p * 11 + r * 5 + c);
      cvec x(p * p, cplx{});
      for (std::size_t i = 0; i < r; ++i) {
        rng.fill_cnormal(cspan{x.data() + i * p, c});
      }
      std::vector<std::complex<T>> y =
          pitched<T>(x, p, ld, {this->kNan, this->kNan});
      plan.forward_dif(y.data(), r, c);
      plan.inverse_dit(y.data(), r, c);
      const double p2 = static_cast<double>(p * p);
      for (cplx& v : x) v *= p2;
      EXPECT_LT(block_rel_diff(y, ld, x, p, r, c), this->tol())
          << "P=" << p << " r=" << r << " c=" << c;
    }
  }
}

// Satellite regression: fft()/ifft() now route through a memoized
// per-length plan cache — repeated transforms of one length must be one
// miss and the rest hits, and the cache stays bounded.
TEST(FftPlanCache, RepeatLengthsHitTheCache) {
  fft_plan_cache_clear();
  Rng rng(94);
  cvec x(96);  // non-pow2: the expensive Bluestein setup is what caching saves
  rng.fill_cnormal(x);
  for (int rep = 0; rep < 8; ++rep) {
    cvec y(x.begin(), x.end());
    fft(y);
    ifft(y);
    EXPECT_LT(rel_l2_diff(y, x), 1e-11);
  }
  const FftPlanCacheStats st = fft_plan_cache_stats();
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.hits, 15u);
  EXPECT_EQ(st.entries, 1u);
}

TEST(FftPlanCache, EvictionKeepsCacheBounded) {
  fft_plan_cache_clear();
  // Touch far more distinct lengths than the LRU capacity holds.
  for (std::size_t n = 1; n <= 200; ++n) (void)fft_plan(n);
  const FftPlanCacheStats st = fft_plan_cache_stats();
  EXPECT_EQ(st.misses, 200u);
  EXPECT_LE(st.entries, 64u);
  // Evicted plans rebuild correctly (and a held shared_ptr stays valid).
  const auto plan = fft_plan(1);
  ASSERT_TRUE(plan);
  EXPECT_EQ(plan->size(), 1u);
  cvec x{cplx{2.5, -1.0}};
  plan->forward(x);
  EXPECT_NEAR(std::abs(x[0] - cplx{2.5, -1.0}), 0.0, 1e-15);
}

}  // namespace
}  // namespace ffw
