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

// Transform-order 2-D plan (the padded-convolution kernels), against
// references built from the 1-D fft()/ifft() checked above: forward_dif
// is the natural forward with both axes bit-reversed, a pruned forward
// reads nothing beyond its row/column counts, and convolve is the
// circular convolution with the kernel whose spectrum it is given, on
// the rows and columns it keeps. Every power-of-two side from 2 to 1024
// (both log2 parities), in fp64 and fp32, so every column schedule runs:
// the radix-2 (P = 2), radix-4 (P = 4, 8, 64, 128) and radix-16 (P = 16,
// 32, 256, 512, 1024) innermost sweeps of the convolution, and at
// P = 1024 the radix-4 sweeps that replace a 16-line pair whose lines
// would share L1 sets.

/// Natural-order 2-D DFT (or inverse DFT, with its 1/(p^2)) of a dense
/// p x p panel: the 1-D transform of every row, then of every column.
cvec fft2_reference(const cvec& x, std::size_t p, bool inverse = false) {
  cvec out(x.begin(), x.end());
  cvec line(p);
  for (std::size_t r = 0; r < p; ++r) {
    cspan row{out.data() + r * p, p};
    inverse ? ifft(row) : fft(row);
  }
  for (std::size_t c = 0; c < p; ++c) {
    for (std::size_t r = 0; r < p; ++r) line[r] = out[r * p + c];
    inverse ? ifft(line) : fft(line);
    for (std::size_t r = 0; r < p; ++r) out[r * p + c] = line[r];
  }
  return out;
}

std::size_t bit_reverse(std::size_t i, std::size_t n) {
  std::size_t r = 0;
  for (std::size_t bit = 1; bit < n; bit <<= 1) {
    r = (r << 1) | ((i & bit) ? 1 : 0);
  }
  return r;
}

/// A dense p x p natural-order spectrum in transform order (bit-reversed
/// on both axes), times `scale`, in precision T.
template <typename T>
std::vector<std::complex<T>> transform_order(const cvec& nat, std::size_t p,
                                             double scale = 1.0) {
  std::vector<std::complex<T>> out(p * p);
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t j = 0; j < p; ++j) {
      const cplx v = nat[bit_reverse(i, p) * p + bit_reverse(j, p)] * scale;
      out[i * p + j] = {static_cast<T>(v.real()), static_cast<T>(v.imag())};
    }
  }
  return out;
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

/// The kept blocks r x c of a side-p panel: the full panel (optional),
/// half the side, and below it on either axis or both (a padded grid
/// whose side is not a power of two leaves [n, P/2) to zero).
std::vector<std::pair<std::size_t, std::size_t>> kept_blocks(std::size_t p,
                                                             bool full) {
  const std::size_t half = p / 2;
  const std::size_t below = std::max<std::size_t>(1, half - half / 4 - 1);
  std::vector<std::pair<std::size_t, std::size_t>> out;
  if (full) out.emplace_back(p, p);
  out.insert(out.end(), {{half, half}, {below, half}, {half, below},
                         {below, below}});
  return out;
}

/// x zero outside its r x c block, random inside.
cvec block_input(std::size_t p, std::size_t r, std::size_t c, Rng& rng) {
  cvec x(p * p, cplx{});
  for (std::size_t i = 0; i < r; ++i) {
    rng.fill_cnormal(cspan{x.data() + i * p, c});
  }
  return x;
}

template <typename T>
class TransformOrder : public ::testing::Test {
 protected:
  static double tol() { return std::is_same_v<T, float> ? 1e-5 : 1e-13; }
  static constexpr T kNan = std::numeric_limits<T>::quiet_NaN();

  /// Plan::convolve of the r x c block of x with `symbol` in a panel
  /// that is NaN everywhere pack() does not write: a read of anything
  /// outside the block would poison the result.
  static std::vector<std::complex<T>> convolve(
      const Fft2Plan<T>& plan, const cvec& x, std::size_t r, std::size_t c,
      const std::vector<std::complex<T>>& symbol, bool conj) {
    const std::size_t p = plan.rows(), ld = plan.pitch();
    std::vector<std::complex<T>> panel(p * ld, {kNan, kNan});
    std::vector<std::complex<T>> out(p * ld, {kNan, kNan});
    plan.convolve(
        panel.data(), r, c, symbol.data(), conj,
        [&](std::size_t i, std::complex<T>* row) {
          for (std::size_t j = 0; j < c; ++j) {
            row[j] = {static_cast<T>(x[i * p + j].real()),
                      static_cast<T>(x[i * p + j].imag())};
          }
        },
        [&](std::size_t i, const std::complex<T>* row) {
          std::copy(row, row + c, out.begin() + i * ld);
        });
    return out;
  }
};
using Precisions = ::testing::Types<double, float>;
TYPED_TEST_SUITE(TransformOrder, Precisions);

TYPED_TEST(TransformOrder, ForwardIsBitReversedNaturalForward) {
  using T = TypeParam;
  for (std::size_t p = 2; p <= 1024; p *= 2) {
    Rng rng(p);
    cvec x(p * p);
    rng.fill_cnormal(x);
    const cvec nat = fft2_reference(x, p);
    const std::vector<std::complex<T>> order = transform_order<T>(nat, p);
    cvec want(p * p);
    for (std::size_t i = 0; i < p * p; ++i) {
      want[i] = {order[i].real(), order[i].imag()};
    }
    const Fft2Plan<T> plan(p, p);
    const std::size_t ld = plan.pitch();
    // NaN pad columns: a read of them would poison the result.
    std::vector<std::complex<T>> got =
        pitched<T>(x, p, ld, {this->kNan, this->kNan});
    plan.forward_dif(got.data(), p, p);
    EXPECT_LT(block_rel_diff(got, ld, want, p, p, p), this->tol())
        << "P=" << p;
  }
}

TYPED_TEST(TransformOrder, PrunedForwardMatchesUnprunedAndReadsNoPadding) {
  using T = TypeParam;
  for (std::size_t p = 2; p <= 1024; p *= 2) {
    const Fft2Plan<T> plan(p, p);
    const std::size_t ld = plan.pitch();
    for (const auto& [r, c] : kept_blocks(p, /*full=*/false)) {
      Rng rng(p * 7 + r * 3 + c);
      const cvec x = block_input(p, r, c, rng);
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

// A unit symbol makes the convolution P^2 times the identity on the
// kept block.
TYPED_TEST(TransformOrder, ConvolveWithUnitSymbolIsP2TimesInputOnKeptBlock) {
  using T = TypeParam;
  for (std::size_t p = 2; p <= 1024; p *= 2) {
    const Fft2Plan<T> plan(p, p);
    const std::vector<std::complex<T>> unit(p * p, std::complex<T>{1, 0});
    for (const auto& [r, c] : kept_blocks(p, /*full=*/true)) {
      Rng rng(p * 11 + r * 5 + c);
      cvec x = block_input(p, r, c, rng);
      const std::vector<std::complex<T>> y =
          this->convolve(plan, x, r, c, unit, /*conj=*/false);
      const double p2 = static_cast<double>(p * p);
      for (cplx& v : x) v *= p2;
      EXPECT_LT(block_rel_diff(y, plan.pitch(), x, p, r, c), this->tol())
          << "P=" << p << " r=" << r << " c=" << c;
    }
  }
}

// The product with a random kernel's spectrum, and with its conjugate
// (the adjoint operator), against ifft2(fft2(k) .* fft2(x)).
TYPED_TEST(TransformOrder, ConvolveMatchesCircularConvolution) {
  using T = TypeParam;
  for (std::size_t p = 2; p <= 1024; p *= 2) {
    const Fft2Plan<T> plan(p, p);
    Rng rng(p * 13);
    cvec k(p * p);
    rng.fill_cnormal(k);
    const cvec khat = fft2_reference(k, p);
    // The plan's inverse leaves out the 1/P^2; the symbol carries it.
    const double scale = 1.0 / static_cast<double>(p * p);
    const std::vector<std::complex<T>> symbol =
        transform_order<T>(khat, p, scale);
    std::vector<std::complex<T>> conj_symbol(symbol.size());
    for (std::size_t i = 0; i < symbol.size(); ++i) {
      conj_symbol[i] = std::conj(symbol[i]);
    }
    for (const auto& [r, c] : kept_blocks(p, /*full=*/true)) {
      const cvec x = block_input(p, r, c, rng);
      const cvec xhat = fft2_reference(x, p);
      for (const bool conj : {false, true}) {
        cvec prod(p * p);
        for (std::size_t i = 0; i < p * p; ++i) {
          prod[i] = (conj ? std::conj(khat[i]) : khat[i]) * xhat[i];
        }
        const cvec want = fft2_reference(prod, p, /*inverse=*/true);
        const std::vector<std::complex<T>> got =
            this->convolve(plan, x, r, c, symbol, conj);
        EXPECT_LT(block_rel_diff(got, plan.pitch(), want, p, r, c),
                  this->tol())
            << "P=" << p << " r=" << r << " c=" << c << " conj=" << conj;
        // The conjugated symbol given directly is the same product.
        if (conj) {
          const std::vector<std::complex<T>> direct =
              this->convolve(plan, x, r, c, conj_symbol, false);
          EXPECT_LT(block_rel_diff(direct, plan.pitch(), want, p, r, c),
                    this->tol())
              << "P=" << p << " r=" << r << " c=" << c;
        }
      }
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
