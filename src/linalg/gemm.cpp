#include "linalg/gemm.hpp"

#include <algorithm>
#include <vector>

namespace ffw {

namespace {
// Register-tile sizes for the micro-kernel: 4 rows x 2 columns of C held
// in scalars while streaming a column of A. Complex FMA keeps ~8 live
// registers, comfortably within x86-64's budget.
constexpr std::size_t kMr = 4;
constexpr std::size_t kNr = 2;
constexpr std::size_t kKc = 128;  // k blocking (A panel stays in L1/L2)
constexpr std::size_t kMb = 256;  // row blocking of the wide-n path (the
                                  // 4-column C tile stays in L1)

// Wide-n micro-kernel: C(:, 0..3) += A * (alpha * B(:, 0..3)) as k
// rank-1 updates. Each A column is streamed ONCE for four C columns and
// the row loop runs on the interleaved re/im components, which the
// vectoriser turns into plain mul/add lanes — something the scalar
// std::complex dot-product tiles above n=1..3 cannot express. A streams
// as TS (fp32 loads convert in-register on the mixed path) and C
// accumulates as TD, so narrowing never happens inside the update.
template <typename TS, typename TD>
inline void wide_tile4(std::size_t m, std::size_t k, std::complex<TD> alpha,
                       const std::complex<TS>* a, std::size_t lda,
                       const std::complex<TS>* b, std::size_t ldb,
                       std::complex<TD>* c, std::size_t ldc) {
  const std::size_t m2 = 2 * m;
  TD* c0 = reinterpret_cast<TD*>(c + 0 * ldc);
  TD* c1 = reinterpret_cast<TD*>(c + 1 * ldc);
  TD* c2 = reinterpret_cast<TD*>(c + 2 * ldc);
  TD* c3 = reinterpret_cast<TD*>(c + 3 * ldc);
  for (std::size_t p = 0; p < k; ++p) {
    const TS* ap = reinterpret_cast<const TS*>(a + p * lda);
    const std::complex<TD> b0 = alpha * std::complex<TD>(b[0 * ldb + p]);
    const std::complex<TD> b1 = alpha * std::complex<TD>(b[1 * ldb + p]);
    const std::complex<TD> b2 = alpha * std::complex<TD>(b[2 * ldb + p]);
    const std::complex<TD> b3 = alpha * std::complex<TD>(b[3 * ldb + p]);
    const TD b0r = b0.real(), b0i = b0.imag();
    const TD b1r = b1.real(), b1i = b1.imag();
    const TD b2r = b2.real(), b2i = b2.imag();
    const TD b3r = b3.real(), b3i = b3.imag();
#ifdef _OPENMP
#pragma omp simd
#endif
    for (std::size_t i = 0; i < m2; i += 2) {
      const TD ar = static_cast<TD>(ap[i]), ai = static_cast<TD>(ap[i + 1]);
      c0[i] += b0r * ar - b0i * ai;
      c0[i + 1] += b0r * ai + b0i * ar;
      c1[i] += b1r * ar - b1i * ai;
      c1[i + 1] += b1r * ai + b1i * ar;
      c2[i] += b2r * ar - b2i * ai;
      c2[i + 1] += b2r * ai + b2i * ar;
      c3[i] += b3r * ar - b3i * ai;
      c3[i + 1] += b3r * ai + b3i * ar;
    }
  }
}
}  // namespace

template <typename TS, typename TD>
void gemm_raw_t(std::size_t m, std::size_t n, std::size_t k,
                std::complex<TD> alpha, const std::complex<TS>* a,
                std::size_t lda, const std::complex<TS>* b, std::size_t ldb,
                std::complex<TD> beta, std::complex<TD>* c, std::size_t ldc) {
  using CD = std::complex<TD>;
  // Scale C by beta once up front.
  if (beta == CD{}) {
    for (std::size_t j = 0; j < n; ++j)
      std::fill(c + j * ldc, c + j * ldc + m, CD{});
  } else if (beta != CD{TD(1)}) {
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t i = 0; i < m; ++i) c[j * ldc + i] *= beta;
  }
  if (alpha == CD{} || m == 0 || n == 0 || k == 0) return;

  for (std::size_t k0 = 0; k0 < k; k0 += kKc) {
    const std::size_t kb = std::min(kKc, k - k0);
    std::size_t jw = 0;
    for (; jw + 4 <= n; jw += 4) {  // wide-n path, 4-column tiles
      for (std::size_t i0 = 0; i0 < m; i0 += kMb) {
        const std::size_t mb = std::min(kMb, m - i0);
        wide_tile4(mb, kb, alpha, a + k0 * lda + i0, lda, b + jw * ldb + k0,
                   ldb, c + jw * ldc + i0, ldc);
      }
    }
    for (std::size_t j0 = jw; j0 + kNr <= n; j0 += kNr) {
      std::size_t i0 = 0;
      for (; i0 + kMr <= m; i0 += kMr) {
        CD c00{}, c10{}, c20{}, c30{}, c01{}, c11{}, c21{}, c31{};
        const std::complex<TS>* b0 = b + (j0 + 0) * ldb + k0;
        const std::complex<TS>* b1 = b + (j0 + 1) * ldb + k0;
        for (std::size_t p = 0; p < kb; ++p) {
          const std::complex<TS>* ac = a + (k0 + p) * lda + i0;
          const CD bp0{b0[p]}, bp1{b1[p]};
          c00 += CD{ac[0]} * bp0;
          c10 += CD{ac[1]} * bp0;
          c20 += CD{ac[2]} * bp0;
          c30 += CD{ac[3]} * bp0;
          c01 += CD{ac[0]} * bp1;
          c11 += CD{ac[1]} * bp1;
          c21 += CD{ac[2]} * bp1;
          c31 += CD{ac[3]} * bp1;
        }
        CD* cc0 = c + (j0 + 0) * ldc + i0;
        CD* cc1 = c + (j0 + 1) * ldc + i0;
        cc0[0] += alpha * c00;
        cc0[1] += alpha * c10;
        cc0[2] += alpha * c20;
        cc0[3] += alpha * c30;
        cc1[0] += alpha * c01;
        cc1[1] += alpha * c11;
        cc1[2] += alpha * c21;
        cc1[3] += alpha * c31;
      }
      for (; i0 < m; ++i0) {  // row remainder
        CD c0{}, c1{};
        const std::complex<TS>* b0 = b + (j0 + 0) * ldb + k0;
        const std::complex<TS>* b1 = b + (j0 + 1) * ldb + k0;
        for (std::size_t p = 0; p < kb; ++p) {
          const CD av{a[(k0 + p) * lda + i0]};
          c0 += av * CD{b0[p]};
          c1 += av * CD{b1[p]};
        }
        c[(j0 + 0) * ldc + i0] += alpha * c0;
        c[(j0 + 1) * ldc + i0] += alpha * c1;
      }
    }
    if (n % kNr) {  // column remainder
      const std::size_t j = n - 1;
      for (std::size_t i0 = 0; i0 < m; ++i0) {
        CD acc{};
        const std::complex<TS>* bj = b + j * ldb + k0;
        for (std::size_t p = 0; p < kb; ++p)
          acc += CD{a[(k0 + p) * lda + i0]} * CD{bj[p]};
        c[j * ldc + i0] += alpha * acc;
      }
    }
  }
}

template void gemm_raw_t<double, double>(
    std::size_t, std::size_t, std::size_t, cplx, const cplx*, std::size_t,
    const cplx*, std::size_t, cplx, cplx*, std::size_t);
template void gemm_raw_t<float, float>(
    std::size_t, std::size_t, std::size_t, cplx32, const cplx32*, std::size_t,
    const cplx32*, std::size_t, cplx32, cplx32*, std::size_t);
template void gemm_raw_t<float, double>(
    std::size_t, std::size_t, std::size_t, cplx, const cplx32*, std::size_t,
    const cplx32*, std::size_t, cplx, cplx*, std::size_t);

void gemm_expand_mixed(std::size_t m, std::size_t n, std::size_t k,
                       const cplx32* a, std::size_t lda, const cplx32* b,
                       std::size_t ldb, cplx32* c, std::size_t ldc) {
  // fp32 chain length before each promotion into the fp64 tile. Short
  // enough that the fp32 rounding chain stays well under the mixed
  // engine's error budget, long enough to amortise the widen-adds.
  constexpr std::size_t kChunk = 4;
  const std::size_t m2 = 2 * m;
  static thread_local std::vector<double> acc64;
  static thread_local std::vector<float> acc32;
  if (acc64.size() < m2 * 4) acc64.resize(m2 * 4);
  if (acc32.size() < m2 * 4) acc32.resize(m2 * 4);
  std::size_t j0 = 0;
  for (; j0 + 4 <= n; j0 += 4) {  // 4-column tiles, A streamed once each p
    std::fill(acc64.begin(), acc64.begin() + static_cast<std::ptrdiff_t>(m2 * 4), 0.0);
    for (std::size_t k0 = 0; k0 < k; k0 += kChunk) {
      const std::size_t kb = std::min(kChunk, k - k0);
      std::fill(acc32.begin(), acc32.begin() + static_cast<std::ptrdiff_t>(m2 * 4), 0.0f);
      float* c0 = acc32.data();
      float* c1 = acc32.data() + m2;
      float* c2 = acc32.data() + 2 * m2;
      float* c3 = acc32.data() + 3 * m2;
      for (std::size_t p = 0; p < kb; ++p) {
        const float* ap = reinterpret_cast<const float*>(a + (k0 + p) * lda);
        const cplx32 b0 = b[(j0 + 0) * ldb + k0 + p];
        const cplx32 b1 = b[(j0 + 1) * ldb + k0 + p];
        const cplx32 b2 = b[(j0 + 2) * ldb + k0 + p];
        const cplx32 b3 = b[(j0 + 3) * ldb + k0 + p];
        const float b0r = b0.real(), b0i = b0.imag();
        const float b1r = b1.real(), b1i = b1.imag();
        const float b2r = b2.real(), b2i = b2.imag();
        const float b3r = b3.real(), b3i = b3.imag();
#ifdef _OPENMP
#pragma omp simd
#endif
        for (std::size_t i = 0; i < m2; i += 2) {
          const float ar = ap[i], ai = ap[i + 1];
          c0[i] += b0r * ar - b0i * ai;
          c0[i + 1] += b0r * ai + b0i * ar;
          c1[i] += b1r * ar - b1i * ai;
          c1[i + 1] += b1r * ai + b1i * ar;
          c2[i] += b2r * ar - b2i * ai;
          c2[i + 1] += b2r * ai + b2i * ar;
          c3[i] += b3r * ar - b3i * ai;
          c3[i + 1] += b3r * ai + b3i * ar;
        }
      }
      for (std::size_t i = 0; i < m2 * 4; ++i)
        acc64[i] += static_cast<double>(acc32[i]);
    }
    for (std::size_t t = 0; t < 4; ++t) {
      float* cc = reinterpret_cast<float*>(c + (j0 + t) * ldc);
      const double* at = acc64.data() + t * m2;
      for (std::size_t i = 0; i < m2; ++i) cc[i] = static_cast<float>(at[i]);
    }
  }
  for (; j0 < n; ++j0) {  // column remainder: fp64-accumulated dots
    for (std::size_t i = 0; i < m; ++i) {
      cplx acc{};
      for (std::size_t p = 0; p < k; ++p)
        acc += cplx{a[p * lda + i]} * cplx{b[j0 * ldb + p]};
      c[j0 * ldc + i] = cplx32{static_cast<float>(acc.real()),
                               static_cast<float>(acc.imag())};
    }
  }
}

namespace {

// Four conjugated dot products out[t] = sum_p conj(a_p) * bt_p over
// k-long interleaved re/im columns, accumulated as TD. The reduction
// order is fixed by the loop (and the compiler's vector width), so a
// given build returns the same bits on every call.
template <typename TS, typename TD>
inline void herm_dots4(std::size_t k, const TS* a, const TS* b0,
                       const TS* b1, const TS* b2, const TS* b3,
                       std::complex<TD>* out) {
  TD r0 = 0, i0 = 0, r1 = 0, i1 = 0, r2 = 0, i2 = 0, r3 = 0, i3 = 0;
#ifdef _OPENMP
#pragma omp simd reduction(+ : r0, i0, r1, i1, r2, i2, r3, i3)
#endif
  for (std::size_t p = 0; p < 2 * k; p += 2) {
    const TD ar = static_cast<TD>(a[p]), ai = static_cast<TD>(a[p + 1]);
    const TD b0r = static_cast<TD>(b0[p]), b0i = static_cast<TD>(b0[p + 1]);
    const TD b1r = static_cast<TD>(b1[p]), b1i = static_cast<TD>(b1[p + 1]);
    const TD b2r = static_cast<TD>(b2[p]), b2i = static_cast<TD>(b2[p + 1]);
    const TD b3r = static_cast<TD>(b3[p]), b3i = static_cast<TD>(b3[p + 1]);
    r0 += ar * b0r + ai * b0i;
    i0 += ar * b0i - ai * b0r;
    r1 += ar * b1r + ai * b1i;
    i1 += ar * b1i - ai * b1r;
    r2 += ar * b2r + ai * b2i;
    i2 += ar * b2i - ai * b2r;
    r3 += ar * b3r + ai * b3i;
    i3 += ar * b3i - ai * b3r;
  }
  out[0] = {r0, i0};
  out[1] = {r1, i1};
  out[2] = {r2, i2};
  out[3] = {r3, i3};
}

template <typename TS, typename TD>
inline std::complex<TD> herm_dot(std::size_t k, const TS* a, const TS* b) {
  TD re = 0, im = 0;
#ifdef _OPENMP
#pragma omp simd reduction(+ : re, im)
#endif
  for (std::size_t p = 0; p < 2 * k; p += 2) {
    const TD ar = static_cast<TD>(a[p]), ai = static_cast<TD>(a[p + 1]);
    const TD br = static_cast<TD>(b[p]), bi = static_cast<TD>(b[p + 1]);
    re += ar * br + ai * bi;
    im += ar * bi - ai * br;
  }
  return {re, im};
}

}  // namespace

template <typename TS, typename TD>
void gemm_herm_raw_t(std::size_t m, std::size_t n, std::size_t k,
                     std::complex<TD> alpha, const std::complex<TS>* a,
                     std::size_t lda, const std::complex<TS>* b,
                     std::size_t ldb, std::complex<TD> beta,
                     std::complex<TD>* c, std::size_t ldc) {
  using CD = std::complex<TD>;
  const auto col = [](const std::complex<TS>* base, std::size_t ld,
                      std::size_t j) {
    return reinterpret_cast<const TS*>(base + j * ld);
  };
  const auto store = [&](CD& cij, CD acc) {
    cij = (beta == CD{} ? CD{} : beta * cij) + alpha * acc;
  };
  // A column i stays in L1 while it meets every B column.
  for (std::size_t i = 0; i < m; ++i) {
    const TS* ai = col(a, lda, i);
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      CD acc[4];
      herm_dots4<TS, TD>(k, ai, col(b, ldb, j), col(b, ldb, j + 1),
                         col(b, ldb, j + 2), col(b, ldb, j + 3), acc);
      for (std::size_t t = 0; t < 4; ++t) store(c[(j + t) * ldc + i], acc[t]);
    }
    for (; j < n; ++j)
      store(c[j * ldc + i], herm_dot<TS, TD>(k, ai, col(b, ldb, j)));
  }
}

template void gemm_herm_raw_t<double, double>(
    std::size_t, std::size_t, std::size_t, cplx, const cplx*, std::size_t,
    const cplx*, std::size_t, cplx, cplx*, std::size_t);
template void gemm_herm_raw_t<float, double>(
    std::size_t, std::size_t, std::size_t, cplx, const cplx32*, std::size_t,
    const cplx32*, std::size_t, cplx, cplx*, std::size_t);

void gemm(cplx alpha, const CMatrix& a, const CMatrix& b, cplx beta,
          CMatrix& c) {
  FFW_CHECK(a.cols() == b.rows());
  FFW_CHECK(c.rows() == a.rows() && c.cols() == b.cols());
  gemm_raw(a.rows(), b.cols(), a.cols(), alpha, a.data(), a.rows(), b.data(),
           b.rows(), beta, c.data(), c.rows());
}

void gemm_herm_a(cplx alpha, const CMatrix& a, const CMatrix& b, cplx beta,
                 CMatrix& c) {
  FFW_CHECK(a.rows() == b.rows());
  FFW_CHECK(c.rows() == a.cols() && c.cols() == b.cols());
  gemm_herm_raw_t<double, double>(a.cols(), b.cols(), a.rows(), alpha,
                                  a.data(), a.rows(), b.data(), b.rows(),
                                  beta, c.data(), c.rows());
}

}  // namespace ffw
