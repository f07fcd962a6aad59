#include "linalg/gemm.hpp"

#include <algorithm>
#include <cstring>
#include <type_traits>
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

// SIMD vectors of the gemm_sum_t register tile, as wide as the build's
// widest register so the tile maps onto registers one to one (a 64-byte
// vector built for AVX2 is split into pairs and spills).
#if defined(__AVX512F__)
constexpr std::size_t kVecBytes = 64;
#elif defined(__AVX__)
constexpr std::size_t kVecBytes = 32;
#else
constexpr std::size_t kVecBytes = 16;
#endif
typedef double VecD __attribute__((vector_size(kVecBytes)));
typedef float VecF __attribute__((vector_size(kVecBytes)));
typedef float HalfF __attribute__((vector_size(kVecBytes / 2)));

template <typename TS>
using VecT = std::conditional_t<std::is_same_v<TS, float>, VecF, VecD>;

// SIMD vectors per tile column: 4 columns x re/im x 2 = 16 accumulators.
// On AVX2 and SSE2 (16 registers) two still beat one (np = 64, 16
// columns, AVX2: 23 -> 32 GFLOP/s). The fp32 tile's fp64 accumulators
// are touched once per term, so they may spill.
constexpr std::size_t kRowVecs = 2;

// Complex rows of one tile.
template <typename TS>
constexpr std::size_t kTileRows =
    kRowVecs * kVecBytes / sizeof(std::complex<TS>);

template <typename V>
inline V load_vec(const void* p) {
  V v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// C(i0.., j0..j0+NC) += sum_e A_e(i0.., k0..k1) * B_e(k0..k1, j0..j0+NC)
// for one tile of kTileRows<TS> rows. Split accumulators: r += a * Re(b)
// and i += a * Im(b) on the interleaved re/im rows of A, so the k loop
// needs no shuffle; they combine once, re = r.re - i.im and
// im = r.im + i.re.
template <typename TS, std::size_t NC>
inline void sum_tile(std::size_t i0, std::size_t j0, std::size_t k0,
                     std::size_t k1, const GemmTerm<TS>* terms,
                     std::size_t count, std::size_t lda, std::size_t ldb,
                     cplx* c, std::size_t ldc) {
  using V = VecT<TS>;
  constexpr std::size_t kRv = kRowVecs;
  constexpr std::size_t kLanes = kVecBytes / sizeof(TS);
  constexpr bool kMixed = std::is_same_v<TS, float>;
  // fp64 accumulators: the running tile itself (fp64), or the fp32
  // per-term partials widened after each term (one VecF -> two VecD).
  constexpr std::size_t kRv64 = kMixed ? 2 * kRv : kRv;
  V r[kRv][NC] = {}, im[kRv][NC] = {};
  VecD r64[kRv64][NC] = {}, im64[kRv64][NC] = {};
  for (std::size_t e = 0; e < count; ++e) {
    const TS* a = reinterpret_cast<const TS*>(terms[e].a + i0);
    const std::complex<TS>* b = terms[e].b + j0 * ldb;
    for (std::size_t p = k0; p < k1; ++p) {
      V av[kRv];
#pragma GCC unroll 4
      for (std::size_t v = 0; v < kRv; ++v)
        av[v] = load_vec<V>(a + 2 * p * lda + v * kLanes);
#pragma GCC unroll 4
      for (std::size_t j = 0; j < NC; ++j) {
        const TS br = b[j * ldb + p].real(), bi = b[j * ldb + p].imag();
#pragma GCC unroll 4
        for (std::size_t v = 0; v < kRv; ++v) {
          r[v][j] += av[v] * br;
          im[v][j] += av[v] * bi;
        }
      }
    }
    if constexpr (kMixed) {
#pragma GCC unroll 4
      for (std::size_t j = 0; j < NC; ++j) {
#pragma GCC unroll 4
        for (std::size_t v = 0; v < kRv; ++v) {
          HalfF half[2];
          std::memcpy(half, &r[v][j], sizeof half);
          r64[2 * v][j] += __builtin_convertvector(half[0], VecD);
          r64[2 * v + 1][j] += __builtin_convertvector(half[1], VecD);
          std::memcpy(half, &im[v][j], sizeof half);
          im64[2 * v][j] += __builtin_convertvector(half[0], VecD);
          im64[2 * v + 1][j] += __builtin_convertvector(half[1], VecD);
          r[v][j] = V{};
          im[v][j] = V{};
        }
      }
    }
  }
  if constexpr (!kMixed) {
    for (std::size_t j = 0; j < NC; ++j) {
      for (std::size_t v = 0; v < kRv; ++v) {
        r64[v][j] = r[v][j];
        im64[v][j] = im[v][j];
      }
    }
  }
  constexpr std::size_t kPerVec = kVecBytes / sizeof(cplx);
  for (std::size_t j = 0; j < NC; ++j) {
    cplx* cj = c + (j0 + j) * ldc + i0;
    for (std::size_t v = 0; v < kRv64; ++v) {
      for (std::size_t q = 0; q < kPerVec; ++q)
        cj[v * kPerVec + q] += cplx{r64[v][j][2 * q] - im64[v][j][2 * q + 1],
                                    r64[v][j][2 * q + 1] + im64[v][j][2 * q]};
    }
  }
}

// Rows past the last whole tile, one element at a time with the
// arithmetic of a tile lane.
template <typename TS>
void sum_rows_scalar(std::size_t i0, std::size_t m, std::size_t n,
                     std::size_t k0, std::size_t k1, const GemmTerm<TS>* terms,
                     std::size_t count, std::size_t lda, std::size_t ldb,
                     cplx* c, std::size_t ldc) {
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = i0; i < m; ++i) {
      TS rr = 0, ri = 0, ir = 0, ii = 0;
      double rr64 = 0, ri64 = 0, ir64 = 0, ii64 = 0;
      for (std::size_t e = 0; e < count; ++e) {
        for (std::size_t p = k0; p < k1; ++p) {
          const std::complex<TS> av = terms[e].a[p * lda + i];
          const std::complex<TS> bv = terms[e].b[j * ldb + p];
          rr += av.real() * bv.real();
          ri += av.imag() * bv.real();
          ir += av.real() * bv.imag();
          ii += av.imag() * bv.imag();
        }
        if constexpr (std::is_same_v<TS, float>) {
          rr64 += rr;
          ri64 += ri;
          ir64 += ir;
          ii64 += ii;
          rr = ri = ir = ii = 0;
        }
      }
      if constexpr (std::is_same_v<TS, double>) {
        rr64 = rr;
        ri64 = ri;
        ir64 = ir;
        ii64 = ii;
      }
      c[j * ldc + i] += cplx{rr64 - ii64, ri64 + ir64};
    }
  }
}

}  // namespace

template <typename TS>
void gemm_sum_t(std::size_t m, std::size_t n, std::size_t k,
                const GemmTerm<TS>* terms, std::size_t count, std::size_t lda,
                std::size_t ldb, cplx* c, std::size_t ldc) {
  // Up to the default leaf (k = np = 64) one tile pass holds all of k
  // and writes C once. Larger leaves run k in blocks of 32, so the A
  // pages a pass over the row tiles touches stay within TLB reach
  // (np = 256, 16 columns, one AVX-512 core: 51 ms -> 33 ms).
  const std::size_t kb = k <= 64 ? k : 32;
  constexpr std::size_t kRows = kTileRows<TS>;
  const std::size_t m_tiles = m - m % kRows;
  for (std::size_t k0 = 0; k0 < k; k0 += kb) {
    const std::size_t k1 = std::min(k, k0 + kb);
    const auto columns = [&](auto nc, std::size_t j0) {
      for (std::size_t i0 = 0; i0 < m_tiles; i0 += kRows)
        sum_tile<TS, decltype(nc)::value>(i0, j0, k0, k1, terms, count, lda,
                                          ldb, c, ldc);
    };
    std::size_t j0 = 0;
    for (; j0 + 4 <= n; j0 += 4)
      columns(std::integral_constant<std::size_t, 4>{}, j0);
    if (j0 + 2 <= n) {
      columns(std::integral_constant<std::size_t, 2>{}, j0);
      j0 += 2;
    }
    if (j0 < n) columns(std::integral_constant<std::size_t, 1>{}, j0);
    sum_rows_scalar(m_tiles, m, n, k0, k1, terms, count, lda, ldb, c, ldc);
  }
}

template void gemm_sum_t<double>(std::size_t, std::size_t, std::size_t,
                                 const GemmTerm<double>*, std::size_t,
                                 std::size_t, std::size_t, cplx*,
                                 std::size_t);
template void gemm_sum_t<float>(std::size_t, std::size_t, std::size_t,
                                const GemmTerm<float>*, std::size_t,
                                std::size_t, std::size_t, cplx*, std::size_t);

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
  gemm_raw_t<double, double>(a.rows(), b.cols(), a.cols(), alpha, a.data(),
                             a.rows(), b.data(), b.rows(), beta, c.data(),
                             c.rows());
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
