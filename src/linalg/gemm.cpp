#include "linalg/gemm.hpp"

#include <algorithm>
#include <array>
#include <type_traits>

#include "linalg/simd.hpp"

namespace ffw {

namespace {

using simd::HalfF;
using simd::kVecBytes;
using simd::VecD;

// SIMD vectors per tile column: 4 columns x re/im x 2 = 16 accumulators.
// On AVX2 and SSE2 (16 registers) two still beat one (np = 64, 16
// columns, AVX2: 23 -> 32 GFLOP/s). The fp32 tile's fp64 accumulators
// are touched once per term, so they may spill.
constexpr std::size_t kRowVecs = 2;

// Complex rows of one tile.
template <typename TS>
constexpr std::size_t kTileRows =
    kRowVecs * kVecBytes / sizeof(std::complex<TS>);

// c = v, or c += v with the sum formed in fp64; an fp32 c rounds once.
template <typename TC>
inline void put(std::complex<TC>& c, double re, double im, bool add) {
  if (add) {
    re += static_cast<double>(c.real());
    im += static_cast<double>(c.imag());
  }
  c = {static_cast<TC>(re), static_cast<TC>(im)};
}

// (-1, +1, -1, +1, ...): with swap_pairs, the sign pattern of complex
// products on interleaved re/im lanes.
inline VecD pair_sign() {
  VecD s;
  for (std::size_t q = 0; q < simd::kLanes<double>; ++q) s[q] = q % 2 ? 1 : -1;
  return s;
}

// Writes vector v of a tile column (complex rows v * kPerVec ..) into
// the column at cj: a whole-vector store when no row of it is skipped,
// else element by element.
template <typename TC>
inline void put_vec(std::complex<TC>* cj, std::size_t v, std::size_t skip,
                    VecD out, bool add) {
  constexpr std::size_t kPerVec = kVecBytes / sizeof(cplx);
  TC* cv = reinterpret_cast<TC*>(cj + v * kPerVec);
  if (skip == 0) {
    if constexpr (std::is_same_v<TC, double>) {
      if (add) out += simd::load<VecD>(cv);
      simd::store(cv, out);
      return;
    } else if (!add) {
      simd::store(cv, __builtin_convertvector(out, HalfF));
      return;
    }
  }
  for (std::size_t q = 0; q < kPerVec; ++q) {
    if (v * kPerVec + q >= skip)
      put(cj[v * kPerVec + q], out[2 * q], out[2 * q + 1], add);
  }
}

// C(i0.., j0..j0+NC) (+)= sum_e A_e(i0.., k0..k1) * B_e(k0..k1, j0..j0+NC)
// for one tile of kTileRows<TS> rows, of which the first `skip` are not
// written. Split accumulators: r += a * Re(b) and i += a * Im(b) on the
// interleaved re/im rows of A, so the k loop needs no shuffle; they
// combine once, re = r.re - i.im and im = r.im + i.re.
template <typename TS, std::size_t NC, typename TC>
inline void sum_tile(std::size_t i0, std::size_t skip, std::size_t j0,
                     std::size_t k0, std::size_t k1, const GemmTerm<TS>* terms,
                     std::size_t count, std::size_t lda, std::size_t ldb,
                     std::complex<TC>* c, std::size_t ldc, bool add) {
  using V = simd::Vec<TS>;
  constexpr std::size_t kRv = kRowVecs;
  constexpr std::size_t kLanes = simd::kLanes<TS>;
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
        av[v] = simd::load<V>(a + 2 * p * lda + v * kLanes);
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
  // re = r.re - i.im, im = r.im + i.re on whole vectors: r + swap(i) * sign.
  for (std::size_t j = 0; j < NC; ++j) {
    for (std::size_t v = 0; v < kRv64; ++v) {
      put_vec(c + (j0 + j) * ldc + i0, v, skip,
              r64[v][j] + simd::swap_pairs(im64[v][j]) * pair_sign(), add);
    }
  }
}

// C(i0.., j0..j0+NC) (+)= sum_e diag(d_e)(i0..) * B_e(i0.., j0..j0+NC) for
// one tile of kTileRows<TS> rows, the first `skip` not written. For
// fp64, r += Re(d) b and i += Im(d) b with Re/Im(d) duplicated over each
// pair of lanes, so the term loop needs no shuffle of b; they combine
// once, r + swap(i) * sign. For fp32 each term's product is formed in
// fp32 registers and widened into fp64 accumulators (the sum across
// terms fp64).
template <typename TS, std::size_t NC, typename TC>
inline void diag_tile(std::size_t i0, std::size_t skip, std::size_t j0,
                      const DiagTerm<TS>* terms, std::size_t count,
                      std::size_t ldb, std::complex<TC>* c, std::size_t ldc,
                      bool add) {
  using V = simd::Vec<TS>;
  constexpr std::size_t kRv = kRowVecs;
  constexpr std::size_t kLanes = simd::kLanes<TS>;
  constexpr bool kMixed = std::is_same_v<TS, float>;
  constexpr std::size_t kRv64 = kMixed ? 2 * kRv : kRv;
  VecD r64[kRv64][NC] = {}, im64[kRv64][NC] = {};
  V sign;
  for (std::size_t q = 0; q < kLanes; ++q) sign[q] = q % 2 ? 1 : -1;
  for (std::size_t e = 0; e < count; ++e) {
    const TS* d = reinterpret_cast<const TS*>(terms[e].d + i0);
    V dr[kRv], di[kRv];
#pragma GCC unroll 4
    for (std::size_t v = 0; v < kRv; ++v) {
      const V dv = simd::load<V>(d + v * kLanes);
      dr[v] = simd::dup<0>(dv);
      di[v] = simd::dup<1>(dv);
      if constexpr (kMixed) di[v] *= sign;
    }
#pragma GCC unroll 4
    for (std::size_t j = 0; j < NC; ++j) {
      const TS* b =
          reinterpret_cast<const TS*>(terms[e].b + (j0 + j) * ldb + i0);
#pragma GCC unroll 4
      for (std::size_t v = 0; v < kRv; ++v) {
        const V bv = simd::load<V>(b + v * kLanes);
        if constexpr (kMixed) {
          const V p = dr[v] * bv + di[v] * simd::swap_pairs(bv);
          HalfF half[2];
          std::memcpy(half, &p, sizeof half);
          r64[2 * v][j] += __builtin_convertvector(half[0], VecD);
          r64[2 * v + 1][j] += __builtin_convertvector(half[1], VecD);
        } else {
          r64[v][j] += dr[v] * bv;
          im64[v][j] += di[v] * bv;
        }
      }
    }
  }
  for (std::size_t j = 0; j < NC; ++j) {
    for (std::size_t v = 0; v < kRv64; ++v) {
      put_vec(c + (j0 + j) * ldc + i0, v, skip,
              kMixed ? r64[v][j]
                     : r64[v][j] + simd::swap_pairs(im64[v][j]) * pair_sign(),
              add);
    }
  }
}

// Rows of a C shorter than one tile, one element at a time with the
// arithmetic of a tile lane.
template <typename TS, typename TC>
void sum_rows_scalar(std::size_t m, std::size_t n, std::size_t k0,
                     std::size_t k1, const GemmTerm<TS>* terms,
                     std::size_t count, std::size_t lda, std::size_t ldb,
                     std::complex<TC>* c, std::size_t ldc, bool add) {
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < m; ++i) {
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
      put(c[j * ldc + i], rr64 - ii64, ri64 + ir64, add);
    }
  }
}

}  // namespace

template <typename TS, typename TC>
void gemm_sum_t(std::size_t m, std::size_t n, std::size_t k,
                const GemmTerm<TS>* terms, std::size_t count, std::size_t lda,
                std::size_t ldb, std::complex<TC>* c, std::size_t ldc,
                bool accumulate) {
  // Up to k = 96 (the default leaf's np = 64, the local expansion's
  // q0 = 74) one tile pass holds all of k and writes C once: k = 74 in
  // blocks of 32, 32 and 10 ran at 22 GFLOP/s on one AVX-512 core, in
  // one block at 33. Larger leaves run k in blocks of 32, so the A pages
  // a pass over the row tiles touches stay within TLB reach (np = 256,
  // 16 columns, one AVX-512 core: 51 ms -> 33 ms). An fp32 C is written
  // once, whatever k.
  const std::size_t kb = k <= 96 || std::is_same_v<TC, float> ? k : 32;
  constexpr std::size_t kRows = kTileRows<TS>;
  const std::size_t m_tiles = m - m % kRows;
  if (k == 0) {
    for (std::size_t j = 0; j < n && !accumulate; ++j)
      std::fill(c + j * ldc, c + j * ldc + m, std::complex<TC>{});
    return;
  }
  for (std::size_t k0 = 0; k0 < k; k0 += kb) {
    const std::size_t k1 = std::min(k, k0 + kb);
    const bool add = accumulate || k0 > 0;
    if (m < kRows) {
      sum_rows_scalar(m, n, k0, k1, terms, count, lda, ldb, c, ldc, add);
      continue;
    }
    const auto columns = [&](auto nc, std::size_t j0) {
      constexpr std::size_t kNc = decltype(nc)::value;
      for (std::size_t i0 = 0; i0 < m_tiles; i0 += kRows)
        sum_tile<TS, kNc>(i0, 0, j0, k0, k1, terms, count, lda, ldb, c, ldc,
                          add);
      // The row tail: one more tile ending at row m.
      if (m_tiles < m)
        sum_tile<TS, kNc>(m - kRows, kRows - (m - m_tiles), j0, k0, k1, terms,
                          count, lda, ldb, c, ldc, add);
    };
    std::size_t j0 = 0;
    // The fp32 C of gemm_expand_mixed widens its short terms every few k:
    // at 4 columns its fp64 accumulators would spill on every widening.
    if constexpr (!std::is_same_v<TC, float>) {
      for (; j0 + 4 <= n; j0 += 4)
        columns(std::integral_constant<std::size_t, 4>{}, j0);
    }
    for (; j0 + 2 <= n; j0 += 2)
      columns(std::integral_constant<std::size_t, 2>{}, j0);
    if (j0 < n) columns(std::integral_constant<std::size_t, 1>{}, j0);
  }
}

template void gemm_sum_t<double, double>(std::size_t, std::size_t,
                                         std::size_t, const GemmTerm<double>*,
                                         std::size_t, std::size_t, std::size_t,
                                         cplx*, std::size_t, bool);
template void gemm_sum_t<float, double>(std::size_t, std::size_t, std::size_t,
                                        const GemmTerm<float>*, std::size_t,
                                        std::size_t, std::size_t, cplx*,
                                        std::size_t, bool);
template void gemm_sum_t<float, float>(std::size_t, std::size_t, std::size_t,
                                       const GemmTerm<float>*, std::size_t,
                                       std::size_t, std::size_t, cplx32*,
                                       std::size_t, bool);

namespace {

// Rows of a C shorter than one tile, with the arithmetic of a tile lane.
template <typename TS, typename TC>
void diag_rows_scalar(std::size_t m, std::size_t n, const DiagTerm<TS>* terms,
                      std::size_t count, std::size_t ldb,
                      std::complex<TC>* c, std::size_t ldc, bool add) {
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < m; ++i) {
      double re = 0, im = 0;
      for (std::size_t e = 0; e < count; ++e) {
        const std::complex<TS> d = terms[e].d[i], b = terms[e].b[j * ldb + i];
        re += static_cast<double>(d.real() * b.real() - d.imag() * b.imag());
        im += static_cast<double>(d.real() * b.imag() + d.imag() * b.real());
      }
      put(c[j * ldc + i], re, im, add);
    }
  }
}

}  // namespace

template <typename TS, typename TC>
void diag_sum_t(std::size_t m, std::size_t n, const DiagTerm<TS>* terms,
                std::size_t count, std::size_t ldb, std::complex<TC>* c,
                std::size_t ldc, bool accumulate) {
  constexpr std::size_t kRows = kTileRows<TS>;
  if (m < kRows) {
    diag_rows_scalar(m, n, terms, count, ldb, c, ldc, accumulate);
    return;
  }
  const std::size_t m_tiles = m - m % kRows;
  const auto columns = [&](auto nc, std::size_t j0) {
    constexpr std::size_t kNc = decltype(nc)::value;
    for (std::size_t i0 = 0; i0 < m_tiles; i0 += kRows)
      diag_tile<TS, kNc>(i0, 0, j0, terms, count, ldb, c, ldc, accumulate);
    if (m_tiles < m)  // the row tail: one more tile ending at row m
      diag_tile<TS, kNc>(m - kRows, kRows - (m - m_tiles), j0, terms, count,
                         ldb, c, ldc, accumulate);
  };
  std::size_t j0 = 0;
  for (; j0 + 4 <= n; j0 += 4)
    columns(std::integral_constant<std::size_t, 4>{}, j0);
  if (j0 + 2 <= n) {
    columns(std::integral_constant<std::size_t, 2>{}, j0);
    j0 += 2;
  }
  if (j0 < n) columns(std::integral_constant<std::size_t, 1>{}, j0);
}

template void diag_sum_t<double, double>(std::size_t, std::size_t,
                                         const DiagTerm<double>*, std::size_t,
                                         std::size_t, cplx*, std::size_t,
                                         bool);
template void diag_sum_t<float, double>(std::size_t, std::size_t,
                                        const DiagTerm<float>*, std::size_t,
                                        std::size_t, cplx*, std::size_t, bool);
template void diag_sum_t<float, float>(std::size_t, std::size_t,
                                       const DiagTerm<float>*, std::size_t,
                                       std::size_t, cplx32*, std::size_t,
                                       bool);

void gemm_expand_mixed(std::size_t m, std::size_t n, std::size_t k,
                       const cplx32* a, std::size_t lda, const cplx32* b,
                       std::size_t ldb, cplx32* c, std::size_t ldc) {
  // fp32 chain length before each promotion into the fp64 tile: short
  // enough that the fp32 rounding chain stays well under the mixed
  // engine's error budget. The chains split k evenly into at most
  // kMaxChains terms (longer chains only past k = 256).
  constexpr std::size_t kChain = 4, kMaxChains = 64;
  std::size_t chain = 0;
  for (std::size_t d = kChain; d >= 1 && chain == 0; --d)
    if (k % d == 0 && k / d <= kMaxChains) chain = d;
  for (std::size_t d = kChain + 1; chain == 0; ++d)
    if (k % d == 0 && k / d <= kMaxChains) chain = d;
  std::array<GemmTerm<float>, kMaxChains> terms;
  const std::size_t count = k / chain;
  for (std::size_t e = 0; e < count; ++e)
    terms[e] = {a + e * chain * lda, b + e * chain};
  gemm_sum_t<float, float>(m, n, chain, terms.data(), count, lda, ldb, c, ldc,
                           /*accumulate=*/false);
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
  const GemmTerm<double> term{a.data(), b.data()};
  if (alpha == cplx{1.0} && (beta == cplx{} || beta == cplx{1.0})) {
    gemm_sum_t<double>(a.rows(), b.cols(), a.cols(), &term, 1, a.rows(),
                       b.rows(), c.data(), c.rows(), beta == cplx{1.0});
    return;
  }
  CMatrix ab(c.rows(), c.cols());
  gemm_sum_t<double>(a.rows(), b.cols(), a.cols(), &term, 1, a.rows(),
                     b.rows(), ab.data(), ab.rows(), /*accumulate=*/false);
  for (std::size_t i = 0; i < c.size(); ++i)
    c.data()[i] = (beta == cplx{} ? cplx{} : beta * c.data()[i]) +
                  alpha * ab.data()[i];
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
