// Blocked complex GEMM. The paper implements the MLFMA multipole/local
// expansions as dense matrix-matrix multiplications for data reuse
// (Sec. IV-D); this is the kernel that realises them on the CPU.
//
// The raw kernel is templated over a *storage* scalar TS (what A and B
// stream from memory) and an *accumulation/destination* scalar TD (what
// C holds and what the inner products accumulate in), so one micro-kernel
// serves both precision modes of the engine:
//   TS = TD = double  — the all-fp64 reference path;
//   TS = float, TD = double — the mixed pipeline's leaf boundaries:
//                       fp32 tables/panels accumulated into the fp64
//                       solver vector (DESIGN.md Sec. 10).
#pragma once

#include "linalg/cmatrix.hpp"

namespace ffw {

/// C = alpha * A * B + beta * C.
void gemm(cplx alpha, const CMatrix& a, const CMatrix& b, cplx beta,
          CMatrix& c);

/// C = alpha * A^H * B + beta * C.
void gemm_herm_a(cplx alpha, const CMatrix& a, const CMatrix& b, cplx beta,
                 CMatrix& c);

/// Raw-pointer variant over column-major blocks:
/// C(m x n) = alpha * A(m x k) * B(k x n) + beta * C, with leading
/// dimensions lda/ldb/ldc. A and B stream as complex<TS>; C and all
/// accumulation are complex<TD>. Used by the MLFMA engine where cluster
/// data lives inside larger level-wide arrays.
template <typename TS, typename TD>
void gemm_raw_t(std::size_t m, std::size_t n, std::size_t k,
                std::complex<TD> alpha, const std::complex<TS>* a,
                std::size_t lda, const std::complex<TS>* b, std::size_t ldb,
                std::complex<TD> beta, std::complex<TD>* c, std::size_t ldc);

extern template void gemm_raw_t<double, double>(
    std::size_t, std::size_t, std::size_t, cplx, const cplx*, std::size_t,
    const cplx*, std::size_t, cplx, cplx*, std::size_t);
extern template void gemm_raw_t<float, double>(
    std::size_t, std::size_t, std::size_t, cplx, const cplx32*, std::size_t,
    const cplx32*, std::size_t, cplx, cplx*, std::size_t);

/// Mixed leaf-expansion kernel: C32(m x n) = A32(m x k) * B32(k x n).
/// The rank-1 MACs run in fp32 over short k-chunks and are promoted
/// into an fp64 register tile between chunks, so the full k-long
/// accumulation chain is fp64 while the bulk of the arithmetic keeps
/// fp32 SIMD width; the result is rounded once into the fp32 panel.
/// Used at the leaf-expansion accumulation boundary of the mixed MLFMA
/// engine (m = level-0 sample count, expected small).
void gemm_expand_mixed(std::size_t m, std::size_t n, std::size_t k,
                       const cplx32* a, std::size_t lda, const cplx32* b,
                       std::size_t ldb, cplx32* c, std::size_t ldc);

/// One (A_e, B_e) pair of a gemm_sum_t list.
template <typename TS>
struct GemmTerm {
  const std::complex<TS>* a;
  const std::complex<TS>* b;
};

/// C(m x n) += sum_{e < count} A_e(m x k) * B_e(k x n): the near-field
/// leaf product, one call per destination leaf over its <= 9 neighbour
/// terms. A_e has leading dimension lda, B_e ldb; C is fp64. A register
/// tile of rows x 4 columns (column tails at width 2 and 1) accumulates
/// over every term and every k before C is written once (for k > 64,
/// once per k block of 32). Per element the order is fixed — k blocks,
/// then terms in list order, then k ascending — so the bits do not
/// depend on the thread count or the column position. For
/// TS = float each term's product accumulates in fp32 registers and is
/// widened into fp64 accumulators after the term (every MAC fp32, the
/// sum across terms fp64; DESIGN.md Sec. 10).
template <typename TS>
void gemm_sum_t(std::size_t m, std::size_t n, std::size_t k,
                const GemmTerm<TS>* terms, std::size_t count, std::size_t lda,
                std::size_t ldb, cplx* c, std::size_t ldc);

extern template void gemm_sum_t<double>(std::size_t, std::size_t,
                                        std::size_t, const GemmTerm<double>*,
                                        std::size_t, std::size_t, std::size_t,
                                        cplx*, std::size_t);
extern template void gemm_sum_t<float>(std::size_t, std::size_t, std::size_t,
                                       const GemmTerm<float>*, std::size_t,
                                       std::size_t, std::size_t, cplx*,
                                       std::size_t);

/// C(m x n) = alpha * A^H * B + beta * C, where A is stored (k x m)
/// column-major. Dot-product form: each C entry reduces one contiguous A
/// column against one contiguous B column, four B columns per A column
/// at a time, on the interleaved re/im components. Storage and
/// accumulation scalars as in gemm_raw_t.
template <typename TS, typename TD>
void gemm_herm_raw_t(std::size_t m, std::size_t n, std::size_t k,
                     std::complex<TD> alpha, const std::complex<TS>* a,
                     std::size_t lda, const std::complex<TS>* b,
                     std::size_t ldb, std::complex<TD> beta,
                     std::complex<TD>* c, std::size_t ldc);

extern template void gemm_herm_raw_t<double, double>(
    std::size_t, std::size_t, std::size_t, cplx, const cplx*, std::size_t,
    const cplx*, std::size_t, cplx, cplx*, std::size_t);
extern template void gemm_herm_raw_t<float, double>(
    std::size_t, std::size_t, std::size_t, cplx, const cplx32*, std::size_t,
    const cplx32*, std::size_t, cplx, cplx*, std::size_t);

}  // namespace ffw
