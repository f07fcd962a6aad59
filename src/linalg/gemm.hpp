// Register-tiled complex GEMM. The paper implements the MLFMA multipole
// and local expansions as dense matrix-matrix multiplications for data
// reuse (Sec. IV-D); gemm_sum_t is the one kernel that realises every
// dense product of the solver on the CPU: the near field's row
// transforms and row-operator products, a partitioned rank's ghost leaf
// sums, the leaf expansions, the preconditioner apply and the receiver
// projection; diag_sum_t runs the MLFMA translations on the same
// register tile.
//
// It is templated over a *storage* scalar TS (what A and B stream from
// memory) and a *destination* scalar TC (what C holds). All products of
// one term accumulate in TS registers, the sum across terms in fp64:
//   TS = double          — the all-fp64 reference path;
//   TS = float, TC = double — the mixed pipeline's fp64-accumulation
//                       boundaries (fp32 MACs, fp64 sum, DESIGN.md
//                       Sec. 10);
//   TS = TC = float       — the mixed leaf expansion (gemm_expand_mixed)
//                       and the mixed near field's forward row
//                       transform (NearFieldOperators::apply_box).
#pragma once

#include "linalg/cmatrix.hpp"

namespace ffw {

/// C = alpha * A * B + beta * C (a thin wrapper over gemm_sum_t).
void gemm(cplx alpha, const CMatrix& a, const CMatrix& b, cplx beta,
          CMatrix& c);

/// C = alpha * A^H * B + beta * C.
void gemm_herm_a(cplx alpha, const CMatrix& a, const CMatrix& b, cplx beta,
                 CMatrix& c);

/// One (A_e, B_e) pair of a gemm_sum_t list.
template <typename TS>
struct GemmTerm {
  const std::complex<TS>* a;
  const std::complex<TS>* b;
};

/// C(m x n) += sum_{e < count} A_e(m x k) * B_e(k x n), or C = that sum
/// when `accumulate` is false: one call per near-field row-operator
/// product over its <= 3 rows (or per ghost-fed leaf over its neighbour
/// terms), or a one-term list for a plain product.
/// A_e has leading dimension lda, B_e ldb. A register tile of rows x 4
/// columns (column tails at width 2 and 1) accumulates over every term
/// and every k before C is written once (for k > 96 and an fp64 C, once
/// per k block of 32). Rows past the last whole tile run as one more
/// tile that ends at row m and writes only its new rows. Per element the
/// order is fixed — k blocks, then terms in list order, then k ascending
/// — so the bits do not depend on the thread count or the column
/// position. For TS = float each term's product (per k block)
/// accumulates in fp32 registers and is widened into fp64 accumulators
/// after the term (every MAC fp32, the sum across terms fp64; DESIGN.md
/// Sec. 10); an fp32 C is rounded once from them.
template <typename TS, typename TC = double>
void gemm_sum_t(std::size_t m, std::size_t n, std::size_t k,
                const GemmTerm<TS>* terms, std::size_t count, std::size_t lda,
                std::size_t ldb, std::complex<TC>* c, std::size_t ldc,
                bool accumulate = true);

extern template void gemm_sum_t<double, double>(
    std::size_t, std::size_t, std::size_t, const GemmTerm<double>*,
    std::size_t, std::size_t, std::size_t, cplx*, std::size_t, bool);
extern template void gemm_sum_t<float, double>(
    std::size_t, std::size_t, std::size_t, const GemmTerm<float>*,
    std::size_t, std::size_t, std::size_t, cplx*, std::size_t, bool);
extern template void gemm_sum_t<float, float>(
    std::size_t, std::size_t, std::size_t, const GemmTerm<float>*,
    std::size_t, std::size_t, std::size_t, cplx32*, std::size_t, bool);

/// One (d_e, B_e) pair of a diag_sum_t list.
template <typename TS>
struct DiagTerm {
  const std::complex<TS>* d;
  const std::complex<TS>* b;
};

/// C(m x n) += sum_{e < count} diag(d_e) * B_e(m x n), or C = that sum
/// when `accumulate` is false: the MLFMA translation of a cluster's
/// interaction list (d_e the translation diagonals, B_e the source
/// spectra panels, ld ldb). The register tile, its column tails, the row
/// tail and the fixed per-element order (terms in list order) are those
/// of gemm_sum_t. For TS = float each product is fp32 and the sum
/// across terms fp64; an fp32 C is rounded once from it.
template <typename TS, typename TC = double>
void diag_sum_t(std::size_t m, std::size_t n, const DiagTerm<TS>* terms,
                std::size_t count, std::size_t ldb, std::complex<TC>* c,
                std::size_t ldc, bool accumulate = true);

extern template void diag_sum_t<double, double>(std::size_t, std::size_t,
                                                const DiagTerm<double>*,
                                                std::size_t, std::size_t,
                                                cplx*, std::size_t, bool);
extern template void diag_sum_t<float, double>(std::size_t, std::size_t,
                                               const DiagTerm<float>*,
                                               std::size_t, std::size_t, cplx*,
                                               std::size_t, bool);
extern template void diag_sum_t<float, float>(std::size_t, std::size_t,
                                              const DiagTerm<float>*,
                                              std::size_t, std::size_t,
                                              cplx32*, std::size_t, bool);

/// Mixed leaf-expansion kernel: C32(m x n) = A32(m x k) * B32(k x n).
/// The k-long product runs through gemm_sum_t<float, float> as a list of
/// k / c terms of c <= 4 consecutive k each, so the fp32 MAC chains stay
/// c long and the sum across them runs in the tile's fp64 accumulators;
/// the result is rounded once into the fp32 panel. Used at the
/// leaf-expansion accumulation boundary of the mixed MLFMA engines.
void gemm_expand_mixed(std::size_t m, std::size_t n, std::size_t k,
                       const cplx32* a, std::size_t lda, const cplx32* b,
                       std::size_t ldb, cplx32* c, std::size_t ldc);

/// C(m x n) = alpha * A^H * B + beta * C, where A is stored (k x m)
/// column-major. Dot-product form: each C entry reduces one contiguous A
/// column against one contiguous B column, four B columns per A column
/// at a time, on the interleaved re/im components. A and B stream as
/// complex<TS>; the dots accumulate, and C is held, as complex<TD>.
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
