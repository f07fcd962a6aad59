// Dense LU factorisation with partial pivoting, and in-place inversion.
// LuFactors is the O(N^3) direct solver the paper contrasts against
// (Sec. I); we use it as the exact reference for small problems in tests
// and as the dense forward solver in `forward/dense_ref`.
// invert_in_place forms the explicit per-leaf inverses of the near-field
// block-Jacobi preconditioner (`forward/precond`): a blocked
// Gauss-Jordan whose updates run on the register-tiled GEMM
// (linalg/gemm.hpp), so the inverse is built at the throughput the
// preconditioner is applied at (DESIGN.md Sec. 13).
#pragma once

#include <span>
#include <vector>

#include "linalg/cmatrix.hpp"

namespace ffw {

class LuFactors {
 public:
  /// Factor A = P * L * U in place (A is copied), column by column
  /// (right-looking, partial pivoting on the largest |a_rk|). Aborts on
  /// exactly singular pivots; `pivot_ratio()` reports conditioning.
  explicit LuFactors(CMatrix a);

  /// Solve A x = b. b.size() == n.
  cvec solve(ccspan b) const;

  /// Solve A^H x = b (uses U^H L^H P^T without refactoring).
  cvec solve_herm(ccspan b) const;

  /// Ratio of smallest to largest |pivot| — a cheap conditioning probe.
  double pivot_ratio() const;

  std::size_t dim() const { return lu_.rows(); }

 private:
  /// x <- A^{-1} x in place (x has dim() entries).
  void solve_in_place(cplx* x) const;

  CMatrix lu_;
  std::vector<std::size_t> perm_;  // row permutation: pivot row at step k
};

/// Determinant-free convenience: solve A x = b with a one-shot LU.
cvec lu_solve(const CMatrix& a, ccspan b);

/// Pivot columns per block of invert_in_place. The unblocked in-block
/// work is kInvertBlock / n of the n^3 MACs (1/8 at the default leaf's
/// n = 64); the rest is the k = kInvertBlock GEMM, which re-reads and
/// re-writes its C once per block.
inline constexpr std::size_t kInvertBlock = 8;

/// A <- A^{-1} for the n x n column-major A at `a` (leading dimension
/// n), in fp64: Gauss-Jordan with partial (row) pivoting, kInvertBlock
/// pivot columns at a time. Each block's pivot search, full-row swaps and
/// in-block updates run unblocked; the update of every other column is
/// one gemm_sum_t product per column range, W(:,J) += W(:,K) * T, with T
/// the block's pivot rows W(K,J) saved into `panel` and zeroed in W. The
/// row swaps are undone at the end as column swaps. Scratch: `panel`
/// holds kInvertBlock * n elements, `pivots` n; neither is read before
/// it is written, and nothing is allocated. The result depends only on
/// A, never on the caller's thread. Aborts on an exactly singular pivot.
void invert_in_place(cplx* a, std::size_t n, cspan panel,
                     std::span<std::size_t> pivots);

}  // namespace ffw
