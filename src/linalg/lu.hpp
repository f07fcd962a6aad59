// Dense LU factorisation with partial pivoting. This is the O(N^3)
// direct solver the paper contrasts against (Sec. I); we use it as the
// exact reference for small problems in tests, as the dense forward
// solver in `forward/dense_ref`, and to invert the per-leaf blocks of the
// near-field block-Jacobi preconditioner (`forward/precond`).
#pragma once

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

  /// A^{-1}, one column-oriented solve per identity column. Lets a
  /// consumer that applies the same small system to many right-hand
  /// sides (forward/precond.hpp, one inverse per leaf) do it as a GEMM.
  CMatrix inverse() const;

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

}  // namespace ffw
