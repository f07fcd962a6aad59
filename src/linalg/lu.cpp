#include "linalg/lu.hpp"

#include <cmath>

#include "linalg/kernels.hpp"

namespace ffw {

LuFactors::LuFactors(CMatrix a) : lu_(std::move(a)), perm_(lu_.rows()) {
  FFW_CHECK_MSG(lu_.rows() == lu_.cols(), "LU requires a square matrix");
  const std::size_t n = lu_.rows();
  // Right-looking kji form: every inner loop runs down a contiguous
  // column of the column-major storage.
  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot: largest |value| in column k at or below the diagonal.
    cplx* colk = lu_.data() + k * n;
    std::size_t piv = k;
    double best = std::abs(colk[k]);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double v = std::abs(colk[r]);
      if (v > best) {
        best = v;
        piv = r;
      }
    }
    FFW_CHECK_MSG(best > 0.0, "singular matrix in LU");
    perm_[k] = piv;
    if (piv != k) {
      for (std::size_t c = 0; c < n; ++c) std::swap(lu_(k, c), lu_(piv, c));
    }
    const cspan lk{colk + k + 1, n - k - 1};  // multipliers l_rk, r > k
    scal(1.0 / colk[k], lk);
    for (std::size_t c = k + 1; c < n; ++c) {
      cplx* colc = lu_.data() + c * n;
      if (colc[k] == cplx{0.0}) continue;
      axpy(-colc[k], lk, cspan{colc + k + 1, n - k - 1});
    }
  }
}

void LuFactors::solve_in_place(cplx* x) const {
  const std::size_t n = dim();
  // Apply all row interchanges first: the stored L lives in the *final*
  // row ordering (factorisation swaps whole rows, multipliers included),
  // so P b must be formed completely before forward substitution.
  for (std::size_t k = 0; k < n; ++k) {
    if (perm_[k] != k) std::swap(x[k], x[perm_[k]]);
  }
  for (std::size_t k = 0; k < n; ++k) {  // L y = P b (unit lower)
    if (x[k] == cplx{0.0}) continue;
    axpy(-x[k], ccspan{lu_.data() + k * n + k + 1, n - k - 1},
         cspan{x + k + 1, n - k - 1});
  }
  for (std::size_t k = n; k-- > 0;) {  // U x = y, column by column
    x[k] /= lu_(k, k);
    axpy(-x[k], ccspan{lu_.data() + k * n, k}, cspan{x, k});
  }
}

cvec LuFactors::solve(ccspan b) const {
  FFW_CHECK(b.size() == dim());
  cvec x(b.begin(), b.end());
  solve_in_place(x.data());
  return x;
}

CMatrix LuFactors::inverse() const {
  const std::size_t n = dim();
  CMatrix inv(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    inv(j, j) = 1.0;
    solve_in_place(inv.data() + j * n);
  }
  return inv;
}

cvec LuFactors::solve_herm(ccspan b) const {
  // A = P^T L U  =>  A^H = U^H L^H P. Solve U^H y = b, then L^H z = y,
  // then x = P^T z (undo pivots in reverse).
  const std::size_t n = dim();
  FFW_CHECK(b.size() == n);
  cvec x(b.begin(), b.end());
  for (std::size_t k = 0; k < n; ++k) {  // U^H is lower triangular
    for (std::size_t c = 0; c < k; ++c) x[k] -= std::conj(lu_(c, k)) * x[c];
    x[k] /= std::conj(lu_(k, k));
  }
  for (std::size_t k = n; k-- > 0;) {  // L^H is unit upper triangular
    for (std::size_t r = k + 1; r < n; ++r) x[k] -= std::conj(lu_(r, k)) * x[r];
  }
  for (std::size_t k = n; k-- > 0;) {
    if (perm_[k] != k) std::swap(x[k], x[perm_[k]]);
  }
  return x;
}

double LuFactors::pivot_ratio() const {
  double lo = 1e300, hi = 0.0;
  for (std::size_t k = 0; k < dim(); ++k) {
    const double p = std::abs(lu_(k, k));
    lo = std::min(lo, p);
    hi = std::max(hi, p);
  }
  return hi > 0.0 ? lo / hi : 0.0;
}

cvec lu_solve(const CMatrix& a, ccspan b) { return LuFactors(a).solve(b); }

}  // namespace ffw
