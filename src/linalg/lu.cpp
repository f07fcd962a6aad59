#include "linalg/lu.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/gemm.hpp"
#include "linalg/kernels.hpp"
#include "linalg/simd.hpp"

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

namespace {

// y = x * t, or y += x * t, over n complex entries stored as interleaved
// re/im pairs (t = tr + i ti; y may be x): x * tr + swap(x) * (-ti, ti)
// on whole vectors, the last entries one at a time.
template <bool kAdd>
inline void mul_col(std::size_t n, const double* x, double tr, double ti,
                    double* y) {
  using simd::VecD;
  constexpr std::size_t kLanes = simd::kLanes<double>;
  VecD tsign = {};
  for (std::size_t q = 0; q < kLanes; ++q) tsign[q] = q % 2 ? ti : -ti;
  std::size_t i = 0;
  for (; i + kLanes <= 2 * n; i += kLanes) {
    const VecD xv = simd::load<VecD>(x + i);
    VecD r = xv * tr + simd::swap_pairs(xv) * tsign;
    if constexpr (kAdd) r += simd::load<VecD>(y + i);
    simd::store(y + i, r);
  }
  for (; i < 2 * n; i += 2) {
    const double re = x[i] * tr - x[i + 1] * ti;
    const double im = x[i] * ti + x[i + 1] * tr;
    y[i] = kAdd ? y[i] + re : re;
    y[i + 1] = kAdd ? y[i + 1] + im : im;
  }
}

}  // namespace

void invert_in_place(cplx* a, std::size_t n, cspan panel,
                     std::span<std::size_t> pivots) {
  constexpr std::size_t kb = kInvertBlock;
  FFW_CHECK(panel.size() >= kb * n && pivots.size() >= n);
  const auto col = [&](std::size_t j) {
    return reinterpret_cast<double*>(a + j * n);
  };
  for (std::size_t k0 = 0; k0 < n; k0 += kb) {
    const std::size_t k1 = std::min(n, k0 + kb), nb = k1 - k0;
    // The block's pivot steps on its own columns K = [k0, k1) only.
    for (std::size_t k = k0; k < k1; ++k) {
      double* ck = col(k);
      // Partial pivot: the largest |a_ik| at or below the diagonal.
      std::size_t piv = k;
      double best = 0.0;
      for (std::size_t i = k; i < n; ++i) {
        const double v = ck[2 * i] * ck[2 * i] + ck[2 * i + 1] * ck[2 * i + 1];
        if (v > best) {
          best = v;
          piv = i;
        }
      }
      FFW_CHECK_MSG(best > 0.0, "singular matrix in inversion");
      pivots[k] = piv;
      if (piv != k) {
        for (std::size_t j = 0; j < n; ++j)
          std::swap(a[j * n + k], a[j * n + piv]);
      }
      // d = 1 / a_kk; column k becomes -a_ik d (i != k), and d at k.
      const double s = 1.0 / best;
      const double dr = ck[2 * k] * s, di = -ck[2 * k + 1] * s;
      mul_col<false>(n, ck, -dr, -di, ck);
      ck[2 * k] = dr;
      ck[2 * k + 1] = di;
      // The block's other columns: a_ij += a_ik a_kj (i != k, a_ik the
      // new column k), and a_kj <- a_kj d. The loop also updates row k,
      // which the scaled pivot-row entry then overwrites.
      for (std::size_t j = k0; j < k1; ++j) {
        if (j == k) continue;
        double* cj = col(j);
        const double tr = cj[2 * k], ti = cj[2 * k + 1];
        mul_col<true>(n, ck, tr, ti, cj);
        cj[2 * k] = tr * dr - ti * di;
        cj[2 * k + 1] = tr * di + ti * dr;
      }
    }
    // Every other column J at once: T = W(K, J) is saved and zeroed,
    // then W(:, J) += W(:, K) T, one product left and one right of K.
    cplx* t = panel.data();
    for (std::size_t j = 0; j < n; ++j) {
      if (j >= k0 && j < k1) continue;
      cplx* wkj = a + j * n + k0;
      std::copy_n(wkj, nb, t + j * nb);
      std::fill_n(wkj, nb, cplx{});
    }
    const GemmTerm<double> left{a + k0 * n, t};
    if (k0 > 0) gemm_sum_t<double>(n, k0, nb, &left, 1, n, nb, a, n);
    const GemmTerm<double> right{a + k0 * n, t + k1 * nb};
    if (k1 < n)
      gemm_sum_t<double>(n, n - k1, nb, &right, 1, n, nb, a + k1 * n, n);
  }
  // The inverse of the row-swapped matrix, with the swaps undone as
  // column swaps in reverse order.
  for (std::size_t k = n; k-- > 0;) {
    if (pivots[k] != k)
      std::swap_ranges(a + k * n, a + (k + 1) * n, a + pivots[k] * n);
  }
}

}  // namespace ffw
