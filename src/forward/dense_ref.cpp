#include "forward/dense_ref.hpp"

#include "common/check.hpp"
#include "greens/greens.hpp"

namespace ffw {

DenseForwardSolver::DenseForwardSolver(const Grid& grid, ccspan contrast)
    : grid_(&grid) {
  const std::size_t n = grid.num_pixels();
  FFW_CHECK(contrast.size() == n);
  CMatrix a = build_dense_g0(grid);
  // A = I - G0 * diag(O): scale column j by -O_j, then add identity.
  for (std::size_t j = 0; j < n; ++j) {
    const cplx oj = contrast[j];
    for (std::size_t i = 0; i < n; ++i) a(i, j) *= -oj;
    a(j, j) += 1.0;
  }
  lu_ = std::make_unique<LuFactors>(std::move(a));
}

cvec DenseForwardSolver::solve(ccspan rhs) const { return lu_->solve(rhs); }

cvec DenseForwardSolver::solve_herm(ccspan rhs) const {
  return lu_->solve_herm(rhs);
}

}  // namespace ffw
