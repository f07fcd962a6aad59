// Dense (LU-based) reference forward solver — the O(N^3) direct approach
// the paper's Sec. I calls prohibitive at scale. Used to validate the
// MLFMA+BiCGStab path on small problems and as the exact oracle for
// adjoint solves.
#pragma once

#include <memory>

#include "grid/grid.hpp"
#include "linalg/lu.hpp"

namespace ffw {

class DenseForwardSolver {
 public:
  /// Factors [I - G0 diag(contrast)] once; O(N^3).
  DenseForwardSolver(const Grid& grid, ccspan contrast);

  /// phi = [I - G0 O]^{-1} rhs (natural order).
  cvec solve(ccspan rhs) const;

  /// psi = [I - G0 O]^{-H} rhs.
  cvec solve_herm(ccspan rhs) const;

  const Grid& grid() const { return *grid_; }

 private:
  const Grid* grid_;
  std::unique_ptr<LuFactors> lu_;
};

}  // namespace ffw
