// Block (multi-RHS) BiCGStab: all right-hand sides of a shared operator
// iterate together so every operator application is a blocked MLFMA
// apply (one streaming of the translation/interp/near-field tables for
// all columns) and every inner-product sync point is one batched
// reduction instead of nrhs separate ones.
//
// Mathematically this runs nrhs *independent* BiCGStab recurrences in
// lockstep — the Krylov spaces are not mixed, so each column's iterates
// match the single-vector solver's (up to blocked-GEMM rounding). A
// column that converges is *masked*: its x/r/p state freezes at the
// converged iterate (exactly what the single-vector solver would have
// returned) and it stops contributing scalar work, but it stays in the
// block so the remaining columns keep their shared matvec.
#pragma once

#include "forward/bicgstab.hpp"
#include "forward/precond.hpp"
#include "linalg/block.hpp"

namespace ffw {

/// Y = A X over a whole block (layout fixed by the caller); must fully
/// overwrite Y.
using BlockLinearOp = std::function<void(ccspan x, cspan y)>;

struct BlockBicgstabResult {
  /// Per-column outcome, indexed like the block columns. `iterations`
  /// and `relres` match what a standalone BiCGStab on that column would
  /// report.
  std::vector<BicgstabResult> rhs;
  int iterations = 0;     // block iterations until the last column finished
  int block_matvecs = 0;  // blocked operator applications
  bool converged = false; // all columns converged

  std::uint64_t total_iterations() const {
    std::uint64_t s = 0;
    for (const auto& r : rhs) s += static_cast<std::uint64_t>(r.iterations);
    return s;
  }
};

/// Solves A x_r = b_r for all columns of the block vectors b/x (layout
/// `lo`, lo.size() elements each). `x` carries initial guesses in and
/// solutions out. With a non-default `reduce`, b/x are rank-local slices
/// and the solve is collective over the reducing group. A non-empty `pc`
/// applies flexible right preconditioning: M^{-1} acts on the search
/// directions only, so residuals stay true residuals of A, the identity
/// default is bit-identical to the unpreconditioned solver, and column
/// masking is unaffected (M^{-1} is block-diagonal over the layout, so
/// frozen columns stay frozen).
BlockBicgstabResult block_bicgstab(const BlockLinearOp& a, ccspan b, cspan x,
                                   const BlockLayout& lo,
                                   const BicgstabOptions& opts = {},
                                   const DotReducer& reduce = {},
                                   const PrecondContext& pc = {});

}  // namespace ffw
