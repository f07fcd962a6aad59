// Mixed-precision iterative refinement around the block BiCGStab solver.
//
// The classic accelerator pattern: the *inner* solver runs cheap sweeps
// against the fp32 (Precision::kMixed) operator, while the *outer* loop
// computes true fp64 residuals r = b - A64 x against the reference
// operator, re-solves A32 d = r and updates x += d. Krylov recurrences,
// Gram reductions and convergence decisions all happen in fp64 (inside
// block_bicgstab and in the outer masking here); the fp32 operator only
// ever sees well-scaled residual right-hand sides, so the attainable
// outer residual is set by fp64 arithmetic, not by the fp32 tables.
//
// Each refinement round shrinks the worst-column residual by roughly
// max(inner tol, fp32 operator error ~ 3e-6); reaching 1e-8 from O(1)
// takes 2-3 rounds at the default inner tol of 1e-4. If a round fails to
// shrink the worst residual by `stall_factor` (a near-resonant system
// where the fp32 operator error excites a badly-conditioned mode), the
// solve falls back to pure fp64 block BiCGStab from the current iterate
// — correctness never depends on the accelerator.
#pragma once

#include "forward/block_bicgstab.hpp"

namespace ffw {

struct RefinedOptions {
  /// Outer (fp64-residual) relative tolerance per column.
  double tol = 1e-8;
  /// Maximum refinement rounds before the fp64 fallback engages.
  int max_refinements = 10;
  /// Inner mixed-operator sweep: loose tolerance, bounded iterations.
  BicgstabOptions inner{1e-4, 200};
  /// A round must shrink the worst column residual by at least this
  /// factor, else refinement is declared stalled and the solve falls
  /// back to pure fp64.
  double stall_factor = 0.25;
  /// Iteration cap of the pure-fp64 fallback solve.
  int fallback_max_iterations = 1000;
  /// Loose-tolerance shortcut: when `tol >= direct_tol`, the solve runs
  /// *entirely* on the inner (mixed) operator — no fp64 residuals, no
  /// refinement rounds. The requested inexactness then dwarfs the fp32
  /// operator error (~3e-6 relative, Sec. 10), so the fp64 safety net
  /// is pure overhead: Eisenstat-Walker-forced DBIM solves
  /// (DbimOptions::adaptive_forcing) spend most of the reconstruction
  /// in this regime. The default keeps a 100x margin above the operator
  /// error; set 0 to force the refinement path at every tolerance.
  double direct_tol = 3e-4;
};

struct RefinedResult {
  int refinements = 0;                    // outer correction rounds run
  std::uint64_t inner_iterations = 0;     // summed inner BiCGStab iterations
  std::uint64_t fallback_iterations = 0;  // fp64 iterations if fell back
  int block_iterations = 0;               // block iterations of every run
  double relres = 0.0;                    // worst column fp64 relres
  bool converged = false;
  bool fell_back = false;                 // pure-fp64 fallback engaged
};

/// Solves A x_r = b_r for all block columns to `opts.tol` in the fp64
/// residual, using `a_inner` (the mixed-precision operator) for the
/// Krylov sweeps and `a_outer` (the fp64 reference operator, same layout)
/// for residuals and the stall fallback. `x` carries initial guesses in
/// and solutions out. With a non-default `reduce`, b/x are rank-local
/// slices and the solve is collective. A non-empty `pc` right-
/// preconditions both the inner sweeps and the fp64 fallback; it never
/// changes the fp64 residuals the convergence tests see. A stall (or
/// exhausted rounds, or a fallback that diverges) can never *worsen* the
/// result: the best iterate seen across all rounds is restored before
/// returning, so `relres` is monotone in what was observed.
RefinedResult refined_block_bicgstab(const BlockLinearOp& a_outer,
                                     const BlockLinearOp& a_inner, ccspan b,
                                     cspan x, const BlockLayout& lo,
                                     const RefinedOptions& opts = {},
                                     const DotReducer& reduce = {},
                                     const PrecondContext& pc = {});

}  // namespace ffw
