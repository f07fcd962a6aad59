// Matrix-free biconjugate gradient stabilised solver (paper Sec. III-A:
// "We use the biconjugate gradient stabilized method (BiCGS) for the
// forward solver ... The dominant operation in BiCGS is a matrix-vector
// multiplication that occurs twice per iteration").
//
// Every production solve runs the block recurrence
// (forward/block_bicgstab.hpp), nrhs = 1 included. The single-vector
// `bicgstab` below is the independent reference the block solver's
// tests compare against, iteration for iteration; the option, result
// and reducer types here are shared by both.
#pragma once

#include <functional>

#include "common/types.hpp"

namespace ffw {

/// y = A x; the callback must fully overwrite y.
using LinearOp = std::function<void(ccspan x, cspan y)>;

struct BicgstabOptions {
  /// Relative residual tolerance (paper Sec. V-B: 1e-4).
  double tol = 1e-4;
  int max_iterations = 1000;
};

struct BicgstabResult {
  int iterations = 0;   // BiCGS iterations
  int matvecs = 0;      // operator applications (2 per iteration, + 1
                        // setup apply unless x0 = 0)
  double relres = 0.0;  // final relative residual norm
  bool converged = false;
};

/// Reduction hooks for a distributed solve: each rank holds a slice of
/// the vectors and the solver's inner products reduce local partials in
/// place with these callbacks (identity by default, i.e. serial). Many
/// partials reduce in one collective — the block solver batches all
/// per-RHS dots of an iteration into a single message per sync point.
struct DotReducer {
  std::function<void(cspan)> sum_cplx_vec = [](cspan) {};
  std::function<void(rspan)> sum_double_vec = [](rspan) {};

  /// One scalar through the vector form.
  cplx sum(cplx v) const {
    sum_cplx_vec(cspan{&v, 1});
    return v;
  }
  double sum(double v) const {
    sum_double_vec(rspan{&v, 1});
    return v;
  }
};

/// Reference serial solve of A x = b (test oracle for block_bicgstab).
/// `x` holds the initial guess on entry and the solution on exit.
BicgstabResult bicgstab(const LinearOp& a, ccspan b, cspan x,
                        const BicgstabOptions& opts = {});

}  // namespace ffw
