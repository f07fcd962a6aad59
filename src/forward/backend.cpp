#include "forward/backend.hpp"

#include <algorithm>

#include "forward/refined.hpp"

namespace ffw {

ForwardSolveResult forward_solve(const ForwardSystem& sys, ccspan b, cspan x,
                                 double tol, const BicgstabOptions& opts,
                                 ForwardStats& stats) {
  std::uint64_t applies = 0;
  const BlockLinearOp a64 = [&](ccspan in, cspan out) {
    ++applies;
    sys.a64(in, out);
  };
  BicgstabOptions o = opts;
  if (tol > 0.0) o.tol = tol;
  auto record = [&stats](int iterations) {
    stats.bicgs_iterations += static_cast<std::uint64_t>(iterations);
    stats.per_solve_iterations.push_back(
        static_cast<std::uint16_t>(iterations));
  };
  ForwardSolveResult res;
  if (sys.a32) {
    const BlockLinearOp a32 = [&](ccspan in, cspan out) {
      ++applies;
      sys.a32(in, out);
    };
    RefinedOptions ro;
    ro.tol = o.tol;
    // A loose outer target makes ultra-tight inner sweeps pointless:
    // keep the inner tolerance at least as loose as the outer one.
    ro.inner.tol = std::max(ro.inner.tol, o.tol);
    ro.inner.max_iterations = std::min(ro.inner.max_iterations,
                                       o.max_iterations);
    ro.fallback_max_iterations = o.max_iterations;
    const RefinedResult r =
        refined_block_bicgstab(a64, a32, b, x, sys.lo, ro, sys.reduce, sys.pc);
    res = {r.converged, r.block_iterations};
    for (const int it : r.column_iterations) record(it);
  } else {
    const BlockBicgstabResult r =
        block_bicgstab(a64, b, x, sys.lo, o, sys.reduce, sys.pc);
    res = {r.converged, r.iterations};
    for (const BicgstabResult& col : r.rhs) record(col.iterations);
  }
  stats.solves += sys.lo.nrhs;
  stats.operator_applications += applies * sys.lo.nrhs;
  return res;
}

}  // namespace ffw
