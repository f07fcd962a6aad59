#include "forward/refined.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "linalg/scratch.hpp"
#include "obs/obs.hpp"

namespace ffw {

RefinedResult refined_block_bicgstab(const BlockLinearOp& a_outer,
                                     const BlockLinearOp& a_inner, ccspan b,
                                     cspan x, const BlockLayout& lo,
                                     const RefinedOptions& opts,
                                     const DotReducer& reduce,
                                     const PrecondContext& pc) {
  FFW_CHECK(b.size() == lo.size() && x.size() == lo.size());
  const std::size_t nrhs = lo.nrhs;
  RefinedResult res;

  // Loose-tolerance regime: the caller's tol is far above the fp32
  // operator error, so solve directly on the inner operator (fp64
  // recurrences, fp32 applies) and skip the refinement scaffolding.
  if (opts.direct_tol > 0.0 && opts.tol >= opts.direct_tol) {
    BicgstabOptions dopts;
    dopts.tol = opts.tol;
    dopts.max_iterations = opts.fallback_max_iterations;
    const BlockBicgstabResult direct =
        block_bicgstab(a_inner, b, x, lo, dopts, reduce, pc);
    res.inner_iterations = direct.total_iterations();
    res.block_iterations = direct.iterations;
    res.relres = 0.0;
    for (const BicgstabResult& col : direct.rhs)
      res.relres = std::max(res.relres, col.relres);
    res.converged = direct.converged;
    return res;
  }

  ScratchFrame frame;
  const cspan r = frame.vec(lo.size()), d = frame.vec(lo.size());
  std::vector<double> bnorm(nrhs), rnorm(nrhs), partial(nrhs);

  auto reduced_col_norms = [&](ccspan v, std::vector<double>& out) {
    for (std::size_t c = 0; c < nrhs; ++c)
      partial[c] = block_col_nrm2_sq(lo, v, c);
    reduce.sum_double_vec(rspan{partial.data(), nrhs});
    for (std::size_t c = 0; c < nrhs; ++c) out[c] = std::sqrt(partial[c]);
  };
  reduced_col_norms(b, bnorm);

  // Worst-column fp64 relative residual; recomputes r = b - A64 x.
  auto residual = [&] {
    a_outer(x, r);
    block_identity_minus(lo, b, r);
    reduced_col_norms(r, rnorm);
    double worst = 0.0;
    for (std::size_t c = 0; c < nrhs; ++c)
      if (bnorm[c] > 0.0) worst = std::max(worst, rnorm[c] / bnorm[c]);
    return worst;
  };
  auto column_converged = [&](std::size_t c) {
    return bnorm[c] == 0.0 || rnorm[c] <= opts.tol * bnorm[c];
  };

  double worst = residual();
  res.relres = worst;
  if (worst <= opts.tol) {
    res.converged = true;
    return res;
  }

  // Best iterate seen so far: a stalled round can *increase* the
  // residual (fp32 operator error exciting a bad mode), and the fallback
  // then must not start from — or return — anything worse than the best
  // x already computed.
  const cspan x_best = frame.vec(lo.size());
  block_copy(lo, x, x_best);
  double worst_best = worst;
  auto remember_best = [&] {
    if (worst < worst_best) {
      worst_best = worst;
      block_copy(lo, x, x_best);
    }
  };
  auto restore_best = [&] {
    if (worst > worst_best) {
      block_copy(lo, x_best, x);
      worst = worst_best;
    }
  };

  for (int k = 0; k < opts.max_refinements; ++k) {
    // fp64 convergence masking: a converged column's residual is zeroed,
    // so the inner solver freezes it immediately (zero-b mask) and it
    // costs no further scalar work while the block keeps iterating.
    for (std::size_t c = 0; c < nrhs; ++c) {
      if (!column_converged(c)) continue;
      for (std::size_t p = 0; p < lo.npanels; ++p)
        std::fill_n(r.data() + lo.at(p, c), lo.panel, cplx{});
    }

    block_zero(lo, d);
    const BlockBicgstabResult inner =
        block_bicgstab(a_inner, r, d, lo, opts.inner, reduce, pc);
    res.inner_iterations += inner.total_iterations();
    res.block_iterations += inner.iterations;
    for (std::size_t i = 0; i < x.size(); ++i) x[i] += d[i];
    ++res.refinements;
    obs::add(obs::Counter::kRefinementRounds, 1);

    const double prev = worst;
    worst = residual();
    res.relres = worst;
    if (worst <= opts.tol) {
      res.converged = true;
      return res;
    }
    remember_best();
    if (worst > opts.stall_factor * prev) break;  // stalled -> fallback
  }

  // Refinement stalled (or ran out of rounds) above tol: finish with the
  // reference-precision solver from the *best* iterate seen, not the
  // possibly-worsened last one.
  restore_best();
  res.fell_back = true;
  BicgstabOptions fo;
  fo.tol = opts.tol;
  fo.max_iterations = opts.fallback_max_iterations;
  const BlockBicgstabResult fb =
      block_bicgstab(a_outer, b, x, lo, fo, reduce, pc);
  res.fallback_iterations = fb.total_iterations();
  res.block_iterations += fb.iterations;
  worst = residual();
  restore_best();  // a capped fallback must not end worse than it began
  res.relres = worst;
  res.converged = res.relres <= opts.tol;
  return res;
}

}  // namespace ffw
