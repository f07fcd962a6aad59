#include "dbim/gauss_newton.hpp"

#include <cmath>

#include "linalg/kernels.hpp"

namespace ffw {

DbimResult gauss_newton_reconstruct(MlfmaEngine& engine,
                                    const Transceivers& trx,
                                    const CMatrix& measured,
                                    const GaussNewtonOptions& opts,
                                    const BicgstabOptions& fw_opts) {
  DbimWorkspace ws(engine, trx, measured, fw_opts);
  const std::size_t n = ws.num_pixels();

  DbimResult out;
  out.contrast.assign(n, cplx{});

  // Residuals b_t as one R x T panel (kept for the whole outer
  // iteration), and the F p panel of the normal operator.
  cvec b(ws.residual_size()), fp(ws.residual_size());

  // (J^H J + lambda I) d as a matrix-free operator over the current
  // linearisation point (the workspace holds phi_b,t after the residual
  // pass): one Frechet pass and one gradient pass, T solves each.
  auto apply_normal = [&](ccspan d, cspan outv) {
    std::fill(outv.begin(), outv.end(), cplx{});
    ws.frechet_pass_all(d, fp);
    ws.gradient_pass_all(fp, outv);
    if (opts.tikhonov > 0.0) axpy(cplx{opts.tikhonov}, d, outv);
  };

  for (int iter = 0; iter < opts.max_iterations; ++iter) {
    ws.set_background(out.contrast);
    const double cost = ws.residual_pass_all(b);
    const double relres = std::sqrt(cost / ws.measurement_norm2());
    out.history.relative_residual.push_back(relres);
    if (opts.progress) opts.progress(iter, relres);
    if (opts.residual_tol > 0.0 && relres < opts.residual_tol) break;

    // rhs = -J^H b (the Gauss-Newton gradient direction).
    cvec rhs(n, cplx{});
    ws.gradient_pass_all(b, rhs);
    for (cplx& v : rhs) v = -v;

    // CGNR on (J^H J + lambda I) d = rhs.
    cvec d(n, cplx{}), r(rhs.begin(), rhs.end()), p(rhs.begin(), rhs.end()),
        ap(n);
    double rr = std::pow(nrm2(r), 2);
    if (rr == 0.0) break;
    for (int it = 0; it < opts.cg_iterations; ++it) {
      apply_normal(p, ap);
      const cplx pap = cdot(p, ap);
      if (std::abs(pap) == 0.0) break;
      const cplx alpha = rr / pap;
      axpy(alpha, p, d);
      axpy(-alpha, ap, r);
      const double rr_new = std::pow(nrm2(r), 2);
      if (rr_new < 1e-24) break;
      xpay(r, cplx{rr_new / rr}, p);
      rr = rr_new;
    }
    axpy(cplx{1.0}, d, out.contrast);
  }

  ws.fill_counts(out.history);
  return out;
}

}  // namespace ffw
