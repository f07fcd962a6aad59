#include "forward/bicgstab.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "linalg/kernels.hpp"

namespace ffw {

namespace {
double nrm2_sq(ccspan x) {
  double s = 0.0;
  for (const cplx& v : x) s += std::norm(v);
  return s;
}
}  // namespace

BicgstabResult bicgstab(const LinearOp& a, ccspan b, cspan x,
                        const BicgstabOptions& opts) {
  const std::size_t n = b.size();
  FFW_CHECK(x.size() == n);
  BicgstabResult res;

  auto norm = [](ccspan u) { return std::sqrt(nrm2_sq(u)); };

  const double bnorm = norm(b);
  if (bnorm == 0.0) {
    std::fill(x.begin(), x.end(), cplx{});
    res.converged = true;
    return res;
  }

  cvec r(n), rhat(n), p(n), v(n, cplx{}), s(n), t(n), tmp(n);
  // A x0 is exactly zero for x0 = 0, so that start makes no apply.
  if (std::any_of(x.begin(), x.end(), [](cplx e) { return e != cplx{}; })) {
    a(x, tmp);
    ++res.matvecs;
    for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - tmp[i];
  } else {
    copy(b, r);
  }
  copy(r, rhat);
  copy(r, p);

  cplx rho = cdot(rhat, r);
  double rnorm = norm(r);
  if (rnorm / bnorm < opts.tol) {
    res.converged = true;
    res.relres = rnorm / bnorm;
    return res;
  }

  for (int it = 0; it < opts.max_iterations; ++it) {
    a(p, v);
    ++res.matvecs;
    const cplx rhat_v = cdot(rhat, v);
    FFW_CHECK_MSG(std::abs(rhat_v) > 0.0, "BiCGStab breakdown: <rhat, v> = 0");
    const cplx alpha = rho / rhat_v;
    for (std::size_t i = 0; i < n; ++i) s[i] = r[i] - alpha * v[i];

    ++res.iterations;
    const double snorm = norm(s);
    if (snorm / bnorm < opts.tol) {
      axpy(alpha, p, x);
      res.relres = snorm / bnorm;
      res.converged = true;
      return res;
    }

    a(s, t);
    ++res.matvecs;
    const cplx tt = cdot(t, t);
    FFW_CHECK_MSG(std::abs(tt) > 0.0, "BiCGStab breakdown: ||t|| = 0");
    const cplx omega = cdot(t, s) / tt;
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += alpha * p[i] + omega * s[i];
      r[i] = s[i] - omega * t[i];
    }

    rnorm = norm(r);
    res.relres = rnorm / bnorm;
    if (res.relres < opts.tol) {
      res.converged = true;
      return res;
    }

    const cplx rho_next = cdot(rhat, r);
    FFW_CHECK_MSG(std::abs(rho_next) > 0.0, "BiCGStab breakdown: rho = 0");
    const cplx beta = (rho_next / rho) * (alpha / omega);
    rho = rho_next;
    for (std::size_t i = 0; i < n; ++i)
      p[i] = r[i] + beta * (p[i] - omega * v[i]);
  }
  return res;  // not converged
}

}  // namespace ffw
