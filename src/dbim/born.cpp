#include "dbim/born.hpp"

#include <cmath>

#include "common/check.hpp"
#include "linalg/kernels.hpp"

namespace ffw {

BornResult born_reconstruct(const Grid& grid, const Transceivers& trx,
                            const CMatrix& measured, const BornOptions& opts) {
  const std::size_t n = grid.num_pixels();
  const std::size_t t_count = static_cast<std::size_t>(trx.num_transmitters());
  const std::size_t r_count = measured.rows();
  FFW_CHECK(measured.cols() == t_count);
  const ccspan inc = trx.incident_panel();  // N x T
  const ccspan meas{measured.data(), measured.size()};

  // sum_t conj(phi_t^inc) .* g_t over the columns of an N x T panel.
  const auto fold = [&](ccspan g, cspan out) {
    std::fill(out.begin(), out.end(), cplx{});
    for (std::size_t t = 0; t < t_count; ++t) {
      const cplx* it = inc.data() + t * n;
      const cplx* gt = g.data() + t * n;
      for (std::size_t i = 0; i < n; ++i) out[i] += std::conj(it[i]) * gt[i];
    }
  };

  // A o = G_R (phi_t^inc .* o) for every t: one forward panel projection.
  cvec v(n * t_count), g(n * t_count);
  const auto apply_a = [&](ccspan o, cspan s) {
    for (std::size_t t = 0; t < t_count; ++t)
      diag_mul(inc.subspan(t * n, n), o, cspan{v.data() + t * n, n});
    trx.apply_gr(v, s, t_count);
  };

  // b = A^H phi_mea.
  cvec b(n);
  trx.apply_gr_herm(meas, g, t_count);
  fold(g, b);

  double meas_norm2 = 0.0;
  for (std::size_t t = 0; t < measured.cols(); ++t) {
    const double nn = nrm2(measured.col(t));
    meas_norm2 += nn * nn;
  }

  // CG on A^H A o = b (Hermitian positive semidefinite). The data
  // residual A o - phi_mea is updated alongside o from A p, so each step
  // costs one forward and one adjoint panel projection.
  BornResult out;
  out.contrast.assign(n, cplx{});
  cvec r(b.begin(), b.end()), p(b.begin(), b.end()), ap(n);
  cvec data_res(r_count * t_count), a_p(r_count * t_count);
  for (std::size_t i = 0; i < data_res.size(); ++i) data_res[i] = -meas[i];
  double rr = std::pow(nrm2(r), 2);
  const double b0 = std::sqrt(rr);

  for (int it = 0; it < opts.max_iterations; ++it) {
    apply_a(p, a_p);
    trx.apply_gr_herm(a_p, g, t_count);
    fold(g, ap);
    const cplx pap = cdot(p, ap);
    if (std::abs(pap) == 0.0) break;
    const cplx alpha = rr / pap;
    axpy(alpha, p, out.contrast);
    axpy(alpha, a_p, data_res);
    axpy(-alpha, ap, r);
    const double rr_new = std::pow(nrm2(r), 2);
    out.relative_residual.push_back(nrm2(data_res) / std::sqrt(meas_norm2));
    if (std::sqrt(rr_new) / b0 < opts.tol) break;
    xpay(r, cplx{rr_new / rr}, p);
    rr = rr_new;
  }
  return out;
}

}  // namespace ffw
