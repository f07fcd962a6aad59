#include "forward/block_bicgstab.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "common/check.hpp"
#include "linalg/kernels.hpp"
#include "linalg/scratch.hpp"
#include "obs/obs.hpp"

namespace ffw {

namespace {

// Panel kernels of the recurrences (with nrm2_panel / dot_panel from
// linalg/block.hpp): n complex entries as 2n interleaved doubles,
// explicit real arithmetic, so each loop vectorises. The reductions run
// in a fixed order for a given build.

/// s = r - a v; returns ||s||^2.
inline double s_update_panel(std::size_t n, cplx a, const cplx* r,
                             const cplx* v, cplx* s) {
  const double ar = a.real(), ai = a.imag();
  const double* rs = reinterpret_cast<const double*>(r);
  const double* vs = reinterpret_cast<const double*>(v);
  double* ss = reinterpret_cast<double*>(s);
  double acc = 0.0;
#ifdef _OPENMP
#pragma omp simd reduction(+ : acc)
#endif
  for (std::size_t i = 0; i < 2 * n; i += 2) {
    const double sr = rs[i] - (ar * vs[i] - ai * vs[i + 1]);
    const double si = rs[i + 1] - (ar * vs[i + 1] + ai * vs[i]);
    ss[i] = sr;
    ss[i + 1] = si;
    acc += sr * sr + si * si;
  }
  return acc;
}

/// x += a ph + w sh; r = s - w t; acc += {||r||^2, <rhat, r>}.
inline void xr_update_panel(std::size_t n, cplx a, cplx w, const cplx* ph,
                            const cplx* sh, const cplx* s, const cplx* t,
                            const cplx* rhat, cplx* x, cplx* r,
                            double* acc) {
  const double ar = a.real(), ai = a.imag(), wr = w.real(), wi = w.imag();
  const double* phs = reinterpret_cast<const double*>(ph);
  const double* shs = reinterpret_cast<const double*>(sh);
  const double* ss = reinterpret_cast<const double*>(s);
  const double* ts = reinterpret_cast<const double*>(t);
  const double* hs = reinterpret_cast<const double*>(rhat);
  double* xs = reinterpret_cast<double*>(x);
  double* rs = reinterpret_cast<double*>(r);
  double nn = 0.0, dr = 0.0, di = 0.0;
#ifdef _OPENMP
#pragma omp simd reduction(+ : nn, dr, di)
#endif
  for (std::size_t i = 0; i < 2 * n; i += 2) {
    xs[i] += (ar * phs[i] - ai * phs[i + 1]) + (wr * shs[i] - wi * shs[i + 1]);
    xs[i + 1] +=
        (ar * phs[i + 1] + ai * phs[i]) + (wr * shs[i + 1] + wi * shs[i]);
    const double rr = ss[i] - (wr * ts[i] - wi * ts[i + 1]);
    const double ri = ss[i + 1] - (wr * ts[i + 1] + wi * ts[i]);
    rs[i] = rr;
    rs[i + 1] = ri;
    nn += rr * rr + ri * ri;
    dr += hs[i] * rr + hs[i + 1] * ri;
    di += hs[i] * ri - hs[i + 1] * rr;
  }
  acc[0] += nn;
  acc[1] += dr;
  acc[2] += di;
}

/// Number of nonzero re/im components of n complex entries: exact, so
/// a count of zero means the entries are exactly zero.
inline double nonzeros_panel(std::size_t n, const cplx* x) {
  const double* xs = reinterpret_cast<const double*>(x);
  double acc = 0.0;
#ifdef _OPENMP
#pragma omp simd reduction(+ : acc)
#endif
  for (std::size_t i = 0; i < 2 * n; ++i) acc += xs[i] != 0.0 ? 1.0 : 0.0;
  return acc;
}

/// p = r + beta (p - w v).
inline void p_update_panel(std::size_t n, cplx beta, cplx w, const cplx* r,
                           const cplx* v, cplx* p) {
  const double br = beta.real(), bi = beta.imag(), wr = w.real(),
               wi = w.imag();
  const double* rs = reinterpret_cast<const double*>(r);
  const double* vs = reinterpret_cast<const double*>(v);
  double* ps = reinterpret_cast<double*>(p);
#ifdef _OPENMP
#pragma omp simd
#endif
  for (std::size_t i = 0; i < 2 * n; i += 2) {
    const double qr = ps[i] - (wr * vs[i] - wi * vs[i + 1]);
    const double qi = ps[i + 1] - (wr * vs[i + 1] + wi * vs[i]);
    ps[i] = rs[i] + (br * qr - bi * qi);
    ps[i + 1] = rs[i + 1] + (br * qi + bi * qr);
  }
}

/// One chunk-parallel pass over the rows of the listed columns.
/// `fn(offset, len, jj, acc)` handles `len` entries of column cols[jj]
/// at element `offset` and adds its `width` partial sums into acc. The
/// partials of each chunk are added in chunk order into
/// out[jj * width + w], so every sum is independent of the thread count.
class Sweeper {
 public:
  explicit Sweeper(const BlockLayout& lo) : lo_(lo), chunks_(lo) {}

  template <typename F>
  void operator()(std::span<const std::size_t> cols, std::size_t width,
                  double* out, F&& fn) {
    FFW_TRACE_SPAN("krylov.vector");
    const std::size_t w = cols.size() * width;
    part_.assign(chunks_.count * w, 0.0);
    chunks_.run([&](std::size_t k, std::size_t r0, std::size_t r1) {
      double* acc = part_.data() + k * w;
      for_panel_rows(lo_, r0, r1,
                     [&](std::size_t c, std::size_t i, std::size_t len) {
                       for (std::size_t jj = 0; jj < cols.size(); ++jj)
                         fn(lo_.at(c, cols[jj]) + i, len, jj,
                            acc + jj * width);
                     });
    });
    for (std::size_t q = 0; q < w; ++q) {
      double sum = 0.0;
      for (std::size_t k = 0; k < chunks_.count; ++k) sum += part_[k * w + q];
      out[q] = sum;
    }
  }

 private:
  BlockLayout lo_;
  BlockChunks chunks_;
  rvec part_;
};

}  // namespace

BlockBicgstabResult block_bicgstab(const BlockLinearOp& a, ccspan b, cspan x,
                                   const BlockLayout& lo,
                                   const BicgstabOptions& opts,
                                   const DotReducer& reduce,
                                   const PrecondContext& pc) {
  const std::size_t nrhs = lo.nrhs;
  const std::size_t total = lo.size();
  const std::size_t np = lo.panel;
  FFW_CHECK(b.size() == total && x.size() == total && nrhs >= 1);
  FFW_CHECK(!pc || (pc.lo.panel == lo.panel && pc.lo.nrhs == lo.nrhs &&
                    pc.lo.npanels == lo.npanels));

  BlockBicgstabResult res;
  res.rhs.resize(nrhs);

  // Every block vector of the recurrence comes from the thread's scratch
  // (linalg/scratch.hpp). Flexible right preconditioning: phat = M^{-1} p,
  // shat = M^{-1} s are computed block-wide (frozen columns are solved
  // too but never read — their alpha/omega updates are masked out
  // below). Without pc the spans alias p/s and the iteration is
  // bit-identical.
  ScratchFrame frame;
  const cspan r = frame.vec(total), rhat = frame.vec(total),
              p = frame.vec(total), v = frame.vec(total),
              s = frame.vec(total), t = frame.vec(total);
  const cspan phat_store = pc ? frame.vec(total) : cspan{};
  const cspan shat_store = pc ? frame.vec(total) : cspan{};
  std::vector<char> active(nrhs, 1);
  std::vector<double> bnorm(nrhs), scal_d(nrhs), sums(3 * nrhs);
  cvec rho(nrhs), alpha(nrhs), omega(nrhs), beta(nrhs), scal_c(2 * nrhs);
  std::vector<std::size_t> all(nrhs), cols;
  for (std::size_t j = 0; j < nrhs; ++j) all[j] = j;
  const auto refresh_cols = [&] {
    cols.clear();
    for (std::size_t j = 0; j < nrhs; ++j)
      if (active[j]) cols.push_back(j);
    return !cols.empty();
  };
  Sweeper sweep(lo);

  // ||b_r||^2 and the nonzero count of x0_r for every column in one
  // reduction, so the ranks of a distributed solve agree on a zero start.
  sweep(all, 2, sums.data(),
        [&](std::size_t o, std::size_t n, std::size_t, double* acc) {
          acc[0] += nrm2_panel(n, b.data() + o);
          acc[1] += nonzeros_panel(n, x.data() + o);
        });
  reduce.sum_double_vec(rspan{sums.data(), 2 * nrhs});
  bool zero_start = true;
  for (std::size_t j = 0; j < nrhs; ++j) {
    bnorm[j] = std::sqrt(sums[2 * j]);
    if (bnorm[j] == 0.0) {
      for (std::size_t c = 0; c < lo.npanels; ++c)
        std::fill_n(x.begin() + static_cast<std::ptrdiff_t>(lo.at(c, j)), np,
                    cplx{});
      res.rhs[j].converged = true;
      active[j] = 0;
    } else if (sums[2 * j + 1] != 0.0) {
      zero_start = false;
    }
  }

  // r = b - A x (one blocked matvec covers every column, A x held in v
  // until the loop's first matvec); rhat = p = r. A x is exactly zero
  // when every active x0 is, so that start makes no apply: r = b. s
  // starts at zero: the operator and M^{-1} see its frozen columns.
  if (!zero_start) {
    a(x, v);
    ++res.block_matvecs;
    for (std::size_t j = 0; j < nrhs; ++j)
      if (active[j]) ++res.rhs[j].matvecs;
  }
  sweep(all, 1, scal_d.data(),
        [&](std::size_t o, std::size_t n, std::size_t, double* acc) {
          for (std::size_t i = o; i < o + n; ++i) {
            r[i] = zero_start ? b[i] : b[i] - v[i];
            rhat[i] = r[i];
            p[i] = r[i];
            s[i] = cplx{};
          }
          acc[0] += nrm2_panel(n, r.data() + o);
        });

  // rho_r = <rhat_r, r_r> = ||r_r||^2 and ||r_r|| batched.
  for (std::size_t j = 0; j < nrhs; ++j) {
    if (!active[j]) scal_d[j] = 0.0;
    rho[j] = cplx{scal_d[j]};
  }
  reduce.sum_cplx_vec(cspan{rho});
  reduce.sum_double_vec(rspan{scal_d});
  for (std::size_t j = 0; j < nrhs; ++j) {
    if (!active[j]) continue;
    const double rnorm = std::sqrt(scal_d[j]);
    if (rnorm / bnorm[j] < opts.tol) {
      res.rhs[j].converged = true;
      res.rhs[j].relres = rnorm / bnorm[j];
      active[j] = 0;
    }
  }

  for (int it = 0; it < opts.max_iterations && refresh_cols(); ++it) {
    res.iterations = it + 1;
    obs::add(obs::Counter::kBicgstabIterations, 1);
    ccspan phat{p};
    if (pc) {
      pc(p, phat_store);
      phat = phat_store;
    }
    a(phat, v);
    ++res.block_matvecs;

    // alpha_r = rho_r / <rhat_r, v_r>, batched.
    sweep(cols, 2, sums.data(),
          [&](std::size_t o, std::size_t n, std::size_t, double* acc) {
            dot_panel(n, rhat.data() + o, v.data() + o, acc);
          });
    std::fill(scal_c.begin(), scal_c.begin() + nrhs, cplx{});
    for (std::size_t jj = 0; jj < cols.size(); ++jj)
      scal_c[cols[jj]] = cplx{sums[2 * jj], sums[2 * jj + 1]};
    reduce.sum_cplx_vec(cspan{scal_c.data(), nrhs});
    for (const std::size_t j : cols) {
      ++res.rhs[j].matvecs;
      FFW_CHECK_MSG(std::abs(scal_c[j]) > 0.0,
                    "block BiCGStab breakdown: <rhat, v> = 0");
      alpha[j] = rho[j] / scal_c[j];
      ++res.rhs[j].iterations;
    }

    // s = r - alpha v, and the half-step residual norms for the early
    // exit, in one pass.
    sweep(cols, 1, sums.data(),
          [&](std::size_t o, std::size_t n, std::size_t jj, double* acc) {
            acc[0] += s_update_panel(n, alpha[cols[jj]], r.data() + o,
                                     v.data() + o, s.data() + o);
          });
    std::fill(scal_d.begin(), scal_d.end(), 0.0);
    for (std::size_t jj = 0; jj < cols.size(); ++jj)
      scal_d[cols[jj]] = sums[jj];
    reduce.sum_double_vec(rspan{scal_d});
    std::vector<std::size_t> done;
    for (const std::size_t j : cols) {
      const double snorm = std::sqrt(scal_d[j]);
      if (snorm / bnorm[j] < opts.tol) {
        res.rhs[j].relres = snorm / bnorm[j];
        res.rhs[j].converged = true;
        active[j] = 0;
        done.push_back(j);
      }
    }
    if (!done.empty()) {  // x += alpha phat for the half-step exits
      sweep(done, 0, nullptr,
            [&](std::size_t o, std::size_t n, std::size_t jj, double*) {
              axpy(alpha[done[jj]], phat.subspan(o, n), x.subspan(o, n));
            });
    }
    if (!refresh_cols()) break;

    ccspan shat{s};
    if (pc) {
      pc(s, shat_store);
      shat = shat_store;
    }
    a(shat, t);
    ++res.block_matvecs;

    // omega_r = <t_r, s_r> / <t_r, t_r>, both dots in one reduction.
    sweep(cols, 3, sums.data(),
          [&](std::size_t o, std::size_t n, std::size_t, double* acc) {
            acc[0] += nrm2_panel(n, t.data() + o);
            dot_panel(n, t.data() + o, s.data() + o, acc + 1);
          });
    std::fill(scal_c.begin(), scal_c.end(), cplx{});
    for (std::size_t jj = 0; jj < cols.size(); ++jj) {
      scal_c[2 * cols[jj]] = cplx{sums[3 * jj]};
      scal_c[2 * cols[jj] + 1] = cplx{sums[3 * jj + 1], sums[3 * jj + 2]};
    }
    reduce.sum_cplx_vec(cspan{scal_c.data(), 2 * nrhs});
    for (const std::size_t j : cols) {
      ++res.rhs[j].matvecs;
      FFW_CHECK_MSG(std::abs(scal_c[2 * j]) > 0.0,
                    "block BiCGStab breakdown: ||t|| = 0");
      omega[j] = scal_c[2 * j + 1] / scal_c[2 * j];
    }

    // x += alpha phat + omega shat, r = s - omega t, with the full-step
    // residual norms and the next rho = <rhat, r> in the same pass.
    sweep(cols, 3, sums.data(),
          [&](std::size_t o, std::size_t n, std::size_t jj, double* acc) {
            const std::size_t j = cols[jj];
            xr_update_panel(n, alpha[j], omega[j], phat.data() + o,
                            shat.data() + o, s.data() + o, t.data() + o,
                            rhat.data() + o, x.data() + o, r.data() + o, acc);
          });
    std::fill(scal_d.begin(), scal_d.end(), 0.0);
    std::fill(scal_c.begin(), scal_c.begin() + nrhs, cplx{});
    for (std::size_t jj = 0; jj < cols.size(); ++jj) {
      scal_d[cols[jj]] = sums[3 * jj];
      scal_c[cols[jj]] = cplx{sums[3 * jj + 1], sums[3 * jj + 2]};
    }
    reduce.sum_double_vec(rspan{scal_d});
    for (const std::size_t j : cols) {
      res.rhs[j].relres = std::sqrt(scal_d[j]) / bnorm[j];
      if (res.rhs[j].relres < opts.tol) {
        res.rhs[j].converged = true;
        active[j] = 0;
        scal_c[j] = cplx{};
      }
    }

    // rho update + new search direction, batched.
    reduce.sum_cplx_vec(cspan{scal_c.data(), nrhs});
    if (!refresh_cols()) continue;
    for (const std::size_t j : cols) {
      const cplx rho_next = scal_c[j];
      FFW_CHECK_MSG(std::abs(rho_next) > 0.0,
                    "block BiCGStab breakdown: rho = 0");
      beta[j] = (rho_next / rho[j]) * (alpha[j] / omega[j]);
      rho[j] = rho_next;
    }
    sweep(cols, 0, nullptr,
          [&](std::size_t o, std::size_t n, std::size_t jj, double*) {
            const std::size_t j = cols[jj];
            p_update_panel(n, beta[j], omega[j], r.data() + o, v.data() + o,
                           p.data() + o);
          });
  }

  res.converged = true;
  for (std::size_t j = 0; j < nrhs; ++j)
    res.converged = res.converged && res.rhs[j].converged;
  obs::add(obs::Counter::kBicgstabTotalIters, res.total_iterations());
  return res;
}

}  // namespace ffw
