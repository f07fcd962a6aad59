#include "forward/cbs.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/timer.hpp"
#include "greens/greens.hpp"
#include "linalg/scratch.hpp"
#include "obs/obs.hpp"
#include "parallel/parallel_for.hpp"

namespace ffw {

struct CbsEngine::Fp32Pipeline {
  cvec32 mhat;  // narrowed shift spectrum
  cvec32 pad;   // padded panel scratch
};

CbsTables::CbsTables(const Grid& g, Precision prec) : grid(g), precision(prec) {
  Timer timer;
  FFW_TRACE_SPAN("cbs.kernel_fft", static_cast<std::int64_t>(grid.nx()));
  const std::size_t nx = static_cast<std::size_t>(grid.nx());
  // Zero padding to P >= 2 nx - 1 makes the circular convolution exact
  // over the domain; bit_ceil keeps every transform on the fast
  // power-of-two path (P = 2 nx for power-of-two nx).
  pad_n = std::bit_ceil(2 * nx - 1);
  const std::size_t p = pad_n;
  plan = std::make_unique<Fft2Plan<double>>(p, p);
  const double h = grid.h();
  const double k0 = grid.k0();
  const double sf = source_factor(grid);
  const cplx self = self_term(grid);
  g0hat.assign(p * p, cplx{});
  // Embed the Richmond kernel k(dx, dy) wrapped: negative offsets land
  // at the top of the padded grid, exactly the layout circular
  // convolution needs to reproduce the aperiodic product on the crop.
  const std::ptrdiff_t m = static_cast<std::ptrdiff_t>(nx) - 1;
  parallel_for(0, 2 * nx - 1, [&](std::size_t i) {
    const std::ptrdiff_t dy = static_cast<std::ptrdiff_t>(i) - m;
    const std::size_t row =
        static_cast<std::size_t>((dy + static_cast<std::ptrdiff_t>(p)) %
                                 static_cast<std::ptrdiff_t>(p)) *
        p;
    for (std::ptrdiff_t dx = -m; dx <= m; ++dx) {
      const std::size_t col = static_cast<std::size_t>(
          (dx + static_cast<std::ptrdiff_t>(p)) % static_cast<std::ptrdiff_t>(p));
      const double r = h * std::hypot(static_cast<double>(dx),
                                      static_cast<double>(dy));
      g0hat[row + col] = (dx == 0 && dy == 0) ? self : sf * g0_point(k0, r);
    }
  });
  plan->forward(g0hat);
  if (precision == Precision::kMixed) {
    plan32 = std::make_unique<Fft2Plan<float>>(p, p);
    g0hat32.resize(g0hat.size());
    for (std::size_t i = 0; i < g0hat.size(); ++i) {
      g0hat32[i] = narrow(g0hat[i]);
    }
  }
  build_seconds = timer.seconds();
}

CbsTables::~CbsTables() = default;

std::size_t CbsTables::bytes() const {
  return g0hat.size() * sizeof(cplx) + g0hat32.size() * sizeof(cplx32);
}

CbsEngine::CbsEngine(const Grid& grid, const CbsOptions& opts)
    : CbsEngine(std::make_shared<const CbsTables>(grid, opts.precision), opts) {}

CbsEngine::CbsEngine(std::shared_ptr<const CbsTables> tables,
                     const CbsOptions& opts)
    : tables_(std::move(tables)),
      grid_(tables_->grid),
      opts_(opts),
      n_(grid_.num_pixels()),
      pad_n_(tables_->pad_n) {
  if (opts_.precision == Precision::kMixed) {
    FFW_CHECK_MSG(tables_->plan32 != nullptr,
                  "kMixed CbsEngine requires CbsTables built with kMixed");
    fp32_ = std::make_unique<Fp32Pipeline>();
  }
}

CbsEngine::~CbsEngine() = default;

void CbsEngine::build_shift_symbol() {
  const std::size_t p = pad_n_;
  const double k0 = grid_.k0();
  const double dxi = 2.0 * pi / (static_cast<double>(p) * grid_.h());
  mhat_.resize(p * p);
  parallel_for(0, p, [&](std::size_t sy) {
    const double fy =
        dxi * static_cast<double>(sy <= p / 2 ? static_cast<std::ptrdiff_t>(sy)
                                              : static_cast<std::ptrdiff_t>(sy) -
                                                    static_cast<std::ptrdiff_t>(p));
    for (std::size_t sx = 0; sx < p; ++sx) {
      const double fx = dxi * static_cast<double>(
                                  sx <= p / 2
                                      ? static_cast<std::ptrdiff_t>(sx)
                                      : static_cast<std::ptrdiff_t>(sx) -
                                            static_cast<std::ptrdiff_t>(p));
      const double t = fx * fx + fy * fy - k0 * k0;
      // Symbol of I + i eps G_eps: |t / (t - i eps)| <= 1 with the lone
      // zero on the k0 shell — the attenuation that tames the series.
      mhat_[sy * p + sx] = t / cplx{t, -eps_};
    }
  });
  if (fp32_) {
    fp32_->mhat.resize(mhat_.size());
    for (std::size_t i = 0; i < mhat_.size(); ++i) {
      fp32_->mhat[i] = narrow(mhat_[i]);
    }
  }
}

void CbsEngine::set_contrast(ccspan contrast) {
  FFW_CHECK(contrast.size() == n_);
  contrast_nat_.assign(contrast.begin(), contrast.end());
  double omax = 0.0;
  for (const cplx& o : contrast_nat_) omax = std::max(omax, std::abs(o));
  omax_ = omax;
  const double k0 = grid_.k0();
  eps_ = std::max(opts_.eps_floor * k0 * k0, opts_.eps_factor * omax);
  gamma_.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    gamma_[i] = 1.0 + iu * contrast_nat_[i] / eps_;
  }
  build_shift_symbol();
}

void CbsEngine::convolve(ccspan x, cspan y, std::size_t nrhs,
                         const cvec& symbol, bool conjugate,
                         const cplx* premul) {
  const std::size_t nx = static_cast<std::size_t>(grid_.nx());
  const std::size_t p = pad_n_;
  const std::size_t pp = p * p;
  FFW_DCHECK(x.size() == n_ * nrhs && y.size() == n_ * nrhs);
  // Over-allocate so the panels can start on a 64-byte boundary: the
  // butterfly kernels use full-width vector loads and the default
  // 16-byte vector alignment makes every one cross a cache line.
  if (pad_.size() < pp * nrhs + 3) pad_.resize(pp * nrhs + 3);
  cplx* pad = pad_.data();
  pad += (64 - reinterpret_cast<std::uintptr_t>(pad) % 64) % 64 / sizeof(cplx);
  parallel_for(0, nrhs * p, [&](std::size_t i) {
    const std::size_t c = i / p, row = i % p;
    cplx* dst = pad + c * pp + row * p;
    if (row < nx) {
      const cplx* src = x.data() + c * n_ + row * nx;
      if (premul) {
        const cplx* o = premul + row * nx;
        for (std::size_t j = 0; j < nx; ++j) {
          const double ar = src[j].real(), ai = src[j].imag();
          const double br = o[j].real(), bi = o[j].imag();
          dst[j] = {ar * br - ai * bi, ar * bi + ai * br};
        }
      } else {
        std::copy(src, src + nx, dst);
      }
      std::fill(dst + nx, dst + p, cplx{});
    } else {
      std::fill(dst, dst + p, cplx{});
    }
  });
  {
    FFW_TRACE_SPAN("cbs.fft", static_cast<std::int64_t>(nrhs),
                   obs::Counter::kFftNs);
    // Rows >= nx of each padded panel are zero-filled above: prune them.
    tables_->plan->forward_top(std::span<cplx>{pad, pp * nrhs}, nrhs, nx);
  }
  const cplx* sym = symbol.data();
  parallel_for(0, nrhs * p, [&](std::size_t i) {
    const std::size_t c = i / p, row = i % p;
    cplx* line = pad + c * pp + row * p;
    const cplx* s = sym + row * p;
    // Explicit real arithmetic: keeps __muldc3 out of the hot loop.
    if (conjugate) {
      for (std::size_t j = 0; j < p; ++j) {
        const double ar = line[j].real(), ai = line[j].imag();
        const double br = s[j].real(), bi = -s[j].imag();
        line[j] = {ar * br - ai * bi, ar * bi + ai * br};
      }
    } else {
      for (std::size_t j = 0; j < p; ++j) {
        const double ar = line[j].real(), ai = line[j].imag();
        const double br = s[j].real(), bi = s[j].imag();
        line[j] = {ar * br - ai * bi, ar * bi + ai * br};
      }
    }
  });
  {
    FFW_TRACE_SPAN("cbs.fft", static_cast<std::int64_t>(nrhs),
                   obs::Counter::kFftNs);
    // Only the nx-row crop below is read: prune the inverse row pass.
    tables_->plan->inverse_top(std::span<cplx>{pad, pp * nrhs}, nrhs, nx);
  }
  parallel_for(0, nrhs * nx, [&](std::size_t i) {
    const std::size_t c = i / nx, row = i % nx;
    const cplx* src = pad + c * pp + row * p;
    std::copy(src, src + nx, y.data() + c * n_ + row * nx);
  });
}

void CbsEngine::convolve32(ccspan x, cspan y, std::size_t nrhs,
                           const cvec32& symbol, bool conjugate,
                           const cplx* premul) {
  const std::size_t nx = static_cast<std::size_t>(grid_.nx());
  const std::size_t p = pad_n_;
  const std::size_t pp = p * p;
  FFW_DCHECK(x.size() == n_ * nrhs && y.size() == n_ * nrhs);
  if (fp32_->pad.size() < pp * nrhs + 7) fp32_->pad.resize(pp * nrhs + 7);
  cplx32* pad = fp32_->pad.data();
  pad += (64 - reinterpret_cast<std::uintptr_t>(pad) % 64) % 64 / sizeof(cplx32);
  parallel_for(0, nrhs * p, [&](std::size_t i) {
    const std::size_t c = i / p, row = i % p;
    cplx32* dst = pad + c * pp + row * p;
    if (row < nx) {
      const cplx* src = x.data() + c * n_ + row * nx;
      if (premul) {
        const cplx* o = premul + row * nx;
        for (std::size_t j = 0; j < nx; ++j) {
          const double ar = src[j].real(), ai = src[j].imag();
          const double br = o[j].real(), bi = o[j].imag();
          dst[j] = {static_cast<float>(ar * br - ai * bi),
                    static_cast<float>(ar * bi + ai * br)};
        }
      } else {
        for (std::size_t j = 0; j < nx; ++j) dst[j] = narrow(src[j]);
      }
      std::fill(dst + nx, dst + p, cplx32{});
    } else {
      std::fill(dst, dst + p, cplx32{});
    }
  });
  {
    FFW_TRACE_SPAN("cbs.fft", static_cast<std::int64_t>(nrhs),
                   obs::Counter::kFftNs);
    tables_->plan32->forward_top(std::span<cplx32>{pad, pp * nrhs}, nrhs, nx);
  }
  const cplx32* sym = symbol.data();
  parallel_for(0, nrhs * p, [&](std::size_t i) {
    const std::size_t c = i / p, row = i % p;
    cplx32* line = pad + c * pp + row * p;
    const cplx32* s = sym + row * p;
    if (conjugate) {
      for (std::size_t j = 0; j < p; ++j) {
        const float ar = line[j].real(), ai = line[j].imag();
        const float br = s[j].real(), bi = -s[j].imag();
        line[j] = {ar * br - ai * bi, ar * bi + ai * br};
      }
    } else {
      for (std::size_t j = 0; j < p; ++j) {
        const float ar = line[j].real(), ai = line[j].imag();
        const float br = s[j].real(), bi = s[j].imag();
        line[j] = {ar * br - ai * bi, ar * bi + ai * br};
      }
    }
  });
  {
    FFW_TRACE_SPAN("cbs.fft", static_cast<std::int64_t>(nrhs),
                   obs::Counter::kFftNs);
    tables_->plan32->inverse_top(std::span<cplx32>{pad, pp * nrhs}, nrhs, nx);
  }
  parallel_for(0, nrhs * nx, [&](std::size_t i) {
    const std::size_t c = i / nx, row = i % nx;
    const cplx32* src = pad + c * pp + row * p;
    cplx* dst = y.data() + c * n_ + row * nx;
    for (std::size_t j = 0; j < nx; ++j) dst[j] = widen(src[j]);
  });
}

void CbsEngine::convolve_fast(ccspan x, cspan y, std::size_t nrhs, bool green,
                              bool conjugate, const cplx* premul) {
  if (fp32_) {
    convolve32(x, y, nrhs, green ? tables_->g0hat32 : fp32_->mhat, conjugate,
               premul);
  } else {
    convolve(x, y, nrhs, green ? tables_->g0hat : mhat_, conjugate, premul);
  }
}

void CbsEngine::apply_g0_panel(ccspan x, cspan y, std::size_t nrhs) {
  convolve(x, y, nrhs, tables_->g0hat, /*conjugate=*/false);
}

void CbsEngine::apply_g0_herm_panel(ccspan x, cspan y, std::size_t nrhs) {
  convolve(x, y, nrhs, tables_->g0hat, /*conjugate=*/true);
}

void CbsEngine::apply_system_panel(ccspan x, cspan y, std::size_t nrhs,
                                   bool adjoint) {
  FFW_CHECK_MSG(contrast_nat_.size() == n_, "set_contrast before apply");
  FFW_CHECK(x.size() == n_ * nrhs && y.size() == n_ * nrhs);
  const cplx* o = contrast_nat_.data();
  if (!adjoint) {
    convolve(x, y, nrhs, tables_->g0hat, /*conjugate=*/false, /*premul=*/o);
    parallel_for(0, nrhs, [&](std::size_t c) {
      for (std::size_t i = 0; i < n_; ++i) {
        y[c * n_ + i] = x[c * n_ + i] - y[c * n_ + i];
      }
    });
  } else {
    // y = G0^H x, then y = x - conj(O) .* y in place.
    convolve(x, y, nrhs, tables_->g0hat, /*conjugate=*/true);
    parallel_for(0, nrhs, [&](std::size_t c) {
      for (std::size_t i = 0; i < n_; ++i) {
        y[c * n_ + i] = x[c * n_ + i] - std::conj(o[i]) * y[c * n_ + i];
      }
    });
  }
}

void CbsEngine::true_residual(ccspan rhs, ccspan x, cspan r, std::size_t nrhs,
                              bool adjoint) {
  apply_system_panel(x, r, nrhs, adjoint);
  parallel_for(0, nrhs, [&](std::size_t c) {
    for (std::size_t i = 0; i < n_; ++i) {
      r[c * n_ + i] = rhs[c * n_ + i] - r[c * n_ + i];
    }
  });
  stats_.operator_applications += nrhs;
}

bool CbsEngine::solve_panel(ccspan rhs, cspan phi, std::size_t nrhs,
                            double tol) {
  return solve_impl(rhs, phi, nrhs, tol, /*adjoint=*/false);
}

bool CbsEngine::solve_adjoint_panel(ccspan rhs, cspan psi, std::size_t nrhs,
                                    double tol) {
  return solve_impl(rhs, psi, nrhs, tol, /*adjoint=*/true);
}

bool CbsEngine::solve_impl(ccspan rhs, cspan x, std::size_t nrhs, double tol,
                           bool adjoint) {
  FFW_CHECK_MSG(contrast_nat_.size() == n_, "set_contrast before solve");
  FFW_CHECK(rhs.size() == n_ * nrhs && x.size() == n_ * nrhs);
  FFW_TRACE_SPAN("cbs.solve", static_cast<std::int64_t>(nrhs));
  const double target = tol > 0.0 ? tol : opts_.tol;
  const bool mixed = fp32_ != nullptr;

  std::vector<double> bnorm(nrhs, 0.0), rel(nrhs, 0.0);
  parallel_for(0, nrhs, [&](std::size_t c) {
    double s = 0.0;
    for (std::size_t i = 0; i < n_; ++i) s += std::norm(rhs[c * n_ + i]);
    bnorm[c] = std::sqrt(s);
  });

  // The solve's panels come from the thread's scratch: the same set
  // whichever mode the solve ends in, so a solve that switches the
  // preconditioner on mid-run takes no new storage. The plain forward
  // mode runs out of r and w alone; d (preconditioned search direction)
  // and t1 (adjoint scratch) are written only on the paths that use them.
  ScratchFrame frame;
  const cspan r = frame.vec(n_ * nrhs), w = frame.vec(n_ * nrhs),
              d = frame.vec(n_ * nrhs);
  const cspan t1 = adjoint ? frame.vec(n_ * nrhs) : cspan{};

  auto column_residuals = [&]() {
    parallel_for(0, nrhs, [&](std::size_t c) {
      double s = 0.0;
      for (std::size_t i = 0; i < n_; ++i) s += std::norm(r[c * n_ + i]);
      rel[c] = bnorm[c] > 0.0 ? std::sqrt(s) / bnorm[c] : 0.0;
    });
    double m = 0.0;
    for (std::size_t c = 0; c < nrhs; ++c) m = std::max(m, rel[c]);
    return m;
  };

  // Warm starts ride in through x; the fp64 residual anchors the
  // iteration to the exact discrete system from the first step. The
  // common cold start (x = 0) skips that A-apply: r is exactly rhs and
  // every active column starts at relative residual 1.
  bool xzero = true;
  for (const cplx& v : x) {
    if (v.real() != 0.0 || v.imag() != 0.0) {
      xzero = false;
      break;
    }
  }
  double rel_max;
  if (xzero) {
    std::copy(rhs.begin(), rhs.end(), r.begin());
    rel_max = 0.0;
    for (std::size_t c = 0; c < nrhs; ++c) {
      rel[c] = bnorm[c] > 0.0 ? 1.0 : 0.0;
      rel_max = std::max(rel_max, rel[c]);
    }
  } else {
    true_residual(rhs, x, r, nrhs, adjoint);
    rel_max = column_residuals();
  }
  std::vector<double> history;
  history.reserve(opts_.max_iterations + 1);
  history.push_back(std::max(rel_max, 1e-300));

  const cplx* o = contrast_nat_.data();
  const cplx* g = gamma_.data();
  bool converged = rel_max <= target;
  double rate = 1.0;
  std::size_t it = 0;
  // The shifted preconditioner's Ewald-shell damping caps its rate near
  // 0.4 no matter how weak the contrast is, and M costs a second FFT
  // round trip per iteration — so below the contrast gate run plain
  // Born-Orthomin (M = I, half the work, far fewer iterations). If the
  // plain series stalls against the watchdog, switch the preconditioner
  // on mid-solve instead of failing.
  const double k0 = grid_.k0();
  bool precond = omax_ > opts_.precond_threshold * k0 * k0;
  std::size_t mode_anchor = 0;  // iteration of the last mode switch

  while (!converged && it < opts_.max_iterations) {
    ++it;
    obs::add(obs::Counter::kCbsIterations, 1);
    // d = M r (forward: gamma .* conv_mhat r; adjoint: the Hermitian
    // transpose conv_conj(mhat) applied after the conj(gamma) diagonal,
    // run in place through d). Plain mode: M = I, so the search
    // direction aliases r directly — no copy, no second round trip.
    if (precond) {
      if (!adjoint) {
        convolve_fast(r, d, nrhs, /*green=*/false, /*conjugate=*/false);
        parallel_for(0, nrhs, [&](std::size_t c) {
          for (std::size_t i = 0; i < n_; ++i) d[c * n_ + i] *= g[i];
        });
      } else {
        parallel_for(0, nrhs, [&](std::size_t c) {
          for (std::size_t i = 0; i < n_; ++i) {
            d[c * n_ + i] = std::conj(g[i]) * r[c * n_ + i];
          }
        });
        convolve_fast(d, d, nrhs, /*green=*/false, /*conjugate=*/true);
      }
    }
    const cplx* dv = precond ? d.data() : r.data();
    // w = A d (or A^H d), with the diag(O) premultiply folded into the
    // convolution's zero-padding pack (forward) and the trailing
    // subtraction fused into the Orthomin epilogue below.
    if (!adjoint) {
      convolve_fast(ccspan{dv, n_ * nrhs}, w, nrhs, /*green=*/true,
                    /*conjugate=*/false, /*premul=*/o);
    } else {
      convolve_fast(ccspan{dv, n_ * nrhs}, t1, nrhs, /*green=*/true,
                    /*conjugate=*/true);
    }
    stats_.operator_applications += (precond ? 2 : 1) * nrhs;
    // Per-column epilogue, two fused passes: finish w = d - G0 O d while
    // accumulating the Orthomin(1) dots <w,r> and <w,w>, then the axpy
    // x += alpha d, r -= alpha w with the residual norm folded in.
    // Converged columns freeze (skipped entirely). In plain mode d
    // aliases r, so each axpy element reads d[i] (= old r[i]) before the
    // residual update overwrites it. Explicit real arithmetic keeps
    // __muldc3 out of the loops.
    parallel_for(0, nrhs, [&](std::size_t c) {
      if (rel[c] <= target) return;
      const cplx* dc = dv + c * n_;
      cplx* wc = w.data() + c * n_;
      cplx* rc = r.data() + c * n_;
      cplx* xc = x.data() + c * n_;
      const cplx* tc = adjoint ? t1.data() + c * n_ : nullptr;
      double nre = 0.0, nim = 0.0, den = 0.0;
      if (!adjoint) {
        for (std::size_t i = 0; i < n_; ++i) {
          const double wr = dc[i].real() - wc[i].real();
          const double wi = dc[i].imag() - wc[i].imag();
          wc[i] = {wr, wi};
          const double rr = rc[i].real(), ri = rc[i].imag();
          nre += wr * rr + wi * ri;  // Re <w, r>
          nim += wr * ri - wi * rr;  // Im <w, r>
          den += wr * wr + wi * wi;
        }
      } else {
        for (std::size_t i = 0; i < n_; ++i) {
          const double or_ = o[i].real(), oi = o[i].imag();
          const double tr = tc[i].real(), ti = tc[i].imag();
          const double wr = dc[i].real() - (or_ * tr + oi * ti);
          const double wi = dc[i].imag() - (or_ * ti - oi * tr);
          wc[i] = {wr, wi};
          const double rr = rc[i].real(), ri = rc[i].imag();
          nre += wr * rr + wi * ri;
          nim += wr * ri - wi * rr;
          den += wr * wr + wi * wi;
        }
      }
      // Orthomin(1) alpha = <w,r>/<w,w> (monotone), or the classic unit
      // CBS step.
      double ar = 1.0, ai = 0.0;
      if (opts_.minimal_residual) {
        ar = den > 0.0 ? nre / den : 0.0;
        ai = den > 0.0 ? nim / den : 0.0;
      }
      double s = 0.0;
      for (std::size_t i = 0; i < n_; ++i) {
        const double dr = dc[i].real(), di = dc[i].imag();
        xc[i] = {xc[i].real() + ar * dr - ai * di,
                 xc[i].imag() + ar * di + ai * dr};
        const double wr = wc[i].real(), wi = wc[i].imag();
        const double rr = rc[i].real() - (ar * wr - ai * wi);
        const double ri = rc[i].imag() - (ar * wi + ai * wr);
        rc[i] = {rr, ri};
        s += rr * rr + ri * ri;
      }
      rel[c] = bnorm[c] > 0.0 ? std::sqrt(s) / bnorm[c] : 0.0;
    });
    // Mixed precision: the fp32 pipeline drifts the incremental residual;
    // periodically re-anchor to the fp64 truth.
    if (mixed && it % opts_.fp64_refresh == 0) {
      true_residual(rhs, x, r, nrhs, adjoint);
      rel_max = column_residuals();
    } else {
      rel_max = 0.0;
      for (std::size_t c = 0; c < nrhs; ++c) rel_max = std::max(rel_max, rel[c]);
    }
    history.push_back(std::max(rel_max, 1e-300));
    if (rel_max <= target) {
      if (mixed && it % opts_.fp64_refresh != 0) {
        // Verify apparent convergence against the fp64 operator before
        // declaring victory.
        true_residual(rhs, x, r, nrhs, adjoint);
        rel_max = column_residuals();
        history.back() = std::max(rel_max, 1e-300);
        if (rel_max > target) continue;
      }
      converged = true;
      break;
    }
    if (it >= mode_anchor + opts_.rate_window) {
      rate = std::pow(history[it] / history[it - opts_.rate_window],
                      1.0 / static_cast<double>(opts_.rate_window));
      if (rate > opts_.divergence_rate) {
        // Plain Born stalled: engage the shifted preconditioner and give
        // it a fresh watchdog window before judging again.
        if (!precond) {
          precond = true;
          mode_anchor = it;
          continue;
        }
        // Stalled or diverging with the preconditioner on: hand the
        // panel back (kAuto escalates to MLFMA; a direct caller sees
        // the failure).
        break;
      }
    }
  }

  // Reported rate spans the trailing window, or the whole (short) run —
  // a solve that converged in two iterations has an excellent rate, not
  // an unknown one (kAuto escalates on this number).
  if (it > 0) {
    const std::size_t win = std::min(it, opts_.rate_window);
    rate = std::pow(history[it] / history[it - win],
                    1.0 / static_cast<double>(win));
  } else {
    rate = 0.0;
  }
  info_ = {converged, it, rel_max, rate, precond};
  stats_.solves += nrhs;
  stats_.bicgs_iterations += it;
  for (std::size_t c = 0; c < nrhs; ++c) {
    stats_.per_solve_iterations.push_back(
        static_cast<std::uint16_t>(std::min<std::size_t>(it, 0xffff)));
  }
  return converged;
}

}  // namespace ffw
