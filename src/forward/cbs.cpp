#include "forward/cbs.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/check.hpp"
#include "common/timer.hpp"
#include "forward/refined.hpp"
#include "greens/greens.hpp"
#include "linalg/scratch.hpp"
#include "obs/obs.hpp"
#include "parallel/parallel_for.hpp"

namespace ffw {

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
  // The kernel is built in a panel at the plan's row pitch, transformed,
  // and stored dense (P x P).
  const std::size_t ld = plan->pitch();
  cvec kernel(p * ld, cplx{});
  // Embed the Richmond kernel k(dx, dy) wrapped: negative offsets land
  // at the top of the padded grid, exactly the layout circular
  // convolution needs to reproduce the aperiodic product on the crop.
  const std::ptrdiff_t m = static_cast<std::ptrdiff_t>(nx) - 1;
  parallel_for(0, 2 * nx - 1, [&](std::size_t i) {
    const std::ptrdiff_t dy = static_cast<std::ptrdiff_t>(i) - m;
    const std::size_t row =
        static_cast<std::size_t>((dy + static_cast<std::ptrdiff_t>(p)) %
                                 static_cast<std::ptrdiff_t>(p)) *
        ld;
    for (std::ptrdiff_t dx = -m; dx <= m; ++dx) {
      const std::size_t col = static_cast<std::size_t>(
          (dx + static_cast<std::ptrdiff_t>(p)) % static_cast<std::ptrdiff_t>(p));
      const double r = h * std::hypot(static_cast<double>(dx),
                                      static_cast<double>(dy));
      kernel[row + col] = (dx == 0 && dy == 0) ? self : sf * g0_point(k0, r);
    }
  });
  // Transform order with the inverse's 1/P^2 folded in (a power of two,
  // so the scale is exact): convolve multiplies spectra as they leave
  // forward_dif and feeds the product straight to inverse_dit.
  plan->forward_dif(kernel.data(), p, p);
  const double scale = 1.0 / static_cast<double>(p * p);
  g0hat.resize(p * p);
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t j = 0; j < p; ++j) {
      g0hat[i * p + j] = kernel[i * ld + j] * scale;
    }
  }
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
  FFW_CHECK_MSG(opts_.precision == Precision::kDouble ||
                    tables_->plan32 != nullptr,
                "kMixed CbsEngine requires CbsTables built with kMixed");
}

CbsEngine::~CbsEngine() = default;

void CbsEngine::set_contrast(ccspan contrast) {
  FFW_CHECK(contrast.size() == n_);
  contrast_nat_.assign(contrast.begin(), contrast.end());
}

template <typename T>
void CbsEngine::convolve(ccspan x, cspan y, std::size_t nrhs, bool adjoint,
                         bool system) {
  using C = std::complex<T>;
  const Fft2Plan<T>* plan;
  const std::vector<C>* symbol;
  if constexpr (std::is_same_v<T, float>) {
    plan = tables_->plan32.get();
    symbol = &tables_->g0hat32;
  } else {
    plan = tables_->plan.get();
    symbol = &tables_->g0hat;
  }
  const std::size_t nx = static_cast<std::size_t>(grid_.nx());
  const std::size_t p = pad_n_;
  const std::size_t ld = plan->pitch();  // panel row pitch, >= P
  const std::size_t panel = p * ld;
  FFW_DCHECK(x.size() == n_ * nrhs && y.size() == n_ * nrhs);
  const cplx* o = contrast_nat_.data();
  // Explicit real arithmetic below keeps __muldc3 out of the loops.
  const T sign = adjoint ? T(-1) : T(1);  // conj(symbol) for the adjoint
  // One padded panel per thread; a column runs pack -> forward ->
  // symbol -> inverse -> crop on its thread, so its bits depend neither
  // on the thread count nor on its position in the panel.
  const std::size_t slots =
      std::min(nrhs, static_cast<std::size_t>(num_threads()));
  ScratchFrame frame;
  const std::span<C> pads = frame.take<C>(panel * slots);
  FFW_TRACE_SPAN("cbs.convolve", static_cast<std::int64_t>(nrhs),
                 obs::Counter::kFftNs);
  parallel_for(0, nrhs, [&](std::size_t col) {
    FFW_DCHECK(static_cast<std::size_t>(thread_rank()) < slots);
    C* pad = pads.data() + static_cast<std::size_t>(thread_rank()) * panel;
    const cplx* xs = x.data() + col * n_;
    cplx* ys = y.data() + col * n_;
    // Pack the nx x nx block; forward_dif takes the rest as zero.
    for (std::size_t row = 0; row < nx; ++row) {
      const cplx* src = xs + row * nx;
      C* dst = pad + row * ld;
      if (system && !adjoint) {
        const cplx* orow = o + row * nx;
        for (std::size_t j = 0; j < nx; ++j) {
          const double ar = src[j].real(), ai = src[j].imag();
          const double br = orow[j].real(), bi = orow[j].imag();
          dst[j] = {static_cast<T>(ar * br - ai * bi),
                    static_cast<T>(ar * bi + ai * br)};
        }
      } else {
        for (std::size_t j = 0; j < nx; ++j) dst[j] = to_scalar<T>(src[j]);
      }
    }
    plan->forward_dif(pad, nx, nx);
    // Both spectra are in transform order and the symbol carries the
    // 1/P^2 of the inverse.
    for (std::size_t row = 0; row < p; ++row) {
      C* f = pad + row * ld;
      const C* s = symbol->data() + row * p;
      for (std::size_t j = 0; j < p; ++j) {
        const T ar = f[j].real(), ai = f[j].imag();
        const T br = s[j].real(), bi = sign * s[j].imag();
        f[j] = {ar * br - ai * bi, ar * bi + ai * br};
      }
    }
    plan->inverse_dit(pad, nx, nx);
    for (std::size_t row = 0; row < nx; ++row) {
      const C* g = pad + row * ld;
      const cplx* xr = xs + row * nx;
      cplx* dst = ys + row * nx;
      if (!system) {
        for (std::size_t j = 0; j < nx; ++j) {
          dst[j] = {g[j].real(), g[j].imag()};
        }
      } else if (!adjoint) {
        for (std::size_t j = 0; j < nx; ++j) {
          dst[j] = {xr[j].real() - g[j].real(), xr[j].imag() - g[j].imag()};
        }
      } else {
        const cplx* orow = o + row * nx;
        for (std::size_t j = 0; j < nx; ++j) {
          const double gr = g[j].real(), gi = g[j].imag();
          const double br = orow[j].real(), bi = orow[j].imag();
          dst[j] = {xr[j].real() - (br * gr + bi * gi),
                    xr[j].imag() - (br * gi - bi * gr)};
        }
      }
    }
  });
}

void CbsEngine::apply_g0_panel(ccspan x, cspan y, std::size_t nrhs) {
  convolve<double>(x, y, nrhs, /*adjoint=*/false, /*system=*/false);
}

void CbsEngine::apply_g0_herm_panel(ccspan x, cspan y, std::size_t nrhs) {
  convolve<double>(x, y, nrhs, /*adjoint=*/true, /*system=*/false);
}

void CbsEngine::apply_system_panel(ccspan x, cspan y, std::size_t nrhs,
                                   bool adjoint) {
  FFW_CHECK_MSG(contrast_nat_.size() == n_, "set_contrast before apply");
  FFW_CHECK(x.size() == n_ * nrhs && y.size() == n_ * nrhs);
  convolve<double>(x, y, nrhs, adjoint, /*system=*/true);
}

bool CbsEngine::solve_panel(ccspan rhs, cspan phi, std::size_t nrhs,
                            double tol) {
  return solve(rhs, phi, nrhs, tol, /*adjoint=*/false);
}

bool CbsEngine::solve_adjoint_panel(ccspan rhs, cspan psi, std::size_t nrhs,
                                    double tol) {
  return solve(rhs, psi, nrhs, tol, /*adjoint=*/true);
}

bool CbsEngine::solve(ccspan rhs, cspan x, std::size_t nrhs, double tol,
                      bool adjoint) {
  FFW_CHECK_MSG(contrast_nat_.size() == n_, "set_contrast before solve");
  FFW_CHECK(rhs.size() == n_ * nrhs && x.size() == n_ * nrhs);
  FFW_TRACE_SPAN("cbs.solve", static_cast<std::int64_t>(nrhs));
  const BlockLayout lo{n_, nrhs, 1};
  std::uint64_t applies = 0;
  const BlockLinearOp a64 = [&](ccspan in, cspan out) {
    ++applies;
    convolve<double>(in, out, nrhs, adjoint, /*system=*/true);
  };
  const BlockLinearOp a32 = [&](ccspan in, cspan out) {
    ++applies;
    convolve<float>(in, out, nrhs, adjoint, /*system=*/true);
  };
  const BicgstabOptions bo{tol > 0.0 ? tol : opts_.tol,
                           static_cast<int>(opts_.max_iterations)};
  if (opts_.precision == Precision::kMixed) {
    // The defaults ForwardSolver refines with (the inner tolerance never
    // tighter than the outer one), capped at max_iterations.
    RefinedOptions ro;
    ro.tol = bo.tol;
    ro.inner.tol = std::max(ro.inner.tol, bo.tol);
    ro.inner.max_iterations =
        std::min(ro.inner.max_iterations, bo.max_iterations);
    ro.fallback_max_iterations = bo.max_iterations;
    const RefinedResult res = refined_block_bicgstab(a64, a32, rhs, x, lo, ro);
    info_ = {res.converged, static_cast<std::size_t>(res.block_iterations),
             res.relres};
    stats_.bicgs_iterations += res.inner_iterations + res.fallback_iterations;
  } else {
    const BlockBicgstabResult res = block_bicgstab(a64, rhs, x, lo, bo);
    info_ = {res.converged, static_cast<std::size_t>(res.iterations), 0.0};
    for (const BicgstabResult& col : res.rhs) {
      info_.final_residual = std::max(info_.final_residual, col.relres);
      stats_.per_solve_iterations.push_back(
          static_cast<std::uint16_t>(col.iterations));
    }
    stats_.bicgs_iterations += res.total_iterations();
  }
  obs::add(obs::Counter::kCbsIterations, info_.iterations);
  stats_.solves += nrhs;
  stats_.operator_applications += applies * nrhs;
  return info_.converged;
}

}  // namespace ffw
