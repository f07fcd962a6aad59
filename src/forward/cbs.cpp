#include "forward/cbs.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/check.hpp"
#include "common/timer.hpp"
#include "greens/greens.hpp"
#include "linalg/scratch.hpp"
#include "linalg/simd.hpp"
#include "obs/obs.hpp"
#include "parallel/parallel_for.hpp"

namespace ffw {

namespace {

/// Calls f(V{}, i) at the scalar offsets i of n interleaved complex
/// doubles: whole vectors V = simd::Vec<double>, then one complex value
/// at a time (V a 16-byte vector).
template <typename F>
inline void for_each_vector(std::size_t n, F&& f) {
  typedef double Cx __attribute__((vector_size(16)));
  constexpr std::size_t kC = simd::kLanes<double> / 2;
  std::size_t j = 0;
  for (; j + kC <= n; j += kC) f(simd::Vec<double>{}, 2 * j);
  for (; j < n; ++j) f(Cx{}, 2 * j);
}

/// v with its lanes converted to storage precision T (v for double).
template <typename T, typename V>
inline auto lanes_as(V v) {
  if constexpr (std::is_same_v<T, double>) {
    return v;
  } else {
    typedef float F __attribute__((vector_size(sizeof(V) / 2)));
    return __builtin_convertvector(v, F);
  }
}

}  // namespace

CbsTables::CbsTables(const Grid& g) : grid(g) {
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
  // so the scale is exact): Fft2Plan::convolve multiplies it into the
  // spectra between its forward and inverse sweeps.
  plan->forward_dif(kernel.data(), p, p);
  const double scale = 1.0 / static_cast<double>(p * p);
  g0hat.resize(p * p);
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t j = 0; j < p; ++j) {
      g0hat[i * p + j] = kernel[i * ld + j] * scale;
    }
  }
  plan32 = std::make_unique<Fft2Plan<float>>(p, p);
  g0hat32.resize(g0hat.size());
  for (std::size_t i = 0; i < g0hat.size(); ++i) {
    g0hat32[i] = narrow(g0hat[i]);
  }
  build_seconds = timer.seconds();
}

CbsTables::~CbsTables() = default;

std::size_t CbsTables::bytes() const {
  return g0hat.size() * sizeof(cplx) + g0hat32.size() * sizeof(cplx32);
}

CbsEngine::CbsEngine(const Grid& grid, const BicgstabOptions& opts)
    : CbsEngine(std::make_shared<const CbsTables>(grid), opts) {}

CbsEngine::CbsEngine(std::shared_ptr<const CbsTables> tables,
                     const BicgstabOptions& opts)
    : tables_(std::move(tables)),
      grid_(tables_->grid),
      opts_(opts),
      n_(grid_.num_pixels()),
      pad_n_(tables_->pad_n) {}

CbsEngine::~CbsEngine() = default;

void CbsEngine::set_contrast(ccspan contrast) {
  FFW_CHECK(contrast.size() == n_);
  contrast_nat_.assign(contrast.begin(), contrast.end());
}

template <typename T>
void CbsEngine::convolve(ccspan x, cspan y, std::size_t nrhs, bool adjoint) {
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
  const std::size_t panel = pad_n_ * plan->pitch();  // row pitch >= P
  FFW_DCHECK(x.size() == n_ * nrhs && y.size() == n_ * nrhs);
  const cplx* o = contrast_nat_.data();
  // One padded panel per thread; a column runs its whole convolution on
  // its thread, so its bits depend neither on the thread count nor on
  // its position in the panel.
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
    auto pack = [&](std::size_t row, C* dst) {
      const double* src = reinterpret_cast<const double*>(xs + row * nx);
      const double* orow = reinterpret_cast<const double*>(o + row * nx);
      T* d = reinterpret_cast<T*>(dst);
      for_each_vector(nx, [&](auto v, std::size_t i) {
        using V = decltype(v);
        V a = simd::load<V>(src + i);
        if (!adjoint) a = simd::cmul<false>(a, simd::load<V>(orow + i));
        simd::store(d + i, lanes_as<T>(a));
      });
    };
    // Every row is packed before the first is cropped, so y may alias x.
    auto crop = [&](std::size_t row, const C* g) {
      const double* xr = reinterpret_cast<const double*>(xs + row * nx);
      const double* orow = reinterpret_cast<const double*>(o + row * nx);
      const T* gs = reinterpret_cast<const T*>(g);
      double* dst = reinterpret_cast<double*>(ys + row * nx);
      for_each_vector(nx, [&](auto v, std::size_t i) {
        using V = decltype(v);
        using F = decltype(lanes_as<T>(V{}));
        const V gv = __builtin_convertvector(simd::load<F>(gs + i), V);
        if (!adjoint) {
          simd::store(dst + i, simd::load<V>(xr + i) - gv);
        } else {
          const V og = simd::cmul<true>(simd::load<V>(orow + i), gv);
          simd::store(dst + i, simd::load<V>(xr + i) - og);
        }
      });
    };
    // The symbol carries the 1/P^2 of the inverse; the adjoint takes its
    // conjugate.
    plan->convolve(pad, nx, nx, symbol->data(), adjoint, pack, crop);
  });
}

void CbsEngine::apply_system(ccspan x, cspan y, std::size_t nrhs,
                             bool adjoint) {
  FFW_CHECK_MSG(contrast_nat_.size() == n_, "set_contrast before apply");
  FFW_CHECK(x.size() == n_ * nrhs && y.size() == n_ * nrhs);
  convolve<double>(x, y, nrhs, adjoint);
}

bool CbsEngine::solve(ccspan rhs, cspan x, std::size_t nrhs, double tol,
                      bool adjoint) {
  FFW_CHECK_MSG(contrast_nat_.size() == n_, "set_contrast before solve");
  FFW_CHECK(rhs.size() == n_ * nrhs && x.size() == n_ * nrhs);
  FFW_TRACE_SPAN("cbs.solve", static_cast<std::int64_t>(nrhs));
  const ForwardSystem sys{
      [&](ccspan in, cspan out) { convolve<double>(in, out, nrhs, adjoint); },
      [&](ccspan in, cspan out) { convolve<float>(in, out, nrhs, adjoint); },
      BlockLayout{n_, nrhs, 1}};
  const ForwardSolveResult res = forward_solve(sys, rhs, x, tol, opts_, stats_);
  obs::add(obs::Counter::kCbsIterations,
           static_cast<std::uint64_t>(res.block_iterations));
  return res.converged;
}

}  // namespace ffw
