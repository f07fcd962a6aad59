#include "linalg/kernels.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace ffw {

namespace {

// Shared loop bodies over the storage scalar T; reductions accumulate in
// double for both widths (mixed-precision policy: narrow storage, wide
// arithmetic at reductions).
template <typename T>
cplx cdot_impl(std::span<const std::complex<T>> x,
               std::span<const std::complex<T>> y) {
  FFW_DCHECK(x.size() == y.size());
  cplx acc{};
  for (std::size_t i = 0; i < x.size(); ++i)
    acc += std::conj(cplx{x[i]}) * cplx{y[i]};
  return acc;
}

template <typename T>
double nrm2_impl(std::span<const std::complex<T>> x) {
  double s = 0.0;
  for (const std::complex<T>& v : x) s += std::norm(cplx{v});
  return std::sqrt(s);
}

// axpy and scal run on the interleaved re/im components (explicit real
// arithmetic), which vectorises where a std::complex product does not.
template <typename T>
void axpy_impl(std::complex<T> a, std::span<const std::complex<T>> x,
               std::span<std::complex<T>> y) {
  FFW_DCHECK(x.size() == y.size());
  const T ar = a.real(), ai = a.imag();
  const T* xs = reinterpret_cast<const T*>(x.data());
  T* ys = reinterpret_cast<T*>(y.data());
#ifdef _OPENMP
#pragma omp simd
#endif
  for (std::size_t i = 0; i < 2 * x.size(); i += 2) {
    ys[i] += ar * xs[i] - ai * xs[i + 1];
    ys[i + 1] += ar * xs[i + 1] + ai * xs[i];
  }
}

template <typename T>
void scal_impl(std::complex<T> a, std::span<std::complex<T>> x) {
  const T ar = a.real(), ai = a.imag();
  T* xs = reinterpret_cast<T*>(x.data());
#ifdef _OPENMP
#pragma omp simd
#endif
  for (std::size_t i = 0; i < 2 * x.size(); i += 2) {
    const T xr = xs[i], xi = xs[i + 1];
    xs[i] = ar * xr - ai * xi;
    xs[i + 1] = ar * xi + ai * xr;
  }
}

}  // namespace

cplx cdot(ccspan x, ccspan y) { return cdot_impl<double>(x, y); }
cplx cdot(ccspan32 x, ccspan32 y) { return cdot_impl<float>(x, y); }

double nrm2(ccspan x) { return nrm2_impl<double>(x); }
double nrm2(ccspan32 x) { return nrm2_impl<float>(x); }

void axpy(cplx a, ccspan x, cspan y) { axpy_impl<double>(a, x, y); }
void axpy(cplx32 a, ccspan32 x, cspan32 y) { axpy_impl<float>(a, x, y); }

void xpay(ccspan x, cplx a, cspan y) {
  FFW_DCHECK(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = x[i] + a * y[i];
}

void scal(cplx a, cspan x) { scal_impl<double>(a, x); }
void scal(cplx32 a, cspan32 x) { scal_impl<float>(a, x); }

void copy(ccspan x, cspan y) {
  FFW_DCHECK(x.size() == y.size());
  std::copy(x.begin(), x.end(), y.begin());
}

void copy(ccspan32 x, cspan32 y) {
  FFW_DCHECK(x.size() == y.size());
  std::copy(x.begin(), x.end(), y.begin());
}

void sub(ccspan a, ccspan b, cspan out) {
  FFW_DCHECK(a.size() == b.size() && a.size() == out.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
}

void diag_mul(ccspan d, ccspan x, cspan y) {
  FFW_DCHECK(d.size() == x.size() && x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = d[i] * x[i];
}

void narrow(ccspan x, cspan32 y) {
  FFW_DCHECK(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = narrow(x[i]);
}

double rel_max_diff(ccspan x, ccspan y) {
  FFW_CHECK(x.size() == y.size());
  double dmax = 0.0, ymax = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    dmax = std::max(dmax, std::abs(x[i] - y[i]));
    ymax = std::max(ymax, std::abs(y[i]));
  }
  return ymax > 0.0 ? dmax / ymax : dmax;
}

double rel_l2_diff(ccspan x, ccspan y) {
  FFW_CHECK(x.size() == y.size());
  double d = 0.0, n = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    d += std::norm(x[i] - y[i]);
    n += std::norm(y[i]);
  }
  return n > 0.0 ? std::sqrt(d / n) : std::sqrt(d);
}

}  // namespace ffw
