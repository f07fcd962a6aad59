#include "fft/fft.hpp"

#include <cmath>

#include "common/check.hpp"
#include "fft/fft2.hpp"

namespace ffw {

void fft(cspan x) {
  if (x.size() <= 1) return;
  Fft1Plan<double>(x.size()).forward(x);
}

void ifft(cspan x) {
  if (x.size() <= 1) return;
  Fft1Plan<double>(x.size()).inverse(x);
}

cvec fft_copy(ccspan x) {
  cvec out(x.begin(), x.end());
  fft(out);
  return out;
}

cvec dft_reference(ccspan x) {
  const std::size_t n = x.size();
  cvec out(n, cplx{});
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t j = 0; j < n; ++j) {
      const double ang = -2.0 * pi * static_cast<double>(k * j % n) /
                         static_cast<double>(n);
      out[k] += x[j] * cplx{std::cos(ang), std::sin(ang)};
    }
  }
  return out;
}

cvec spectral_resample(ccspan x, std::size_t m) {
  const std::size_t n = x.size();
  FFW_CHECK(n >= 1 && m >= 1);
  cvec spec(x.begin(), x.end());
  fft(spec);
  cvec out_spec(m, cplx{});
  // Copy spectral bins keeping the lowest frequencies of both grids.
  const std::size_t half = std::min(n, m) / 2;
  for (std::size_t k = 0; k <= half && k < std::min(n, m); ++k) {
    out_spec[k] = spec[k];
  }
  for (std::size_t k = 1; k < std::min(n, m) - half; ++k) {
    out_spec[m - k] = spec[n - k];
  }
  // Nyquist bin split when downsampling from even n is ignored: callers
  // must keep the true bandwidth strictly below min(n, m)/2.
  ifft(out_spec);
  const double scale = static_cast<double>(m) / static_cast<double>(n);
  for (cplx& v : out_spec) v *= scale;
  return out_spec;
}

}  // namespace ffw
