#include "linalg/banded.hpp"

#include <algorithm>
#include <cstring>

#include "common/check.hpp"
#include "linalg/simd.hpp"

namespace ffw {

PeriodicBandMatrix::PeriodicBandMatrix(std::size_t rows, std::size_t cols,
                                       std::size_t width)
    : rows_(rows), cols_(cols), width_(width), w_(rows * width, 0.0),
      first_(rows, 0) {
  FFW_CHECK(width <= cols);
}

void PeriodicBandMatrix::apply(ccspan x, cspan y) const {
  FFW_CHECK(x.size() == cols_ && y.size() == rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* wr = w_.data() + r * width_;
    std::size_t c = first_[r];
    cplx acc{};
    for (std::size_t j = 0; j < width_; ++j) {
      acc += wr[j] * x[c];
      if (++c == cols_) c = 0;
    }
    y[r] = acc;
  }
}

void PeriodicBandMatrix::apply_adjoint(ccspan x, cspan y) const {
  FFW_CHECK(x.size() == rows_ && y.size() == cols_);
  std::fill(y.begin(), y.end(), cplx{});
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* wr = w_.data() + r * width_;
    std::size_t c = first_[r];
    const cplx xr = x[r];
    for (std::size_t j = 0; j < width_; ++j) {
      y[c] += wr[j] * xr;
      if (++c == cols_) c = 0;
    }
  }
}

std::vector<std::vector<double>> PeriodicBandMatrix::to_dense() const {
  std::vector<std::vector<double>> d(rows_, std::vector<double>(cols_, 0.0));
  for (std::size_t r = 0; r < rows_; ++r) {
    std::size_t c = first_[r];
    for (std::size_t j = 0; j < width_; ++j) {
      d[r][c] += coeff(r, j);
      if (++c == cols_) c = 0;
    }
  }
  return d;
}

namespace {

// One register tile: rows r0..r0+R of columns j0..j0+NC, R = one vector
// of T. re/im accumulate the window's real coefficients times scalar
// broadcasts of the source values; the store applies the row shift,
// interleaves re/im into complex rows and writes the first `valid`
// rows of the tile.
template <typename T, std::size_t NC>
inline void band_tile(const std::uint32_t* src, const T* coef,
                      std::size_t len, const std::complex<T>* x,
                      std::size_t ldx, const std::complex<T>* shift,
                      std::complex<T>* y, std::size_t ldy, std::size_t valid,
                      bool add) {
  using V = simd::Vec<T>;
  constexpr std::size_t kR = simd::kLanes<T>;
  V re[NC] = {}, im[NC] = {};
  const T* xt = reinterpret_cast<const T*>(x);
  for (std::size_t t = 0; t < len; ++t) {
    const V w = simd::load<V>(coef + t * kR);
    const T* xs = xt + 2 * std::size_t{src[t]};
#pragma GCC unroll 4
    for (std::size_t j = 0; j < NC; ++j) {
      re[j] += w * xs[2 * j * ldx];
      im[j] += w * xs[2 * j * ldx + 1];
    }
  }
  V sr{}, si{};
  if (shift != nullptr) {
    T sp[2 * kR] = {};
    std::memcpy(sp, shift, valid * sizeof(std::complex<T>));
    const V s0 = simd::load<V>(sp), s1 = simd::load<V>(sp + kR);
    sr = simd::unzip<0>(s0, s1);
    si = simd::unzip<1>(s0, s1);
  }
  for (std::size_t j = 0; j < NC; ++j) {
    V out_re = re[j], out_im = im[j];
    if (shift != nullptr) {
      out_re = sr * re[j] - si * im[j];
      out_im = sr * im[j] + si * re[j];
    }
    V lo = simd::zip<0>(out_re, out_im), hi = simd::zip<kR / 2>(out_re, out_im);
    T* yj = reinterpret_cast<T*>(y + j * ldy);
    if (valid == kR) {
      if (add) {
        lo += simd::load<V>(yj);
        hi += simd::load<V>(yj + kR);
      }
      simd::store(yj, lo);
      simd::store(yj + kR, hi);
    } else {
      T tile[2 * kR];
      simd::store(tile, lo);
      simd::store(tile + kR, hi);
      for (std::size_t i = 0; i < 2 * valid; ++i)
        yj[i] = add ? yj[i] + tile[i] : tile[i];
    }
  }
}

}  // namespace

template <typename T>
std::size_t BandTiles<T>::tile_rows() {
  return simd::kLanes<T>;
}

template <typename T>
BandTiles<T>::BandTiles(const PeriodicBandMatrix& a, bool transpose,
                        double scale)
    : rows_(transpose ? a.cols() : a.rows()),
      cols_(transpose ? a.rows() : a.cols()) {
  const std::vector<std::vector<double>> dense = a.to_dense();
  const auto coeff = [&](std::size_t r, std::size_t c) {
    return transpose ? dense[c][r] : dense[r][c];
  };
  const std::size_t kR = tile_rows();
  std::vector<char> used(cols_);
  begin_.push_back(0);
  for (std::size_t r0 = 0; r0 < rows_; r0 += kR) {
    const std::size_t r1 = std::min(rows_, r0 + kR);
    std::fill(used.begin(), used.end(), 0);
    for (std::size_t r = r0; r < r1; ++r)
      for (std::size_t c = 0; c < cols_; ++c)
        if (coeff(r, c) != 0.0) used[c] = 1;
    // The window starts after the longest circular run of unused source
    // rows and covers the rest.
    std::size_t gap = 0, gap_end = 0, run = 0;
    for (std::size_t i = 0; i < 2 * cols_; ++i) {
      run = used[i % cols_] ? 0 : run + 1;
      if (run > gap) {
        gap = run;
        gap_end = i + 1;
      }
    }
    const std::size_t start = gap_end % std::max<std::size_t>(cols_, 1);
    const std::size_t len = cols_ - std::min(gap, cols_);
    for (std::size_t t = 0; t < len; ++t) {
      const std::size_t c = (start + t) % cols_;
      src_.push_back(static_cast<std::uint32_t>(c));
      for (std::size_t r = r0; r < r0 + kR; ++r)
        coef_.push_back(r < r1 ? static_cast<T>(scale * coeff(r, c)) : T{0});
    }
    begin_.push_back(static_cast<std::uint32_t>(src_.size()));
  }
}

template <typename T>
void BandTiles<T>::apply(const std::complex<T>* x, std::size_t ldx,
                         const std::complex<T>* shift, std::complex<T>* y,
                         std::size_t ldy, std::size_t n,
                         bool accumulate) const {
  const std::size_t kR = tile_rows();
  for (std::size_t b = 0; b < blocks(); ++b) {
    const std::size_t r0 = b * kR, valid = std::min(kR, rows_ - r0);
    const std::uint32_t* src = src_.data() + begin_[b];
    const T* coef = coef_.data() + begin_[b] * kR;
    const std::size_t len = window(b);
    const std::complex<T>* sh = shift != nullptr ? shift + r0 : nullptr;
    std::size_t j0 = 0;
    for (; j0 + 4 <= n; j0 += 4)
      band_tile<T, 4>(src, coef, len, x + j0 * ldx, ldx, sh,
                      y + j0 * ldy + r0, ldy, valid, accumulate);
    if (j0 + 2 <= n) {
      band_tile<T, 2>(src, coef, len, x + j0 * ldx, ldx, sh,
                      y + j0 * ldy + r0, ldy, valid, accumulate);
      j0 += 2;
    }
    if (j0 < n)
      band_tile<T, 1>(src, coef, len, x + j0 * ldx, ldx, sh,
                      y + j0 * ldy + r0, ldy, valid, accumulate);
  }
}

template class BandTiles<double>;
template class BandTiles<float>;

}  // namespace ffw
