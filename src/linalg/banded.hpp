// Band matrices with periodic (circulant-band) column support.
//
// The MLFMA interpolation operator resamples a band-limited function on
// the unit circle from Q_child uniform samples to Q_parent samples using
// local Lagrange interpolation (Sec. IV-D: "interpolation and
// anterpolation operators ... are realized with band-diagonal matrices";
// "more accuracy yields a thicker band"). Because the sample grid is
// periodic in the angle, each row's support wraps around modulo the
// column count — hence the periodic band layout here.
//
// Storage: for each row r we keep `width` consecutive (mod cols) entries
// starting at column `first[r]`. apply() computes y = A x and
// apply_adjoint() computes y = A^H x (the anterpolation operator), one
// column at a time; the engines' panels run through BandTiles below.
#pragma once

#include <complex>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace ffw {

class PeriodicBandMatrix {
 public:
  PeriodicBandMatrix() = default;
  PeriodicBandMatrix(std::size_t rows, std::size_t cols, std::size_t width);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t width() const { return width_; }

  /// Set the support start column for row r.
  void set_first(std::size_t r, std::size_t col0) { first_[r] = static_cast<std::uint32_t>(col0); }
  std::size_t first(std::size_t r) const { return first_[r]; }

  /// Coefficient j (0 <= j < width) of row r, multiplying column
  /// (first[r] + j) mod cols.
  double& coeff(std::size_t r, std::size_t j) { return w_[r * width_ + j]; }
  double coeff(std::size_t r, std::size_t j) const { return w_[r * width_ + j]; }

  /// y = A x (x.size()==cols, y.size()==rows).
  void apply(ccspan x, cspan y) const;
  /// y = A^T x == A^H x (coefficients are real).
  void apply_adjoint(ccspan x, cspan y) const;

  /// Dense materialisation (tests, and the BandTiles build).
  std::vector<std::vector<double>> to_dense() const;

  std::size_t bytes() const {
    return w_.size() * sizeof(double) + first_.size() * sizeof(std::uint32_t);
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t width_ = 0;
  std::vector<double> w_;
  std::vector<std::uint32_t> first_;
};

/// A band matrix B = scale * A (or scale * A^T) of a PeriodicBandMatrix
/// A, cut into blocks of tile rows for a register-tiled kernel: the
/// MLFMA aggregation (interpolation, then the child -> parent shift)
/// and disaggregation (the transposed band, anterpolation, with the
/// quadrature scale folded in) run through it in both engines.
///
/// Each block stores its rows' coefficients over one source window: the
/// shortest run of consecutive (mod cols) source rows that holds every
/// nonzero of the block, with the wrap resolved at build time into a
/// per-entry source row. Entry t of block b holds kRows coefficients,
/// zero where a row's stencil does not reach; rows past rows() are zero.
/// The kernel accumulates a rows x 4-column register tile over the
/// window (split re/im accumulators fed by scalar broadcasts of the
/// source values) and writes the tile once.
template <typename T>
class BandTiles {
 public:
  BandTiles() = default;
  BandTiles(const PeriodicBandMatrix& a, bool transpose, double scale);

  /// Rows of one tile (one SIMD vector of T).
  static std::size_t tile_rows();

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t blocks() const { return begin_.empty() ? 0 : begin_.size() - 1; }
  /// Window length of block b.
  std::size_t window(std::size_t b) const { return begin_[b + 1] - begin_[b]; }

  /// Y(rows x n) = diag(shift) * B * X(cols x n), or Y += that product
  /// when `accumulate`; a null shift is the identity. Column-major
  /// panels with leading dimensions ldx/ldy. Per element the window sums
  /// in a fixed order, so the bits do not depend on the column position.
  void apply(const std::complex<T>* x, std::size_t ldx,
             const std::complex<T>* shift, std::complex<T>* y,
             std::size_t ldy, std::size_t n, bool accumulate) const;

  std::size_t bytes() const {
    return begin_.size() * sizeof(std::uint32_t) +
           src_.size() * sizeof(std::uint32_t) + coef_.size() * sizeof(T);
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::uint32_t> begin_;  // block b's entries: [begin_[b], begin_[b+1])
  std::vector<std::uint32_t> src_;    // source row of each entry
  std::vector<T> coef_;               // tile_rows() coefficients per entry
};

extern template class BandTiles<double>;
extern template class BandTiles<float>;

}  // namespace ffw
