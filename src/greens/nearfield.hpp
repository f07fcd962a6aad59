// Near-field leaf operators (paper Sec. IV-D, Table I row 1).
//
// The near-field part of G0 couples each 8x8-pixel leaf cluster to
// itself and its 8 neighbours. Thanks to the regular pixel grid the
// coupling matrix depends only on the *relative offset* of the two
// clusters, so exactly nine unique dense 64x64 matrices cover the whole
// near field — "we store nine types of key interaction matrices and use
// them as needed during near-field multiplications".
//
// The nine types define the operator. Because they depend on the offset
// alone, the near field of a box of leaves is a 2-D convolution of the
// leaf panels with a 3x3 stencil of matrices, and apply_box runs it
// along the box rows in Fourier space: a DFT over the leaves of each
// row turns the three types of one stencil row into one row-operator
// per frequency, so a leaf row meets three np x np products per
// frequency instead of nine neighbour products per leaf. The types stay
// the building blocks of the row-operators, of the preconditioner's self
// blocks and of a partitioned rank's ghost terms.
#pragma once

#include <array>

#include "grid/quadtree.hpp"
#include "linalg/cmatrix.hpp"

namespace ffw {

/// A rectangle of leaves [x0, x0 + width) x [y0, y0 + height) in leaf
/// coordinates whose np x nrhs panels sit in Morton order from leaf
/// `base`: leaf (px, py)'s panel is panel morton(px, py) - base of the
/// block vector.
struct LeafBox {
  std::size_t x0 = 0, y0 = 0, width = 0, height = 0;
  std::size_t base = 0;
};

/// The box of the Morton leaf range [begin, end): the whole grid, or a
/// partitioned rank's 16/p top-level sub-trees. FFW_CHECKs that the
/// range is a rectangle (a power-of-two count aligned to itself).
LeafBox leaf_box(std::size_t begin, std::size_t end);

class NearFieldOperators {
 public:
  /// Tables are always generated in fp64; under Precision::kMixed they
  /// are rounded once to fp32 and the fp64 copies dropped, so bytes()
  /// halves and only type32() is valid.
  explicit NearFieldOperators(const QuadTree& tree,
                              Precision precision = Precision::kDouble);

  Precision precision() const { return precision_; }

  /// Matrix for offset type t = (dy+1)*3 + (dx+1); t == 4 is self.
  const CMatrix& type(int t) const { return mats_[static_cast<std::size_t>(t)]; }

  /// fp32 copy of type t, column-major np x np (Precision::kMixed only).
  const cplx32* type32(int t) const {
    return mats32_[static_cast<std::size_t>(t)].data();
  }

  /// Scalar-generic access for the templated engine passes.
  template <typename T>
  const std::complex<T>* type_data(int t) const;

  static constexpr int kNumTypes = 9;

  /// Boxes of fewer elements (width * height * np * nrhs) run on the
  /// calling thread: their work does not pay for the OpenMP forks.
  static constexpr std::size_t kMinParallelElems = 16384;
  /// apply_box transforms at most this many columns at a time: its two
  /// transform buffers (W + 1 panels per row of W leaves) then hold about
  /// one 16-column block vector at most, whatever nrhs.
  static constexpr std::size_t kChunkColumns = 8;

  /// y_P += sum_{T in {-1,0,1}^2} type((T.y+1)*3 + T.x+1) x_{P+T} for
  /// every leaf P of `box`, with x = 0 outside the box; x and y are
  /// block vectors of nrhs columns over the box's panels (LeafBox). T =
  /// double reads type(), T = float (Precision::kMixed) type32().
  ///
  /// Each box row of W leaves is zero-padded to M = W + 1 leaves, so the
  /// circular convolution along it has no wrap-around:
  ///   xh(K, py) = sum_px e^{-2 pi i K px / M} x(px, py),
  ///   B_ty(K)   = sum_tx e^{+2 pi i K tx / M} A_(tx,ty),
  ///   yh(K, py) = sum_ty B_ty(K) xh(K, py + ty),
  ///   y(px, py) += (1/M) sum_K e^{+2 pi i K px / M} yh(K, py).
  /// The transforms and the products run on gemm_sum_t: the forward
  /// transform in T (one term per pair of leaves that are Morton
  /// neighbours, the sum across pairs in fp64), the products with fp32
  /// MACs for T = float and fp64 sums into yh, the inverse transform in
  /// fp64 straight into y. B_ty(K) is formed in fp64 and rounded once to
  /// T, per work item in per-thread scratch; xh and yh come from the
  /// calling thread's block scratch, and no copy of x or y is made.
  /// Transforms run in parallel over rows and products over (K, row
  /// band); every element has a fixed order of operations, so the bits
  /// do not depend on the thread count or on a column's position in the
  /// block.
  template <typename T>
  void apply_box(const LeafBox& box, const std::complex<T>* x, cplx* y,
                 std::size_t nrhs) const;

  /// Total operator storage (bytes) — part of the memory census.
  std::size_t bytes() const;

 private:
  Precision precision_ = Precision::kDouble;
  std::size_t np_ = 0;
  std::array<CMatrix, kNumTypes> mats_;
  std::array<cvec32, kNumTypes> mats32_;
};

template <>
inline const cplx* NearFieldOperators::type_data<double>(int t) const {
  return mats_[static_cast<std::size_t>(t)].data();
}
template <>
inline const cplx32* NearFieldOperators::type_data<float>(int t) const {
  return mats32_[static_cast<std::size_t>(t)].data();
}

extern template void NearFieldOperators::apply_box<double>(
    const LeafBox&, const cplx*, cplx*, std::size_t) const;
extern template void NearFieldOperators::apply_box<float>(
    const LeafBox&, const cplx32*, cplx*, std::size_t) const;

}  // namespace ffw
