// Near-field leaf operators (paper Sec. IV-D, Table I row 1).
//
// The near-field part of G0 couples each 8x8-pixel leaf cluster to
// itself and its 8 neighbours. Thanks to the regular pixel grid the
// coupling matrix depends only on the *relative offset* of the two
// clusters, so exactly nine unique dense 64x64 matrices cover the whole
// near field — "we store nine types of key interaction matrices and use
// them as needed during near-field multiplications".
#pragma once

#include <array>

#include "grid/quadtree.hpp"
#include "linalg/cmatrix.hpp"

namespace ffw {

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

  /// Total operator storage (bytes) — part of the memory census.
  std::size_t bytes() const;

 private:
  Precision precision_ = Precision::kDouble;
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

}  // namespace ffw
