// The precomputed MLFMA operator tables of paper Table I:
//
//   | operator                | structure     | # types        |
//   |-------------------------|---------------|----------------|
//   | near-field interactions | dense         | 9  (greens/)   |
//   | multipole expansion     | dense         | 1              |
//   | interpolations          | band-diagonal | 1 per level    |
//   | multipole shiftings     | diagonal      | 4 per level    |
//   | translations            | diagonal      | 40 per level   |
//   | local shiftings         | diagonal      | 4 per level    |
//   | anterpolations          | band-diagonal | 1 per level    |
//   | local expansion         | dense         | 1              |
//
// All tables are built once in the setup stage and reused for every
// matvec of every forward solution (Sec. IV-D: "Matrices for these
// operators are generated ahead of time ... and stored as lookup
// tables"). The regular grid makes each table independent of the cluster
// position, which is the whole memory story of the paper.
#pragma once

#include <vector>

#include "grid/quadtree.hpp"
#include "linalg/banded.hpp"
#include "linalg/cmatrix.hpp"
#include "mlfma/plan.hpp"

namespace ffw {

/// Diagonal translation operator samples T_X(alpha_q), q = 0..Q-1, for
/// translation vector X, truncation L:
///   T_L(alpha) = sum_{m=-L..L} H_m^(1)(k|X|) e^{i m (alpha - theta_X - pi/2)}.
/// This realises the diagonalised 2-D addition theorem in the form
///   (1/Q) sum_q T_L(alpha_q; X) e^{i k_hat(alpha_q) . d} = H0^(1)(k|X - d|),
/// (Gegenbauer/Graf, |d| < |X|), so the engine passes X = c_src - c_dest:
/// with d = u_dest - v_src the right-hand side becomes
/// H0(k |(c_dest + u) - (c_src + v)|), the pixel-pair kernel. Validated
/// against direct H0 evaluation in tests/mlfma_translation_test.cpp.
cvec make_translation_diag(double k, Vec2 x, int truncation, int samples);

/// Band-diagonal Lagrange interpolation matrix resampling a periodic
/// band-limited function from `src_samples` to `dst_samples` uniform
/// points with a `width`-point local stencil.
PeriodicBandMatrix make_interpolation(int src_samples, int dst_samples,
                                      int width);

struct LevelOperators {
  int truncation = 0;
  int samples = 0;
  /// translations[t] — one diagonal (length Q) per 40 offsets.
  std::vector<cvec> translations;
  /// Upward (multipole) shift diagonals for the 4 child positions, at the
  /// *parent* sample rate; empty at the top level.
  std::vector<cvec> up_shift;
  /// Downward (local) shift diagonals = conj(up_shift), kept explicitly
  /// (Table I counts them as their own 4 types).
  std::vector<cvec> down_shift;
  /// Interpolation: this level's rate -> parent rate (empty at top, and
  /// released once the fp32 tiles are built under Precision::kMixed).
  PeriodicBandMatrix interp;
  /// interp cut into band tiles (aggregation), and its transpose with
  /// the anterpolation scale Q_l / Q_parent folded in (disaggregation),
  /// in the engine's precision: fp64 here, fp32 in the *32 mirrors.
  BandTiles<double> interp_tiles, anterp_tiles;

  /// fp32 mirrors for Precision::kMixed, rounded once from the fp64
  /// tables at setup (never recomputed in single precision — the table
  /// *generation* stays fp64 so the only fp32 error is the final
  /// rounding, ~6e-8 per entry).
  std::vector<cvec32> translations32;
  std::vector<cvec32> up_shift32;
  std::vector<cvec32> down_shift32;
  BandTiles<float> interp_tiles32, anterp_tiles32;

  /// Rounds all diagonals to fp32, builds the fp32 band tiles and
  /// releases the fp64 tables and interp stencil, halving the footprint.
  void build_f32();

  /// Scalar-generic table access for the templated engine passes.
  template <typename T>
  const std::vector<std::vector<std::complex<T>>>& trans() const;
  template <typename T>
  const std::vector<std::vector<std::complex<T>>>& up() const;
  template <typename T>
  const std::vector<std::vector<std::complex<T>>>& down() const;
  template <typename T>
  const BandTiles<T>& interp_band() const;
  template <typename T>
  const BandTiles<T>& anterp_band() const;

  std::size_t bytes() const;
};

template <>
inline const std::vector<cvec>& LevelOperators::trans<double>() const {
  return translations;
}
template <>
inline const std::vector<cvec32>& LevelOperators::trans<float>() const {
  return translations32;
}
template <>
inline const std::vector<cvec>& LevelOperators::up<double>() const {
  return up_shift;
}
template <>
inline const std::vector<cvec32>& LevelOperators::up<float>() const {
  return up_shift32;
}
template <>
inline const std::vector<cvec>& LevelOperators::down<double>() const {
  return down_shift;
}
template <>
inline const std::vector<cvec32>& LevelOperators::down<float>() const {
  return down_shift32;
}
template <>
inline const BandTiles<double>& LevelOperators::interp_band<double>() const {
  return interp_tiles;
}
template <>
inline const BandTiles<float>& LevelOperators::interp_band<float>() const {
  return interp_tiles32;
}
template <>
inline const BandTiles<double>& LevelOperators::anterp_band<double>() const {
  return anterp_tiles;
}
template <>
inline const BandTiles<float>& LevelOperators::anterp_band<float>() const {
  return anterp_tiles32;
}

class MlfmaOperators {
 public:
  /// Builds the tables. All generation happens in fp64; when
  /// plan.params().precision == Precision::kMixed the tables are rounded
  /// once to fp32 and the fp64 copies are dropped, so bytes() reports the
  /// halved footprint and the fp64 accessors become invalid.
  MlfmaOperators(const QuadTree& tree, const MlfmaPlan& plan);

  Precision precision() const { return precision_; }

  /// Dense leaf multipole-expansion matrix (Q0 x 64):
  /// E[q, p] = e^{-i k_hat(alpha_q) . u_p}.
  const CMatrix& expansion() const { return expansion_; }

  /// Dense leaf local-expansion matrix (64 x Q0) with the leaf quadrature
  /// weight 1/Q0 and the kernel prefactor (i/4)*source_factor folded in:
  /// R[p, q] = pref/Q0 * e^{+i k_hat(alpha_q) . u_p}.
  const CMatrix& local_expansion() const { return local_; }

  /// fp32 copies of the expansion matrices, column-major with the same
  /// dimensions (only populated under Precision::kMixed).
  const cplx32* expansion32() const { return expansion32_.data(); }
  const cplx32* local_expansion32() const { return local32_.data(); }

  /// Scalar-generic expansion access for the templated engine passes.
  template <typename T>
  const std::complex<T>* expansion_data() const;
  template <typename T>
  const std::complex<T>* local_expansion_data() const;

  const LevelOperators& level(int l) const {
    return levels_[static_cast<std::size_t>(l)];
  }
  int num_levels() const { return static_cast<int>(levels_.size()); }

  /// Total precomputed-table footprint (Sec. IV-D memory optimisation).
  std::size_t bytes() const;

 private:
  Precision precision_ = Precision::kDouble;
  CMatrix expansion_;
  CMatrix local_;
  cvec32 expansion32_;
  cvec32 local32_;
  std::vector<LevelOperators> levels_;
};

template <>
inline const cplx* MlfmaOperators::expansion_data<double>() const {
  return expansion_.data();
}
template <>
inline const cplx32* MlfmaOperators::expansion_data<float>() const {
  return expansion32_.data();
}
template <>
inline const cplx* MlfmaOperators::local_expansion_data<double>() const {
  return local_.data();
}
template <>
inline const cplx32* MlfmaOperators::local_expansion_data<float>() const {
  return local32_.data();
}

}  // namespace ffw
