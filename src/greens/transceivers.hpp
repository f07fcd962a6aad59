// Transmitter / receiver operators (paper Fig. 3, Sec. VI-A).
//
// Transmitters are Dirac line sources on a ring (or arc) around the
// imaging domain; receivers likewise. The paper models both with delta
// functions:
//   phi_inc_n        = sum_t (i/4) H0(k|r_n - r_t|) q_t          (G_T q)
//   phi_sca_r        = sum_n sf * (i/4) H0(k|r_r - r_n|) O_n phi_n  (G_R O phi)
// where sf is the Richmond source-disk factor (the receiver sees the
// *radiated* field of each contrast pixel, integrated over the pixel).
//
// The constructor materialises both operators once: the dense R x N
// receiver matrix G_R and the N x T incident-field panel (every column
// of G_T). Every receiver projection is then a panel GEMM over all the
// columns a pass holds, G_R X forward and G_R^H U adjoint; no projection
// evaluates a Hankel function. The two panels together may hold at most
// kMaxPanelEntries complex entries (256 MB); a larger geometry is refused
// at construction, naming R, T and N.
#pragma once

#include <vector>

#include "grid/grid.hpp"
#include "linalg/block.hpp"
#include "linalg/cmatrix.hpp"

namespace ffw {

/// Positions of `count` elements on a circular arc of given radius
/// centred on the domain origin, angles in [angle_begin, angle_end)
/// (radians; full ring by default, uniformly spaced).
std::vector<Vec2> ring_positions(int count, double radius,
                                 double angle_begin = 0.0,
                                 double angle_end = 2.0 * pi);

/// Receiver projection of a pixel panel: Y (R x lo.nrhs, column-major)
/// = G X, where G is R x N column-major and X is a block vector in
/// layout `lo` whose row q is pixel `pixels[q]` (pixel q when `pixels`
/// is empty, which needs lo.rows() == N). Runs one GEMM per run of
/// consecutive pixels inside fixed row chunks (sized from the shape
/// alone) and sums the per-chunk partials in chunk order, so the result
/// does not depend on the thread count. Serves the natural-order panel
/// (npanels == 1) and a rank's leaf-blocked slice (its cluster-order
/// pixels, runs of one leaf row) alike, reading the one shared G.
void gr_project(const CMatrix& g, std::span<const std::uint32_t> pixels,
                const BlockLayout& lo, ccspan x, cspan y);

/// Adjoint projection: X = G^H U (U: R x lo.nrhs column-major; X a block
/// vector in layout `lo`, rows as in gr_project), one GEMM per run, no
/// reduction.
void gr_project_herm(const CMatrix& g, std::span<const std::uint32_t> pixels,
                     const BlockLayout& lo, ccspan u, cspan x);

class Transceivers {
 public:
  /// Cap on (R + T) * N, the entries of the two materialised panels.
  static constexpr std::size_t kMaxPanelEntries = std::size_t{16} << 20;

  Transceivers(const Grid& grid, std::vector<Vec2> transmitters,
               std::vector<Vec2> receivers);

  const Grid& grid() const { return *grid_; }
  int num_transmitters() const { return static_cast<int>(tx_.size()); }
  int num_receivers() const { return static_cast<int>(rx_.size()); }
  const std::vector<Vec2>& transmitters() const { return tx_; }
  const std::vector<Vec2>& receivers() const { return rx_; }

  /// Incident field of transmitter t on all pixels (natural order),
  /// unit source amplitude: a view into the owned panel.
  ccspan incident_field(int t) const;

  /// All incident fields: N x T, column t at offset t * N.
  ccspan incident_panel() const { return incident_; }

  /// The dense receiver matrix G_R (R x N, natural pixel order).
  const CMatrix& gr() const { return gr_; }

  /// Y = G_R X: X holds nrhs natural-order pixel columns (N x nrhs,
  /// column-major), Y is R x nrhs.
  void apply_gr(ccspan x, cspan y, std::size_t nrhs = 1) const;

  /// X = G_R^H U: U is R x nrhs, X is N x nrhs (natural order).
  void apply_gr_herm(ccspan u, cspan x, std::size_t nrhs = 1) const;

  /// Bytes of the owned panels (G_R and the incident fields).
  std::size_t bytes() const;

 private:
  const Grid* grid_;
  std::vector<Vec2> tx_, rx_;
  CMatrix gr_;    // R x N
  cvec incident_;  // N x T
};

}  // namespace ffw
