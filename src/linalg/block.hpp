// Multi-RHS (blocked) vector layout and kernels.
//
// A *block vector* packs `nrhs` same-length vectors so that the MLFMA
// engine can amortise every operator table over all right-hand sides
// (see DESIGN.md "Blocked MLFMA execution"). The layout is
// panel-interleaved: the index space is split into `npanels` panels of
// `panel` contiguous elements (for solver vectors a panel is one leaf
// cluster, panel = pixels_per_leaf), and each panel stores its nrhs
// columns back to back:
//
//   element (panel c, column r, offset i)  ->  (c * nrhs + r) * panel + i
//
// With nrhs == 1 this degenerates to the plain contiguous vector, which
// is why the single-vector engine paths are just the nrhs == 1 case of
// the blocked ones. Column-major full vectors are the `npanels == 1`
// special case, so the block BiCGStab below works on either layout.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "common/check.hpp"
#include "common/types.hpp"
#include "parallel/parallel_for.hpp"

namespace ffw {

struct BlockLayout {
  std::size_t panel = 0;    // contiguous elements per panel per column
  std::size_t nrhs = 1;     // number of columns in the block
  std::size_t npanels = 0;  // number of panels

  /// Per-column vector length.
  std::size_t rows() const { return panel * npanels; }
  /// Total block storage.
  std::size_t size() const { return panel * nrhs * npanels; }
  /// Offset of (panel c, column r).
  std::size_t at(std::size_t c, std::size_t r) const {
    return (c * nrhs + r) * panel;
  }
};

/// Fixed grouping of a layout's panels into chunks, the work unit of the
/// chunk-parallel block kernels: consecutive whole panels (all columns)
/// holding at least kMinElems elements together. The grouping depends on
/// the layout alone, so per-chunk partial sums added in chunk order give
/// the same bits at every thread count; a block smaller than the minimum
/// is a single chunk and runs on the calling thread, with no OpenMP fork.
struct BlockChunks {
  static constexpr std::size_t kMinElems = 16384;

  std::size_t npanels = 0;  // panels of the layout
  std::size_t per = 1;      // panels per chunk (the last may hold fewer)
  std::size_t count = 0;    // number of chunks

  explicit BlockChunks(const BlockLayout& lo)
      : npanels(lo.npanels),
        per(std::max<std::size_t>(
            1, (kMinElems + lo.panel * lo.nrhs - 1) /
                   std::max<std::size_t>(1, lo.panel * lo.nrhs))),
        count((npanels + per - 1) / per) {}

  /// Calls fn(k, first_panel, end_panel) for every chunk k, chunks in
  /// parallel when there is more than one.
  template <typename F>
  void run(F&& fn) const {
    const auto body = [&](std::size_t k) {
      fn(k, k * per, std::min(npanels, (k + 1) * per));
    };
    if (count <= 1) {
      body(0);
    } else {
      parallel_for(0, count, body);
    }
  }
};

/// <x_r, y_r> for column r (conjugate-linear in x).
cplx block_col_dot(const BlockLayout& lo, ccspan x, ccspan y, std::size_t r);

/// ||x_r||^2 for column r.
double block_col_nrm2_sq(const BlockLayout& lo, ccspan x, std::size_t r);

/// Gather column r into a contiguous vector of length lo.rows().
void block_col_get(const BlockLayout& lo, ccspan x, std::size_t r, cspan out);

/// Scatter a contiguous vector into column r.
void block_col_set(const BlockLayout& lo, cspan x, std::size_t r, ccspan in);

/// y_{r} = d .* x_{r} for every column, where d is a per-row diagonal of
/// length lo.rows() in the same (panel-contiguous) row order.
void block_diag_mul(const BlockLayout& lo, ccspan d, ccspan x, cspan y);

/// y_{r} = conj(d) .* x_{r} for every column.
void block_diag_mul_conj(const BlockLayout& lo, ccspan d, ccspan x, cspan y);

/// y = x - y over the whole block (chunk-parallel): the closing step of
/// an [I - G0 O] apply once y holds G0 O x.
void block_identity_minus(const BlockLayout& lo, ccspan x, cspan y);

/// y_{r} = x_{r} - conj(d) .* y_{r} for every column (chunk-parallel):
/// the closing step of an [I - G0 O]^H apply once y holds G0^H x.
void block_identity_minus_conj_diag(const BlockLayout& lo, ccspan d,
                                    ccspan x, cspan y);

/// Pack `nrhs` natural-order columns (column-major, column stride
/// perm.size()) into a block vector in cluster order:
///   out[(c*nrhs + r)*panel + i] = nat[r * n + perm[c*panel + i]].
void block_pack_natural(const BlockLayout& lo,
                        std::span<const std::uint32_t> perm, ccspan nat,
                        cspan out);

/// Inverse of block_pack_natural.
void block_unpack_natural(const BlockLayout& lo,
                          std::span<const std::uint32_t> perm, ccspan blk,
                          cspan nat);

}  // namespace ffw
