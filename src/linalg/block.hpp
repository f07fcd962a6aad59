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
#include <utility>

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

/// Fixed grouping of a layout's rows into chunks, the work unit of the
/// chunk-parallel block kernels: consecutive rows (all columns) holding
/// at least kMinElems elements together — whole panels when a panel is
/// smaller than that, else equal slices of one panel, so the serial
/// share's single {N, T, 1} panel spreads over every core too. The
/// grouping depends on the layout alone, so per-chunk partial sums added
/// in chunk order give the same bits at every thread count; a block
/// smaller than the minimum is a single chunk and runs on the calling
/// thread, with no OpenMP fork.
struct BlockChunks {
  static constexpr std::size_t kMinElems = 16384;

  std::size_t panel = 0;   // rows per panel
  std::size_t npanels = 0; // panels of the layout
  std::size_t group = 1;   // panels per chunk (when slices == 1)
  std::size_t slices = 1;  // chunks per panel (> 1 splits every panel)
  std::size_t count = 0;   // number of chunks

  explicit BlockChunks(const BlockLayout& lo)
      : panel(lo.panel), npanels(lo.npanels) {
    const std::size_t want =
        (kMinElems + lo.nrhs - 1) / std::max<std::size_t>(1, lo.nrhs);
    if (panel >= 2 * want) {
      slices = panel / want;
      count = npanels * slices;
    } else {
      group = std::max<std::size_t>(
          1, (want + panel - 1) / std::max<std::size_t>(1, panel));
      count = (npanels + group - 1) / group;
    }
  }

  /// Rows [first, second) of chunk k.
  std::pair<std::size_t, std::size_t> rows(std::size_t k) const {
    if (slices == 1)
      return {k * group * panel, std::min(npanels, (k + 1) * group) * panel};
    const std::size_t c = k / slices, j = k % slices;
    const std::size_t per = (panel + slices - 1) / slices;
    const std::size_t r0 = c * panel + std::min(panel, j * per);
    return {r0, c * panel + std::min(panel, (j + 1) * per)};
  }

  /// Calls fn(k, row_begin, row_end) for every chunk k, chunks in
  /// parallel when there is more than one.
  template <typename F>
  void run(F&& fn) const {
    const auto body = [&](std::size_t k) {
      const auto [r0, r1] = rows(k);
      fn(k, r0, r1);
    };
    if (count <= 1) {
      if (count == 1) body(0);
    } else {
      parallel_for(0, count, body);
    }
  }
};

/// Calls fn(c, i, len) for every panel c that rows [r0, r1) of `lo`
/// touch, in panel order: offsets [i, i + len) inside the panel, so
/// column r's elements start at lo.at(c, r) + i.
template <typename F>
void for_panel_rows(const BlockLayout& lo, std::size_t r0, std::size_t r1,
                    F&& fn) {
  for (std::size_t c = r0 / lo.panel; c < lo.npanels && c * lo.panel < r1;
       ++c) {
    const std::size_t a = std::max(r0, c * lo.panel) - c * lo.panel;
    const std::size_t b = std::min(r1, (c + 1) * lo.panel) - c * lo.panel;
    fn(c, a, b - a);
  }
}

/// for_panel_rows over every chunk of the layout, chunks in parallel:
/// the loop of the elementwise block kernels.
template <typename F>
void for_panel_parts(const BlockLayout& lo, F&& fn) {
  BlockChunks(lo).run([&](std::size_t, std::size_t r0, std::size_t r1) {
    for_panel_rows(lo, r0, r1, fn);
  });
}

// Panel reductions of the chunk-parallel sweeps: n complex entries as 2n
// interleaved doubles in explicit real arithmetic, so each loop
// vectorises; the order is fixed for a given build.

/// ||x||^2.
inline double nrm2_panel(std::size_t n, const cplx* x) {
  const double* xs = reinterpret_cast<const double*>(x);
  double acc = 0.0;
#ifdef _OPENMP
#pragma omp simd reduction(+ : acc)
#endif
  for (std::size_t i = 0; i < 2 * n; ++i) acc += xs[i] * xs[i];
  return acc;
}

/// acc += <x, y> = sum conj(x) y, as {re, im}.
inline void dot_panel(std::size_t n, const cplx* x, const cplx* y,
                      double* acc) {
  const double* xs = reinterpret_cast<const double*>(x);
  const double* ys = reinterpret_cast<const double*>(y);
  double re = 0.0, im = 0.0;
#ifdef _OPENMP
#pragma omp simd reduction(+ : re, im)
#endif
  for (std::size_t i = 0; i < 2 * n; i += 2) {
    re += xs[i] * ys[i] + xs[i + 1] * ys[i + 1];
    im += xs[i] * ys[i + 1] - xs[i + 1] * ys[i];
  }
  acc[0] += re;
  acc[1] += im;
}

/// y = x over a whole block (chunk-parallel).
void block_copy(const BlockLayout& lo, ccspan x, cspan y);

/// y = 0 over a whole block (chunk-parallel).
void block_zero(const BlockLayout& lo, cspan y);

/// y = conj(x) over a whole block (chunk-parallel; y may alias x).
void block_conj(const BlockLayout& lo, ccspan x, cspan y);

/// ||x_r||^2 for column r.
double block_col_nrm2_sq(const BlockLayout& lo, ccspan x, std::size_t r);

/// Gather column r into a contiguous vector of length lo.rows().
void block_col_get(const BlockLayout& lo, ccspan x, std::size_t r, cspan out);

/// Scatter a contiguous vector into column r.
void block_col_set(const BlockLayout& lo, cspan x, std::size_t r, ccspan in);

/// y_{r} = d .* x_{r} for every column, where d is a per-row diagonal of
/// length lo.rows() in the same (panel-contiguous) row order.
void block_diag_mul(const BlockLayout& lo, ccspan d, ccspan x, cspan y);

/// y = x - y over the whole block (chunk-parallel): the closing step of
/// an [I - G0 O] apply once y holds G0 O x.
void block_identity_minus(const BlockLayout& lo, ccspan x, cspan y);

/// y_{r} = x_{r} - conj(d) .* y_{r} for every column (chunk-parallel):
/// the closing step of an [I - G0 O]^H apply once y holds G0^H x.
void block_identity_minus_conj_diag(const BlockLayout& lo, ccspan d,
                                    ccspan x, cspan y);

/// Pack `nrhs` natural-order columns (chunk-parallel over panels) (column-major, column stride
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
