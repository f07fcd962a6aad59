#include "linalg/block.hpp"

#include "obs/obs.hpp"

namespace ffw {

namespace {

/// y[i] = d[i] * x[i], or, with AdjointClose, y[i] = x[i] - conj(d[i]) *
/// y[i]; n entries, on the interleaved re/im components so the loop
/// vectorises.
template <bool AdjointClose>
inline void diag_panel(std::size_t n, const cplx* d, const cplx* x, cplx* y) {
  const double* ds = reinterpret_cast<const double*>(d);
  const double* xs = reinterpret_cast<const double*>(x);
  double* ys = reinterpret_cast<double*>(y);
#ifdef _OPENMP
#pragma omp simd
#endif
  for (std::size_t i = 0; i < 2 * n; i += 2) {
    const double dr = ds[i], di = AdjointClose ? -ds[i + 1] : ds[i + 1];
    const double vr = AdjointClose ? ys[i] : xs[i];
    const double vi = AdjointClose ? ys[i + 1] : xs[i + 1];
    const double pr = dr * vr - di * vi, pi = dr * vi + di * vr;
    ys[i] = AdjointClose ? xs[i] - pr : pr;
    ys[i + 1] = AdjointClose ? xs[i + 1] - pi : pi;
  }
}

/// Applies diag_panel to every column of the block (chunk-parallel).
template <bool AdjointClose>
void diag_block(const BlockLayout& lo, ccspan d, ccspan x, cspan y) {
  FFW_CHECK(d.size() == lo.rows() && x.size() == lo.size() &&
            y.size() == lo.size());
  for_panel_parts(lo, [&](std::size_t c, std::size_t i, std::size_t n) {
    const cplx* dp = d.data() + c * lo.panel + i;
    for (std::size_t r = 0; r < lo.nrhs; ++r)
      diag_panel<AdjointClose>(n, dp, x.data() + lo.at(c, r) + i,
                               y.data() + lo.at(c, r) + i);
  });
}

/// fn(o0, o1) over contiguous block offsets covering the whole block
/// (chunk-parallel): one range per whole panel, one per column of a
/// panel slice.
template <typename F>
void elementwise(const BlockLayout& lo, F&& fn) {
  for_panel_parts(lo, [&](std::size_t c, std::size_t i, std::size_t n) {
    if (n == lo.panel) {
      fn(lo.at(c, 0), lo.at(c + 1, 0));
      return;
    }
    for (std::size_t r = 0; r < lo.nrhs; ++r)
      fn(lo.at(c, r) + i, lo.at(c, r) + i + n);
  });
}

}  // namespace

double block_col_nrm2_sq(const BlockLayout& lo, ccspan x, std::size_t r) {
  FFW_CHECK(x.size() == lo.size() && r < lo.nrhs);
  double acc = 0.0;
  for (std::size_t c = 0; c < lo.npanels; ++c) {
    const cplx* xp = x.data() + lo.at(c, r);
    for (std::size_t i = 0; i < lo.panel; ++i) acc += std::norm(xp[i]);
  }
  return acc;
}

void block_col_get(const BlockLayout& lo, ccspan x, std::size_t r, cspan out) {
  FFW_CHECK(x.size() == lo.size() && out.size() == lo.rows() && r < lo.nrhs);
  for (std::size_t c = 0; c < lo.npanels; ++c) {
    const cplx* xp = x.data() + lo.at(c, r);
    cplx* op = out.data() + c * lo.panel;
    for (std::size_t i = 0; i < lo.panel; ++i) op[i] = xp[i];
  }
}

void block_col_set(const BlockLayout& lo, cspan x, std::size_t r, ccspan in) {
  FFW_CHECK(x.size() == lo.size() && in.size() == lo.rows() && r < lo.nrhs);
  for (std::size_t c = 0; c < lo.npanels; ++c) {
    cplx* xp = x.data() + lo.at(c, r);
    const cplx* ip = in.data() + c * lo.panel;
    for (std::size_t i = 0; i < lo.panel; ++i) xp[i] = ip[i];
  }
}

void block_copy(const BlockLayout& lo, ccspan x, cspan y) {
  FFW_CHECK(x.size() == lo.size() && y.size() == lo.size());
  elementwise(lo, [&](std::size_t o0, std::size_t o1) {
    std::copy(x.begin() + static_cast<std::ptrdiff_t>(o0),
              x.begin() + static_cast<std::ptrdiff_t>(o1),
              y.begin() + static_cast<std::ptrdiff_t>(o0));
  });
}

void block_zero(const BlockLayout& lo, cspan y) {
  FFW_CHECK(y.size() == lo.size());
  elementwise(lo, [&](std::size_t o0, std::size_t o1) {
    std::fill(y.begin() + static_cast<std::ptrdiff_t>(o0),
              y.begin() + static_cast<std::ptrdiff_t>(o1), cplx{});
  });
}

void block_conj(const BlockLayout& lo, ccspan x, cspan y) {
  FFW_CHECK(x.size() == lo.size() && y.size() == lo.size());
  elementwise(lo, [&](std::size_t o0, std::size_t o1) {
    for (std::size_t i = o0; i < o1; ++i) y[i] = std::conj(x[i]);
  });
}

void block_diag_mul(const BlockLayout& lo, ccspan d, ccspan x, cspan y) {
  diag_block<false>(lo, d, x, y);
}

void block_identity_minus(const BlockLayout& lo, ccspan x, cspan y) {
  FFW_CHECK(x.size() == lo.size() && y.size() == lo.size());
  elementwise(lo, [&](std::size_t o0, std::size_t o1) {
    for (std::size_t i = o0; i < o1; ++i) y[i] = x[i] - y[i];
  });
}

void block_identity_minus_conj_diag(const BlockLayout& lo, ccspan d,
                                    ccspan x, cspan y) {
  diag_block<true>(lo, d, x, y);
}

void block_pack_natural(const BlockLayout& lo,
                        std::span<const std::uint32_t> perm, ccspan nat,
                        cspan out) {
  FFW_TRACE_SPAN("block.pack", static_cast<std::int64_t>(lo.nrhs));
  const std::size_t n = lo.rows();
  FFW_CHECK(perm.size() == n && nat.size() == n * lo.nrhs &&
            out.size() == lo.size());
  for_panel_parts(lo, [&](std::size_t c, std::size_t i0, std::size_t len) {
    const std::uint32_t* pp = perm.data() + c * lo.panel + i0;
    for (std::size_t r = 0; r < lo.nrhs; ++r) {
      const cplx* np = nat.data() + r * n;
      cplx* op = out.data() + lo.at(c, r) + i0;
      for (std::size_t i = 0; i < len; ++i) op[i] = np[pp[i]];
    }
  });
}

void block_unpack_natural(const BlockLayout& lo,
                          std::span<const std::uint32_t> perm, ccspan blk,
                          cspan nat) {
  FFW_TRACE_SPAN("block.pack", static_cast<std::int64_t>(lo.nrhs));
  const std::size_t n = lo.rows();
  FFW_CHECK(perm.size() == n && blk.size() == lo.size() &&
            nat.size() == n * lo.nrhs);
  for_panel_parts(lo, [&](std::size_t c, std::size_t i0, std::size_t len) {
    const std::uint32_t* pp = perm.data() + c * lo.panel + i0;
    for (std::size_t r = 0; r < lo.nrhs; ++r) {
      cplx* np = nat.data() + r * n;
      const cplx* bp = blk.data() + lo.at(c, r) + i0;
      for (std::size_t i = 0; i < len; ++i) np[pp[i]] = bp[i];
    }
  });
}

}  // namespace ffw
