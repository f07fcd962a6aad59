#include "linalg/block.hpp"

namespace ffw {

namespace {

/// y[i] = (ConjD ? conj(d[i]) : d[i]) * x[i], or, with SubFromX,
/// y[i] = x[i] - conj(d[i]) * y[i]; n entries, on the interleaved re/im
/// components so the loop vectorises.
template <bool ConjD, bool SubFromX>
inline void diag_panel(std::size_t n, const cplx* d, const cplx* x, cplx* y) {
  const double* ds = reinterpret_cast<const double*>(d);
  const double* xs = reinterpret_cast<const double*>(x);
  double* ys = reinterpret_cast<double*>(y);
#ifdef _OPENMP
#pragma omp simd
#endif
  for (std::size_t i = 0; i < 2 * n; i += 2) {
    const double dr = ds[i], di = ConjD ? -ds[i + 1] : ds[i + 1];
    const double vr = SubFromX ? ys[i] : xs[i];
    const double vi = SubFromX ? ys[i + 1] : xs[i + 1];
    const double pr = dr * vr - di * vi, pi = dr * vi + di * vr;
    ys[i] = SubFromX ? xs[i] - pr : pr;
    ys[i + 1] = SubFromX ? xs[i + 1] - pi : pi;
  }
}

/// Applies diag_panel to every column of panels [c0, c1).
template <bool ConjD, bool SubFromX>
void diag_panels(const BlockLayout& lo, ccspan d, ccspan x, cspan y,
                 std::size_t c0, std::size_t c1) {
  for (std::size_t c = c0; c < c1; ++c) {
    const cplx* dp = d.data() + c * lo.panel;
    for (std::size_t r = 0; r < lo.nrhs; ++r)
      diag_panel<ConjD, SubFromX>(lo.panel, dp, x.data() + lo.at(c, r),
                                  y.data() + lo.at(c, r));
  }
}

}  // namespace

cplx block_col_dot(const BlockLayout& lo, ccspan x, ccspan y, std::size_t r) {
  FFW_CHECK(x.size() == lo.size() && y.size() == lo.size() && r < lo.nrhs);
  cplx acc{};
  for (std::size_t c = 0; c < lo.npanels; ++c) {
    const cplx* xp = x.data() + lo.at(c, r);
    const cplx* yp = y.data() + lo.at(c, r);
    for (std::size_t i = 0; i < lo.panel; ++i)
      acc += std::conj(xp[i]) * yp[i];
  }
  return acc;
}

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

void block_diag_mul(const BlockLayout& lo, ccspan d, ccspan x, cspan y) {
  FFW_CHECK(d.size() == lo.rows() && x.size() == lo.size() &&
            y.size() == lo.size());
  BlockChunks(lo).run([&](std::size_t, std::size_t c0, std::size_t c1) {
    diag_panels<false, false>(lo, d, x, y, c0, c1);
  });
}

void block_diag_mul_conj(const BlockLayout& lo, ccspan d, ccspan x, cspan y) {
  FFW_CHECK(d.size() == lo.rows() && x.size() == lo.size() &&
            y.size() == lo.size());
  BlockChunks(lo).run([&](std::size_t, std::size_t c0, std::size_t c1) {
    diag_panels<true, false>(lo, d, x, y, c0, c1);
  });
}

void block_identity_minus(const BlockLayout& lo, ccspan x, cspan y) {
  FFW_CHECK(x.size() == lo.size() && y.size() == lo.size());
  BlockChunks(lo).run([&](std::size_t, std::size_t c0, std::size_t c1) {
    const std::size_t o0 = lo.at(c0, 0), o1 = lo.at(c1, 0);
    for (std::size_t i = o0; i < o1; ++i) y[i] = x[i] - y[i];
  });
}

void block_identity_minus_conj_diag(const BlockLayout& lo, ccspan d,
                                    ccspan x, cspan y) {
  FFW_CHECK(d.size() == lo.rows() && x.size() == lo.size() &&
            y.size() == lo.size());
  BlockChunks(lo).run([&](std::size_t, std::size_t c0, std::size_t c1) {
    diag_panels<true, true>(lo, d, x, y, c0, c1);
  });
}

void block_pack_natural(const BlockLayout& lo,
                        std::span<const std::uint32_t> perm, ccspan nat,
                        cspan out) {
  const std::size_t n = lo.rows();
  FFW_CHECK(perm.size() == n && nat.size() == n * lo.nrhs &&
            out.size() == lo.size());
  for (std::size_t c = 0; c < lo.npanels; ++c) {
    const std::uint32_t* pp = perm.data() + c * lo.panel;
    for (std::size_t r = 0; r < lo.nrhs; ++r) {
      const cplx* np = nat.data() + r * n;
      cplx* op = out.data() + lo.at(c, r);
      for (std::size_t i = 0; i < lo.panel; ++i) op[i] = np[pp[i]];
    }
  }
}

void block_unpack_natural(const BlockLayout& lo,
                          std::span<const std::uint32_t> perm, ccspan blk,
                          cspan nat) {
  const std::size_t n = lo.rows();
  FFW_CHECK(perm.size() == n && blk.size() == lo.size() &&
            nat.size() == n * lo.nrhs);
  for (std::size_t c = 0; c < lo.npanels; ++c) {
    const std::uint32_t* pp = perm.data() + c * lo.panel;
    for (std::size_t r = 0; r < lo.nrhs; ++r) {
      cplx* np = nat.data() + r * n;
      const cplx* bp = blk.data() + lo.at(c, r);
      for (std::size_t i = 0; i < lo.panel; ++i) np[pp[i]] = bp[i];
    }
  }
}

}  // namespace ffw
