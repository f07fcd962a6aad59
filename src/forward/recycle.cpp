#include "forward/recycle.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "linalg/lu.hpp"
#include "obs/obs.hpp"

namespace ffw {

std::size_t KrylovRecycler::seed(ccspan b, cspan x, const BlockLayout& lo,
                                 const DotReducer& reduce) const {
  FFW_TRACE_SPAN("krylov.recycle", static_cast<std::int64_t>(lo.nrhs));
  FFW_CHECK(b.size() == lo.size() && x.size() == lo.size());
  const std::size_t m = snaps_.size();
  if (m == 0) {
    block_zero(lo, x);
    return 0;
  }
  for (const Snapshot& s : snaps_) FFW_CHECK(s.b.size() == lo.size());

  // All Gram entries and projections of every column in ONE reduction:
  // per column r the m x m Gram G(i,j) = <b_i, b_j>_r row-major, then the
  // m projections c_i = <b_i, b_new>_r, as {re, im} pairs. Each chunk of
  // the layout sums its rows into its own partials, added in chunk order
  // below; batching keeps the collective count independent of depth and
  // the coefficients bit-identical across serial, parallel, and rerun
  // executions.
  const std::size_t per_col = m * m + m;
  const std::size_t width = 2 * lo.nrhs * per_col;
  const BlockChunks chunks(lo);
  rvec part(chunks.count * width, 0.0);
  chunks.run([&](std::size_t k, std::size_t r0, std::size_t r1) {
    double* acc = part.data() + k * width;
    for_panel_rows(lo, r0, r1, [&](std::size_t c, std::size_t i0,
                                   std::size_t n) {
      for (std::size_t r = 0; r < lo.nrhs; ++r) {
        const std::size_t o = lo.at(c, r) + i0;
        double* d = acc + 2 * r * per_col;
        for (std::size_t i = 0; i < m; ++i) {
          const cplx* bi = snaps_[i].b.data() + o;
          for (std::size_t j = 0; j < m; ++j)
            dot_panel(n, bi, snaps_[j].b.data() + o, d + 2 * (i * m + j));
          dot_panel(n, bi, b.data() + o, d + 2 * (m * m + i));
        }
      }
    });
  });
  cvec dots(lo.nrhs * per_col);
  for (std::size_t q = 0; q < dots.size(); ++q) {
    double re = 0.0, im = 0.0;
    for (std::size_t k = 0; k < chunks.count; ++k) {
      re += part[k * width + 2 * q];
      im += part[k * width + 2 * q + 1];
    }
    dots[q] = cplx{re, im};
  }
  reduce.sum_cplx_vec(cspan{dots});

  // Per column: the least-squares coefficients, or none (a degenerate
  // history leaves the column's guess at zero).
  std::size_t seeded = 0;
  std::vector<char> has(lo.nrhs, 0);
  cvec coef(lo.nrhs * m);
  CMatrix g(m, m);
  cvec c(m);
  for (std::size_t r = 0; r < lo.nrhs; ++r) {
    const cplx* d = dots.data() + r * per_col;
    double trace = 0.0;
    for (std::size_t i = 0; i < m; ++i) trace += d[i * m + i].real();
    if (!(trace > 0.0)) continue;  // degenerate history for this column
    const double ridge = opts_.ridge * trace / static_cast<double>(m);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < m; ++j) g(i, j) = d[i * m + j];
      g(i, i) += ridge;
      c[i] = d[m * m + i];
    }
    const cvec a = lu_solve(g, c);
    std::copy(a.begin(), a.end(),
              coef.begin() + static_cast<std::ptrdiff_t>(r * m));
    has[r] = 1;
    ++seeded;
    obs::add(obs::Counter::kRecycleHits, 1);
  }

  // x_r = sum_i a_i(r) x_i, chunk-parallel.
  for_panel_parts(lo, [&](std::size_t cp, std::size_t i0, std::size_t n) {
    for (std::size_t r = 0; r < lo.nrhs; ++r) {
      const std::size_t o = lo.at(cp, r) + i0;
      cplx* xo = x.data() + o;
      std::fill_n(xo, n, cplx{});
      if (!has[r]) continue;
      for (std::size_t i = 0; i < m; ++i) {
        const cplx ai = coef[r * m + i];
        const cplx* xi = snaps_[i].x.data() + o;
        for (std::size_t k = 0; k < n; ++k) xo[k] += ai * xi[k];
      }
    }
  });
  return seeded;
}

void KrylovRecycler::store(ccspan b, ccspan x, const BlockLayout& lo) {
  if (opts_.depth == 0) return;
  FFW_TRACE_SPAN("krylov.recycle", static_cast<std::int64_t>(lo.nrhs));
  FFW_CHECK(b.size() == lo.size() && x.size() == lo.size());
  if (snaps_.size() < opts_.depth) {
    snaps_.emplace_back();
  } else {
    // The oldest pair's buffers take the new snapshot.
    std::rotate(snaps_.begin(), snaps_.begin() + 1, snaps_.end());
  }
  Snapshot& s = snaps_.back();
  s.b.resize(lo.size());
  s.x.resize(lo.size());
  block_copy(lo, b, s.b);
  block_copy(lo, x, s.x);
}

}  // namespace ffw
