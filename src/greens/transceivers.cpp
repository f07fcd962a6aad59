#include "greens/transceivers.hpp"

#include <algorithm>
#include <string>

#include "common/check.hpp"
#include "greens/greens.hpp"
#include "linalg/gemm.hpp"
#include "linalg/scratch.hpp"
#include "obs/obs.hpp"
#include "parallel/parallel_for.hpp"

namespace ffw {

std::vector<Vec2> ring_positions(int count, double radius, double angle_begin,
                                 double angle_end) {
  FFW_CHECK(count >= 1 && radius > 0.0);
  std::vector<Vec2> out(static_cast<std::size_t>(count));
  const double span = angle_end - angle_begin;
  for (int i = 0; i < count; ++i) {
    const double a = angle_begin + span * i / count;
    out[static_cast<std::size_t>(i)] = {radius * std::cos(a),
                                        radius * std::sin(a)};
  }
  return out;
}

namespace {

/// G entries (R x pixels) one projection chunk covers at least.
constexpr std::size_t kChunkEntries = 16384;

/// Fixed split of a layout's rows (pixels) into chunks of consecutive
/// rows, the work unit of the projection kernels: whole panels when the
/// layout's panels are small (leaf-blocked slices), sub-ranges of a
/// panel when it is large (the natural-order panel). The split depends
/// on the shape alone, never on the thread count.
struct ProjectionChunks {
  std::size_t rows_per = 1;  // rows per chunk (the last may hold fewer)
  std::size_t count = 0;     // number of chunks

  ProjectionChunks(const BlockLayout& lo, std::size_t nr) {
    const std::size_t want = std::max<std::size_t>(
        1, (kChunkEntries + nr - 1) / std::max<std::size_t>(1, nr));
    rows_per = lo.panel >= want
                   ? want
                   : (want + lo.panel - 1) / lo.panel * lo.panel;
    count = (lo.rows() + rows_per - 1) / rows_per;
  }

  /// Calls fn(p, len, off) for every run of chunk k: `len` rows that
  /// stay inside one panel and map to consecutive pixels from p, the
  /// first at block offset `off` (columns `lo.panel` apart).
  template <typename F>
  void runs(const BlockLayout& lo, std::span<const std::uint32_t> pixels,
            std::size_t k, F&& fn) const {
    const std::size_t end = std::min(lo.rows(), (k + 1) * rows_per);
    for (std::size_t q = k * rows_per; q < end;) {
      const std::size_t c = q / lo.panel;
      const std::size_t stop = std::min(end, (c + 1) * lo.panel);
      std::size_t len = stop - q;
      if (!pixels.empty()) {
        len = 1;
        while (q + len < stop && pixels[q + len] == pixels[q] + len) ++len;
      }
      fn(pixels.empty() ? q : std::size_t{pixels[q]}, len,
         lo.at(c, 0) + (q - c * lo.panel));
      q += len;
    }
  }

  /// Runs fn(k) for every chunk, in parallel when there is more than one.
  template <typename F>
  void run(F&& fn) const {
    if (count == 1) {
      fn(std::size_t{0});
    } else if (count > 1) {
      parallel_for(0, count, fn);
    }
  }
};

void check_projection(const CMatrix& g, std::span<const std::uint32_t> pixels,
                      const BlockLayout& lo) {
  FFW_CHECK(pixels.empty() ? g.cols() == lo.rows()
                           : pixels.size() == lo.rows());
  FFW_DCHECK(std::all_of(pixels.begin(), pixels.end(),
                         [&](std::uint32_t p) { return p < g.cols(); }));
}

}  // namespace

void gr_project(const CMatrix& g, std::span<const std::uint32_t> pixels,
                const BlockLayout& lo, ccspan x, cspan y) {
  FFW_TRACE_SPAN("trx.project", static_cast<std::int64_t>(lo.nrhs));
  const std::size_t nr = g.rows();
  const std::size_t ny = nr * lo.nrhs;
  check_projection(g, pixels, lo);
  FFW_CHECK(x.size() == lo.size() && y.size() == ny);
  const ProjectionChunks chunks(lo, nr);
  if (chunks.count == 0) {
    std::fill(y.begin(), y.end(), cplx{});
    return;
  }
  // One partial Y per chunk, summed below in chunk order.
  ScratchFrame frame;
  const cspan partial = frame.vec(chunks.count > 1 ? chunks.count * ny : 0);
  chunks.run([&](std::size_t k) {
    cplx* yk = chunks.count > 1 ? partial.data() + k * ny : y.data();
    bool accumulate = false;
    chunks.runs(lo, pixels, k,
                [&](std::size_t p, std::size_t len, std::size_t off) {
                  const GemmTerm<double> term{g.data() + p * nr,
                                              x.data() + off};
                  gemm_sum_t<double>(nr, lo.nrhs, len, &term, 1, nr,
                                     lo.panel, yk, nr, accumulate);
                  accumulate = true;
                });
  });
  if (chunks.count == 1) return;
  std::copy_n(partial.begin(), ny, y.begin());
  for (std::size_t k = 1; k < chunks.count; ++k) {
    const cplx* pk = partial.data() + k * ny;
    for (std::size_t i = 0; i < ny; ++i) y[i] += pk[i];
  }
}

void gr_project_herm(const CMatrix& g, std::span<const std::uint32_t> pixels,
                     const BlockLayout& lo, ccspan u, cspan x) {
  FFW_TRACE_SPAN("trx.project", static_cast<std::int64_t>(lo.nrhs));
  const std::size_t nr = g.rows();
  check_projection(g, pixels, lo);
  FFW_CHECK(u.size() == nr * lo.nrhs && x.size() == lo.size());
  const ProjectionChunks chunks(lo, nr);
  chunks.run([&](std::size_t k) {
    chunks.runs(lo, pixels, k,
                [&](std::size_t p, std::size_t len, std::size_t off) {
                  gemm_herm_raw_t<double, double>(
                      len, lo.nrhs, nr, cplx{1.0}, g.data() + p * nr, nr,
                      u.data(), nr, cplx{}, x.data() + off, lo.panel);
                });
  });
}

Transceivers::Transceivers(const Grid& grid, std::vector<Vec2> transmitters,
                           std::vector<Vec2> receivers)
    : grid_(&grid), tx_(std::move(transmitters)), rx_(std::move(receivers)) {
  FFW_CHECK(!tx_.empty() && !rx_.empty());
  const std::size_t n = grid.num_pixels();
  const std::size_t nr = rx_.size(), nt = tx_.size();
  if ((nr + nt) * n > kMaxPanelEntries) {
    const std::string why =
        "transceiver panels (R + T) * N = (" + std::to_string(nr) + " + " +
        std::to_string(nt) + ") * " + std::to_string(n) + " exceed the " +
        std::to_string(kMaxPanelEntries) + "-entry cap";
    FFW_CHECK_MSG((nr + nt) * n <= kMaxPanelEntries, why.c_str());
  }
  FFW_TRACE_SPAN("trx.build", static_cast<std::int64_t>(n));
  gr_ = CMatrix(nr, n);
  incident_.resize(n * nt);
  const double k0 = grid.k0();
  const double sf = source_factor(grid);
  const int nx = grid.nx();
  parallel_for(0, n, [&](std::size_t p) {
    const Vec2 rp = grid.pixel_center(static_cast<int>(p) % nx,
                                      static_cast<int>(p) / nx);
    for (std::size_t r = 0; r < nr; ++r)
      gr_(r, p) = sf * g0_point(k0, norm(rx_[r] - rp));
    for (std::size_t t = 0; t < nt; ++t)
      incident_[t * n + p] = g0_point(k0, norm(rp - tx_[t]));
  });
}

ccspan Transceivers::incident_field(int t) const {
  FFW_CHECK(t >= 0 && t < num_transmitters());
  const std::size_t n = grid_->num_pixels();
  return ccspan{incident_}.subspan(static_cast<std::size_t>(t) * n, n);
}

void Transceivers::apply_gr(ccspan x, cspan y, std::size_t nrhs) const {
  gr_project(gr_, {}, BlockLayout{grid_->num_pixels(), nrhs, 1}, x, y);
}

void Transceivers::apply_gr_herm(ccspan u, cspan x, std::size_t nrhs) const {
  gr_project_herm(gr_, {}, BlockLayout{grid_->num_pixels(), nrhs, 1}, u,
                  x);
}

std::size_t Transceivers::bytes() const {
  return gr_.bytes() + incident_.size() * sizeof(cplx);
}

}  // namespace ffw
