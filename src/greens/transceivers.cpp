#include "greens/transceivers.hpp"

#include "common/check.hpp"
#include "greens/greens.hpp"
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

Transceivers::Transceivers(const Grid& grid, std::vector<Vec2> transmitters,
                           std::vector<Vec2> receivers,
                           std::size_t materialize_budget)
    : grid_(&grid), tx_(std::move(transmitters)), rx_(std::move(receivers)) {
  FFW_CHECK(!tx_.empty() && !rx_.empty());
  const std::size_t n = grid.num_pixels();
  if (rx_.size() * n <= materialize_budget) {
    CMatrix m(rx_.size(), n);
    parallel_for(0, rx_.size(), [&](std::size_t r) {
      for (std::size_t p = 0; p < n; ++p) {
        m(r, p) = gr_entry(static_cast<int>(r), p);
      }
    });
    gr_ = std::move(m);
  }
}

cplx Transceivers::gr_entry(int r, std::size_t pixel) const {
  const int nx = grid_->nx();
  const Vec2 rp = grid_->pixel_center(static_cast<int>(pixel) % nx,
                                      static_cast<int>(pixel) / nx);
  const double d = norm(rx_[static_cast<std::size_t>(r)] - rp);
  return source_factor(*grid_) * g0_point(grid_->k0(), d);
}

cvec Transceivers::incident_field(int t) const {
  FFW_TRACE_SPAN("trx.incident", t);
  FFW_CHECK(t >= 0 && t < num_transmitters());
  const std::size_t n = grid_->num_pixels();
  const int nx = grid_->nx();
  const Vec2 src = tx_[static_cast<std::size_t>(t)];
  cvec out(n);
  parallel_for(0, n, [&](std::size_t p) {
    const Vec2 rp = grid_->pixel_center(static_cast<int>(p) % nx,
                                        static_cast<int>(p) / nx);
    out[p] = g0_point(grid_->k0(), norm(rp - src));
  });
  return out;
}

void Transceivers::apply_gr_subset(ccspan x_sub,
                                   std::span<const std::uint32_t> pixels,
                                   cspan y_accum) const {
  FFW_TRACE_SPAN("trx.project");
  FFW_CHECK(x_sub.size() == pixels.size() && y_accum.size() == rx_.size());
  for (std::size_t r = 0; r < rx_.size(); ++r) {
    cplx acc{};
    for (std::size_t i = 0; i < pixels.size(); ++i)
      acc += gr_entry(static_cast<int>(r), pixels[i]) * x_sub[i];
    y_accum[r] += acc;
  }
}

void Transceivers::apply_gr_herm_subset(ccspan u,
                                        std::span<const std::uint32_t> pixels,
                                        cspan y_sub) const {
  FFW_TRACE_SPAN("trx.project");
  FFW_CHECK(u.size() == rx_.size() && y_sub.size() == pixels.size());
  for (std::size_t i = 0; i < pixels.size(); ++i) {
    cplx acc{};
    for (std::size_t r = 0; r < rx_.size(); ++r)
      acc += std::conj(gr_entry(static_cast<int>(r), pixels[i])) * u[r];
    y_sub[i] = acc;
  }
}

void Transceivers::incident_field_subset(int t,
                                         std::span<const std::uint32_t> pixels,
                                         cspan out) const {
  FFW_TRACE_SPAN("trx.incident", t);
  FFW_CHECK(t >= 0 && t < num_transmitters() && out.size() == pixels.size());
  const int nx = grid_->nx();
  const Vec2 src = tx_[static_cast<std::size_t>(t)];
  for (std::size_t i = 0; i < pixels.size(); ++i) {
    const Vec2 rp = grid_->pixel_center(static_cast<int>(pixels[i]) % nx,
                                        static_cast<int>(pixels[i]) / nx);
    out[i] = g0_point(grid_->k0(), norm(rp - src));
  }
}

void Transceivers::apply_gr(ccspan x, cspan y) const {
  FFW_TRACE_SPAN("trx.project");
  const std::size_t n = grid_->num_pixels();
  FFW_CHECK(x.size() == n && y.size() == rx_.size());
  if (gr_) {
    matvec(*gr_, x, y);
    return;
  }
  parallel_for(0, rx_.size(), [&](std::size_t r) {
    cplx acc{};
    for (std::size_t p = 0; p < n; ++p)
      acc += gr_entry(static_cast<int>(r), p) * x[p];
    y[r] = acc;
  });
}

void Transceivers::apply_gr_herm(ccspan x, cspan y) const {
  FFW_TRACE_SPAN("trx.project");
  const std::size_t n = grid_->num_pixels();
  FFW_CHECK(x.size() == rx_.size() && y.size() == n);
  if (gr_) {
    matvec_herm(*gr_, x, y);
    return;
  }
  parallel_for(0, n, [&](std::size_t p) {
    cplx acc{};
    for (std::size_t r = 0; r < rx_.size(); ++r)
      acc += std::conj(gr_entry(static_cast<int>(r), p)) * x[r];
    y[p] = acc;
  });
}

}  // namespace ffw
