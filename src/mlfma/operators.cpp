#include "mlfma/operators.hpp"

#include <cmath>

#include "common/check.hpp"
#include "greens/greens.hpp"
#include "special/bessel.hpp"

namespace ffw {

cvec make_translation_diag(double k, Vec2 x, int truncation, int samples) {
  FFW_CHECK(truncation >= 0 && samples >= 2 * truncation + 1);
  const double kx = k * norm(x);
  const double theta_x = angle_of(x);
  cvec hm(static_cast<std::size_t>(truncation) + 1);
  hankel1_array(kx, hm);
  cvec t(static_cast<std::size_t>(samples));
  for (int q = 0; q < samples; ++q) {
    const double alpha = 2.0 * pi * q / samples;
    const double psi = alpha - theta_x - 0.5 * pi;
    // m and -m paired: H_{-m} = (-1)^m H_m.
    cplx acc = hm[0];
    for (int m = 1; m <= truncation; ++m) {
      const cplx e{std::cos(m * psi), std::sin(m * psi)};
      const double sgn = (m % 2 == 0) ? 1.0 : -1.0;
      acc += hm[static_cast<std::size_t>(m)] * (e + sgn * std::conj(e));
    }
    t[static_cast<std::size_t>(q)] = acc;
  }
  return t;
}

PeriodicBandMatrix make_interpolation(int src_samples, int dst_samples,
                                      int width) {
  FFW_CHECK(src_samples >= 2 && dst_samples >= src_samples);
  width = std::min(width, src_samples);
  PeriodicBandMatrix w(static_cast<std::size_t>(dst_samples),
                       static_cast<std::size_t>(src_samples),
                       static_cast<std::size_t>(width));
  const double ratio = static_cast<double>(src_samples) / dst_samples;
  for (int r = 0; r < dst_samples; ++r) {
    // Target angle in units of the source grid spacing.
    const double pos = r * ratio;
    // Stencil of `width` consecutive source nodes centred on pos.
    const int start = static_cast<int>(std::floor(pos)) - (width - 1) / 2;
    const std::size_t first =
        static_cast<std::size_t>(((start % src_samples) + src_samples) %
                                 src_samples);
    w.set_first(static_cast<std::size_t>(r), first);
    // Lagrange weights on the (unwrapped) integer nodes start..start+width-1.
    for (int j = 0; j < width; ++j) {
      double lj = 1.0;
      for (int i = 0; i < width; ++i) {
        if (i == j) continue;
        lj *= (pos - (start + i)) / static_cast<double>(j - i);
      }
      w.coeff(static_cast<std::size_t>(r), static_cast<std::size_t>(j)) = lj;
    }
  }
  return w;
}

namespace {

cvec32 round32(const cvec& v) {
  cvec32 out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = narrow(v[i]);
  return out;
}

std::vector<cvec32> round32(const std::vector<cvec>& vs) {
  std::vector<cvec32> out;
  out.reserve(vs.size());
  for (const auto& v : vs) out.push_back(round32(v));
  return out;
}

/// interp cut into band tiles (aggregation), and its transpose with the
/// anterpolation scale folded in (disaggregation).
template <typename T>
void build_band_tiles(const PeriodicBandMatrix& interp, BandTiles<T>& up,
                      BandTiles<T>& down) {
  if (interp.rows() == 0) return;
  // Anterpolation scale: quadrature-consistent resampling down to this
  // level's rate (see DESIGN.md Sec. 5).
  const double scale =
      static_cast<double>(interp.cols()) / static_cast<double>(interp.rows());
  up = BandTiles<T>(interp, /*transpose=*/false, 1.0);
  down = BandTiles<T>(interp, /*transpose=*/true, scale);
}

}  // namespace

void LevelOperators::build_f32() {
  translations32 = round32(translations);
  up_shift32 = round32(up_shift);
  down_shift32 = round32(down_shift);
  build_band_tiles(interp, interp_tiles32, anterp_tiles32);
  std::vector<cvec>{}.swap(translations);
  std::vector<cvec>{}.swap(up_shift);
  std::vector<cvec>{}.swap(down_shift);
  interp = {};
}

std::size_t LevelOperators::bytes() const {
  std::size_t s = 0;
  for (const auto& t : translations) s += t.size() * sizeof(cplx);
  for (const auto& t : up_shift) s += t.size() * sizeof(cplx);
  for (const auto& t : down_shift) s += t.size() * sizeof(cplx);
  for (const auto& t : translations32) s += t.size() * sizeof(cplx32);
  for (const auto& t : up_shift32) s += t.size() * sizeof(cplx32);
  for (const auto& t : down_shift32) s += t.size() * sizeof(cplx32);
  s += interp.bytes() + interp_tiles.bytes() + anterp_tiles.bytes() +
       interp_tiles32.bytes() + anterp_tiles32.bytes();
  return s;
}

MlfmaOperators::MlfmaOperators(const QuadTree& tree, const MlfmaPlan& plan)
    : precision_(plan.params().precision) {
  const double k = tree.grid().k0();
  const int nlev = tree.num_levels();
  if (nlev == 0) return;  // near-field-only degenerate domain

  const int q0 = plan.level(0).samples;
  const int np = tree.pixels_per_leaf();

  // Leaf multipole expansion E[q, p] = e^{-i k_hat(alpha_q) . u_p}.
  expansion_ = CMatrix(static_cast<std::size_t>(q0),
                       static_cast<std::size_t>(np));
  local_ = CMatrix(static_cast<std::size_t>(np),
                   static_cast<std::size_t>(q0));
  const cplx recv_pref =
      0.25 * iu * source_factor(tree.grid()) / static_cast<double>(q0);
  for (int q = 0; q < q0; ++q) {
    const double alpha = 2.0 * pi * q / q0;
    const Vec2 khat{std::cos(alpha), std::sin(alpha)};
    for (int p = 0; p < np; ++p) {
      const double phase = k * dot(khat, tree.local_pixel_offset(p));
      expansion_(static_cast<std::size_t>(q), static_cast<std::size_t>(p)) =
          cplx{std::cos(phase), -std::sin(phase)};
      local_(static_cast<std::size_t>(p), static_cast<std::size_t>(q)) =
          recv_pref * cplx{std::cos(phase), std::sin(phase)};
    }
  }

  levels_.resize(static_cast<std::size_t>(nlev));
  const auto& offsets = QuadTree::translation_offsets();
  for (int l = 0; l < nlev; ++l) {
    LevelOperators& ops = levels_[static_cast<std::size_t>(l)];
    ops.truncation = plan.level(l).truncation;
    ops.samples = plan.level(l).samples;
    const double w = tree.level(l).width;

    ops.translations.reserve(offsets.size());
    for (const auto& [dx, dy] : offsets) {
      ops.translations.push_back(make_translation_diag(
          k, Vec2{dx * w, dy * w}, ops.truncation, ops.samples));
    }

    if (l + 1 < nlev) {
      const int qp = plan.level(l + 1).samples;
      ops.interp = make_interpolation(ops.samples, qp, plan.interp_width());
      // The mixed engine builds its fp32 tiles in build_f32 below.
      if (precision_ != Precision::kMixed)
        build_band_tiles(ops.interp, ops.interp_tiles, ops.anterp_tiles);
      // Child position j (bit0 -> +x, bit1 -> +y): child centre relative
      // to parent centre is (+-w/2, +-w/2) with w the *child* width.
      ops.up_shift.resize(4);
      ops.down_shift.resize(4);
      for (int j = 0; j < 4; ++j) {
        const Vec2 d{(j & 1) ? 0.5 * w : -0.5 * w,
                     (j & 2) ? 0.5 * w : -0.5 * w};
        cvec up(static_cast<std::size_t>(qp)), down(static_cast<std::size_t>(qp));
        for (int q = 0; q < qp; ++q) {
          const double alpha = 2.0 * pi * q / qp;
          const double phase =
              k * (std::cos(alpha) * d.x + std::sin(alpha) * d.y);
          // outgoing recentring child -> parent: e^{-i k_hat . (c_ch - c_p)}
          up[static_cast<std::size_t>(q)] = {std::cos(phase), -std::sin(phase)};
          // incoming recentring parent -> child: e^{+i k_hat . (c_ch - c_p)}
          down[static_cast<std::size_t>(q)] = {std::cos(phase), std::sin(phase)};
        }
        ops.up_shift[static_cast<std::size_t>(j)] = std::move(up);
        ops.down_shift[static_cast<std::size_t>(j)] = std::move(down);
      }
    }
  }

  if (precision_ == Precision::kMixed) {
    // Round once, then drop the fp64 copies: the halved bytes() is the
    // real footprint, not an upper bound over two resident table sets.
    expansion32_.resize(expansion_.rows() * expansion_.cols());
    for (std::size_t i = 0; i < expansion32_.size(); ++i)
      expansion32_[i] = narrow(expansion_.data()[i]);
    local32_.resize(local_.rows() * local_.cols());
    for (std::size_t i = 0; i < local32_.size(); ++i)
      local32_[i] = narrow(local_.data()[i]);
    expansion_ = CMatrix{};
    local_ = CMatrix{};
    for (auto& l : levels_) l.build_f32();
  }
}

std::size_t MlfmaOperators::bytes() const {
  std::size_t s = expansion_.bytes() + local_.bytes();
  s += expansion32_.size() * sizeof(cplx32);
  s += local32_.size() * sizeof(cplx32);
  for (const auto& l : levels_) s += l.bytes();
  return s;
}

}  // namespace ffw
