#include "greens/nearfield.hpp"

#include "greens/greens.hpp"

namespace ffw {

NearFieldOperators::NearFieldOperators(const QuadTree& tree,
                                       Precision precision)
    : precision_(precision) {
  const Grid& grid = tree.grid();
  const double w = tree.leaf_pixel_side() * grid.h();  // cluster width
  const int np = tree.pixels_per_leaf();
  for (int dy = -1; dy <= 1; ++dy) {
    for (int dx = -1; dx <= 1; ++dx) {
      CMatrix m(np, np);
      const Vec2 shift{dx * w, dy * w};
      for (int q = 0; q < np; ++q) {  // source pixel in neighbour cluster
        const Vec2 rs = tree.local_pixel_offset(q) + shift;
        for (int p = 0; p < np; ++p) {  // destination pixel
          const Vec2 rd = tree.local_pixel_offset(p);
          m(static_cast<std::size_t>(p), static_cast<std::size_t>(q)) =
              g0_pixel(grid, rd, rs);
        }
      }
      mats_[static_cast<std::size_t>((dy + 1) * 3 + (dx + 1))] = std::move(m);
    }
  }

  if (precision_ == Precision::kMixed) {
    for (int t = 0; t < kNumTypes; ++t) {
      const CMatrix& m = mats_[static_cast<std::size_t>(t)];
      cvec32& m32 = mats32_[static_cast<std::size_t>(t)];
      m32.resize(m.rows() * m.cols());
      for (std::size_t i = 0; i < m32.size(); ++i) m32[i] = narrow(m.data()[i]);
      mats_[static_cast<std::size_t>(t)] = CMatrix{};
    }
  }
}

std::size_t NearFieldOperators::bytes() const {
  std::size_t s = 0;
  for (const auto& m : mats_) s += m.bytes();
  for (const auto& m : mats32_) s += m.size() * sizeof(cplx32);
  return s;
}

}  // namespace ffw
