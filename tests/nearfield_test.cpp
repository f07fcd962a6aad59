// The near field of a box of leaves: NearFieldOperators::apply_box (the
// leaf-row Fourier form both MLFMA engines run) must match the direct
// nine-type sum — a plain per-term triple loop, and the per-leaf
// gemm_sum_t sum a partitioned rank still runs on its ghost terms — in
// fp64, on the whole grid and on every rank rectangle, stay inside the
// mixed engine's error budget (fp32 MACs, fp64 sums), and give bits
// that depend neither on a column's position in the block nor on the
// thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "greens/nearfield.hpp"
#include "linalg/gemm.hpp"
#include "mlfma/engine.hpp"
#include "parallel/parallel_for.hpp"

namespace ffw {
namespace {

// precision_test's budget for the mixed engine.
constexpr double kMixedTol = 3e-6;

double rel_max(ccspan got, ccspan want) {
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    num = std::max(num, std::abs(got[i] - want[i]));
    den = std::max(den, std::abs(want[i]));
  }
  return num / den;
}

double rel_l2(ccspan got, ccspan want) {
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    num += std::norm(got[i] - want[i]);
    den += std::norm(want[i]);
  }
  return std::sqrt(num / den);
}

// The direct whole-grid near pass y += G0_near * x on nrhs leaf-blocked
// columns: one gemm_sum_t per leaf over its <= 9 neighbour terms.
template <typename T>
void near_sum(const QuadTree& tree, const NearFieldOperators& near,
              const std::complex<T>* x, cvec& y, std::size_t nrhs) {
  const std::size_t np = static_cast<std::size_t>(tree.pixels_per_leaf());
  const auto& begin = tree.near_begin();
  const auto& entries = tree.near();
  for (std::size_t c = 0; c < tree.num_leaves(); ++c) {
    std::vector<GemmTerm<T>> terms;
    for (std::uint32_t e = begin[c]; e < begin[c + 1]; ++e)
      terms.push_back({near.type_data<T>(entries[e].near_type),
                       x + entries[e].src * np * nrhs});
    gemm_sum_t<T>(np, nrhs, np, terms.data(), terms.size(), np, np,
                  y.data() + c * np * nrhs, np);
  }
}

// The near field of the leaves [lb, le) from sources in the same range
// as a plain triple loop per term; x and y are the range's panels.
void near_per_term(const QuadTree& tree, const NearFieldOperators& near,
                   const cvec& x, cvec& y, std::size_t nrhs, std::size_t lb,
                   std::size_t le) {
  const std::size_t np = static_cast<std::size_t>(tree.pixels_per_leaf());
  const auto& begin = tree.near_begin();
  const auto& entries = tree.near();
  for (std::size_t c = lb; c < le; ++c) {
    for (std::uint32_t e = begin[c]; e < begin[c + 1]; ++e) {
      const std::size_t src = entries[e].src;
      if (src < lb || src >= le) continue;
      const cplx* a = near.type_data<double>(entries[e].near_type);
      const cplx* b = x.data() + (src - lb) * np * nrhs;
      cplx* yc = y.data() + (c - lb) * np * nrhs;
      for (std::size_t j = 0; j < nrhs; ++j) {
        for (std::size_t i = 0; i < np; ++i) {
          cplx acc{};
          for (std::size_t p = 0; p < np; ++p)
            acc += a[p * np + i] * b[j * np + p];
          yc[j * np + i] += acc;
        }
      }
    }
  }
}

void near_per_term(const QuadTree& tree, const NearFieldOperators& near,
                   const cvec& x, cvec& y, std::size_t nrhs) {
  near_per_term(tree, near, x, y, nrhs, 0, tree.num_leaves());
}

// apply_box over the Morton leaf range [lb, le) of the whole-grid
// blocks x and y.
template <typename T>
void box_sum(const NearFieldOperators& near, const std::complex<T>* x,
             cvec& y, std::size_t np, std::size_t nrhs, std::size_t lb,
             std::size_t le) {
  near.apply_box<T>(leaf_box(lb, le), x + lb * np * nrhs,
                    y.data() + lb * np * nrhs, nrhs);
}

struct Case {
  int leaf_side;
  std::size_t nrhs;
};

class NearSum : public ::testing::TestWithParam<Case> {};

TEST_P(NearSum, MatchesPerTermGemm) {
  const Case cs = GetParam();
  Grid grid(8 * cs.leaf_side);  // 8 x 8 leaves
  QuadTree tree(grid, cs.leaf_side);
  const NearFieldOperators near(tree);
  const std::size_t np = static_cast<std::size_t>(tree.pixels_per_leaf());
  const std::size_t nrhs = cs.nrhs, nleaf = tree.num_leaves();
  Rng rng(41);
  cvec x(grid.num_pixels() * nrhs), y0(x.size());
  rng.fill_cnormal(x);
  rng.fill_cnormal(y0);  // y += : the sums must keep what is there
  cvec want = y0;
  near_per_term(tree, near, x, want, nrhs);

  cvec direct = y0;
  near_sum<double>(tree, near, x.data(), direct, nrhs);
  EXPECT_LT(rel_max(direct, want), 1e-13);

  cvec rows = y0;
  box_sum<double>(near, x.data(), rows, np, nrhs, 0, nleaf);
  EXPECT_LT(rel_max(rows, want), 1e-13);

  // The own-source part of each rank's rectangle: 16/p top-level
  // sub-trees, sources outside the rectangle left out.
  for (std::size_t p : {2, 4, 8, 16}) {
    for (std::size_t r = 0; r < p; ++r) {
      const std::size_t lb = nleaf * r / p, le = nleaf * (r + 1) / p;
      const std::size_t off = lb * np * nrhs, len = (le - lb) * np * nrhs;
      const cvec xl(x.begin() + off, x.begin() + off + len);
      cvec wl(y0.begin() + off, y0.begin() + off + len);
      near_per_term(tree, near, xl, wl, nrhs, lb, le);
      cvec got = y0;
      box_sum<double>(near, x.data(), got, np, nrhs, lb, le);
      EXPECT_LT(rel_max(ccspan{got.data() + off, len}, wl), 1e-13)
          << "p=" << p << " rank " << r;
      // Nothing outside the rectangle is written.
      EXPECT_EQ(std::memcmp(got.data(), y0.data(), off * sizeof(cplx)), 0);
      EXPECT_EQ(std::memcmp(got.data() + off + len, y0.data() + off + len,
                            (x.size() - off - len) * sizeof(cplx)),
                0);
    }
  }
}

TEST_P(NearSum, MixedWithinFp32Budget) {
  const Case cs = GetParam();
  Grid grid(8 * cs.leaf_side);
  QuadTree tree(grid, cs.leaf_side);
  const NearFieldOperators near64(tree);
  const NearFieldOperators near32(tree, Precision::kMixed);
  const std::size_t np = static_cast<std::size_t>(tree.pixels_per_leaf());
  const std::size_t nrhs = cs.nrhs;
  Rng rng(43);
  cvec x(grid.num_pixels() * nrhs);
  rng.fill_cnormal(x);
  cvec32 x32(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) x32[i] = narrow(x[i]);
  cvec want(x.size(), cplx{}), got(x.size(), cplx{});
  near_sum<double>(tree, near64, x.data(), want, nrhs);
  box_sum<float>(near32, x32.data(), got, np, nrhs, 0, tree.num_leaves());
  EXPECT_LT(rel_l2(got, want), kMixedTol);
}

TEST_P(NearSum, ColumnsDoNotDependOnTheirPosition) {
  // Column r of an nrhs-wide sum is bit-identical to the same column
  // summed alone (4-wide tiles vs the width-2 / width-1 tails, the
  // transforms' row tiles over np * nrhs elements).
  const Case cs = GetParam();
  Grid grid(8 * cs.leaf_side);
  QuadTree tree(grid, cs.leaf_side);
  const NearFieldOperators near(tree);
  const std::size_t np = static_cast<std::size_t>(tree.pixels_per_leaf());
  const std::size_t nleaf = tree.num_leaves(), nrhs = cs.nrhs;
  Rng rng(47);
  cvec x(grid.num_pixels() * nrhs), y(x.size(), cplx{});
  rng.fill_cnormal(x);
  box_sum<double>(near, x.data(), y, np, nrhs, 0, nleaf);
  for (std::size_t r = 0; r < nrhs; ++r) {
    cvec xr(grid.num_pixels()), yr(xr.size(), cplx{});
    for (std::size_t c = 0; c < nleaf; ++c)
      std::copy_n(x.data() + (c * nrhs + r) * np, np, xr.data() + c * np);
    box_sum<double>(near, xr.data(), yr, np, 1, 0, nleaf);
    for (std::size_t c = 0; c < nleaf; ++c) {
      const cplx* col = y.data() + (c * nrhs + r) * np;
      ASSERT_EQ(std::memcmp(yr.data() + c * np, col, np * sizeof(cplx)), 0)
          << "leaf " << c << " column " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    LeafSidesAndWidths, NearSum,
    ::testing::Values(Case{4, 1}, Case{4, 2}, Case{4, 3}, Case{4, 4},
                      Case{4, 5}, Case{4, 16}, Case{8, 1}, Case{8, 2},
                      Case{8, 3}, Case{8, 4}, Case{8, 5}, Case{8, 16},
                      Case{16, 1}, Case{16, 2}, Case{16, 3}, Case{16, 4},
                      Case{16, 5}, Case{16, 16}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return "leaf" + std::to_string(info.param.leaf_side) + "_nrhs" +
             std::to_string(info.param.nrhs);
    });

TEST(NearSum, OddLeafTakesTheScalarRowTail) {
  // np = 25 is not a whole number of tile rows unless a tile is one row.
  Grid grid(80);
  QuadTree tree(grid, 5);
  const NearFieldOperators near(tree);
  const NearFieldOperators near32(tree, Precision::kMixed);
  const std::size_t np = static_cast<std::size_t>(tree.pixels_per_leaf());
  const std::size_t nrhs = 3, nleaf = tree.num_leaves();
  Rng rng(53);
  cvec x(grid.num_pixels() * nrhs), want(x.size(), cplx{});
  rng.fill_cnormal(x);
  near_per_term(tree, near, x, want, nrhs);
  cvec direct(x.size(), cplx{}), rows(x.size(), cplx{});
  near_sum<double>(tree, near, x.data(), direct, nrhs);
  EXPECT_LT(rel_max(direct, want), 1e-13);
  box_sum<double>(near, x.data(), rows, np, nrhs, 0, nleaf);
  EXPECT_LT(rel_max(rows, want), 1e-13);

  cvec32 x32(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) x32[i] = narrow(x[i]);
  cvec got(x.size(), cplx{});
  box_sum<float>(near32, x32.data(), got, np, nrhs, 0, nleaf);
  EXPECT_LT(rel_l2(got, want), kMixedTol);
}

TEST(NearBox, EveryAlignedMortonRangeMatchesPerTermSum) {
  // Boxes of one leaf (odd x0 too: the transforms then take single
  // leaves instead of Morton pairs), 2 x 1 strips and every square and
  // 2:1 rectangle of an 8 x 8 leaf grid.
  Grid grid(32);
  QuadTree tree(grid, 4);
  const NearFieldOperators near(tree);
  const std::size_t np = static_cast<std::size_t>(tree.pixels_per_leaf());
  const std::size_t nrhs = 3, nleaf = tree.num_leaves();
  Rng rng(57);
  cvec x(grid.num_pixels() * nrhs), y0(x.size());
  rng.fill_cnormal(x);
  rng.fill_cnormal(y0);
  for (std::size_t n = 1; n <= nleaf; n *= 2) {
    for (std::size_t lb = 0; lb < nleaf; lb += n) {
      const LeafBox box = leaf_box(lb, lb + n);
      EXPECT_EQ(box.width * box.height, n);
      const std::size_t off = lb * np * nrhs, len = n * np * nrhs;
      const cvec xl(x.begin() + off, x.begin() + off + len);
      cvec want(y0.begin() + off, y0.begin() + off + len);
      near_per_term(tree, near, xl, want, nrhs, lb, lb + n);
      cvec got = y0;
      box_sum<double>(near, x.data(), got, np, nrhs, lb, lb + n);
      EXPECT_LT(rel_max(ccspan{got.data() + off, len}, want), 1e-13)
          << "leaves [" << lb << ", " << lb + n << ")";
    }
  }
}

TEST(NearBoxDeathTest, RejectsARangeThatIsNoRectangle) {
  EXPECT_DEATH(leaf_box(0, 3), "aligned power-of-two");
  EXPECT_DEATH(leaf_box(2, 6), "aligned power-of-two");
}

class EngineThreads : public ::testing::TestWithParam<Precision> {};

TEST_P(EngineThreads, ApplyBlockIsBitIdenticalAtOneAndFourThreads) {
  Grid grid(128);
  QuadTree tree(grid);
  MlfmaParams params;
  params.precision = GetParam();
  MlfmaEngine engine(tree, params);
  const std::size_t nrhs = 5;
  Rng rng(59);
  cvec x(grid.num_pixels() * nrhs), y1(x.size()), y4(x.size());
  rng.fill_cnormal(x);
  set_num_threads(1);
  engine.apply_block(x, y1, nrhs);
  set_num_threads(4);
  engine.apply_block(x, y4, nrhs);
  set_num_threads(0);
  EXPECT_EQ(std::memcmp(y1.data(), y4.data(), y1.size() * sizeof(cplx)), 0);
}

INSTANTIATE_TEST_SUITE_P(Precisions, EngineThreads,
                         ::testing::Values(Precision::kDouble,
                                           Precision::kMixed),
                         [](const ::testing::TestParamInfo<Precision>& info) {
                           return info.param == Precision::kDouble ? "fp64"
                                                                   : "mixed";
                         });

}  // namespace
}  // namespace ffw
