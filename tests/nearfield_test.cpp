// The near-field leaf kernel gemm_sum_t: C += sum_e A_e * B_e over a
// leaf's <= 9 neighbour products. It must match a plain per-term triple
// loop (fp64) or stay inside the mixed engine's error
// budget (fp32 MACs, fp64 sum across terms), and its fixed summation
// order must make the engine's output independent of the column
// position and of the thread count.
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

// The whole-grid near pass y += G0_near * x on nrhs leaf-blocked columns,
// one gemm_sum_t per leaf as in the engine.
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

// The same pass as a plain triple loop per term.
void near_per_term(const QuadTree& tree, const NearFieldOperators& near,
                   const cvec& x, cvec& y, std::size_t nrhs) {
  const std::size_t np = static_cast<std::size_t>(tree.pixels_per_leaf());
  const auto& begin = tree.near_begin();
  const auto& entries = tree.near();
  for (std::size_t c = 0; c < tree.num_leaves(); ++c) {
    for (std::uint32_t e = begin[c]; e < begin[c + 1]; ++e) {
      const cplx* a = near.type_data<double>(entries[e].near_type);
      const cplx* b = x.data() + entries[e].src * np * nrhs;
      cplx* yc = y.data() + c * np * nrhs;
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
  const std::size_t nrhs = cs.nrhs;
  Rng rng(41);
  cvec x(grid.num_pixels() * nrhs), y0(x.size());
  rng.fill_cnormal(x);
  rng.fill_cnormal(y0);  // C += : the kernel must keep what is there
  cvec y = y0, want = y0;
  near_sum<double>(tree, near, x.data(), y, nrhs);
  near_per_term(tree, near, x, want, nrhs);
  EXPECT_LT(rel_max(y, want), 1e-13);
}

TEST_P(NearSum, MixedWithinFp32Budget) {
  const Case cs = GetParam();
  Grid grid(8 * cs.leaf_side);
  QuadTree tree(grid, cs.leaf_side);
  const NearFieldOperators near64(tree);
  const NearFieldOperators near32(tree, Precision::kMixed);
  const std::size_t nrhs = cs.nrhs;
  Rng rng(43);
  cvec x(grid.num_pixels() * nrhs);
  rng.fill_cnormal(x);
  cvec32 x32(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) x32[i] = narrow(x[i]);
  cvec want(x.size(), cplx{}), got(x.size(), cplx{});
  near_sum<double>(tree, near64, x.data(), want, nrhs);
  near_sum<float>(tree, near32, x32.data(), got, nrhs);
  EXPECT_LT(rel_l2(got, want), kMixedTol);
}

TEST_P(NearSum, ColumnsDoNotDependOnTheirPosition) {
  // Column r of an nrhs-wide sum is bit-identical to the same column
  // summed alone (4-wide tiles vs the width-2 / width-1 tails).
  const Case cs = GetParam();
  Grid grid(8 * cs.leaf_side);
  QuadTree tree(grid, cs.leaf_side);
  const NearFieldOperators near(tree);
  const std::size_t np = static_cast<std::size_t>(tree.pixels_per_leaf());
  const std::size_t nleaf = tree.num_leaves(), nrhs = cs.nrhs;
  Rng rng(47);
  cvec x(grid.num_pixels() * nrhs), y(x.size(), cplx{});
  rng.fill_cnormal(x);
  near_sum<double>(tree, near, x.data(), y, nrhs);
  for (std::size_t r = 0; r < nrhs; ++r) {
    cvec xr(grid.num_pixels()), yr(xr.size(), cplx{});
    for (std::size_t c = 0; c < nleaf; ++c)
      std::copy_n(x.data() + (c * nrhs + r) * np, np, xr.data() + c * np);
    near_sum<double>(tree, near, xr.data(), yr, 1);
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
  const std::size_t nrhs = 3;
  Rng rng(53);
  cvec x(grid.num_pixels() * nrhs), y(x.size(), cplx{}), want(x.size());
  rng.fill_cnormal(x);
  near_sum<double>(tree, near, x.data(), y, nrhs);
  near_per_term(tree, near, x, want, nrhs);
  EXPECT_LT(rel_max(y, want), 1e-13);

  cvec32 x32(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) x32[i] = narrow(x[i]);
  cvec got(x.size(), cplx{});
  near_sum<float>(tree, near32, x32.data(), got, nrhs);
  EXPECT_LT(rel_l2(got, y), kMixedTol);
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
