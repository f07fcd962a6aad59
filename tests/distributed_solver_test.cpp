// Distributed BiCGStab semantics: the reducer-parameterised block solver
// over vcluster rank slices must match the serial reference solve
// exactly (same iteration count, same solution), because every scalar it
// computes is the same number.
#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.hpp"
#include "forward/block_bicgstab.hpp"
#include "linalg/cmatrix.hpp"
#include "linalg/kernels.hpp"
#include "vcluster/comm.hpp"

namespace ffw {
namespace {

/// Block-diagonal operator: rank r applies block r locally; this is the
/// simplest operator with honest distributed structure.
struct BlockOp {
  std::vector<CMatrix> blocks;
};

TEST(DistributedBicgstab, MatchesSerialSolve) {
  const int p = 4;
  const std::size_t nb = 20;  // block size
  Rng rng(81);
  BlockOp op;
  for (int r = 0; r < p; ++r) {
    CMatrix m(nb, nb);
    for (std::size_t j = 0; j < nb; ++j) {
      for (std::size_t i = 0; i < nb; ++i) m(i, j) = 0.15 * rng.cnormal();
      m(j, j) += 3.0;
    }
    op.blocks.push_back(std::move(m));
  }
  cvec b(nb * p);
  rng.fill_cnormal(b);

  // Serial reference: block-diagonal apply on the full vector.
  BicgstabOptions opts;
  opts.tol = 1e-10;
  cvec x_serial(nb * p, cplx{});
  const auto serial = bicgstab(
      [&](ccspan in, cspan out) {
        for (int r = 0; r < p; ++r) {
          matvec(op.blocks[static_cast<std::size_t>(r)],
                 ccspan{in.data() + static_cast<std::size_t>(r) * nb, nb},
                 cspan{out.data() + static_cast<std::size_t>(r) * nb, nb});
        }
      },
      b, x_serial, opts);
  ASSERT_TRUE(serial.converged);

  // Distributed: each rank owns one block slice; dots reduce over all.
  cvec x_dist(nb * p, cplx{});
  std::vector<int> iters(static_cast<std::size_t>(p), -1);
  std::vector<int> reductions(static_cast<std::size_t>(p), 0);
  VCluster vc(p);
  std::vector<int> all = {0, 1, 2, 3};
  vc.run([&](Comm& comm) {
    const int r = comm.rank();
    int& calls = reductions[static_cast<std::size_t>(r)];
    DotReducer red{[&](cspan v) {
                     ++calls;
                     comm.group_allreduce_sum(v, all);
                   },
                   [&](rspan v) {
                     ++calls;
                     comm.group_allreduce_sum(v, all);
                   }};
    cvec x_loc(nb, cplx{});
    const auto res = block_bicgstab(
        [&](ccspan in, cspan out) {
          matvec(op.blocks[static_cast<std::size_t>(r)], in, out);
        },
        ccspan{b.data() + static_cast<std::size_t>(r) * nb, nb}, x_loc,
        BlockLayout{nb, 1, 1}, opts, red);
    EXPECT_TRUE(res.converged);
    iters[static_cast<std::size_t>(r)] = res.rhs[0].iterations;
    std::memcpy(x_dist.data() + static_cast<std::size_t>(r) * nb,
                x_loc.data(), nb * sizeof(cplx));
  });

  // Same Krylov trajectory: identical iteration counts on every rank,
  // with every inner product reduced through the group.
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(iters[static_cast<std::size_t>(r)], serial.iterations);
    EXPECT_GT(reductions[static_cast<std::size_t>(r)], 0);
  }
  EXPECT_LT(rel_l2_diff(x_dist, x_serial), 1e-9);
}

// A one-rank reducer (vector forms that sum over a single rank, i.e. leave
// the values alone) reproduces the default-reducer solve bit for bit.
TEST(DistributedBicgstab, SingleRankReducerIsIdentity) {
  Rng rng(82);
  const std::size_t n = 30;
  CMatrix a(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) a(i, j) = 0.1 * rng.cnormal();
    a(j, j) += 2.0;
  }
  cvec b(n), x1(n, cplx{}), x2(n, cplx{});
  rng.fill_cnormal(b);
  const BlockLayout lo{n, 1, 1};
  const auto op = [&](ccspan in, cspan out) { matvec(a, in, out); };
  const auto r1 = block_bicgstab(op, b, x1, lo);
  int calls = 0;
  DotReducer one_rank;
  one_rank.sum_cplx_vec = [&](cspan) { ++calls; };
  one_rank.sum_double_vec = [&](rspan) { ++calls; };
  const auto r2 = block_bicgstab(op, b, x2, lo, {}, one_rank);
  EXPECT_GT(calls, 0);
  EXPECT_EQ(r1.rhs[0].iterations, r2.rhs[0].iterations);
  EXPECT_EQ(0, std::memcmp(x1.data(), x2.data(), n * sizeof(cplx)));
}

}  // namespace
}  // namespace ffw
