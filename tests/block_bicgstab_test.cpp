// Block BiCGStab: lockstep recurrences over nrhs columns must reproduce
// the single-vector reference solver exactly — same iterates, same
// iteration/matvec counts, same convergence decisions — including when
// columns converge at different iterations. A start from x0 = 0 makes no
// setup apply (A x0 = 0 exactly), on one rank or on a reducing group.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "forward/block_bicgstab.hpp"
#include "forward/forward.hpp"
#include "linalg/kernels.hpp"
#include "vcluster/comm.hpp"

namespace ffw {
namespace {

// Well-conditioned dense test operator A = I + eps * R.
struct DenseOp {
  std::size_t n;
  cvec r;  // n x n column-major perturbation
  double eps;

  DenseOp(std::size_t n_, std::uint64_t seed, double eps_)
      : n(n_), r(n_ * n_), eps(eps_) {
    Rng rng(seed);
    rng.fill_cnormal(r);
  }

  void apply(ccspan x, cspan y) const {
    for (std::size_t i = 0; i < n; ++i) y[i] = x[i];
    for (std::size_t j = 0; j < n; ++j) {
      const cplx xj = eps * x[j];
      const cplx* col = r.data() + j * n;
      for (std::size_t i = 0; i < n; ++i) y[i] += col[i] * xj;
    }
  }

  // Column-major block apply (BlockLayout{n, nrhs, 1}).
  void apply_block(ccspan x, cspan y, std::size_t nrhs) const {
    for (std::size_t c = 0; c < nrhs; ++c)
      apply(ccspan{x.data() + c * n, n}, cspan{y.data() + c * n, n});
  }
};

TEST(BlockBicgstab, MatchesSingleSolverPerColumn) {
  const std::size_t n = 48, nrhs = 4;
  const DenseOp op(n, 5, 0.05);
  const BlockLayout lo{n, nrhs, 1};
  Rng rng(6);
  cvec b(lo.size()), x(lo.size(), cplx{});
  rng.fill_cnormal(b);

  BicgstabOptions opts;
  opts.tol = 1e-10;
  opts.max_iterations = 200;

  cvec xb(x);
  const BlockBicgstabResult blk = block_bicgstab(
      [&](ccspan in, cspan out) { op.apply_block(in, out, nrhs); }, b, xb,
      lo, opts);
  ASSERT_TRUE(blk.converged);
  ASSERT_EQ(blk.rhs.size(), nrhs);

  for (std::size_t c = 0; c < nrhs; ++c) {
    cvec xs(n, cplx{});
    const BicgstabResult single =
        bicgstab([&](ccspan in, cspan out) { op.apply(in, out); },
                 ccspan{b.data() + c * n, n}, xs, opts);
    ASSERT_TRUE(single.converged);
    EXPECT_EQ(blk.rhs[c].iterations, single.iterations) << "col=" << c;
    EXPECT_EQ(blk.rhs[c].matvecs, single.matvecs) << "col=" << c;
    // The recurrences are identical; only last-bit rounding may differ
    // (the batched reductions compile separately from cdot/nrm2).
    EXPECT_NEAR(blk.rhs[c].relres, single.relres, 1e-8 * single.relres)
        << "col=" << c;
    double num = 0.0, den = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      num += std::norm(xb[c * n + i] - xs[i]);
      den += std::norm(xs[i]);
    }
    EXPECT_LT(std::sqrt(num), 1e-12 * std::sqrt(den)) << "col=" << c;
  }
}

TEST(BlockBicgstab, MixedConvergenceFreezesColumnsCorrectly) {
  // Column 0: zero RHS (converged before any work). Column 1: initial
  // guess already solves the system (converged at the initial residual
  // check). Column 2: a hard column that needs real iterations. All
  // must end exactly where the single-vector solver would leave them.
  const std::size_t n = 40, nrhs = 3;
  const DenseOp op(n, 9, 0.08);
  const BlockLayout lo{n, nrhs, 1};
  Rng rng(11);

  cvec b(lo.size(), cplx{}), x(lo.size(), cplx{});
  cvec exact(n);
  rng.fill_cnormal(exact);
  op.apply(exact, cspan{b.data() + 1 * n, n});  // b_1 = A * exact
  std::copy(exact.begin(), exact.end(), x.begin() + static_cast<std::ptrdiff_t>(n));
  rng.fill_cnormal(cspan{b.data() + 2 * n, n});
  // Poison column 0's initial guess: a zero-b column must come back 0.
  for (std::size_t i = 0; i < n; ++i) x[i] = cplx{3.0, -4.0};

  BicgstabOptions opts;
  opts.tol = 1e-9;
  opts.max_iterations = 200;

  const BlockBicgstabResult blk = block_bicgstab(
      [&](ccspan in, cspan out) { op.apply_block(in, out, nrhs); }, b, x,
      lo, opts);
  ASSERT_TRUE(blk.converged);

  EXPECT_TRUE(blk.rhs[0].converged);
  EXPECT_EQ(blk.rhs[0].iterations, 0);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(x[i], cplx{});

  EXPECT_TRUE(blk.rhs[1].converged);
  EXPECT_EQ(blk.rhs[1].iterations, 0);  // initial residual below tol
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(x[n + i], exact[i]);

  EXPECT_TRUE(blk.rhs[2].converged);
  EXPECT_GT(blk.rhs[2].iterations, 0);
  cvec xs(n, cplx{});
  const BicgstabResult single =
      bicgstab([&](ccspan in, cspan out) { op.apply(in, out); },
               ccspan{b.data() + 2 * n, n}, xs, opts);
  EXPECT_EQ(blk.rhs[2].iterations, single.iterations);
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    num += std::norm(x[2 * n + i] - xs[i]);
    den += std::norm(xs[i]);
  }
  EXPECT_LT(std::sqrt(num), 1e-12 * std::sqrt(den));

  // The block keeps iterating only as long as the hardest column needs.
  EXPECT_EQ(blk.iterations, single.iterations);
}

TEST(BlockBicgstab, ForwardSolverBlockMatchesPerColumnSolve) {
  Grid grid(32);
  QuadTree tree(grid);
  const std::size_t n = grid.num_pixels();
  Rng rng(31);

  cvec contrast(n);
  for (std::size_t i = 0; i < n; ++i)
    contrast[i] = 0.3 * std::exp(cplx{0.0, 0.4 * static_cast<double>(i % 7)});

  BicgstabOptions opts;
  opts.tol = 1e-8;
  opts.max_iterations = 300;

  const std::size_t nrhs = 3;
  cvec rhs(n * nrhs);
  rng.fill_cnormal(rhs);

  MlfmaEngine eng_blk(tree);
  ForwardSolver blk(eng_blk, opts);
  blk.set_contrast(contrast);
  cvec phi_blk(n * nrhs, cplx{});
  ASSERT_TRUE(blk.solve(rhs, phi_blk, nrhs, 0.0, /*adjoint=*/false));
  EXPECT_EQ(blk.stats().solves, nrhs);
  const std::vector<std::uint16_t>& block_iters =
      blk.stats().per_solve_iterations;
  ASSERT_EQ(block_iters.size(), nrhs);

  MlfmaEngine eng_one(tree);
  ForwardSolver one(eng_one, opts);
  one.set_contrast(contrast);
  for (std::size_t c = 0; c < nrhs; ++c) {
    cvec phi(n, cplx{});
    ASSERT_TRUE(one.solve(ccspan{rhs.data() + c * n, n}, phi, 1, 0.0,
                          /*adjoint=*/false));
    EXPECT_EQ(block_iters[c], one.stats().per_solve_iterations.back())
        << "col=" << c;
    double num = 0.0, den = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      num += std::norm(phi_blk[c * n + i] - phi[i]);
      den += std::norm(phi[i]);
    }
    EXPECT_LT(std::sqrt(num), 1e-10 * std::sqrt(den)) << "col=" << c;
  }
}

bool all_zero(ccspan v) {
  for (const cplx& e : v)
    if (e != cplx{}) return false;
  return true;
}

TEST(BlockBicgstab, ZeroStartMakesNoSetupApply) {
  // Every operator call is a Krylov direction: two per iteration (one
  // fewer on a half-step exit), none on an all-zero block.
  const std::size_t n = 48, nrhs = 4;
  const DenseOp op(n, 5, 0.05);
  const BlockLayout lo{n, nrhs, 1};
  Rng rng(6);
  cvec b(lo.size()), x(lo.size(), cplx{});
  rng.fill_cnormal(b);
  BicgstabOptions opts;
  opts.tol = 1e-10;
  opts.max_iterations = 200;

  int calls = 0;
  bool zero_input = false;
  const BlockBicgstabResult blk = block_bicgstab(
      [&](ccspan in, cspan out) {
        ++calls;
        zero_input = zero_input || all_zero(in);
        op.apply_block(in, out, nrhs);
      },
      b, x, lo, opts);
  ASSERT_TRUE(blk.converged);
  EXPECT_FALSE(zero_input);
  EXPECT_EQ(calls, blk.block_matvecs);
  EXPECT_TRUE(calls == 2 * blk.iterations || calls == 2 * blk.iterations - 1)
      << calls << " calls in " << blk.iterations << " iterations";
}

TEST(BlockBicgstab, OneNonzeroColumnKeepsTheSetupApply) {
  const std::size_t n = 40, nrhs = 3;
  const DenseOp op(n, 9, 0.08);
  const BlockLayout lo{n, nrhs, 1};
  Rng rng(12);
  cvec b(lo.size()), x(lo.size(), cplx{});
  rng.fill_cnormal(b);
  cvec guess(n);
  rng.fill_cnormal(guess);
  std::copy(guess.begin(), guess.end(),
            x.begin() + static_cast<std::ptrdiff_t>(n));
  BicgstabOptions opts;
  opts.tol = 1e-10;
  opts.max_iterations = 200;

  int calls = 0;
  cvec first_in;
  const BlockBicgstabResult blk = block_bicgstab(
      [&](ccspan in, cspan out) {
        if (calls++ == 0) first_in.assign(in.begin(), in.end());
        op.apply_block(in, out, nrhs);
      },
      b, x, lo, opts);
  ASSERT_TRUE(blk.converged);
  // The first call is r = b - A x0 on the guess itself.
  ASSERT_EQ(first_in.size(), lo.size());
  EXPECT_TRUE(all_zero(ccspan{first_in.data(), n}));
  EXPECT_TRUE(std::equal(guess.begin(), guess.end(), first_in.begin() + n));
  EXPECT_EQ(calls, blk.block_matvecs);
  EXPECT_TRUE(calls == 2 * blk.iterations + 1 ||
              calls == 2 * blk.iterations)
      << calls << " calls in " << blk.iterations << " iterations";
  // Each column still solves its own system.
  cvec ax(lo.size());
  op.apply_block(x, ax, nrhs);
  EXPECT_LT(rel_l2_diff(ax, b), 1e-9);
}

TEST(BlockBicgstab, ReducingGroupAppliesWhenAnyRankHasANonzeroGuess) {
  // Two ranks of one solve: rank 1's slice of x0 is nonzero, rank 0's is
  // zero. The zero-start test reduces over the group, so both ranks make
  // the setup apply and stay in lockstep.
  const int p = 2;
  const std::size_t nb = 24, nrhs = 2;
  std::vector<DenseOp> ops;
  for (int r = 0; r < p; ++r)
    ops.emplace_back(nb, 70 + static_cast<std::uint64_t>(r), 0.05);
  const BlockLayout lo{nb, nrhs, 1};
  Rng rng(71);
  std::vector<cvec> b(p, cvec(lo.size())), x(p, cvec(lo.size(), cplx{}));
  for (int r = 0; r < p; ++r) rng.fill_cnormal(b[static_cast<std::size_t>(r)]);
  x[1][3] = cplx{0.5, -0.25};
  BicgstabOptions opts;
  opts.tol = 1e-10;
  opts.max_iterations = 200;

  std::vector<int> calls(p, 0), iterations(p, -1), block_matvecs(p, -1);
  std::vector<char> setup_on_zero(p, 0);
  VCluster vc(p);
  const std::vector<int> all = {0, 1};
  vc.run([&](Comm& comm) {
    const std::size_t r = static_cast<std::size_t>(comm.rank());
    DotReducer red{[&](cspan v) { comm.group_allreduce_sum(v, all); },
                   [&](rspan v) { comm.group_allreduce_sum(v, all); }};
    const BlockBicgstabResult res = block_bicgstab(
        [&](ccspan in, cspan out) {
          if (calls[r]++ == 0) setup_on_zero[r] = all_zero(in);
          ops[r].apply_block(in, out, nrhs);
        },
        b[r], x[r], lo, opts, red);
    EXPECT_TRUE(res.converged);
    iterations[r] = res.iterations;
    block_matvecs[r] = res.block_matvecs;
  });
  EXPECT_EQ(iterations[0], iterations[1]);
  EXPECT_EQ(calls[0], calls[1]);
  // Rank 0's first call is the setup apply on its zero slice.
  EXPECT_TRUE(setup_on_zero[0]);
  EXPECT_FALSE(setup_on_zero[1]);
  for (int r = 0; r < p; ++r) {
    const std::size_t i = static_cast<std::size_t>(r);
    EXPECT_EQ(calls[i], block_matvecs[i]);
    EXPECT_TRUE(calls[i] == 2 * iterations[i] + 1 ||
                calls[i] == 2 * iterations[i])
        << "rank " << r;
  }
}

}  // namespace
}  // namespace ffw
