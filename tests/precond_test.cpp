// Iteration-reduction layer (ISSUE 6): near-field block-Jacobi
// preconditioning, Eisenstat-Walker forcing, Krylov recycling, and the
// refined-solver stall fallback — correctness, determinism (serial,
// parallel rerun, crash-recovery) and observability.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/rng.hpp"
#include "dbim/parallel_driver.hpp"
#include "forward/block_bicgstab.hpp"
#include "forward/forward.hpp"
#include "forward/precond.hpp"
#include "forward/recycle.hpp"
#include "linalg/kernels.hpp"
#include "linalg/lu.hpp"
#include "obs/obs.hpp"
#include "parallel/parallel_for.hpp"
#include "phantom/setup.hpp"
#include "vcluster/fault.hpp"

namespace ffw {
namespace {

// Dense per-leaf system M_c = I - A_self diag(O_c) for verification.
CMatrix leaf_system(const CMatrix& self, ccspan o_leaf) {
  const std::size_t np = self.rows();
  CMatrix m(np, np);
  for (std::size_t j = 0; j < np; ++j)
    for (std::size_t i = 0; i < np; ++i)
      m(i, j) = (i == j ? cplx{1.0} : cplx{}) - self(i, j) * o_leaf[j];
  return m;
}

struct LeafFixture {
  Grid grid{32};
  QuadTree tree{grid};
  MlfmaEngine engine{tree};
  cvec o_clu;
  std::size_t np, nleaf;

  LeafFixture() {
    const cvec deps =
        gaussian_blob(grid, Vec2{0.2, -0.1}, 0.6, cplx{0.05, 0.01});
    const cvec o_nat = contrast_from_permittivity(grid, deps);
    o_clu.assign(o_nat.size(), cplx{});
    tree.to_cluster_order(o_nat, o_clu);
    np = static_cast<std::size_t>(tree.pixels_per_leaf());
    nleaf = tree.num_leaves();
  }
};

TEST(NearFieldBlockJacobi, InvertsLeafSelfBlocks) {
  LeafFixture f;
  const CMatrix& self = f.engine.nearfield().type(4);
  NearFieldBlockJacobi p(self, f.o_clu);
  EXPECT_EQ(p.block_dim(), f.np);
  EXPECT_EQ(p.num_blocks(), f.nleaf);
  EXPECT_GT(p.bytes(), 0u);

  const BlockLayout lo{f.np, 2, f.nleaf};
  Rng rng(71);
  cvec x(lo.size()), z(lo.size());
  rng.fill_cnormal(x);
  p.apply(x, z, lo);
  // Verify M_c z = x block by block against the dense leaf system.
  cvec mz(f.np), zl(f.np), xl(f.np);
  for (std::size_t c = 0; c < f.nleaf; ++c) {
    const CMatrix m =
        leaf_system(self, ccspan{f.o_clu.data() + c * f.np, f.np});
    for (std::size_t r = 0; r < lo.nrhs; ++r) {
      std::copy_n(z.data() + lo.at(c, r), f.np, zl.begin());
      std::copy_n(x.data() + lo.at(c, r), f.np, xl.begin());
      matvec(m, zl, mz);
      EXPECT_LT(rel_l2_diff(mz, xl), 1e-12) << "leaf " << c << " rhs " << r;
    }
  }

  // Hermitian apply: M_c^H z = x.
  p.apply_herm(x, z, lo);
  for (std::size_t c = 0; c < f.nleaf; ++c) {
    const CMatrix m =
        leaf_system(self, ccspan{f.o_clu.data() + c * f.np, f.np});
    CMatrix mh(f.np, f.np);
    for (std::size_t j = 0; j < f.np; ++j)
      for (std::size_t i = 0; i < f.np; ++i) mh(i, j) = std::conj(m(j, i));
    for (std::size_t r = 0; r < lo.nrhs; ++r) {
      std::copy_n(z.data() + lo.at(c, r), f.np, zl.begin());
      std::copy_n(x.data() + lo.at(c, r), f.np, xl.begin());
      matvec(mh, zl, mz);
      EXPECT_LT(rel_l2_diff(mz, xl), 1e-12) << "leaf " << c << " rhs " << r;
    }
  }
}

TEST(NearFieldBlockJacobi, MixedStorageSolvesToFp32Accuracy) {
  LeafFixture f;
  const CMatrix& self = f.engine.nearfield().type(4);
  NearFieldBlockJacobi p64(self, f.o_clu, Precision::kDouble);
  NearFieldBlockJacobi p32(self, f.o_clu, Precision::kMixed);
  EXPECT_LT(p32.bytes(), p64.bytes());  // fp32 factors: about half

  const BlockLayout lo{f.np, 1, f.nleaf};
  Rng rng(72);
  cvec x(lo.size()), z64(lo.size()), z32(lo.size());
  rng.fill_cnormal(x);
  p64.apply(x, z64, lo);
  p32.apply(x, z32, lo);
  const double d = rel_l2_diff(z32, z64);
  EXPECT_LT(d, 1e-4);   // fp32 inverses
  EXPECT_GT(d, 1e-12);  // and they really are fp32, not fp64 copies
}

/// Block vectors compare bit for bit.
bool same_bits(const cvec& a, const cvec& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0;
}

// A contrast update rebuilds the inverses in place, into the storage of
// the previous ones: the result is the fresh construction's, bit for
// bit, and the footprint does not change.
TEST(NearFieldBlockJacobi, RebuildInPlaceMatchesFreshConstruction) {
  LeafFixture f;
  const CMatrix& self = f.engine.nearfield().type(4);
  cvec o_prev(f.o_clu.size());
  for (std::size_t i = 0; i < o_prev.size(); ++i)
    o_prev[i] = cplx{0.5, -0.25} * f.o_clu[i];
  // Identity columns per leaf: the apply returns each inverse exactly.
  const BlockLayout lo{f.np, f.np, f.nleaf};
  cvec eye(lo.size(), cplx{});
  for (std::size_t c = 0; c < f.nleaf; ++c)
    for (std::size_t r = 0; r < f.np; ++r) eye[lo.at(c, r) + r] = cplx{1.0};
  for (const Precision storage : {Precision::kDouble, Precision::kMixed}) {
    NearFieldBlockJacobi rebuilt(self, o_prev, storage);
    const std::size_t bytes = rebuilt.bytes();
    rebuilt.rebuild(self, f.o_clu);
    EXPECT_EQ(rebuilt.bytes(), bytes);
    const NearFieldBlockJacobi fresh(self, f.o_clu, storage);
    EXPECT_EQ(fresh.bytes(), bytes);
    cvec a(lo.size()), b(lo.size());
    rebuilt.apply(eye, a, lo);
    fresh.apply(eye, b, lo);
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)), 0);
    rebuilt.apply_herm(eye, a, lo);
    fresh.apply_herm(eye, b, lo);
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)), 0);
  }
}

/// The np x np identity, column-major.
cvec identity_panel(std::size_t np) {
  cvec eye(np * np, cplx{});
  for (std::size_t i = 0; i < np; ++i) eye[i * np + i] = 1.0;
  return eye;
}

bool is_identity(ccspan inv, std::size_t np) {
  const cvec eye = identity_panel(np);
  return inv.size() == eye.size() &&
         std::memcmp(inv.data(), eye.data(), eye.size() * sizeof(cplx)) == 0;
}

// At zero contrast M_c = I: every leaf stores exactly I, with no
// factorisation to round it (the first build of every DBIM run).
TEST(NearFieldBlockJacobi, ZeroContrastStoresTheIdentity) {
  LeafFixture f;
  const NearFieldBlockJacobi p(f.engine.nearfield().type(4),
                               cvec(f.o_clu.size(), cplx{}));
  ASSERT_EQ(p.num_blocks(), f.nleaf);
  for (std::size_t c = 0; c < f.nleaf; ++c)
    EXPECT_TRUE(is_identity(p.inverse(c), f.np)) << "leaf " << c;
}

// One zero leaf in a contrast whose other leaves are not: that leaf gets
// exactly I, and the apply passes its panel through value for value.
TEST(NearFieldBlockJacobi, ZeroLeafAmongNonzeroLeavesIsTheIdentity) {
  LeafFixture f;
  const std::size_t zero_leaf = 3;
  cvec o = f.o_clu;
  std::fill_n(o.begin() + zero_leaf * f.np, f.np, cplx{});
  for (std::size_t c = 0; c < f.nleaf; ++c) {
    if (c == zero_leaf) continue;
    ASSERT_TRUE(std::any_of(o.begin() + c * f.np, o.begin() + (c + 1) * f.np,
                            [](cplx v) { return v != cplx{}; }))
        << "leaf " << c;
  }
  const NearFieldBlockJacobi p(f.engine.nearfield().type(4), o);
  EXPECT_TRUE(is_identity(p.inverse(zero_leaf), f.np));
  EXPECT_FALSE(is_identity(p.inverse(zero_leaf + 1), f.np));

  const BlockLayout lo{f.np, 3, f.nleaf};
  Rng rng(78);
  cvec x(lo.size()), z(lo.size());
  rng.fill_cnormal(x);
  p.apply(x, z, lo);
  for (std::size_t r = 0; r < lo.nrhs; ++r)
    for (std::size_t i = 0; i < f.np; ++i)
      EXPECT_EQ(z[lo.at(zero_leaf, r) + i], x[lo.at(zero_leaf, r) + i])
          << "rhs " << r << " row " << i;
}

// The preconditioner and the block solver work leaf-parallel and
// chunk-parallel; neither may let the thread count into the result.
TEST(NearFieldBlockJacobi, ThreadCountDoesNotChangeAnyBit) {
  LeafFixture f;
  const CMatrix& self = f.engine.nearfield().type(4);
  NearFieldBlockJacobi p(self, f.o_clu);
  // Enough columns that the block splits into several fixed chunks.
  const BlockLayout lo{f.np, 64, f.nleaf};
  ASSERT_GT(BlockChunks(lo).count, 1u);
  Rng rng(76);
  cvec x(lo.size()), b(lo.size());
  rng.fill_cnormal(x);
  rng.fill_cnormal(b);

  // A fixed block operator: the preconditioned leaf systems plus a weak
  // coupling to the next leaf, applied in one serial loop.
  const auto op = [&](ccspan in, cspan out) {
    cvec col(f.np), mcol(f.np);
    for (std::size_t c = 0; c < f.nleaf; ++c) {
      const CMatrix m =
          leaf_system(self, ccspan{f.o_clu.data() + c * f.np, f.np});
      const std::size_t next = (c + 1) % f.nleaf;
      for (std::size_t r = 0; r < lo.nrhs; ++r) {
        std::copy_n(in.data() + lo.at(c, r), f.np, col.begin());
        matvec(m, col, mcol);
        const cplx* xn = in.data() + lo.at(next, r);
        cplx* y = out.data() + lo.at(c, r);
        for (std::size_t i = 0; i < f.np; ++i) y[i] = mcol[i] + 0.05 * xn[i];
      }
    }
  };
  BicgstabOptions opts;
  opts.tol = 1e-10;

  struct Run {
    cvec z, zh, sol;
    BlockBicgstabResult res;
  };
  const auto run = [&](int threads) {
    set_num_threads(threads);
    Run out{cvec(lo.size()), cvec(lo.size()), cvec(lo.size(), cplx{}), {}};
    p.apply(x, out.z, lo);
    p.apply_herm(x, out.zh, lo);
    out.res = block_bicgstab(op, b, out.sol, lo, opts, {},
                             PrecondContext{&p, lo, false});
    set_num_threads(0);
    return out;
  };
  const Run one = run(1);
  const Run four = run(4);
  EXPECT_TRUE(same_bits(one.z, four.z));
  EXPECT_TRUE(same_bits(one.zh, four.zh));
  ASSERT_TRUE(one.res.converged);
  EXPECT_EQ(one.res.iterations, four.res.iterations);
  EXPECT_EQ(one.res.total_iterations(), four.res.total_iterations());
  EXPECT_TRUE(same_bits(one.sol, four.sol));
}

// <M^{-1} x, y> = <x, M^{-H} y>: apply_herm is the adjoint of apply, at
// fp64 storage to rounding and at fp32 storage to the fp32 rounding of
// the operands.
TEST(NearFieldBlockJacobi, ApplyHermIsTheAdjointOfApply) {
  LeafFixture f;
  const CMatrix& self = f.engine.nearfield().type(4);
  const BlockLayout lo{f.np, 3, f.nleaf};
  Rng rng(77);
  cvec x(lo.size()), y(lo.size()), mx(lo.size()), mhy(lo.size());
  rng.fill_cnormal(x);
  rng.fill_cnormal(y);
  for (const auto& [storage, tol] :
       {std::pair{Precision::kDouble, 1e-12}, std::pair{Precision::kMixed, 1e-5}}) {
    const NearFieldBlockJacobi p(self, f.o_clu, storage);
    p.apply(x, mx, lo);
    p.apply_herm(y, mhy, lo);
    const cplx lhs = cdot(mx, y), rhs = cdot(x, mhy);
    EXPECT_LT(std::abs(lhs - rhs), tol * std::abs(lhs))
        << (storage == Precision::kMixed ? "fp32" : "fp64");
  }
}

// The preconditioner must not move the answer: with a tight tolerance
// every preconditioned solve path agrees with the unpreconditioned one
// to 1e-10 on a homogeneous cylinder, while spending fewer iterations.
TEST(PrecondForward, MatchesUnpreconditionedSolvesOnCylinder) {
  Grid grid(32);
  QuadTree tree(grid);
  MlfmaEngine engine(tree);
  const cvec deps =
      disks(grid, {Disk{Vec2{0.1, -0.1}, 0.5, cplx{0.1, 0.0}}});
  const cvec contrast = contrast_from_permittivity(grid, deps);
  const std::size_t n = grid.num_pixels();

  BicgstabOptions opts;
  opts.tol = 1e-12;
  ForwardSolver plain(engine, opts), pre(engine, opts);
  plain.set_contrast(contrast);
  pre.set_near_preconditioner(true);
  pre.set_contrast(contrast);
  ASSERT_NE(pre.near_preconditioner(), nullptr);
  EXPECT_GT(pre.stats().precond_setup_seconds, 0.0);

  Rng rng(73);
  cvec rhs(n);
  rng.fill_cnormal(rhs);

  cvec phi_a(n, cplx{}), phi_b(n, cplx{});
  const auto ra = plain.solve_block(rhs, phi_a, 1);
  const auto rb = pre.solve_block(rhs, phi_b, 1);
  ASSERT_TRUE(ra.converged && rb.converged);
  EXPECT_LT(rel_l2_diff(phi_b, phi_a), 1e-10);
  EXPECT_LT(rb.rhs[0].iterations, ra.rhs[0].iterations)
      << "preconditioner saved nothing";

  cvec psi_a(n, cplx{}), psi_b(n, cplx{});
  ASSERT_TRUE(plain.solve_adjoint_block(rhs, psi_a, 1).converged);
  ASSERT_TRUE(pre.solve_adjoint_block(rhs, psi_b, 1).converged);
  EXPECT_LT(rel_l2_diff(psi_b, psi_a), 1e-10);

  const std::size_t nrhs = 3;
  cvec brhs(n * nrhs), xa(n * nrhs, cplx{}), xb(n * nrhs, cplx{});
  rng.fill_cnormal(brhs);
  const auto ba = plain.solve_block(brhs, xa, nrhs);
  const auto bb = pre.solve_block(brhs, xb, nrhs);
  ASSERT_TRUE(ba.converged && bb.converged);
  EXPECT_LT(rel_l2_diff(xb, xa), 1e-10);
  EXPECT_LT(bb.total_iterations(), ba.total_iterations());

  std::fill(xa.begin(), xa.end(), cplx{});
  std::fill(xb.begin(), xb.end(), cplx{});
  ASSERT_TRUE(plain.solve_adjoint_block(brhs, xa, nrhs).converged);
  ASSERT_TRUE(pre.solve_adjoint_block(brhs, xb, nrhs).converged);
  EXPECT_LT(rel_l2_diff(xb, xa), 1e-10);
}

// Regression (pre-fix the final residual could be WORSE than the best
// iterate): an inner "solver" with the wrong operator sign makes every
// refinement round double the residual; with the fallback capped at zero
// iterations the solve must still return the best iterate seen (x = 0,
// relres = 1), not the stalled one (x = -b, relres = 2).
TEST(Refined, StallFallbackNeverWorsensTheResidual) {
  const BlockLayout lo{8, 2, 1};
  const auto identity = [](ccspan in, cspan out) { copy(in, out); };
  const auto negated = [](ccspan in, cspan out) {
    for (std::size_t i = 0; i < in.size(); ++i) out[i] = -in[i];
  };
  cvec b(lo.size(), cplx{1.0}), x(lo.size(), cplx{});
  RefinedOptions ro;
  ro.tol = 1e-12;
  ro.fallback_max_iterations = 0;
  const RefinedResult res =
      refined_block_bicgstab(identity, negated, b, x, lo, ro);
  EXPECT_TRUE(res.fell_back);
  EXPECT_FALSE(res.converged);
  EXPECT_NEAR(res.relres, 1.0, 1e-14);
  for (const cplx& v : x) EXPECT_EQ(v, cplx{});
}

// At tolerances far above the fp32 operator error the refined solver
// must bypass the fp64 scaffolding entirely: no outer applies, no
// refinement rounds — just the inner solve (the Eisenstat-Walker
// forced regime of DBIM).
TEST(Refined, LooseToleranceSolvesDirectlyOnInnerOperator) {
  const BlockLayout lo{8, 2, 1};
  bool outer_called = false;
  const auto outer = [&](ccspan in, cspan out) {
    outer_called = true;
    copy(in, out);
  };
  const auto inner = [](ccspan in, cspan out) { copy(in, out); };
  Rng rng(75);
  cvec b(lo.size()), x(lo.size(), cplx{});
  rng.fill_cnormal(b);
  RefinedOptions ro;
  ro.tol = 1e-3;  // >= direct_tol default 3e-4
  const RefinedResult res = refined_block_bicgstab(outer, inner, b, x, lo, ro);
  EXPECT_TRUE(res.converged);
  EXPECT_FALSE(res.fell_back);
  EXPECT_EQ(res.refinements, 0);
  EXPECT_FALSE(outer_called);
  EXPECT_LT(rel_l2_diff(x, b), 1e-10);  // identity system: x = b

  // Forcing the refinement path back on (direct_tol = 0) uses the
  // outer operator again.
  std::fill(x.begin(), x.end(), cplx{});
  ro.direct_tol = 0.0;
  refined_block_bicgstab(outer, inner, b, x, lo, ro);
  EXPECT_TRUE(outer_called);
}

TEST(KrylovRecycler, SeedsFromRetainedSolvesDeterministically) {
  Rng rng(74);
  const std::size_t n = 32, nrhs = 2;
  const BlockLayout lo{8, nrhs, 4};
  CMatrix a(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) a(i, j) = 0.05 * rng.cnormal();
    a(j, j) += 2.0;
  }
  const LuFactors lu(a);

  KrylovRecycler rec(RecycleOptions{2, 1e-12});
  EXPECT_EQ(rec.size(), 0u);

  // Solve and retain two block systems with slowly drifting rhs.
  cvec b0(lo.size()), x0(lo.size());
  rng.fill_cnormal(b0);
  cvec col(n);
  for (std::size_t r = 0; r < nrhs; ++r) {
    block_col_get(lo, b0, r, col);
    block_col_set(lo, x0, r, lu.solve(col));
  }
  rec.store(b0, x0, lo);
  EXPECT_EQ(rec.size(), 1u);

  // New rhs close to the retained one: the seed must capture most of it.
  cvec b1(lo.size()), noise(lo.size()), x_seed(lo.size());
  rng.fill_cnormal(noise);
  for (std::size_t i = 0; i < lo.size(); ++i)
    b1[i] = 1.01 * b0[i] + 0.001 * noise[i];
  EXPECT_EQ(rec.seed(b1, x_seed, lo), nrhs);

  // Residual of the seeded guess: ||b1 - A x_seed|| << ||b1||.
  cvec ax(n);
  for (std::size_t r = 0; r < nrhs; ++r) {
    block_col_get(lo, x_seed, r, col);
    matvec(a, col, ax);
    block_col_get(lo, b1, r, col);
    double rn2 = 0.0, bn2 = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      rn2 += std::norm(col[i] - ax[i]);
      bn2 += std::norm(col[i]);
    }
    EXPECT_LT(std::sqrt(rn2 / bn2), 0.05) << "column " << r;
  }

  // Rerunning the seed is bit-identical.
  cvec x_seed2(lo.size(), cplx{1.0});
  EXPECT_EQ(rec.seed(b1, x_seed2, lo), nrhs);
  EXPECT_EQ(std::memcmp(x_seed.data(), x_seed2.data(),
                        x_seed.size() * sizeof(cplx)),
            0);

  // Depth eviction and unseedable (zero-history) columns.
  rec.store(b1, x_seed, lo);
  rec.store(b0, x0, lo);
  rec.store(b1, x_seed, lo);
  EXPECT_EQ(rec.size(), 2u);
  rec.clear();
  cvec xz(lo.size(), cplx{1.0});
  EXPECT_EQ(rec.seed(b1, xz, lo), 0u);
  for (const cplx& v : xz) EXPECT_EQ(v, cplx{});  // zeroed, not stale
}

struct AccelScene {
  ScenarioConfig cfg;
  std::unique_ptr<Scenario> scene;

  AccelScene() {
    cfg.nx = 32;
    cfg.num_transmitters = 8;
    cfg.num_receivers = 24;
    Grid grid(cfg.nx);
    scene = std::make_unique<Scenario>(
        cfg, gaussian_blob(grid, Vec2{0.3, -0.2}, 0.5, cplx{0.01, 0.0}));
  }

  DbimOptions accel_options(int iters) const {
    DbimOptions o;
    o.max_iterations = iters;
    o.near_precondition = true;
    o.adaptive_forcing = true;
    o.recycle_depth = 2;
    return o;
  }
};

// The full acceleration stack (preconditioner + forcing + recycling)
// must cut Krylov iterations without degrading the reconstruction, and
// a rerun must be bit-identical (all recycling/forcing state is a pure
// function of the deterministic outer loop).
TEST(DbimAccel, SerialAccelerationCutsIterationsAndIsDeterministic) {
  AccelScene f;
  DbimOptions base;
  base.max_iterations = 5;
  const DbimResult ref = dbim_reconstruct(
      f.scene->engine(), f.scene->transceivers(), f.scene->measurements(),
      base);

  const DbimOptions accel = f.accel_options(5);
  const DbimResult a1 = dbim_reconstruct(
      f.scene->engine(), f.scene->transceivers(), f.scene->measurements(),
      accel);
  const DbimResult a2 = dbim_reconstruct(
      f.scene->engine(), f.scene->transceivers(), f.scene->measurements(),
      accel);

  ASSERT_EQ(a1.contrast.size(), a2.contrast.size());
  EXPECT_EQ(std::memcmp(a1.contrast.data(), a2.contrast.data(),
                        a1.contrast.size() * sizeof(cplx)),
            0);
  EXPECT_EQ(a1.history.relative_residual, a2.history.relative_residual);
  EXPECT_EQ(a1.history.bicgstab_iterations, a2.history.bicgstab_iterations);

  EXPECT_LT(a1.history.bicgstab_iterations, ref.history.bicgstab_iterations)
      << "acceleration stack saved no Krylov iterations";
  // Same reconstruction quality (the looser forced tolerances only relax
  // solves whose accuracy the outer residual cannot see).
  EXPECT_LT(a1.history.relative_residual.back(),
            1.5 * ref.history.relative_residual.back());
}

TEST(DbimAccel, ObsCountersTrackThePipeline) {
  obs::set_enabled(true);
  obs::reset();
  AccelScene f;
  dbim_reconstruct(f.scene->engine(), f.scene->transceivers(),
                   f.scene->measurements(), f.accel_options(3));
  const auto totals = obs::counter_totals(0);
  obs::set_enabled(false);
  const auto at = [&](obs::Counter c) {
    return totals[static_cast<std::size_t>(c)];
  };
  EXPECT_GT(at(obs::Counter::kBicgstabTotalIters), 0u);
  EXPECT_GT(at(obs::Counter::kPrecondSetupNs), 0u);
  EXPECT_GT(at(obs::Counter::kPrecondApplyNs), 0u);
  // Gradient/step recyclers have snapshots from iteration 2 onward.
  EXPECT_GT(at(obs::Counter::kRecycleHits), 0u);
}

class AccelDecompositions
    : public ::testing::TestWithParam<std::pair<int, int>> {};

// With every acceleration knob on, the parallel driver still reproduces
// the serial driver for any decomposition: identical per-column forcing
// and recycling math, just distributed.
TEST_P(AccelDecompositions, MatchesSerialDriver) {
  const auto [ig, tr] = GetParam();
  AccelScene f;
  const DbimOptions opts = f.accel_options(6);
  const DbimResult serial = dbim_reconstruct(
      f.scene->engine(), f.scene->transceivers(), f.scene->measurements(),
      opts);

  ParallelDbimConfig pcfg;
  pcfg.illum_groups = ig;
  pcfg.tree_ranks = tr;
  pcfg.dbim = opts;
  VCluster vc(ig * tr);
  const DbimResult par = dbim_reconstruct_parallel(
      vc, f.scene->tree(), f.scene->transceivers(), f.scene->measurements(),
      pcfg);

  ASSERT_EQ(par.history.relative_residual.size(),
            serial.history.relative_residual.size());
  for (std::size_t i = 0; i < serial.history.relative_residual.size(); ++i) {
    EXPECT_NEAR(par.history.relative_residual[i],
                serial.history.relative_residual[i],
                0.02 * serial.history.relative_residual[i])
        << "iteration " << i << " (ig=" << ig << ", tr=" << tr << ")";
  }
  EXPECT_LT(image_rmse(par.contrast, serial.contrast), 0.05)
      << "ig=" << ig << " tr=" << tr;
}

INSTANTIATE_TEST_SUITE_P(Grids, AccelDecompositions,
                         ::testing::Values(std::pair{2, 1}, std::pair{1, 2},
                                           std::pair{2, 2}));

class AccelCrashRecovery
    : public ::testing::TestWithParam<std::pair<int, int>> {};

// Crash recovery with the acceleration stack on: the forcing tolerance
// is re-derived from the checkpointed residual history and the recycle
// state resets with the background fields, so a crash-recovered run must
// match the fault-free accelerated run to rounding.
TEST_P(AccelCrashRecovery, SurvivesInjectedCrashesBitIdentically) {
  const auto [ig, tr] = GetParam();
  const int p = ig * tr;
  AccelScene f;
  DbimOptions opts = f.accel_options(6);
  opts.warm_start_fields = false;  // iterates pure in checkpointed state

  ParallelDbimConfig pcfg;
  pcfg.illum_groups = ig;
  pcfg.tree_ranks = tr;
  pcfg.dbim = opts;
  const std::string ref_path =
      "/tmp/ffw_precond_e2e_ref_" + std::to_string(p) + ".ckpt";
  const std::string crash_path =
      "/tmp/ffw_precond_e2e_crash_" + std::to_string(p) + ".ckpt";
  pcfg.checkpoint_path = ref_path;

  VCluster vc_ref(p);
  const DbimResult ref = dbim_reconstruct_parallel(
      vc_ref, f.scene->tree(), f.scene->transceivers(),
      f.scene->measurements(), pcfg);

  const TrafficStats t = vc_ref.traffic();
  const auto sends_of = [&](int r) {
    std::uint64_t s = 0;
    for (int d = 0; d < p; ++d) s += t.messages[r * p + d];
    return s;
  };
  ASSERT_GT(sends_of(1), 10u);

  FaultPlan plan;
  plan.crashes.push_back({1, sends_of(1) / 2});

  pcfg.checkpoint_path = crash_path;
  pcfg.max_restarts = 2;
  VCluster vc_crash(p);
  vc_crash.install_fault_plan(plan);
  const DbimResult crashed = dbim_reconstruct_parallel(
      vc_crash, f.scene->tree(), f.scene->transceivers(),
      f.scene->measurements(), pcfg);

  EXPECT_EQ(vc_crash.fault_stats().crashes, 1u);
  ASSERT_EQ(crashed.history.relative_residual.size(),
            ref.history.relative_residual.size());
  for (std::size_t i = 0; i < ref.history.relative_residual.size(); ++i) {
    EXPECT_NEAR(crashed.history.relative_residual[i],
                ref.history.relative_residual[i],
                1e-10 * ref.history.relative_residual[i])
        << "iteration " << i << " (ig=" << ig << ", tr=" << tr << ")";
  }
  EXPECT_LE(image_rmse(crashed.contrast, ref.contrast), 1e-10);
  std::remove(ref_path.c_str());
  std::remove(crash_path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Sizes, AccelCrashRecovery,
                         ::testing::Values(std::pair{2, 1}, std::pair{2, 2}));

}  // namespace
}  // namespace ffw
