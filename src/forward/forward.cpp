#include "forward/forward.hpp"

#include <algorithm>

#include "common/timer.hpp"
#include "linalg/kernels.hpp"
#include "linalg/scratch.hpp"
#include "obs/obs.hpp"

namespace ffw {

ForwardSolver::ForwardSolver(MlfmaEngine& engine, const BicgstabOptions& opts,
                             std::shared_ptr<const OperatorTables> tables32)
    : engine_(&engine), opts_(opts) {
  FFW_CHECK_MSG(engine.precision() == Precision::kDouble,
                "ForwardSolver: the primary engine is the fp64 reference; "
                "pass fp32 tables as tables32");
  if (tables32 != nullptr) {
    FFW_CHECK_MSG(tables32->precision() == Precision::kMixed &&
                      tables32->tree().grid().num_pixels() ==
                          engine.tree().grid().num_pixels() &&
                      tables32->tree().pixels_per_leaf() ==
                          engine.tree().pixels_per_leaf(),
                  "ForwardSolver: tables32 must be kMixed tables of the "
                  "engine's tree");
    mixed_ = std::make_unique<MlfmaEngine>(std::move(tables32));
  }
  const std::size_t n = engine.tree().grid().num_pixels();
  contrast_nat_.assign(n, cplx{});
  contrast_clu_.assign(n, cplx{});
}

void ForwardSolver::set_contrast(ccspan contrast) {
  FFW_CHECK(contrast.size() == contrast_nat_.size());
  copy(contrast, contrast_nat_);
  engine_->tree().to_cluster_order(contrast, contrast_clu_);
  refresh_preconditioner();
}

void ForwardSolver::set_near_preconditioner(bool enable) {
  use_near_ = enable;
  refresh_preconditioner();
}

void ForwardSolver::refresh_preconditioner() {
  if (!use_near_) {
    near_precond_.reset();
    return;
  }
  Timer t;
  // Rebuilt in place: a contrast update never holds two inverse sets.
  if (near_precond_ != nullptr) {
    near_precond_->rebuild(engine_->nearfield().type(4), contrast_clu_);
  } else {
    near_precond_ = std::make_unique<NearFieldBlockJacobi>(
        engine_->nearfield().type(4), ccspan{contrast_clu_}, precision());
  }
  const double seconds = t.seconds();
  stats_.precond_setup_seconds += seconds;
  stats_.precond_setups.push_back(seconds);
}

PrecondContext ForwardSolver::precond_ctx(std::size_t nrhs, bool herm) const {
  if (near_precond_ == nullptr) return {};
  return PrecondContext{near_precond_.get(), block_layout(nrhs), herm};
}

BlockLayout ForwardSolver::block_layout(std::size_t nrhs) const {
  const QuadTree& tree = engine_->tree();
  return BlockLayout{static_cast<std::size_t>(tree.pixels_per_leaf()), nrhs,
                     tree.num_leaves()};
}

void ForwardSolver::op_block_on(MlfmaEngine& eng, ccspan x, cspan y,
                                const BlockLayout& lo, bool adjoint) {
  if (adjoint) {
    // Y = X - conj(O) .* (G0^H X).
    eng.apply_herm_block(x, y, lo.nrhs);
    block_identity_minus_conj_diag(lo, contrast_clu_, x, y);
    return;
  }
  // Y = X - G0 (O .* X): the diagonal contrast is indexed per cluster
  // pixel and reused across all columns of a panel.
  ScratchFrame frame;
  const cspan work = frame.vec(lo.size());
  block_diag_mul(lo, contrast_clu_, x, work);
  eng.apply_block(work, y, lo.nrhs);
  block_identity_minus(lo, x, y);
}

void ForwardSolver::apply_system(ccspan x, cspan y, std::size_t nrhs) {
  const std::size_t n = contrast_nat_.size();
  FFW_CHECK(x.size() == n * nrhs && y.size() == n * nrhs);
  const QuadTree& tree = engine_->tree();
  const BlockLayout lo = block_layout(nrhs);
  ScratchFrame frame;
  const cspan xb = frame.vec(lo.size()), yb = frame.vec(lo.size());
  block_pack_natural(lo, tree.perm(), x, xb);
  op_block_on(*engine_, xb, yb, lo, /*adjoint=*/false);
  block_unpack_natural(lo, tree.perm(), yb, y);
}

BlockBicgstabResult ForwardSolver::block_solve(ccspan rhs, cspan x,
                                               std::size_t nrhs, double tol,
                                               bool adjoint) {
  const std::size_t n = contrast_nat_.size();
  FFW_CHECK(rhs.size() == n * nrhs && x.size() == n * nrhs);
  const QuadTree& tree = engine_->tree();
  const BlockLayout lo = block_layout(nrhs);
  ScratchFrame frame;
  const cspan b = frame.vec(lo.size()), xb = frame.vec(lo.size());
  block_pack_natural(lo, tree.perm(), rhs, b);
  block_pack_natural(lo, tree.perm(), ccspan{x.data(), x.size()}, xb);
  BicgstabOptions opts = opts_;
  if (tol > 0.0) opts.tol = tol;
  const std::uint64_t before = engine_->phase_times().applications;
  const BlockBicgstabResult res = block_bicgstab(
      [this, &lo, adjoint](ccspan in, cspan out) {
        op_block_on(*engine_, in, out, lo, adjoint);
      },
      b, xb, lo, opts, {}, precond_ctx(nrhs, adjoint));
  stats_.solves += res.rhs.size();
  stats_.bicgs_iterations += res.total_iterations();
  stats_.operator_applications += engine_->phase_times().applications - before;
  for (const auto& r : res.rhs) {
    stats_.per_solve_iterations.push_back(
        static_cast<std::uint16_t>(r.iterations));
  }
  block_unpack_natural(lo, tree.perm(), xb, x);
  return res;
}

BlockBicgstabResult ForwardSolver::solve_block(ccspan rhs, cspan phi,
                                               std::size_t nrhs) {
  return block_solve(rhs, phi, nrhs, 0.0, /*adjoint=*/false);
}

BlockBicgstabResult ForwardSolver::solve_adjoint_block(ccspan rhs, cspan psi,
                                                       std::size_t nrhs) {
  return block_solve(rhs, psi, nrhs, 0.0, /*adjoint=*/true);
}

RefinedResult ForwardSolver::refined_solve(ccspan rhs, cspan x,
                                           std::size_t nrhs,
                                           const RefinedOptions& opts,
                                           bool adjoint) {
  FFW_CHECK_MSG(mixed_ != nullptr,
                "refined block solves need the solver's fp32 tables");
  const std::size_t n = contrast_nat_.size();
  FFW_CHECK(rhs.size() == n * nrhs && x.size() == n * nrhs);
  const QuadTree& tree = engine_->tree();
  const BlockLayout lo = block_layout(nrhs);
  ScratchFrame frame;
  const cspan b = frame.vec(lo.size()), xb = frame.vec(lo.size());
  block_pack_natural(lo, tree.perm(), rhs, b);
  block_pack_natural(lo, tree.perm(), ccspan{x.data(), x.size()}, xb);
  const std::uint64_t before = engine_->phase_times().applications +
                               mixed_->phase_times().applications;
  const RefinedResult res = refined_block_bicgstab(
      [this, &lo, adjoint](ccspan in, cspan out) {
        op_block_on(*engine_, in, out, lo, adjoint);
      },
      [this, &lo, adjoint](ccspan in, cspan out) {
        op_block_on(*mixed_, in, out, lo, adjoint);
      },
      b, xb, lo, opts, {}, precond_ctx(nrhs, adjoint));
  stats_.solves += nrhs;
  stats_.bicgs_iterations += res.inner_iterations + res.fallback_iterations;
  stats_.operator_applications += engine_->phase_times().applications +
                                  mixed_->phase_times().applications - before;
  for (const int it : res.column_iterations) {
    stats_.per_solve_iterations.push_back(static_cast<std::uint16_t>(it));
  }
  block_unpack_natural(lo, tree.perm(), xb, x);
  return res;
}

RefinedResult ForwardSolver::solve_block_refined(ccspan rhs, cspan phi,
                                                 std::size_t nrhs,
                                                 const RefinedOptions& opts) {
  return refined_solve(rhs, phi, nrhs, opts, /*adjoint=*/false);
}

RefinedResult ForwardSolver::solve_adjoint_block_refined(
    ccspan rhs, cspan psi, std::size_t nrhs, const RefinedOptions& opts) {
  return refined_solve(rhs, psi, nrhs, opts, /*adjoint=*/true);
}

bool ForwardSolver::panel_solve_impl(ccspan rhs, cspan x, std::size_t nrhs,
                                     double tol, bool adjoint) {
  const double base = opts_.tol;
  const double target = tol > 0.0 ? std::max(tol, base) : base;
  if (mixed_ != nullptr) {
    RefinedOptions ro;
    ro.tol = target;
    // A loose outer target makes ultra-tight inner sweeps pointless:
    // keep the inner tolerance at least as loose as the outer one.
    ro.inner.tol = std::max(ro.inner.tol, target);
    return refined_solve(rhs, x, nrhs, ro, adjoint).converged;
  }
  return block_solve(rhs, x, nrhs, target, adjoint).converged;
}

bool ForwardSolver::solve_panel(ccspan rhs, cspan phi, std::size_t nrhs,
                                double tol) {
  return panel_solve_impl(rhs, phi, nrhs, tol, /*adjoint=*/false);
}

bool ForwardSolver::solve_adjoint_panel(ccspan rhs, cspan psi, std::size_t nrhs,
                                        double tol) {
  return panel_solve_impl(rhs, psi, nrhs, tol, /*adjoint=*/true);
}

PartitionedForwardSolver::PartitionedForwardSolver(Comm& comm, int rank_base,
                                                   const PartitionedMlfma& pm,
                                                   const BicgstabOptions& opts,
                                                   bool near_precondition)
    : comm_(&comm), rank_base_(rank_base), pm_(&pm), opts_(opts),
      near_precondition_(near_precondition) {
  const int tree_rank = comm.rank() - rank_base;
  FFW_CHECK(tree_rank >= 0 && tree_rank < pm.nranks());
  for (int r = 0; r < pm.nranks(); ++r) group_.push_back(rank_base + r);
  leaves_ = pm.leaf_end(tree_rank) - pm.leaf_begin(tree_rank);
  contrast_.assign(pm.local_pixels(tree_rank), cplx{});
}

void PartitionedForwardSolver::set_contrast(ccspan contrast) {
  copy(contrast, contrast_);
  if (!near_precondition_) return;
  const Timer t;
  // Rebuilt in place: a contrast update never holds two inverse sets.
  if (precond_ != nullptr) {
    precond_->rebuild(pm_->nearfield().type(4), contrast_);
  } else {
    precond_ = std::make_unique<NearFieldBlockJacobi>(
        pm_->nearfield().type(4), ccspan{contrast_}, Precision::kDouble);
  }
  const double seconds = t.seconds();
  stats_.precond_setup_seconds += seconds;
  stats_.precond_setups.push_back(seconds);
}

bool PartitionedForwardSolver::solve(ccspan rhs, cspan x, std::size_t nrhs,
                                     double tol, bool adjoint) {
  const BlockLayout lo{
      static_cast<std::size_t>(pm_->tree().pixels_per_leaf()), nrhs, leaves_};
  const DotReducer tree_sum{
      [this](cspan v) {
        FFW_TRACE_SPAN("krylov.reduce");
        comm_->group_allreduce_sum(v, group_);
      },
      [this](rspan v) {
        FFW_TRACE_SPAN("krylov.reduce");
        comm_->group_allreduce_sum(v, group_);
      }};
  BicgstabOptions o = opts_;
  if (tol > 0.0) o.tol = std::max(tol, o.tol);
  const BlockBicgstabResult res = block_bicgstab(
      [&](ccspan in, cspan out) {
        if (adjoint) {
          // Y = X - conj(O) .* (G0^H X).
          pm_->apply_herm_block(*comm_, in, out, nrhs, rank_base_);
          block_identity_minus_conj_diag(lo, contrast_, in, out);
        } else {
          // Y = X - G0 (O .* X).
          ScratchFrame frame;
          const cspan work = frame.vec(lo.size());
          block_diag_mul(lo, contrast_, in, work);
          pm_->apply_block(*comm_, work, out, nrhs, rank_base_);
          block_identity_minus(lo, in, out);
        }
      },
      rhs, x, lo, o, tree_sum, PrecondContext{precond_.get(), lo, adjoint});
  stats_.solves += nrhs;
  stats_.operator_applications +=
      static_cast<std::uint64_t>(res.block_matvecs) * nrhs;
  stats_.bicgs_iterations += res.total_iterations();
  return res.converged;
}

bool PartitionedForwardSolver::solve_panel(ccspan rhs, cspan phi,
                                           std::size_t nrhs, double tol) {
  return solve(rhs, phi, nrhs, tol, /*adjoint=*/false);
}

bool PartitionedForwardSolver::solve_adjoint_panel(ccspan rhs, cspan psi,
                                                   std::size_t nrhs,
                                                   double tol) {
  return solve(rhs, psi, nrhs, tol, /*adjoint=*/true);
}

}  // namespace ffw
