#include "forward/forward.hpp"

#include "common/timer.hpp"
#include "linalg/kernels.hpp"
#include "linalg/scratch.hpp"
#include "obs/obs.hpp"

namespace ffw {

namespace {

/// [I - G0 O] (adjoint: [I - G0 O]^H) over the leaf-blocked layout `lo`
/// with the cluster-order contrast `o`; `g0(in, out, herm)` applies G0
/// (G0^H when herm) to a block vector. The MLFMA backends' one system
/// apply.
template <typename G0>
BlockLinearOp system_apply(const BlockLayout& lo, ccspan o, bool adjoint,
                           G0 g0) {
  return [lo, o, adjoint, g0](ccspan x, cspan y) {
    if (adjoint) {
      // Y = X - conj(O) .* (G0^H X).
      g0(x, y, true);
      block_identity_minus_conj_diag(lo, o, x, y);
      return;
    }
    // Y = X - G0 (O .* X): the diagonal contrast is indexed per cluster
    // pixel and reused across all columns of a panel.
    ScratchFrame frame;
    const cspan work = frame.vec(lo.size());
    block_diag_mul(lo, o, x, work);
    g0(work, y, false);
    block_identity_minus(lo, x, y);
  };
}

}  // namespace

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

BlockLayout ForwardSolver::block_layout(std::size_t nrhs) const {
  const QuadTree& tree = engine_->tree();
  return BlockLayout{static_cast<std::size_t>(tree.pixels_per_leaf()), nrhs,
                     tree.num_leaves()};
}

BlockLinearOp ForwardSolver::system_op(MlfmaEngine& eng, const BlockLayout& lo,
                                       bool adjoint) const {
  return system_apply(lo, contrast_clu_, adjoint,
                      [&eng, nrhs = lo.nrhs](ccspan in, cspan out, bool herm) {
                        if (herm) {
                          eng.apply_herm_block(in, out, nrhs);
                        } else {
                          eng.apply_block(in, out, nrhs);
                        }
                      });
}

void ForwardSolver::apply_system(ccspan x, cspan y, std::size_t nrhs,
                                 bool adjoint) {
  const std::size_t n = contrast_nat_.size();
  FFW_CHECK(x.size() == n * nrhs && y.size() == n * nrhs);
  const QuadTree& tree = engine_->tree();
  const BlockLayout lo = block_layout(nrhs);
  ScratchFrame frame;
  const cspan xb = frame.vec(lo.size()), yb = frame.vec(lo.size());
  block_pack_natural(lo, tree.perm(), x, xb);
  system_op(*engine_, lo, adjoint)(xb, yb);
  block_unpack_natural(lo, tree.perm(), yb, y);
}

bool ForwardSolver::solve(ccspan rhs, cspan x, std::size_t nrhs, double tol,
                          bool adjoint) {
  const std::size_t n = contrast_nat_.size();
  FFW_CHECK(rhs.size() == n * nrhs && x.size() == n * nrhs);
  const QuadTree& tree = engine_->tree();
  const BlockLayout lo = block_layout(nrhs);
  ScratchFrame frame;
  const cspan b = frame.vec(lo.size()), xb = frame.vec(lo.size());
  block_pack_natural(lo, tree.perm(), rhs, b);
  block_pack_natural(lo, tree.perm(), x, xb);
  ForwardSystem sys{system_op(*engine_, lo, adjoint), {}, lo, {},
                    PrecondContext{near_precond_.get(), lo, adjoint}};
  if (mixed_ != nullptr) sys.a32 = system_op(*mixed_, lo, adjoint);
  const bool converged = forward_solve(sys, b, xb, tol, opts_, stats_).converged;
  block_unpack_natural(lo, tree.perm(), xb, x);
  return converged;
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
  FFW_CHECK(rhs.size() == lo.size() && x.size() == lo.size());
  const DotReducer tree_sum{
      [this](cspan v) {
        FFW_TRACE_SPAN("krylov.reduce");
        comm_->group_allreduce_sum(v, group_);
      },
      [this](rspan v) {
        FFW_TRACE_SPAN("krylov.reduce");
        comm_->group_allreduce_sum(v, group_);
      }};
  const BlockLinearOp op = system_apply(
      lo, contrast_, adjoint, [this, nrhs](ccspan in, cspan out, bool herm) {
        if (herm) {
          pm_->apply_herm_block(*comm_, in, out, nrhs, rank_base_);
        } else {
          pm_->apply_block(*comm_, in, out, nrhs, rank_base_);
        }
      });
  const ForwardSystem sys{op, {}, lo, tree_sum,
                          PrecondContext{precond_.get(), lo, adjoint}};
  return forward_solve(sys, rhs, x, tol, opts_, stats_).converged;
}

}  // namespace ffw
