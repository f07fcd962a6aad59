// Forward scattering solver: given the contrast O, solve the volume
// integral equation [I - G0 diag(O)] phi = phi_inc for the total field
// (paper eq. 3), with the G0 products supplied by MLFMA.
//
// Two MLFMA backends: ForwardSolver on the whole grid (every public
// vector in natural, row-major pixel order; the solver converts to/from
// the engine's cluster order internally), and PartitionedForwardSolver
// on one rank's leaf slice of a PartitionedMlfma tree group. Both build
// [I - G0 O] with one system apply and solve through forward_solve
// (forward/backend.hpp).
#pragma once

#include <memory>

#include "forward/backend.hpp"
#include "forward/precond.hpp"
#include "mlfma/engine.hpp"
#include "mlfma/partitioned.hpp"

namespace ffw {

class ForwardSolver : public ForwardBackend {
 public:
  /// The fp64 engine is shared (not owned): the DBIM driver reuses one
  /// engine across illuminations and across the three solves per
  /// iteration. With `tables32` (Precision::kMixed tables of the same
  /// tree, e.g. from OperatorTableCache) the solver owns an fp32 engine
  /// on them and every solve runs mixed-precision iterative refinement
  /// (precision() == kMixed); without, every solve runs in fp64.
  explicit ForwardSolver(MlfmaEngine& engine, const BicgstabOptions& opts = {},
                         std::shared_ptr<const OperatorTables> tables32 = {});

  /// kMixed when the solver owns an fp32 inner engine.
  Precision precision() const {
    return mixed_ != nullptr ? Precision::kMixed : Precision::kDouble;
  }

  /// Near-field block-Jacobi right preconditioning (forward/precond.hpp):
  /// the per-leaf self blocks I - A_self diag(O_c) are inverted on
  /// every set_contrast and applied inside every solve — forward,
  /// adjoint, and the mixed-precision refined solves. The inverses are
  /// stored in precision(): fp32 under kMixed (final accuracy is
  /// unaffected — the preconditioner only steers the Krylov space).
  void set_near_preconditioner(bool enable);
  const NearFieldBlockJacobi* near_preconditioner() const {
    return near_precond_.get();
  }

  /// Set the contrast vector O (natural order, length N).
  void set_contrast(ccspan contrast) override;
  ccspan contrast() const override { return contrast_nat_; }

  /// Y_r = [I - G0 O] X_r, or [I - G0 O]^H X_r when `adjoint`, over
  /// natural-order column-major panels on the fp64 engine, without
  /// solving (residual checks, tests).
  void apply_system(ccspan x, cspan y, std::size_t nrhs, bool adjoint = false);

  // --- ForwardBackend interface (forward/backend.hpp) --------------------
  BackendKind kind() const override { return BackendKind::kMlfma; }
  /// One block BiCGStab over all nrhs columns (one blocked MLFMA apply
  /// per Krylov apply for the whole transmitter set) on natural-order
  /// column-major panels (N rows, nrhs columns, column stride N). Under
  /// kMixed the Krylov sweeps run on the fp32 engine under fp64
  /// refinement (forward/refined.hpp). The near-field block
  /// preconditioner, when enabled, right-preconditions every sweep.
  bool solve(ccspan rhs, cspan x, std::size_t nrhs, double tol,
             bool adjoint) override;

  const ForwardStats& stats() const override { return stats_; }
  void clear_stats() override { stats_.clear(); }

  MlfmaEngine& engine() { return *engine_; }
  const QuadTree& tree() const { return engine_->tree(); }

 private:
  // Blocked [I - G0 O] (or its adjoint) over the leaf-interleaved block
  // layout on `eng`: the fp64 engine, or the fp32 one under kMixed.
  BlockLinearOp system_op(MlfmaEngine& eng, const BlockLayout& lo,
                          bool adjoint) const;
  BlockLayout block_layout(std::size_t nrhs) const;
  void refresh_preconditioner();

  MlfmaEngine* engine_;
  std::unique_ptr<MlfmaEngine> mixed_;  // fp32 inner engine under kMixed
  BicgstabOptions opts_;

  cvec contrast_nat_;   // natural order
  cvec contrast_clu_;   // cluster order
  bool use_near_ = false;
  std::unique_ptr<NearFieldBlockJacobi> near_precond_;
  ForwardStats stats_;
};

/// The MLFMA backend of one rank of a PartitionedMlfma tree group: the
/// ranks [rank_base, rank_base + pm.nranks()) of `comm`, this one being
/// tree rank comm.rank() - rank_base. Its pass order is the rank's
/// leaf-blocked slice: contrasts are the rank's cluster-order pixels,
/// panels the block layout {pixels_per_leaf, nrhs, local leaves}. Every
/// apply and every solve is collective over the tree group (block
/// BiCGStab reducing its inner products over the group). With
/// `near_precondition`, set_contrast rebuilds the near-field block
/// Jacobi of the rank's own leaves, which needs no communication.
class PartitionedForwardSolver final : public ForwardBackend {
 public:
  PartitionedForwardSolver(Comm& comm, int rank_base,
                           const PartitionedMlfma& pm,
                           const BicgstabOptions& opts,
                           bool near_precondition);

  BackendKind kind() const override { return BackendKind::kMlfma; }
  void set_contrast(ccspan contrast) override;
  ccspan contrast() const override { return contrast_; }
  bool solve(ccspan rhs, cspan x, std::size_t nrhs, double tol,
             bool adjoint) override;
  const ForwardStats& stats() const override { return stats_; }
  void clear_stats() override { stats_.clear(); }

 private:
  Comm* comm_;
  int rank_base_;
  const PartitionedMlfma* pm_;
  BicgstabOptions opts_;
  bool near_precondition_;
  std::vector<int> group_;  // global ranks of the tree group
  std::size_t leaves_;      // leaves of this rank
  cvec contrast_;           // the rank's cluster-order contrast slice
  std::unique_ptr<NearFieldBlockJacobi> precond_;
  ForwardStats stats_;
};

}  // namespace ffw
