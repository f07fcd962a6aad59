// Forward scattering solver: given the contrast O, solve the volume
// integral equation [I - G0 diag(O)] phi = phi_inc for the total field
// (paper eq. 3), with the G0 products supplied by MLFMA.
//
// Two MLFMA backends: ForwardSolver on the whole grid (every public
// vector in natural, row-major pixel order; the solver converts to/from
// the engine's cluster order internally), and PartitionedForwardSolver
// on one rank's leaf slice of a PartitionedMlfma tree group.
#pragma once

#include <memory>

#include "forward/backend.hpp"
#include "forward/block_bicgstab.hpp"
#include "forward/precond.hpp"
#include "forward/refined.hpp"
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

  /// Multi-RHS solve: [I - G0 O] phi_r = rhs_r for all nrhs columns in
  /// one block BiCGStab (one blocked MLFMA apply per Krylov iteration
  /// for the whole transmitter set). `rhs` and `phi` are column-major
  /// natural-order panels (N rows, nrhs columns, column stride N); `phi`
  /// carries initial guesses in and solutions out.
  BlockBicgstabResult solve_block(ccspan rhs, cspan phi, std::size_t nrhs);

  /// Multi-RHS adjoint solve: [I - G0 O]^H psi_r = rhs_r.
  BlockBicgstabResult solve_adjoint_block(ccspan rhs, cspan psi,
                                          std::size_t nrhs);

  /// Mixed-precision iterative refinement solve of [I - G0 O] phi = rhs
  /// over all columns (needs precision() == kMixed): inner
  /// block-BiCGStab sweeps run on the fp32 engine, outer
  /// residuals/masking in fp64 on the primary
  /// engine, automatic pure-fp64 fallback on stall (forward/refined.hpp).
  /// Reaches fp64-level tolerances (default 1e-8) at mixed-engine speed.
  /// The near-field block preconditioner (if enabled) right-preconditions
  /// the inner sweeps and the fallback.
  RefinedResult solve_block_refined(ccspan rhs, cspan phi, std::size_t nrhs,
                                    const RefinedOptions& opts = {});

  /// Mixed-precision refinement of the Hermitian-transposed system
  /// [I - G0 O]^H psi = rhs (the step-length solves of DBIM run at
  /// mixed speed too — G0 is complex-symmetric, so the mixed engine's
  /// conjugated apply serves as the inner adjoint operator).
  RefinedResult solve_adjoint_block_refined(ccspan rhs, cspan psi,
                                            std::size_t nrhs,
                                            const RefinedOptions& opts = {});

  /// Y_r = [I - G0 O] X_r over natural-order column-major panels,
  /// without solving (for residual checks / tests).
  void apply_system(ccspan x, cspan y, std::size_t nrhs);

  // --- ForwardBackend interface (forward/backend.hpp) --------------------
  // The panel entry points route to the refined mixed-precision block
  // solves under kMixed, and to the plain block BiCGStab otherwise.
  // `tol` overrides the configured tolerance for this call
  // only (0 keeps it), which is how Eisenstat-Walker forcing flows
  // through the backend-neutral API.
  BackendKind kind() const override { return BackendKind::kMlfma; }
  bool solve_panel(ccspan rhs, cspan phi, std::size_t nrhs,
                   double tol) override;
  bool solve_adjoint_panel(ccspan rhs, cspan psi, std::size_t nrhs,
                           double tol) override;

  const ForwardStats& stats() const override { return stats_; }
  void clear_stats() override { stats_.clear(); }

  MlfmaEngine& engine() { return *engine_; }
  const QuadTree& tree() const { return engine_->tree(); }
  const BicgstabOptions& options() const { return opts_; }

 private:
  // Unpreconditioned blocked [I - G0 O] (or its adjoint) over the
  // leaf-interleaved block layout on an explicit engine (the refined
  // solve runs it against both the fp64 and the mixed engine).
  void op_block_on(MlfmaEngine& eng, ccspan x, cspan y, const BlockLayout& lo,
                   bool adjoint);
  BlockLayout block_layout(std::size_t nrhs) const;
  // `tol` overrides the configured tolerance for this call (0 keeps it).
  BlockBicgstabResult block_solve(ccspan rhs, cspan x, std::size_t nrhs,
                                  double tol, bool adjoint);
  RefinedResult refined_solve(ccspan rhs, cspan x, std::size_t nrhs,
                              const RefinedOptions& opts, bool adjoint);
  bool panel_solve_impl(ccspan rhs, cspan x, std::size_t nrhs, double tol,
                        bool adjoint);
  /// Handle for the Krylov solvers: the active near-field block
  /// preconditioner over `nrhs` columns, or empty (identity) when
  /// disabled.
  PrecondContext precond_ctx(std::size_t nrhs, bool herm) const;
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
  bool solve_panel(ccspan rhs, cspan phi, std::size_t nrhs,
                   double tol) override;
  bool solve_adjoint_panel(ccspan rhs, cspan psi, std::size_t nrhs,
                           double tol) override;
  const ForwardStats& stats() const override { return stats_; }
  void clear_stats() override { stats_.clear(); }

 private:
  bool solve(ccspan rhs, cspan x, std::size_t nrhs, double tol, bool adjoint);

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
