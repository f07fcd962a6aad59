// Forward-solver backend interface: the contract DBIM (and any other
// inversion driver) programs against, extracted from ForwardSolver so a
// reconstruction can route per-job between operator engines — MLFMA
// (the paper's engine, and the only one that partitions over ranks) or
// the padded-FFT operator (forward/cbs.hpp) on a single node — or run on
// the FFT operator with an MLFMA fallback (DbimOptions::backend).
//
// Every backend solves the same discrete volume integral equation
// [I - G0 diag(O)] phi = rhs and its Hermitian transpose on multi-RHS
// panels in its *pass order*, through one virtual, solve(): the DBIM
// passes need nothing else (the Frechet passes run on the transposed
// system, dbim/dbim.hpp). The whole-grid backends (ForwardSolver,
// CbsEngine) take natural-order (row-major pixel) column-major panels,
// num_pixels * nrhs; the rank-local PartitionedForwardSolver takes the
// rank's leaf-blocked slice (forward/forward.hpp).
//
// Each backend's solve() only checks, packs and builds its system; the
// one Krylov routine, forward_solve() below, does the rest for all of
// them: the tolerance, the choice between plain block BiCGStab and fp32
// sweeps under fp64 refinement, and the ForwardStats bookkeeping.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "forward/block_bicgstab.hpp"

namespace ffw {

/// Which forward engine a reconstruction uses. kAuto runs on the FFT
/// backend (kCbs) and, if one of its solves fails to converge, redoes
/// that solve on MLFMA and stays there for the rest of the run. The
/// values are stored in checkpoints; keep them.
enum class BackendKind : int { kMlfma = 0, kCbs = 1, kAuto = 2 };

inline const char* backend_name(BackendKind k) {
  switch (k) {
    case BackendKind::kMlfma: return "mlfma";
    case BackendKind::kCbs: return "cbs";
    case BackendKind::kAuto: return "auto";
  }
  return "?";
}

/// Backend-neutral solve statistics. `operator_applications` counts
/// per-RHS applications of the expensive structured operator — MLFMA
/// tree traversals for the kMlfma backend, padded-FFT Green's
/// convolutions for kCbs; `bicgs_iterations` counts BiCGStab
/// iterations summed over the columns of every block solve.
struct ForwardStats {
  std::uint64_t solves = 0;
  std::uint64_t bicgs_iterations = 0;
  std::uint64_t operator_applications = 0;
  /// Per-solve iteration counts: the raw samples behind the paper's
  /// "iteration variation" discussion (Sec. V-D) and the scaling model's
  /// load-imbalance term.
  std::vector<std::uint16_t> per_solve_iterations;
  /// Accumulated wall time factoring the near-field block preconditioner
  /// (one rebuild per set_contrast when enabled; MLFMA backend only),
  /// and the time of each rebuild.
  double precond_setup_seconds = 0.0;
  std::vector<double> precond_setups;

  /// The paper reports 13.4 MLFMA multiplications per forward solution.
  double operator_per_solve() const {
    return solves ? static_cast<double>(operator_applications) / solves : 0.0;
  }
  void clear() { *this = ForwardStats{}; }
};

class ForwardBackend {
 public:
  virtual ~ForwardBackend() = default;

  virtual BackendKind kind() const = 0;

  /// Install the contrast vector O (pass order, one entry per pixel).
  virtual void set_contrast(ccspan contrast) = 0;
  virtual ccspan contrast() const = 0;

  /// Multi-RHS solve of [I - G0 O] x_c = rhs_c, or of the Hermitian
  /// transpose [I - G0 O]^H x_c = rhs_c when `adjoint`, over pass-order
  /// panels to relative tolerance `tol` (0 = the backend's configured
  /// tolerance). `x` carries initial guesses in and solutions out.
  /// Returns true when every column converged.
  virtual bool solve(ccspan rhs, cspan x, std::size_t nrhs, double tol,
                     bool adjoint) = 0;

  virtual const ForwardStats& stats() const = 0;
  virtual void clear_stats() = 0;
};

/// One backend's system in the layout its Krylov vectors live in: the
/// fp64 operator (the system or its Hermitian transpose), the fp32
/// operator of a backend that sweeps in fp32 (empty: every sweep runs on
/// a64), the reducer of a rank-distributed solve and the right
/// preconditioner.
struct ForwardSystem {
  BlockLinearOp a64;
  BlockLinearOp a32;
  BlockLayout lo;
  DotReducer reduce{};
  PrecondContext pc{};
};

struct ForwardSolveResult {
  bool converged = false;
  /// Block iterations, summed over every Krylov run of the solve.
  int block_iterations = 0;
};

/// The one Krylov entry point of every backend: solves sys x_c = b_c for
/// all sys.lo.nrhs columns to `tol` (0 = opts.tol). With an fp32
/// operator it runs refined_block_bicgstab (forward/refined.hpp) with
/// inner sweeps no tighter than the target and capped at
/// min(200, opts.max_iterations), and the fp64 fallback capped at
/// opts.max_iterations; otherwise block_bicgstab under `opts`. Records
/// the solves, the summed and per-column iterations and the operator
/// applications (applies x nrhs) in `stats`.
ForwardSolveResult forward_solve(const ForwardSystem& sys, ccspan b, cspan x,
                                 double tol, const BicgstabOptions& opts,
                                 ForwardStats& stats);

}  // namespace ffw
