// Forward-solver backend interface: the contract DBIM (and any other
// inversion driver) programs against, extracted from ForwardSolver so a
// reconstruction can route per-job between operator engines — MLFMA
// (the paper's engine, and the only one that partitions over ranks) or
// the padded-FFT operator (forward/cbs.hpp) on a single node, both
// under the same block BiCGStab — or run on the FFT operator with an
// MLFMA fallback (DbimOptions::backend).
//
// Every backend solves the same discrete volume integral equation
// [I - G0 diag(O)] phi = rhs and its Hermitian transpose on multi-RHS
// panels in its *pass order*: the DBIM passes need nothing else (the
// Frechet passes run on the transposed system, dbim/dbim.hpp). The
// whole-grid backends (ForwardSolver, CbsEngine) take natural-order
// (row-major pixel) column-major panels, num_pixels * nrhs; the
// rank-local PartitionedForwardSolver takes the rank's leaf-blocked
// slice (forward/forward.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

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

  /// Multi-RHS forward solve [I - G0 O] phi_c = rhs_c over pass-order
  /// panels to relative tolerance `tol` (0 = the backend's configured
  /// default). `phi` carries initial guesses in and solutions
  /// out. Returns true when every column converged.
  virtual bool solve_panel(ccspan rhs, cspan phi, std::size_t nrhs,
                           double tol) = 0;

  /// Multi-RHS Hermitian-transposed solve [I - G0 O]^H psi_c = rhs_c.
  virtual bool solve_adjoint_panel(ccspan rhs, cspan psi, std::size_t nrhs,
                                   double tol) = 0;

  virtual const ForwardStats& stats() const = 0;
  virtual void clear_stats() = 0;
};

}  // namespace ffw
