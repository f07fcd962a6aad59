// FFT forward backend: solves the volume integral equation
// [I - G0 diag(O)] phi = rhs with the Richmond-kernel product applied as
// an exact aperiodic convolution (zero padding to P = bit_ceil(2 nx - 1)
// and one padded FFT round trip), under the same block BiCGStab that
// solves the MLFMA system (forward/block_bicgstab.hpp; paper Sec. VI-A).
// Both backends therefore discretise and solve the identical system, and
// their answers agree to ~1e-6 (tests/cbs_test.cpp).
//
// The operator runs one column per thread through Fft2Plan::convolve,
// in five passes over a padded panel: each row is packed (times O for
// the system) and row-transformed while in L1; the column sweeps run
// with the kernel-symbol product inside their innermost butterflies;
// each needed row is inverse-transformed and cropped straight into the
// output. The transforms never leave transform order (bit-reversed
// spectra, no permutation, no 1/P^2 sweep, the zero half pruned), and
// the scratch is one P x Fft2Plan::pitch() panel per thread. Under
// Precision::kMixed the inner Krylov sweeps apply an fp32 pipeline
// (pack, transform and kernel-symbol multiply in fp32, the identity and
// the contrast diagonal in fp64) inside the same
// mixed-precision refinement as the MLFMA backend (forward/refined.hpp):
// residuals and convergence are judged against the fp64 operator.
//
// The names CbsEngine and BackendKind::kCbs (which checkpoints store)
// come from the engine's first solver, a convergent Born series; why
// BiCGStab replaced it is in DESIGN.md Sec. 14.
#pragma once

#include <memory>

#include "fft/fft2.hpp"
#include "forward/backend.hpp"
#include "grid/grid.hpp"

namespace ffw {

struct CbsOptions {
  /// Per-column relative residual target ||rhs - A x|| / ||rhs||, used
  /// when a solve passes tol = 0.
  double tol = 1e-8;
  /// Iteration cap of every block BiCGStab run of one solve (under
  /// kMixed: the fp64 fallback, and each inner sweep up to its own cap).
  std::size_t max_iterations = 600;
  /// kMixed runs the inner sweeps on the fp32 FFT pipeline.
  Precision precision = Precision::kDouble;
};

/// Read-only, shareable CBS table artifact: the contrast-independent
/// state of the backend — the padded-FFT plans and the Richmond-kernel
/// spectrum g0hat (plus their fp32 mirrors under kMixed). The contrast
/// stays in the engine, so any number of concurrent CbsEngines can share
/// one artifact; OperatorTableCache amortises the build across jobs.
struct CbsTables {
  /// Precision selects whether the fp32 pipeline state (plan32/g0hat32)
  /// is built; fp64 engines can use either flavour.
  explicit CbsTables(const Grid& grid, Precision precision = Precision::kDouble);
  ~CbsTables();
  CbsTables(const CbsTables&) = delete;
  CbsTables& operator=(const CbsTables&) = delete;

  Grid grid;
  Precision precision;
  std::size_t pad_n = 0;  // padded side P = bit_ceil(2 nx - 1)
  /// Symbol of the wrapped Richmond kernel, P x P in transform order:
  /// Fft2Plan::forward_dif's output (bit-reversed on both axes) times
  /// 1/P^2, the symbol Fft2Plan::convolve takes. No natural-order copy
  /// is kept.
  cvec g0hat;
  std::unique_ptr<Fft2Plan<double>> plan;
  cvec32 g0hat32;                           // kMixed only, same order
  std::unique_ptr<Fft2Plan<float>> plan32;  // kMixed only
  double build_seconds = 0.0;

  std::size_t bytes() const;
};

/// Diagnostics of the most recent panel solve.
struct CbsSolveInfo {
  bool converged = false;
  /// Block BiCGStab iterations, summed over every run of the solve
  /// (refinement sweeps and fallback under kMixed).
  std::size_t iterations = 0;
  /// Max over columns of the final relative residual (fp64).
  double final_residual = 0.0;
};

class CbsEngine final : public ForwardBackend {
 public:
  /// Convenience constructor: builds a private CbsTables artifact.
  explicit CbsEngine(const Grid& grid, const CbsOptions& opts = {});
  /// Shares a prebuilt artifact (see CbsTables); construction then costs
  /// nothing but the options. kMixed options require an artifact built
  /// with Precision::kMixed.
  explicit CbsEngine(std::shared_ptr<const CbsTables> tables,
                     const CbsOptions& opts = {});
  ~CbsEngine() override;

  BackendKind kind() const override { return BackendKind::kCbs; }
  void set_contrast(ccspan contrast) override;
  ccspan contrast() const override { return contrast_nat_; }

  bool solve_panel(ccspan rhs, cspan phi, std::size_t nrhs,
                   double tol) override;
  bool solve_adjoint_panel(ccspan rhs, cspan psi, std::size_t nrhs,
                           double tol) override;

  /// Exact (aperiodic) Richmond-kernel products G0 x and G0^H x via
  /// padded FFT — match dense_g0_apply / MLFMA to rounding.
  void apply_g0_panel(ccspan x, cspan y, std::size_t nrhs);
  void apply_g0_herm_panel(ccspan x, cspan y, std::size_t nrhs);

  /// y = [I - G0 O] x (forward) or [I - G0 O]^H x (adjoint) over panels,
  /// in fp64: the operator the solves run on, exposed for tests.
  void apply_system_panel(ccspan x, cspan y, std::size_t nrhs,
                          bool adjoint = false);

  const ForwardStats& stats() const override { return stats_; }
  void clear_stats() override { stats_.clear(); }

  const Grid& grid() const { return grid_; }
  const CbsOptions& options() const { return opts_; }
  const CbsSolveInfo& last_info() const { return info_; }
  /// Padded transform side length P = bit_ceil(2 nx - 1).
  std::size_t padded() const { return pad_n_; }

 private:
  /// Padded convolution of every column of x with the kernel spectrum
  /// (conjugated when `adjoint`: the even kernel's spectrum satisfies
  /// FFT(conj k) = conj FFT(k), so that is the Hermitian transpose), in
  /// storage precision T. `system` folds the contrast in: the pack
  /// multiplies by O (forward) and the crop writes y = x - G0 (O x), or
  /// y = x - conj(O) .* (G0^H x) (adjoint); otherwise y = G0 x or G0^H x.
  /// y may alias x.
  template <typename T>
  void convolve(ccspan x, cspan y, std::size_t nrhs, bool adjoint,
                bool system);
  bool solve(ccspan rhs, cspan x, std::size_t nrhs, double tol, bool adjoint);

  // Immutable shared tables (kernel spectrum + FFT plans); the contrast
  // is the only per-engine state of the operator.
  std::shared_ptr<const CbsTables> tables_;
  Grid grid_;
  CbsOptions opts_;
  std::size_t n_ = 0;      // pixels
  std::size_t pad_n_ = 0;  // padded side P (power of two)
  cvec contrast_nat_;      // O, natural order

  ForwardStats stats_;
  CbsSolveInfo info_;
};

}  // namespace ffw
