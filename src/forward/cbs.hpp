// Convergent Born series (CBS) forward backend: solves the volume
// integral equation [I - G0 diag(O)] phi = rhs with FFT-applied
// operators on a zero-padded uniform grid instead of MLFMA+Krylov.
//
// The plain Born series phi_{k+1} = rhs + G0 O phi_k diverges as soon
// as the scattering is non-weak. Osnabrugge et al. (J. Comput. Phys.
// 2016) fix this by shifting the background wavenumber into the complex
// plane, k_eps^2 = k0^2 + i eps, and preconditioning with
// gamma = 1 + i O / eps; the resulting series converges for contrast of
// any magnitude provided eps >= max|O|. We run that scheme as a
// preconditioned Richardson iteration on the *exact discrete* system:
//
//   x_{k+1} = x_k + M r_k,   r_k = rhs - A x_k,   A = I - G0 diag(O),
//   M r = gamma .* F^{-1}[ t/(t - i eps) .* F r ],  t = |xi|^2 - k0^2,
//
// where A uses the pixel-integrated Richmond kernel of the rest of the
// code base (applied as an exact aperiodic convolution via FFT zero
// padding), while the attenuation-shifted factor t/(t - i eps) — the
// symbol of I + i eps G_eps — lives purely inside the preconditioner.
// The fixed point is therefore the same discrete solution MLFMA's
// BiCGStab converges to (enabling 1e-6-level cross-validation), and the
// iteration matrix I - M A equals the classic CBS operator
// gamma G_eps V + 1 - gamma up to the (spectrally small) difference
// between the discrete and continuum G0 — the shift only sets the
// convergence rate, never the answer. A minimal-residual line search
// (Orthomin(1)) on top is the default and is never slower than the
// unit step.
//
// The shift is insurance against strong scattering, not a free lunch:
// its damping of the modes near the Ewald shell |xi| = k0 caps the
// preconditioned rate near 0.4/iteration *regardless of how weak the
// contrast is*, and M costs a second FFT round trip per iteration. At
// weak contrast A is already a small perturbation of the identity, so
// the engine drops the preconditioner there (M = I): plain
// Orthomin-accelerated Born, one round trip per iteration, converging
// in ~6 iterations at max|O|/k0^2 = 0.01 versus ~21 for the shifted
// scheme. The shifted preconditioner switches in above
// CbsOptions::precond_threshold — or mid-solve, automatically, if the
// plain series stalls against the divergence watchdog.
//
// Cost per iteration: one padded-panel FFT round trip (plus a second
// for the preconditioner when it is on), batched over all right-hand
// sides. At strong contrast the rate approaches 1 and MLFMA wins —
// DbimOptions::backend = kAuto arbitrates.
#pragma once

#include <memory>

#include "fft/fft2.hpp"
#include "forward/backend.hpp"
#include "grid/grid.hpp"

namespace ffw {

struct CbsOptions {
  /// Per-column relative residual target ||rhs - A x|| / ||rhs||.
  double tol = 1e-8;
  std::size_t max_iterations = 600;
  /// eps = max(eps_floor * k0^2, eps_factor * max|O|). Convergence needs
  /// eps >= max|O|; a little headroom is cheap insurance against the
  /// discrete/continuum kernel mismatch.
  double eps_factor = 1.1;
  double eps_floor = 0.05;
  /// Orthomin(1) step: alpha_c = <w,r>/<w,w> per column instead of the
  /// unit CBS step. Monotone in the residual; keep on.
  bool minimal_residual = true;
  /// Contrast gate for the shifted-kernel preconditioner: it switches in
  /// when max|O| > precond_threshold * k0^2. Below that the plain
  /// Born-Orthomin iteration (M = I, half the FFT work per step) is
  /// strictly faster; a mid-solve stall still falls back to the
  /// preconditioned mode automatically.
  double precond_threshold = 0.15;
  /// Divergence watchdog: if the geometric-mean residual reduction over
  /// the trailing `rate_window` iterations exceeds this, give up (the
  /// caller falls back to MLFMA).
  double divergence_rate = 0.999;
  std::size_t rate_window = 8;
  /// kMixed runs the FFT pipeline (pad, transform, symbol multiply) in
  /// fp32 while x and r accumulate in fp64, with a true fp64 residual
  /// refresh every `fp64_refresh` iterations and an fp64 verification
  /// before declaring convergence.
  Precision precision = Precision::kDouble;
  std::size_t fp64_refresh = 8;
};

/// Read-only, shareable CBS table artifact: the contrast-independent
/// state of the backend — the padded-FFT plans and the Richmond-kernel
/// spectrum g0hat (plus their fp32 mirrors under kMixed). Everything
/// contrast-dependent (gamma, the shift symbol mhat, scratch) stays in
/// the engine, so any number of concurrent CbsEngines can share one
/// artifact; OperatorTableCache amortises the build across jobs.
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
  cvec g0hat;             // FFT of the wrapped Richmond kernel, P x P
  std::unique_ptr<Fft2Plan<double>> plan;
  cvec32 g0hat32;                           // kMixed only
  std::unique_ptr<Fft2Plan<float>> plan32;  // kMixed only
  double build_seconds = 0.0;

  std::size_t bytes() const;
};

/// Diagnostics of the most recent panel solve.
struct CbsSolveInfo {
  bool converged = false;
  std::size_t iterations = 0;
  /// Max over columns of the final relative residual (fp64).
  double final_residual = 0.0;
  /// Geometric-mean per-iteration residual reduction over the trailing
  /// rate_window iterations (over the whole run when shorter; 0 when the
  /// initial guess already met the tolerance). The kAuto escalation
  /// policy watches this.
  double convergence_rate = 0.0;
  /// Whether the shifted-kernel preconditioner was active by the end of
  /// the solve (contrast above the gate, or the plain series stalled).
  bool preconditioned = false;
};

class CbsEngine final : public ForwardBackend {
 public:
  /// Convenience constructor: builds a private CbsTables artifact.
  explicit CbsEngine(const Grid& grid, const CbsOptions& opts = {});
  /// Shares a prebuilt artifact (see CbsTables); construction then costs
  /// only the contrast-dependent per-engine state. kMixed options
  /// require an artifact built with Precision::kMixed.
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

  /// Exact (aperiodic) Richmond-kernel products via padded FFT — match
  /// dense_g0_apply / MLFMA to rounding.
  void apply_g0_panel(ccspan x, cspan y, std::size_t nrhs) override;
  void apply_g0_herm_panel(ccspan x, cspan y, std::size_t nrhs) override;

  /// y = [I - G0 O] x (forward) or [I - G0 O]^H x (adjoint) over panels
  /// (x and y distinct); the residual operator of the iteration, exposed
  /// for tests.
  void apply_system_panel(ccspan x, cspan y, std::size_t nrhs,
                          bool adjoint = false);

  const ForwardStats& stats() const override { return stats_; }
  void clear_stats() override { stats_.clear(); }

  const Grid& grid() const { return grid_; }
  const CbsOptions& options() const { return opts_; }
  CbsOptions& options() { return opts_; }
  const CbsSolveInfo& last_info() const { return info_; }
  /// Attenuation shift of the current contrast (set_contrast updates it).
  double epsilon() const { return eps_; }
  /// Padded transform side length P = bit_ceil(2 nx - 1).
  std::size_t padded() const { return pad_n_; }

 private:
  struct Fp32Pipeline;  // fp32 shift symbol + scratch (kMixed only)

  /// y_panel = crop(IFFT(symbol .* FFT(pad(premul .* x_panel)))) for all
  /// columns; conjugate applies conj(symbol) (the Hermitian-transposed
  /// kernel — valid because the even kernel's spectrum satisfies
  /// FFT(conj k) = conj FFT(k)). The optional per-pixel premul diagonal
  /// (null = identity) is folded into the zero-padding pack, saving a
  /// separate panel-sized multiply pass.
  void convolve(ccspan x, cspan y, std::size_t nrhs, const cvec& symbol,
                bool conjugate, const cplx* premul = nullptr);
  void convolve32(ccspan x, cspan y, std::size_t nrhs, const cvec32& symbol,
                  bool conjugate, const cplx* premul = nullptr);
  /// Dispatches to the fp32 pipeline under kMixed, fp64 otherwise.
  void convolve_fast(ccspan x, cspan y, std::size_t nrhs, bool green,
                     bool conjugate, const cplx* premul = nullptr);
  /// r = rhs - A x in fp64 (the truth the iteration is judged against).
  void true_residual(ccspan rhs, ccspan x, cspan r, std::size_t nrhs,
                     bool adjoint);
  void build_shift_symbol();
  bool solve_impl(ccspan rhs, cspan x, std::size_t nrhs, double tol,
                  bool adjoint);

  // Immutable shared tables (kernel spectrum + FFT plans); everything
  // below them is per-engine, contrast-dependent state.
  std::shared_ptr<const CbsTables> tables_;
  Grid grid_;
  CbsOptions opts_;
  std::size_t n_ = 0;      // pixels
  std::size_t pad_n_ = 0;  // padded side P (power of two)
  double eps_ = 0.0;
  double omax_ = 0.0;  // max|O| of the current contrast

  cvec contrast_nat_;  // O, natural order
  cvec gamma_;         // 1 + i O / eps
  cvec mhat_;          // t / (t - i eps), P x P (depends on eps)
  cvec pad_;           // padded panel scratch, P*P*nrhs (grown on demand)
  std::unique_ptr<Fp32Pipeline> fp32_;  // null unless kMixed

  ForwardStats stats_;
  CbsSolveInfo info_;
};

}  // namespace ffw
