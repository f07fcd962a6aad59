// FFT forward backend: solves the volume integral equation
// [I - G0 diag(O)] phi = rhs with the Richmond-kernel product applied as
// an exact aperiodic convolution (zero padding to P = bit_ceil(2 nx - 1)
// and one padded FFT round trip), through the same Krylov routine that
// solves the MLFMA system (forward_solve, forward/backend.hpp; paper
// Sec. VI-A).
// Both backends therefore discretise and solve the identical system, and
// their answers agree to ~1e-6 (tests/cbs_test.cpp).
//
// The operator runs one column per thread through Fft2Plan::convolve,
// in five passes over a padded panel: each row is packed (times O in
// the forward operator) and row-transformed while in L1; the column sweeps run
// with the kernel-symbol product inside their innermost butterflies;
// each needed row is inverse-transformed and cropped straight into the
// output. The transforms never leave transform order (bit-reversed
// spectra, no permutation, no 1/P^2 sweep, the zero half pruned), and
// the scratch is one P x Fft2Plan::pitch() panel per thread. Every
// solve hands forward_solve both pipelines, so it runs mixed-precision
// iterative refinement (forward/refined.hpp): the Krylov sweeps apply
// an fp32 pipeline (pack, transform and
// kernel-symbol multiply in fp32, the identity and the contrast diagonal
// in fp64), while residuals, convergence and the stall fallback use the
// fp64 operator. The backend has no precision option (DESIGN.md
// Sec. 14).
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

/// The FFT backend's Krylov options (DbimOptions::cbs): the relative
/// residual target of a solve that passes tol = 0, and the iteration cap
/// of every Krylov run of one solve (each fp32 sweep up to its own cap
/// of 200, and the fp64 fallback).
inline constexpr BicgstabOptions kCbsDefaults{1e-8, 600};

/// Read-only, shareable CBS table artifact: the contrast-independent
/// state of the backend — the padded-FFT plans and the Richmond-kernel
/// spectrum g0hat, with their fp32 mirrors. The contrast stays in the
/// engine, so any number of concurrent CbsEngines can share one
/// artifact; OperatorTableCache amortises the build across jobs.
struct CbsTables {
  explicit CbsTables(const Grid& grid);
  ~CbsTables();
  CbsTables(const CbsTables&) = delete;
  CbsTables& operator=(const CbsTables&) = delete;

  Grid grid;
  std::size_t pad_n = 0;  // padded side P = bit_ceil(2 nx - 1)
  /// Symbol of the wrapped Richmond kernel, P x P in transform order:
  /// Fft2Plan::forward_dif's output (bit-reversed on both axes) times
  /// 1/P^2, the symbol Fft2Plan::convolve takes. No natural-order copy
  /// is kept.
  cvec g0hat;
  std::unique_ptr<Fft2Plan<double>> plan;
  cvec32 g0hat32;  // fp32 mirror, same order
  std::unique_ptr<Fft2Plan<float>> plan32;
  double build_seconds = 0.0;

  std::size_t bytes() const;
};

class CbsEngine final : public ForwardBackend {
 public:
  /// Convenience constructor: builds a private CbsTables artifact.
  explicit CbsEngine(const Grid& grid,
                     const BicgstabOptions& opts = kCbsDefaults);
  /// Shares a prebuilt artifact (see CbsTables); construction then costs
  /// nothing but the options.
  explicit CbsEngine(std::shared_ptr<const CbsTables> tables,
                     const BicgstabOptions& opts = kCbsDefaults);
  ~CbsEngine() override;

  BackendKind kind() const override { return BackendKind::kCbs; }
  void set_contrast(ccspan contrast) override;
  ccspan contrast() const override { return contrast_nat_; }

  /// Every solve runs fp32 sweeps under fp64 refinement.
  bool solve(ccspan rhs, cspan x, std::size_t nrhs, double tol,
             bool adjoint) override;

  /// y = [I - G0 O] x (forward) or [I - G0 O]^H x (adjoint) over panels,
  /// in fp64, with the Richmond-kernel product an exact (aperiodic)
  /// padded-FFT convolution: the operator the solves judge convergence
  /// on, exposed for tests.
  void apply_system(ccspan x, cspan y, std::size_t nrhs, bool adjoint = false);

  const ForwardStats& stats() const override { return stats_; }
  void clear_stats() override { stats_.clear(); }

  const Grid& grid() const { return grid_; }
  /// Padded transform side length P = bit_ceil(2 nx - 1).
  std::size_t padded() const { return pad_n_; }

 private:
  /// y = x - G0 (O x), or y = x - conj(O) .* (G0^H x) when `adjoint`,
  /// for every column of x: the pack multiplies by O (forward), the
  /// padded convolution with the kernel spectrum (conjugated for the
  /// adjoint: the even kernel's spectrum satisfies FFT(conj k) =
  /// conj FFT(k), so that is the Hermitian transpose) runs in storage
  /// precision T, and the crop subtracts. y may alias x.
  template <typename T>
  void convolve(ccspan x, cspan y, std::size_t nrhs, bool adjoint);

  // Immutable shared tables (kernel spectrum + FFT plans); the contrast
  // is the only per-engine state of the operator.
  std::shared_ptr<const CbsTables> tables_;
  Grid grid_;
  BicgstabOptions opts_;
  std::size_t n_ = 0;      // pixels
  std::size_t pad_n_ = 0;  // padded side P (power of two)
  cvec contrast_nat_;      // O, natural order

  ForwardStats stats_;
};

}  // namespace ffw
