// Distorted Born iterative method: the paper's core inverse solver
// (Fig. 4, Sec. VI-B).
//
// Minimises Phi(O) = sum_t || phi_t^sca(O) - phi_t^mea ||^2 with
// nonlinear conjugate-gradient steps. Each iteration costs three block
// solves over the transmitters, one per pass, and no bare G0 apply:
//   1. residual pass     — solve (E1) for phi_b,t, evaluate (E2);
//   2. gradient pass     — F_t^H solve (E3/E4), summed over t;
//   3. step-length pass  — F_t d solve (E3/E5) for the quadratic fit
//      alpha* = -Re<grad, d> / sum_t ||F_t d||^2  (paper eq. 5 when
//      d = -grad).
// The iteration that meets DbimOptions::residual_tol runs the residual
// pass only, so a run that stops there at iteration k costs
// T (3k - 2) forward solutions.
//
// The Frechet operator F_t (paper Sec. VI-C) behind passes 2 and 3: at
// background contrast O_b with background field
// phi_b,t = [I - G0 O_b]^{-1} phi_inc,t, the derivative of the
// scattered field at the receivers w.r.t. the contrast is
//
//   F_t v = G_R ( u + O_b .* [I - G0 O_b]^{-1} G0 u ),  u = v .* phi_b,t,
//         = G_R [I - O_b G0]^{-1} u.
//
// (Eq. (6) in the paper drops the G0 factor inside the braces — a typo;
// the form above follows from the variational derivation and is
// validated against finite differences in tests/dbim_frechet_test.cpp.)
// G0 is complex-symmetric (reciprocity, G0^T = G0) and O_b diagonal, so
// [I - O_b G0] = [I - G0 O_b]^T, and with A^{-T} x = conj(A^{-H} conj(x)):
//
//   F_t v   = G_R conj( [I - G0 O_b]^{-H} conj(v .* phi_b,t) ),
//   F_t^H u = conj( phi_b,t .* [I - G0 O_b]^{-1} conj(G_R^H u) ),
//
// i.e. F_t takes one *adjoint* solve and F_t^H one *forward* solve of the
// system the residual pass already solves, with its preconditioner, and
// neither needs a G0 product outside the solve. The passes apply F_t /
// F_t^H for every transmitter t at once, as block solves.
//
// DbimStepper is the only nonlinear-CG loop and DbimWorkspace the only
// pass workspace. A workspace holds a share of the pixels and
// illuminations (DbimShare): all of them on one process, or one rank of
// the illumination x sub-tree grid of the vcluster 2-D-parallel driver
// (dbim/parallel_driver.hpp), where the same passes run on the rank's
// leaf-blocked slice through a rank-local MLFMA backend and allreduce
// (cost, gradient, step denominator) exactly where the paper
// synchronises (Fig. 4, "twice per iteration").
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "forward/cbs.hpp"
#include "forward/forward.hpp"
#include "greens/transceivers.hpp"
#include "io/checkpoint.hpp"
#include "linalg/cmatrix.hpp"

namespace ffw {

class OperatorTableCache;

struct DbimOptions {
  int max_iterations = 50;  // paper Sec. V-B: 50 nonlinear CG steps
  /// Stop early when the relative residual drops below this (0 = never;
  /// the paper regularises by early termination only).
  double residual_tol = 0.0;
  /// Polak-Ribiere conjugate directions (true) or steepest descent.
  bool conjugate_gradient = true;
  /// Warm-start each residual-pass forward solve from the previous DBIM
  /// iteration's background field (true) or from the incident field
  /// every time (false). On by default; the ablation bench quantifies
  /// the saved MLFMA products.
  bool warm_start_fields = true;
  /// Tikhonov regularisation weight: minimises
  /// Phi(O) + tikhonov * ||O||^2. Zero (the paper's setting — it
  /// regularises by early termination only) disables it; positive values
  /// damp noise amplification (cf. the sparsity-regularised DBIM line of
  /// work the paper cites as ref. [22]).
  double tikhonov = 0.0;
  /// Optional per-iteration observer (iteration, relative residual).
  std::function<void(int, double)> progress;
  /// Called after every completed iteration with resumable outer-loop
  /// state (contrast, CG memory, residual history). Wire this to
  /// DbimCheckpoint::save for fault tolerance on long runs.
  std::function<void(const DbimCheckpoint&)> checkpoint;
  /// Resume from a previously saved outer-loop state (overrides any
  /// initial-contrast argument). Borrowed pointer; caller keeps it
  /// alive for the duration of the call.
  const DbimCheckpoint* resume = nullptr;
  /// Precision policy of the MLFMA solves, the one precision setting of
  /// a reconstruction (DESIGN.md Sec. 10). kMixed runs every block solve
  /// — residual, gradient and step-length — as mixed-precision
  /// iterative refinement (forward/refined.hpp): Krylov sweeps on the
  /// fp32 MLFMA tables of the engine's tree (from table_cache when one
  /// is wired, else built for the run), outer residuals on the fp64
  /// engine. The engine a driver is handed always carries fp64 tables.
  /// The FFT backend always runs fp32 sweeps under fp64 refinement.
  /// Multi-rank partitioned windows run kDouble only.
  Precision precision = Precision::kDouble;
  /// Near-field block-Jacobi right preconditioning of every Krylov solve
  /// (forward/precond.hpp). Factor storage follows `precision`.
  bool near_precondition = false;
  /// Eisenstat-Walker adaptive forcing: the inner Krylov tolerance of
  /// DBIM iteration k is clamp(forcing_c * relres_{k-1}, base_tol,
  /// forcing_cap) — loose while the Gauss-Newton residual is large,
  /// tightening as it shrinks, so early iterations stop over-solving.
  /// Deliberately *lagged* (all three passes of iteration k use the
  /// previous iteration's residual): the tolerance is then a pure
  /// function of the checkpointed residual history, so a crash-recovered
  /// run re-derives bit-identical tolerances.
  bool adaptive_forcing = false;
  double forcing_c = 0.1;
  double forcing_cap = 1e-2;
  /// Retired: no effect, read by nothing; deleted with the next change
  /// to the benchmark, which still sets them. Gradient and Frechet
  /// solves start from zero (DESIGN.md Sec. 13).
  int recycle_depth = 0;
  double recycle_ridge = 1e-12;
  /// Forward engine routing (forward/backend.hpp). kMlfma is the
  /// classic MLFMA+BiCGStab path; kCbs runs every solve on the FFT
  /// backend (forward/cbs.hpp); kAuto runs on the FFT backend too, and if
  /// an FFT solve fails to converge it redoes that panel on MLFMA and
  /// stays on MLFMA for the rest of the run.
  BackendKind backend = BackendKind::kMlfma;
  /// FFT-backend Krylov options used by kCbs / kAuto: its iteration cap
  /// (tolerance comes from the forward BicgstabOptions + forcing, like
  /// every other solve).
  BicgstabOptions cbs = kCbsDefaults;
  /// Shared operator-table cache (borrowed; service/table_cache.hpp).
  /// When set, a kCbs / kAuto run obtains its CBS kernel spectrum and
  /// FFT plans, and a kMixed run its fp32 MLFMA tables, from the cache
  /// instead of building privately.
  OperatorTableCache* table_cache = nullptr;
};

struct DbimHistory {
  /// sqrt(Phi)/||phi_mea|| after each iteration (the quantity behind the
  /// paper's "59.3% -> 0.03%" in Fig. 13).
  std::vector<double> relative_residual;
  std::uint64_t forward_solves = 0;
  std::uint64_t operator_applications = 0;
  /// Total BiCGStab iterations spent across every Krylov solve of the
  /// reconstruction — the cost metric the iteration-reduction layer
  /// (preconditioning + forcing) targets.
  std::uint64_t bicgstab_iterations = 0;
  /// Wall time spent building (factoring and inverting) the near-field
  /// block preconditioner, summed over iterations; on the partitioned
  /// path each iteration counts its slowest window rank. Zero when
  /// near_precondition is off.
  double precond_setup_seconds = 0.0;
  /// Backend policy the run was configured with, and whether a kAuto run
  /// fell back from the FFT backend to MLFMA along the way.
  BackendKind backend = BackendKind::kMlfma;
  bool cbs_escalated = false;
};

struct DbimResult {
  cvec contrast;       // reconstructed O (natural order)
  DbimHistory history;
};

/// The share of a reconstruction one DbimWorkspace holds, and the ranks
/// it combines with. The default share is one process holding every
/// pixel (natural order) and every transmitter, with no communicator
/// (rank 0 alone in every group): every window operation of the
/// workspace is then the identity (sums) or a copy (gather / scatter).
/// A rank of the 2-D driver (make_partitioned_workspace) holds its tree
/// rank's leaf-blocked slice for its illumination group's transmitters,
/// inside an illum_groups x tree_ranks window of `comm`.
struct DbimShare {
  Comm* comm = nullptr;
  /// Natural index of every pixel of the tree group in pass order, the
  /// tree ranks' slices in rank order (the tree's cluster permutation);
  /// empty = natural order.
  std::span<const std::uint32_t> order;
  /// This rank's pixels: [first, first + layout.rows()) of `order`.
  std::size_t first = 0;
  /// Pass-vector layout: this rank's pixels x its transmitters
  /// (nrhs == transmitters.size()).
  BlockLayout layout;
  std::vector<int> transmitters;
  /// Global ranks: the tree group (same transmitters, the other pixel
  /// slices), the column group (same pixels, the other illumination
  /// groups) and the whole window, whose first rank leads.
  std::vector<int> tree_group, column_group, window;
};

/// The three blocked passes of one DBIM iteration over a share of the
/// pixels and illuminations (DbimShare), as DbimStepper consumes them.
/// Every pixel vector (contrast, gradient, direction) holds the share's
/// pixels in pass order; scatter / gather convert from and to natural
/// order. Each pass is one block solve over the share's transmitters on
/// the MLFMA backend (or the CBS backend, see set_backend), and returns
/// quantities summed over *all* illuminations and pixels of the
/// reconstruction: on a partitioned rank the passes reduce (cost,
/// gradient, step denominator) over the window exactly where the paper
/// synchronises. Residuals are R x (share's transmitters), column-major.
class DbimWorkspace {
 public:
  /// Every pixel and illumination on this process, on `engine`.
  DbimWorkspace(MlfmaEngine& engine, const Transceivers& trx,
                const CMatrix& measured, const BicgstabOptions& fw_opts);
  /// `share` on `mlfma`, a backend whose pass order is the share's.
  DbimWorkspace(std::unique_ptr<ForwardBackend> mlfma, const Transceivers& trx,
                const CMatrix& measured, const BicgstabOptions& fw_opts,
                DbimShare share = {});
  DbimWorkspace(const DbimWorkspace&) = delete;
  DbimWorkspace& operator=(const DbimWorkspace&) = delete;

  /// Length of the pass-order pixel vectors.
  std::size_t num_pixels() const { return lo_.rows(); }
  /// Length of the residual buffer residual_pass_all fills.
  std::size_t residual_size() const;
  /// Norm^2 of all measurements (for the relative residual).
  double measurement_norm2() const { return meas_norm2_; }
  /// Eisenstat-Walker hook: inner Krylov tolerance of subsequent block
  /// solves. The solver's base tolerance is its floor (0 = the base):
  /// the one place a forward tolerance is floored.
  void set_forcing_tolerance(double tol) { forcing_tol_ = tol; }
  /// Install the current background contrast (pass order).
  /// `keep_fields` retains the previous background fields as warm
  /// starts for the next residual pass.
  void set_background(ccspan contrast, bool keep_fields = true);
  /// Residual pass: fills `residuals`, returns sum_t ||b_t||^2.
  double residual_pass_all(cspan residuals);
  /// Gradient pass: grad_accum += sum_t F_t^H b_t — one block forward
  /// solve on conj(G_R^H b_t).
  void gradient_pass_all(ccspan residuals, cspan grad_accum);
  /// Frechet pass: out = F_t d for every transmitter t of the share at the
  /// background of the latest residual_pass_all — one block adjoint solve
  /// on conj(d .* phi_b,t) and one panel projection.
  void frechet_pass_all(ccspan direction, cspan out);
  /// Step pass: returns sum_t ||F_t d||^2.
  double step_pass_all(ccspan direction);

  /// Reduces the stepper's NLCG scalars (norms, inner products of
  /// pass-order vectors) over the tree group.
  DotReducer reducer();
  /// True on the one rank that reports progress and checkpoints.
  bool leader() const;
  /// Natural-order vector -> pass order.
  void scatter(ccspan natural, cspan local) const;
  /// Natural-order copies of pass-order vectors (*out[i] <- in[i]).
  /// Collective; returns true where the copies were made: on every rank
  /// with `everywhere`, otherwise on the leader only.
  bool gather(std::span<const ccspan> in, std::span<cvec* const> out,
              bool everywhere);
  /// Writes the run's solve totals (forward solves, operator
  /// applications, Krylov iterations, preconditioner set-up) into `h`.
  /// Collective.
  void fill_counts(DbimHistory& h);

  /// The MLFMA backend.
  ForwardBackend& solver() { return *mlfma_; }

  /// Installs the forward-backend routing policy (DbimOptions::backend).
  /// kCbs / kAuto construct the FFT engine on the whole grid — from the
  /// shared `tables` artifact when one is supplied; call before the
  /// first set_background.
  void set_backend(BackendKind policy, const BicgstabOptions& cbs_opts,
                   std::shared_ptr<const CbsTables> tables = nullptr);
  /// Backend the next block solve will run on (kAuto resolves to the
  /// FFT engine until a fallback).
  BackendKind active_backend() const { return active_->kind(); }
  /// True once a kAuto run has fallen back from the FFT backend to MLFMA.
  bool cbs_escalated() const { return escalated_; }

 private:
  /// Block solve on the active backend at the forcing tolerance, with
  /// the kAuto fallback; returns convergence.
  bool block_solve(ccspan rhs, cspan x, bool adjoint);
  /// Natural index of pass-order pixel q of this share.
  std::size_t pixel(std::size_t q) const {
    return pixels_.empty() ? q : pixels_[q];
  }
  /// Incident fields of the share's transmitters as one block vector.
  void load_incident(cspan blk) const;
  /// Global rank of this share (0 on one process).
  int rank() const;
  /// Sums `v` over `group` (the identity on one process).
  void group_sum(cspan v, const std::vector<int>& group);
  void group_sum(rspan v, const std::vector<int>& group);
  /// Receiver projection of every block column: cols = G_R v, summed
  /// over the tree group.
  void project(ccspan v, cspan cols);
  /// Window total of a per-illumination sum that every tree rank of a
  /// group holds in full.
  double illumination_sum(double v);

  const Transceivers* trx_;
  const CMatrix* measured_;
  double base_tol_;
  DbimShare share_;
  BlockLayout lo_;                         // pass-vector layout
  std::span<const std::uint32_t> pixels_;  // this share's natural indices
  // Backend routing: `active_` answers the block solves of the blocked
  // passes. Defaults to the MLFMA backend; set_backend may point it at
  // cbs_, and a kAuto fallback points it back at MLFMA for the rest of
  // the run.
  std::unique_ptr<ForwardBackend> mlfma_;
  std::unique_ptr<CbsEngine> cbs_;
  ForwardBackend* active_ = nullptr;
  BackendKind policy_ = BackendKind::kMlfma;
  bool escalated_ = false;
  double meas_norm2_ = 0.0;
  // Background total fields of the share's transmitters as one block
  // vector: the residual pass's warm start across DBIM iterations, the
  // only warm start in the solver (gradient and Frechet solves start
  // from zero).
  cvec phi_b_;
  double forcing_tol_ = 0.0;
};

/// Resumable single-iteration DBIM driver — the one nonlinear-CG outer
/// loop of every reconstruction path (forcing, Tikhonov, Polak-Ribiere,
/// step length, progress and checkpoint hooks), exposed one iteration at
/// a time so a scheduler can interleave many reconstructions over one
/// rank pool (service/service.hpp) with per-step accounting and
/// cancellation between steps. dbim_reconstruct is
/// `while (stepper.step()) {}` over a whole-problem DbimWorkspace; the
/// 2-D parallel driver runs the same loop on every rank over the rank's
/// share.
class DbimStepper {
 public:
  /// Serial stepper over a DbimWorkspace configured from `opts`.
  DbimStepper(MlfmaEngine& engine, const Transceivers& trx,
              const CMatrix& measured, const DbimOptions& opts = {},
              const BicgstabOptions& fw_opts = {},
              ccspan initial_contrast = {});
  /// Stepper over a workspace already configured for `opts`.
  /// `initial_contrast` and `opts.resume` are in natural order.
  DbimStepper(std::unique_ptr<DbimWorkspace> ws, const DbimOptions& opts,
              ccspan initial_contrast = {});
  /// Releases the destroying thread's block scratch (linalg/scratch.hpp).
  ~DbimStepper();
  DbimStepper(const DbimStepper&) = delete;
  DbimStepper& operator=(const DbimStepper&) = delete;

  /// Runs one DBIM iteration (three blocked passes + CG update +
  /// checkpoint hook). Returns true while further steps remain; false
  /// once the run has finished (iteration budget exhausted, residual
  /// tolerance met, or the CG update degenerated).
  bool step();

  bool done() const { return done_; }
  /// Next iteration index step() would run (== completed count).
  int iteration() const { return iter_; }
  /// Latest relative residual (NaN before the first step).
  double last_residual() const;
  /// History so far (result() fills in the solve counts).
  const DbimHistory& history() const { return out_.history; }

  /// Finalises the history totals and hands out the result (contrast in
  /// natural order, on every rank of a partitioned window); call
  /// once, after stepping is finished (or abandoned mid-run — the
  /// result then reflects the last completed iteration).
  DbimResult result();

 private:
  DbimOptions opts_;
  std::unique_ptr<DbimWorkspace> ws_;
  DotReducer red_;
  DbimResult out_;
  std::size_t n_;
  cvec grad_, grad_prev_, direction_, residuals_;
  double grad_prev_norm2_ = 0.0;
  int iter_ = 0;
  bool done_ = false;
};

/// Serial DBIM driver (all illuminations on this process).
DbimResult dbim_reconstruct(MlfmaEngine& engine, const Transceivers& trx,
                            const CMatrix& measured,
                            const DbimOptions& opts = {},
                            const BicgstabOptions& fw_opts = {},
                            ccspan initial_contrast = {});

}  // namespace ffw
